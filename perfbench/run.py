"""egeo benchmark: one seeded closed-loop workload, checked and measured.

Run from the repository root:

    python3 perfbench/run.py --workload cut-scan --seed 1 --seconds 15 --trace 0

The benchmark puts the checked-out src/ on PYTHONPATH itself (egeo need not
be installed), generates the workload's inputs from --seed, times set-up
(a fresh interpreter importing egeo plus one warm-up operation, median of
several) and then a closed loop: one client issues the next operation when
the previous one returns, for --seconds and then on to the end of a cycle
and at least 100 operations, so the p90 has ten samples beyond it.  Every
result is checked against a value known from how its input was built.
Times are scaled to a reference machine speed measured by calibration.py
next to the work; the unscaled values are printed as "# unscaled" lines.

With --trace 0 the end-to-end metrics are printed; with --trace 1 each
cycle of operations runs untraced and again with every public egeo
function wrapped, and the per-layer metrics are printed.  The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--out FILE also writes the machine facts and every raw per-operation
sample.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibration
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 9  # set-up samples per run; setup_s is the median of their scaled times
IMPORT_RUNS = 3
WORKER_TIMEOUT_S = 150
PAYLOAD_DIR = "payload"  # one pickle of operation inputs per cycle
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def machine_facts(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
        "cpu_pinning": "not available: machine settings are off limits",
        "frequency_control": "not available: machine settings are off limits",
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def start_worker(workload: str, mode: str, seconds: float, tmp: Path, env: dict, result: Path):
    """Start a worker; return it and its set-up time (excluding loading the inputs)."""
    argv = [sys.executable, str(HERE / "worker.py"), workload, PAYLOAD_DIR, mode, str(seconds), str(result)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=tmp, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        load_s = json.loads(line)["load_s"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        stop(proc)
        raise BenchError(f"worker did not start ({mode}): {exc}") from exc
    return proc, ready - t0 - load_s


def setup_times(args, tmp: Path, env: dict) -> list[tuple[float, float]]:
    """SETUP_RUNS set-up times, each with the mean of the reference
    interpreters timed right before and right after it (in ms)."""
    refs, times = [calibration.startup_ms(env)], []
    for _ in range(SETUP_RUNS):
        proc, setup_s = start_worker(args.workload, "setup", args.seconds, tmp, env, tmp / "unused.json")
        finish(proc)
        times.append(setup_s)
        refs.append(calibration.startup_ms(env))
    return [(t, (before + after) / 2) for t, before, after in zip(times, refs, refs[1:])]


def finish(proc: subprocess.Popen) -> None:
    try:
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        stop(proc)
        raise BenchError("worker timed out") from exc
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def import_times(env: dict) -> dict:
    """Median numpy (cumulative) and egeo (self, all egeo modules) import ms."""
    numpy_ms, egeo_ms = [], []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import egeo"],
            env=env, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise BenchError("import egeo failed")
        numpy_us, egeo_us = 0, 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)", line)
            if not m:
                continue
            self_us, cumulative_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
            if name == "numpy":
                numpy_us = cumulative_us
            elif name == "egeo" or name.startswith("egeo."):
                egeo_us += self_us
        numpy_ms.append(numpy_us / 1e3)
        egeo_ms.append(egeo_us / 1e3)
    return {"import.numpy_ms": statistics.median(numpy_ms), "import.egeo_ms": statistics.median(egeo_ms)}


def check_all(workload: str, ops: list, summaries: list) -> list[int]:
    """Indices of operations whose result does not match the expected value."""
    return [i for i, got in enumerate(summaries) if not workloads.check(workload, ops[i % len(ops)], got)]


def end_to_end(workload: str, loop: dict, setups: list, rss_mb: float, scaled: bool = True) -> dict:
    """The end-to-end metrics, scaled to the reference machine speed (see
    calibration.py) unless scaled is False.  setups: (seconds, reference
    interpreter ms)."""
    _, ref = calibration.reference(workload)
    # each group of operations is scaled by the mean of the timings around it
    cal = loop["cal_ms"]
    scales = [2 * ref / (before + after) if scaled else 1.0 for before, after in zip(cal, cal[1:])]
    per_sample = [k for k, n in zip(scales, loop["cal_ops"]) for _ in range(n)]
    samples = [s * k for s, k in zip(loop["samples"], per_sample)]
    elapsed = sum(wall * k for wall, k in zip(loop["wall_s"], scales))
    start = calibration.REFERENCE_START_MS
    return {
        "setup_s": (statistics.median(raw * (start / ref_ms if scaled else 1.0) for raw, ref_ms in setups), "s"),
        "op_ms.p50": (1e3 * statistics.median(samples), "ms"),
        "op_ms.p90": (1e3 * statistics.quantiles(samples, n=10)[8], "ms"),
        "ops_per_s": (len(samples) / elapsed, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def overhead(untraced: list, traced: list) -> dict:
    """Tracing's cost from paired runs of the same operations: the median of
    the per-operation traced/untraced ratios, minus 1, with the quartiles of
    those ratios and a distribution-free 95% confidence interval of the median
    (order statistics n/2 -+ 0.98 sqrt(n)), all minus 1."""
    ratios = sorted(t / u for u, t in zip(untraced, traced))
    n = len(ratios)
    half = 0.98 * math.sqrt(n)
    low, high = ratios[max(0, math.floor(n / 2 - half))], ratios[min(n - 1, math.ceil(n / 2 + half))]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return {"frac": statistics.median(ratios) - 1.0, "q1": q1 - 1.0, "q3": q3 - 1.0,
            "ci95": [low - 1.0, high - 1.0], "pairs": n}


def per_layer(result: dict, env: dict) -> dict:
    """Per-layer metrics; times scaled by the run's median calibration, except
    repro.check.<name>.ms, which mirror the checks' own wall-clock gates."""
    layers = dict(result["layers"])
    checks = {name: [] for name in workloads.REPRO_CHECKS}
    for got in result["loop"]["summaries"]:
        if "elapsed" in got:
            checks[got["name"]].append(got["elapsed"])
    for name, elapsed in checks.items():
        layers[f"repro.check.{name}.ms"] = 1e3 * statistics.median(elapsed) if elapsed else 0.0
    layers.update(import_times(env))
    layers["trace.overhead_frac"] = overhead(result["loop"]["samples"], result["traced"]["samples"])["frac"]
    scale = calibration.REFERENCE_MS / statistics.median(result["loop"]["cal_ms"])
    units = {name: layer_unit(name) for name in layers}
    gated = {f"repro.check.{name}.ms" for name in checks}
    return {
        name: (value * scale if units[name] == "ms" and name not in gated else value, units[name])
        for name, value in layers.items()
    }


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms") or ".scan_ms." in name:
        return "ms"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    return "count"


def run(args) -> dict:
    if not (SRC / "egeo" / "__init__.py").is_file():
        raise BenchError(f"no egeo sources under {SRC.name}/ next to {HERE.name}/")
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, tmp: Path) -> dict:
    env = child_env()
    ops = workloads.generate(args.workload, args.seed, tmp)
    inputs = [{k: v for k, v in op.items() if k != "expect"} for op in ops]
    cycle = workloads.cycle_length(args.workload)
    (tmp / PAYLOAD_DIR).mkdir()
    for c in range(len(inputs) // cycle):
        with open(tmp / PAYLOAD_DIR / f"{c:03d}.pkl", "wb") as fh:
            pickle.dump(inputs[c * cycle : (c + 1) * cycle], fh)
    if args.workload == "cli-oneshot":
        saved = subprocess.run(
            [sys.executable, "-m", "egeo.cli", "cech", "--p", "2", "--save-cover", workloads.COVER_FILE],
            cwd=tmp, env=env, capture_output=True, check=False,
        )
        if not (tmp / workloads.COVER_FILE).is_file():
            raise BenchError(f"could not save the p=2 cover (exit {saved.returncode})")

    setups = setup_times(args, tmp, env)
    result_path = tmp / "result.json"
    proc, _ = start_worker(args.workload, "trace" if args.trace else "loop", args.seconds, tmp, env, result_path)
    finish(proc)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    loops = [result["loop"]] + ([result["traced"]] if args.trace else [])
    failures = [check_all(args.workload, ops, loop["summaries"]) for loop in loops]
    attempted = sum(len(loop["samples"]) for loop in loops)
    failed = sum(len(f) for f in failures)
    loop = result["loop"]
    if args.trace:
        metrics, raw = per_layer(result, env), {}
    else:
        metrics = end_to_end(args.workload, loop, setups, result["peak_rss_mb"])
        raw = end_to_end(args.workload, loop, setups, result["peak_rss_mb"], scaled=False)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(args.seed),
        "attempted": attempted,
        "failed": failed,
        "failures": [
            {"index": i, "kind": ops[i % len(ops)]["kind"], "got": loops[n]["summaries"][i]}
            for n, fl in enumerate(failures) for i in fl[:20]
        ],
        "metrics": metrics,
        "unscaled_metrics": raw,
        "setup_samples_s": [raw_s for raw_s, _ in setups],
        "calibration": {
            "loop_ms": loop["cal_ms"],
            "loop_reference_ms": calibration.REFERENCE_MS if args.trace else calibration.reference(args.workload)[1],
            "setups_ms": [ref_ms for _, ref_ms in setups],
            "setups_reference_ms": calibration.REFERENCE_START_MS,
        },
        "trace_overhead": overhead(*(lp["samples"] for lp in loops)) if args.trace else None,
        "samples_ms": [[1e3 * s for s in lp["samples"]] for lp in loops],
        "kinds": [ops[i % len(ops)]["kind"] for i in range(len(loop["samples"]))],
    }


def report(record: dict) -> None:
    machine = record["machine"]
    print(f"# machine: {json.dumps(machine, sort_keys=True)}")
    print(f"# workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  "
          f"trace {record['trace']}  closed loop, 1 client")
    samples = record["samples_ms"][0]
    print(f"# op_ms samples: {len(samples)}  (p90 has {len(samples) - int(0.9 * len(samples))} beyond it)")
    cal = record["calibration"]
    print(f"# reference work: median {statistics.median(cal['loop_ms']):.3f} ms in the loop "
          f"(reference {cal['loop_reference_ms']} ms), {statistics.median(cal['setups_ms']):.3f} ms "
          f"per set-up (reference {cal['setups_reference_ms']} ms); times below are scaled to the references")
    cost = record["trace_overhead"]
    if cost:
        print(f"# trace.overhead_frac {cost['frac']:.4f}: median over {cost['pairs']} paired operations; "
              f"95% CI of the median [{cost['ci95'][0]:.4f}, {cost['ci95'][1]:.4f}], "
              f"quartiles {cost['q1']:.4f} .. {cost['q3']:.4f}")
    for name, (value, unit) in record["unscaled_metrics"].items():
        print(f"# unscaled {name:39s} {value:14.6f} {unit}")
    for name, (value, unit) in record["metrics"].items():
        print(f"{name:48s} {value:14.6f} {unit}")
    fail_frac = record["failed"] / record["attempted"]
    print(f"{'fail_frac':48s} {fail_frac:14.6f} ratio  ({record['failed']} of {record['attempted']})")
    for failure in record["failures"]:
        print(f"# FAILED op {failure['index']} ({failure['kind']}): {json.dumps(failure['got'])[:300]}", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in record["metrics"].items()},
    }))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full record, with raw samples, to this JSON file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
