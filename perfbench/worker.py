"""One benchmark process: import egeo, warm up, then run a closed loop.

Started by run.py with src/ on PYTHONPATH and the run directory as working
directory:

    python3 worker.py WORKLOAD PAYLOAD MODE SECONDS RESULT

PAYLOAD is the directory of per-cycle pickles of the operations' inputs
that run.py wrote; one cycle is loaded at a time, off the clock, so the
worker's peak memory holds the program's data and not the whole run's
inputs.  MODE is "setup" (import, load, one warm-up operation, then exit),
"loop" (then the timed closed loop) or "trace" (every operation untraced
and traced, see paired_loop).  As soon as the warm-up operation has
returned, a JSON line {"load_s": ...} is printed so the parent can time
set-up; loading the inputs is excluded.  RESULT receives per-operation
samples and result summaries.  Summaries are built after each operation's
clock stops; checking them is left to the parent.
"""

from __future__ import annotations

import contextlib
import io
import json
import pickle
import resource
import subprocess
import sys
import time
from pathlib import Path

import egeo

import calibration

MIN_SAMPLES = 100  # so that the p90 has ten samples beyond it

SCAN_ENTRIES = (
    "separability.separability_report",
    "separability.finest_product_partition",
    "separability.is_gme",
)
NUMEROLOGY = tuple(
    "rank_geometry." + f
    for f in (
        "determinantal_dim",
        "determinantal_degree",
        "segre_degree",
        "schur_dim",
        "hilbert_function",
        "hilbert_poly_fit",
        "secant_expected_dim",
        "variety_invariants",
    )
)
CRITERIA = tuple(
    "spectral_satake." + f
    for f in ("elem_sym", "quartic_f", "is_22_product", "is_222_product", "margin_22", "margin_222")
)
MODULES = (
    "tensor_core",
    "separability",
    "rank_geometry",
    "gluing_sim",
    "cech_brauer",
    "modular",
    "splitting_p1",
    "spectral_satake",
    "repro",
    "cli",
)
SCAN_SIZES = (8, 9, 10, 11, 12)


class Runner:
    """Executes one workload's operations; `summarize` runs off the clock."""

    def __init__(self, workload: str, in_process_cli: bool):
        self.workload = workload
        self.in_process_cli = in_process_cli

    def run(self, op):
        w = self.workload
        if w == "cut-scan":
            return egeo.separability_report(op["state"])
        if w == "rank-profile":
            return egeo.flattening_lower_bound(op["state"])
        if w == "repro-battery":
            return egeo.repro.run_battery(op["battery_seed"], names=[op["check"]])
        if self.in_process_cli:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = egeo.cli.run(op["argv"])
                except SystemExit as exc:  # argparse exits on a usage error, as the process would
                    code = exc.code
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "egeo.cli", *op["argv"]],
            capture_output=True,
            text=True,
            check=False,
        )
        return proc.returncode, proc.stdout

    def summarize(self, raw) -> dict:
        w = self.workload
        if w == "cut-scan":
            return {
                "finest": [list(b) for b in raw.finest.blocks],
                "cuts": [list(c.block_a) for c in raw.product_bipartitions],
                "gme": raw.gme,
            }
        if w == "rank-profile":
            return {"bound": int(raw)}
        if w == "repro-battery":
            (res,) = raw
            return {"name": res.name, "passed": res.passed, "elapsed": res.elapsed, "detail": res.detail}
        code, stdout = raw
        try:
            report = json.loads(stdout, parse_constant=reject_constant)
        except ValueError:  # not JSON, or NaN/Infinity, which JSON does not have
            report = None
        return {"code": code, "report": report}


def reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def prepare(workload: str, ops: list) -> list:
    if workload in ("cut-scan", "rank-profile"):
        for op in ops:
            op["state"] = egeo.make_state(op["dims"], op["coeffs"])
    return ops


class Payload:
    """The run's inputs, one pickle per cycle, loaded a cycle at a time."""

    def __init__(self, workload: str, directory: str):
        self.workload = workload
        self.files = sorted(Path(directory).glob("*.pkl"))

    def cycle(self, c: int) -> list:
        with open(self.files[c % len(self.files)], "rb") as fh:
            return prepare(self.workload, pickle.load(fh))


def timed(runner: Runner, op) -> tuple[float, dict]:
    """One operation: its duration, then (off the clock) its result summary."""
    t0 = time.perf_counter()
    try:
        raw = runner.run(op)
    except Exception as exc:  # an operation that raises is a failed operation
        return time.perf_counter() - t0, {"error": f"{type(exc).__name__}: {exc}"}
    dt = time.perf_counter() - t0
    return dt, runner.summarize(raw)


def closed_loop(runner: Runner, payload: Payload, seconds: float) -> dict:
    """Issue operations back to back for `seconds`, then to the end of a cycle
    and at least MIN_SAMPLES operations.

    The operations run in groups: a cycle, or two requests for cli-oneshot,
    whose operations are each an interpreter start.  The workload's
    reference work (see calibration.reference) is timed before the first
    group and after every group, so each group lies between two timings
    ("cal_ms" has one more entry than there are groups).  "cal_ops" is each
    group's size and "wall_s" its wall time.  Loading a cycle's inputs and
    the reference work are off the clock.
    """
    measure_speed, _ = calibration.reference(runner.workload)
    loop = {"samples": [], "summaries": [], "cal_ms": [measure_speed()], "cal_ops": [], "wall_s": []}
    c = 0
    while len(loop["samples"]) < MIN_SAMPLES or sum(loop["wall_s"]) < seconds:
        ops = payload.cycle(c)
        size = 2 if runner.workload == "cli-oneshot" else len(ops)
        for first in range(0, len(ops), size):
            group = ops[first : first + size]
            t0 = time.perf_counter()
            for op in group:
                dt, summary = timed(runner, op)
                loop["samples"].append(dt)
                loop["summaries"].append(summary)
            loop["wall_s"].append(time.perf_counter() - t0)
            loop["cal_ops"].append(len(group))
            loop["cal_ms"].append(measure_speed())
        del ops, group
        c += 1
    return loop


def paired_loop(runner: Runner, payload: Payload, seconds: float, tracer) -> tuple[dict, dict]:
    """Run every operation twice, untraced and traced, back to back.

    Machine speed drifts; pairing each operation with itself gives both
    sides nearly the same drift, so sample i of one side pairs with sample
    i of the other.  Which side goes first alternates from one operation to
    the next and from one cycle to the next.
    """
    plain = {"samples": [], "summaries": [], "cal_ms": []}
    traced = {"samples": [], "summaries": [], "cal_ms": []}
    start = time.perf_counter()
    c = 0
    while len(plain["samples"]) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        ops = payload.cycle(c)
        cal = calibration.kernel_ms()
        for i, op in enumerate(ops):
            for with_trace in (False, True) if (c + i) % 2 == 0 else (True, False):
                if with_trace:
                    tracer.install()
                try:
                    dt, summary = timed(runner, op)
                finally:
                    if with_trace:
                        tracer.uninstall()
                side = traced if with_trace else plain
                side["samples"].append(dt)
                side["summaries"].append(summary)
        for side in (plain, traced):
            side["cal_ms"].append(cal)
        del ops
        c += 1
    return plain, traced


def scan_size(qualname: str, args) -> int | None:
    """A scan's bucket: n for an all-qubit state, so each n is one problem
    size; scans of states with qutrits are in no bucket."""
    dims = getattr(args[0], "dims", None) if args else None
    return len(dims) if dims and set(dims) == {2} else None


def count_rank_one(tracer, rank) -> None:
    if tracer.active("scan"):
        tracer.count("scan", "cuts")
        if rank == 1:
            tracer.count("scan", "rank1")


def make_tracer():
    from tracer import Tracer  # imported here so that set-up does not pay for it

    return Tracer(
        regions={"scan": SCAN_ENTRIES, "cli_run": ("cli.run",)},
        size_of=scan_size,
        observers={"tensor_core.numerical_rank": count_rank_one},
    )


def layer_metrics(tracer, n_ops: int) -> dict:
    """Per-operation counts (count) and self times (ms) from one traced loop."""
    per_op = 1.0 / n_ops
    ms = 1e3 * per_op
    scan = tracer.regions["scan"]
    cuts = scan.counters.get("cuts", 0)
    out = {
        "tensor_core.numerical_rank.calls": tracer.calls("tensor_core.numerical_rank") * per_op,
        "tensor_core.numerical_rank.self_ms": tracer.self_s("tensor_core.numerical_rank") * ms,
        "tensor_core.flatten.calls": tracer.calls("tensor_core.flatten") * per_op,
        "tensor_core.flatten.self_ms": tracer.self_s("tensor_core.flatten") * ms,
        "tensor_core.minor_rank.self_ms": tracer.self_s("tensor_core.minor_rank") * ms,
        "separability.scan.calls": scan.calls * per_op,
        "separability.scan.self_ms": scan.self_s * ms,
        "separability.cuts_per_scan": cuts / scan.calls if scan.calls else 0.0,
        "separability.product_cut_ratio": scan.counters.get("rank1", 0) / cuts if cuts else 0.0,
        "rank_geometry.flattening_lower_bound.self_ms": tracer.self_s("rank_geometry.flattening_lower_bound") * ms,
        "rank_geometry.numerology.self_ms": tracer.self_s(*NUMEROLOGY) * ms,
        "gluing_sim.is_local_operator.calls": tracer.calls("gluing_sim.is_local_operator") * per_op,
        "gluing_sim.is_local_operator.self_ms": tracer.self_s("gluing_sim.is_local_operator") * ms,
        "cech_brauer.class_order.self_ms": tracer.self_s("cech_brauer.class_order") * ms,
        "cech_brauer.pgl_cocycle_defect.self_ms": tracer.self_s("cech_brauer.pgl_cocycle_defect") * ms,
        "cech_brauer.coboundary_witness.calls": tracer.calls("cech_brauer.coboundary_witness") * per_op,
        "modular.smith_normal_form.calls": tracer.calls("modular.smith_normal_form") * per_op,
        "modular.smith_normal_form.self_ms": tracer.self_s("modular.smith_normal_form") * ms,
        "splitting_p1.factor_sumset.self_ms": tracer.self_s("splitting_p1.factor_sumset") * ms,
        "spectral_satake.d_product_oracle.self_ms": tracer.self_s("spectral_satake.d_product_oracle") * ms,
        "spectral_satake.criteria.self_ms": tracer.self_s(*CRITERIA) * ms,
        "repro.brute_force_finest.self_ms": tracer.self_s("repro.brute_force_finest") * ms,
        "repro.pi_product_by_reconstruction.calls": tracer.calls("repro.pi_product_by_reconstruction") * per_op,
        "cli.run.self_ms": tracer.regions["cli_run"].self_s * ms,
    }
    for n in SCAN_SIZES:
        durations = scan.durations.get(n, [])
        out[f"separability.scan_ms.n{n:02d}"] = 1e3 * sum(durations) / len(durations) if durations else 0.0
    totals = tracer.module_totals()
    for module in MODULES:
        total = totals.get(module)
        out[f"{module}.calls"] = total.calls * per_op if total else 0.0
        out[f"{module}.self_ms"] = total.self_s * ms if total else 0.0
    return out


def peak_rss_mb(children: bool) -> float:
    """Peak resident memory in MB of this process, or of its largest child.

    A process's own ru_maxrss carries over the peak of the process that
    spawned it (Linux keeps it across exec), here the parent holding every
    generated input, so this process's peak is read from VmHWM, which starts
    afresh at exec.  A child's ru_maxrss likewise cannot read below this
    process's peak when the child was spawned.
    """
    if children:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    workload, payload_dir, mode, seconds, result_path = argv[0], argv[1], argv[2], float(argv[3]), argv[4]
    if workload == "repro-battery":
        import egeo.repro  # noqa: F401  (set-up includes the modules the workload uses)
    elif workload == "cli-oneshot":
        import egeo.cli  # noqa: F401
    t0 = time.perf_counter()
    payload = Payload(workload, payload_dir)
    first = payload.cycle(0)[0]
    load_s = time.perf_counter() - t0
    runner = Runner(workload, in_process_cli=(mode == "trace"))
    warm = Runner(workload, in_process_cli=True)
    warm.summarize(warm.run(first))
    print(json.dumps({"load_s": load_s}), flush=True)
    del first
    if mode == "setup":
        return 0
    result = {}
    if mode == "trace":
        tracer = make_tracer()
        result["loop"], result["traced"] = paired_loop(runner, payload, seconds, tracer)
        result["layers"] = layer_metrics(tracer, len(result["traced"]["samples"]))
    else:
        result["loop"] = closed_loop(runner, payload, seconds)
    result["peak_rss_mb"] = peak_rss_mb(children=(workload == "cli-oneshot" and mode == "loop"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
