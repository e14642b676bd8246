"""Record a baseline: every workload over several seeds, raw samples kept.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 101-110 --out perfbench/BENCH_baseline.json

Runs run.py once per workload and seed (untraced, run_seconds from
BENCHMARK.json), then once traced per workload on the first seed, and
prints each run's metrics as it goes.  It writes one JSON file: each run's
full record (machine facts, metrics and every per-operation sample) plus,
per workload and end-to-end metric, the median and quartiles over the
seeds.  Later changes quote before/after numbers against these.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    """Seeds from "lo-hi", both included."""
    lo, hi = (int(x) for x in text.split("-"))
    return list(range(lo, hi + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int, scratch: Path) -> dict:
    out = scratch / f"{workload}-{seed}-{trace}.json"
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    print(proc.stdout, end="", flush=True)
    return json.loads(out.read_text(encoding="utf-8"))


def summary(records: list[dict]) -> dict:
    out = {}
    for name in records[0]["metrics"]:
        values = [r["metrics"][name][0] for r in records]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "iqr_over_median": (q3 - q1) / statistics.median(values),
                     "unit": records[0]["metrics"][name][1]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="101-110", help="lo-hi, both included")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    seeds = seed_list(args.seeds)
    result = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_tmp") as scratch:
        for name in names:
            runs = [run_once(name, s, bench["run_seconds"], 0, Path(scratch)) for s in seeds]
            traced = run_once(name, seeds[0], bench["run_seconds"], 1, Path(scratch))
            result["workloads"][name] = {"summary": summary(runs), "runs": runs, "traced": traced}
    Path(args.out).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
