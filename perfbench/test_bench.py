"""Self-tests of the benchmark: its correctness gate and its tracer.

Run from the repository root:  python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import pickle
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import egeo  # noqa: E402
import egeo.cli  # noqa: E402
import egeo.repro  # noqa: E402
import calibration  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


# ------------------------------------------------------------ correctness gate


def _summaries(ops, runner):
    return [runner.summarize(runner.run(op)) for op in ops]


def test_generation_is_seeded(tmp_path):
    a = workloads.generate("cut-scan", 3, tmp_path)
    b = workloads.generate("cut-scan", 3, tmp_path)
    c = workloads.generate("cut-scan", 4, tmp_path)
    assert all(np.array_equal(x["coeffs"], y["coeffs"]) for x, y in zip(a, b))
    assert not np.array_equal(a[1]["coeffs"], c[1]["coeffs"])
    assert [x["kind"] for x in a] == [x["kind"] for x in c]


def test_product_cuts_of_planted_blocks():
    assert workloads.product_cuts(4, [[0, 2], [1], [3]]) == [[0, 1, 2], [0, 2], [0, 2, 3]]
    assert workloads.product_cuts(3, [[0, 1, 2]]) == []


@pytest.mark.parametrize("workload", ["cut-scan", "rank-profile"])
def test_expected_values_hold_for_the_seed_commit(workload, tmp_path):
    ops = workloads.generate(workload, 7, tmp_path)[:8]  # the n <= 9 part of one cycle
    runner = worker.Runner(workload, in_process_cli=True)
    got = _summaries(worker.prepare(workload, [dict(op) for op in ops]), runner)
    assert run.check_all(workload, ops, got) == []


def test_merged_planted_block_counts_as_failure(tmp_path):
    ops = workloads.generate("cut-scan", 7, tmp_path)
    i = next(k for k, op in enumerate(ops) if op["kind"] == "planted")
    good = dict(ops[i]["expect"])
    first, second, *rest = good["finest"]
    bad = dict(good, finest=[sorted(first + second)] + rest)
    summaries = [dict(good), bad, dict(good)]
    picked = [ops[i]] * 3
    failures = run.check_all("cut-scan", picked, summaries)
    assert failures == [1]
    assert len(failures) / len(summaries) == pytest.approx(1 / 3)


def test_wrong_exit_code_counts_as_failure(tmp_path):
    ops = workloads.generate("cli-oneshot", 7, tmp_path)
    cech = next(op for op in ops if op["kind"] == "cech-2")
    report = {"outputs": {"class_order": 4, "reducible": False}}
    assert workloads.check("cli-oneshot", cech, {"code": 1, "report": report})
    assert not workloads.check("cli-oneshot", cech, {"code": 0, "report": report})
    assert not workloads.check("cli-oneshot", cech, {"code": 1, "report": None})  # stdout not JSON
    assert not workloads.check("cli-oneshot", cech, {"error": "ValueError: boom"})


def test_cli_expected_values_hold_for_the_seed_commit(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert egeo.cli.run(["cech", "--p", "2", "--save-cover", workloads.COVER_FILE]) == 1
    ops = workloads.generate("cli-oneshot", 5, tmp_path)[: len(workloads.CLI_KINDS)]
    runner = worker.Runner("cli-oneshot", in_process_cli=True)
    assert run.check_all("cli-oneshot", ops, _summaries(ops, runner)) == []


def test_repro_failed_check_counts_as_failure():
    op = {"kind": "bell-battery", "check": "bell-battery", "expect": {"passed": True}}
    assert workloads.check("repro-battery", op, {"name": "bell-battery", "passed": True})
    assert not workloads.check("repro-battery", op, {"name": "bell-battery", "passed": False})


# ------------------------------------------------------------ tracer


def _bindings():
    """Every (holder, key, function) binding of a public egeo function."""
    mods = tracer_mod.egeo_modules()
    originals = {fn for mod in mods for fn in tracer_mod.public_functions(mod).values()}
    found = []
    for mod in mods:
        for name, value in vars(mod).items():
            if callable(value) and not isinstance(value, type) and value in originals:
                found.append((mod.__name__, name, value))
    for i, (name, fn) in enumerate(egeo.repro.CHECKS):
        found.append(("egeo.repro.CHECKS", i, fn))
    return found


def test_scan_buckets_hold_only_qubit_states():
    qubits = egeo.make_state((2,) * 8, np.ones(256))
    mixed = egeo.make_state(workloads.mixed(8, 1), np.ones(384))
    assert worker.scan_size("separability.separability_report", (qubits,)) == 8
    assert worker.scan_size("separability.separability_report", (mixed,)) is None
    sizes = {len(dims) for dims, _, _ in workloads.CUT_SCAN_CYCLE if set(dims) == {2}}
    assert set(worker.SCAN_SIZES) <= sizes  # every scan_ms.nXX bucket is filled


def test_payload_is_loaded_one_cycle_at_a_time(tmp_path):
    for c in range(3):
        (tmp_path / f"{c:03d}.pkl").write_bytes(pickle.dumps([{"argv": [str(c)]}]))
    payload = worker.Payload("cli-oneshot", str(tmp_path))
    assert [payload.cycle(c)[0]["argv"] for c in range(4)] == [["0"], ["1"], ["2"], ["0"]]


def test_tracer_rebinds_every_binding_and_restores_it():
    before = _bindings()
    assert any(holder == "egeo" and name == "flatten" for holder, name, _ in before)
    assert any(holder == "egeo.cli" and name == "separability_report" for holder, name, _ in before)
    t = worker.make_tracer()
    with t:
        mods = {m.__name__: m for m in tracer_mod.egeo_modules()}
        for holder, key, original in before:
            current = egeo.repro.CHECKS[key][1] if holder == "egeo.repro.CHECKS" else vars(mods[holder])[key]
            assert current is t.wrapped[original], (holder, key)
            assert getattr(current, "__wrapped_by_tracer__", False)
    after = _bindings()
    assert [(h, k, id(f)) for h, k, f in after] == [(h, k, id(f)) for h, k, f in before]


def _write_fake_package(root: Path) -> None:
    pkg = root / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import outer, recurse\n")
    (pkg / "a.py").write_text(
        "import time\n"
        "from .b import inner\n"
        "def outer():\n"
        "    time.sleep(0.02)\n"
        "    inner()\n"
        "def recurse(n):\n"
        "    time.sleep(0.01)\n"
        "    if n:\n"
        "        recurse(n - 1)\n"
    )
    (pkg / "b.py").write_text("import time\ndef inner():\n    time.sleep(0.03)\n")


def test_self_time_on_nested_and_recursive_calls(tmp_path, monkeypatch):
    _write_fake_package(tmp_path)
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg

    t = tracer_mod.Tracer()
    t.install("fakepkg")
    try:
        start = time.perf_counter()
        fakepkg.outer()
        outer_wall = time.perf_counter() - start
        start = time.perf_counter()
        fakepkg.recurse(3)
        recurse_wall = time.perf_counter() - start
    finally:
        t.uninstall()
    # sleeps only give lower bounds; the self times must add up to the wall time
    assert t.calls("a.outer") == 1 and t.calls("b.inner") == 1
    assert t.self_s("b.inner") >= 0.03 and t.self_s("a.outer") >= 0.02
    assert t.self_s("a.outer") + t.self_s("b.inner") == pytest.approx(outer_wall, abs=0.002)
    assert t.calls("a.recurse") == 4
    assert t.self_s("a.recurse") >= 0.04
    assert t.self_s("a.recurse") == pytest.approx(recurse_wall, abs=0.002)
    for name in list(sys.modules):
        if name.startswith("fakepkg"):
            del sys.modules[name]


def test_self_time_of_recursive_d_product_oracle():
    pairs = [(a, 1 / a) for a in (1.3 + 0.2j, 0.7 - 0.4j, 1.1 + 0.9j)]
    spectrum = egeo.tensor_spectrum(egeo.LocalSpectra(tuple(pairs)))
    t = worker.make_tracer()
    with t:
        start = time.perf_counter()
        found = [egeo.d_product_oracle(spectrum, (2, 2, 2)) for _ in range(20)]
        wall = time.perf_counter() - start
    assert all(f is not None for f in found)
    assert t.calls("spectral_satake.d_product_oracle") >= 3 * 20  # (2,2,2) -> (2,2) -> (2,)
    selfs = [s.self_s for s in t.stats.values()]
    assert min(selfs) >= 0.0
    assert sum(selfs) == pytest.approx(wall, rel=0.05)


def test_traced_cli_stdout_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = workloads.generate("cli-oneshot", 9, tmp_path)[: len(workloads.CLI_KINDS)]
    assert egeo.cli.run(["cech", "--p", "2", "--save-cover", workloads.COVER_FILE]) == 1
    runner = worker.Runner("cli-oneshot", in_process_cli=True)
    plain = [runner.run(op) for op in ops]
    with worker.make_tracer() as t:
        traced = [runner.run(op) for op in ops]
    assert traced == plain
    assert t.regions["cli_run"].calls == len(ops)


# ------------------------------------------------------------ metric names


def test_metric_names_match_benchmark_json():
    t = worker.make_tracer()
    layer_names = set(worker.layer_metrics(t, 1))
    layer_names |= {f"repro.check.{name}.ms" for name in workloads.REPRO_CHECKS}
    layer_names |= {"import.numpy_ms", "import.egeo_ms", "trace.overhead_frac"}
    assert layer_names == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert run.layer_unit(m["name"]) == m["unit"]
    loop = {"samples": [0.001 * i for i in range(1, 101)], "cal_ms": [3.0] * 6, "cal_ops": [20] * 5, "wall_s": [0.1] * 5}
    e2e = run.end_to_end("cut-scan", loop, [(0.2, 150.0)], 50.0)
    assert {name: unit for name, (_, unit) in e2e.items()} == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", ["cut-scan", "cli-oneshot"])
def test_times_are_scaled_by_their_own_reference_timing(workload):
    _, ref = calibration.reference(workload)
    n = 10
    # the reference took ref before and after the first group, and 3 ref after the second
    loop = {"samples": [0.01] * n + [0.02] * n, "cal_ms": [ref, ref, 3 * ref], "cal_ops": [n, n],
            "wall_s": [0.1, 0.2]}
    start = calibration.REFERENCE_START_MS
    scaled = run.end_to_end(workload, loop, [(0.3, start / 2)], 1.0)
    raw = run.end_to_end(workload, loop, [(0.3, start / 2)], 1.0, scaled=False)
    assert scaled["op_ms.p90"][0] == pytest.approx(10.0)  # the second group ran at half speed
    assert raw["op_ms.p50"][0] == pytest.approx(15.0)
    assert scaled["ops_per_s"][0] == pytest.approx(2 * n / 0.2)
    assert scaled["setup_s"][0] == pytest.approx(0.6)  # the reference interpreter ran at double speed
    assert raw["setup_s"][0] == pytest.approx(0.3)


def test_trace_overhead_is_the_median_paired_ratio():
    untraced = [1.0] * 101
    traced = [1.05] * 50 + [1.06] + [2.0] * 10 + [0.5] * 40  # outliers on both sides
    cost = run.overhead(untraced, traced)
    assert cost["frac"] == pytest.approx(0.05) and cost["pairs"] == 101
    assert cost["ci95"][0] <= cost["frac"] <= cost["ci95"][1]
