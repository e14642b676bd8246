import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import egeo
from egeo import ShapeMismatch
from egeo.cli import _square_split, run
from egeo.tensor_core import SMALLEST_NORMAL

BELL = {"dims": [2, 2], "coeffs": [[2**-0.5, 0], [0, 0], [0, 0], [2**-0.5, 0]]}
W = {"dims": [2, 2, 2], "coeffs": [[0, 0], [1, 0], [1, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0]]}


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(BELL))
    return str(path)


@pytest.fixture
def w_file(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(W))
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report


def test_schmidt_bell(capsys, bell_file):
    code, report = invoke(capsys, "schmidt", "--state", bell_file, "--cut", "0")
    assert code == 0
    assert report["command"] == "schmidt"
    assert report["outputs"]["rank"] == 2
    assert np.allclose(report["outputs"]["sigmas"], [2**-0.5] * 2)
    assert report["tolerances"]["rank_tol"] == 1e-9
    assert "version" in report


def test_schmidt_report_is_reproducible(capsys, bell_file):
    run(["schmidt", "--state", bell_file, "--cut", "0"])
    first = capsys.readouterr().out
    run(["schmidt", "--state", bell_file, "--cut", "0"])
    second = capsys.readouterr().out
    assert first == second


def test_separability_reports_partition_schema(capsys, tmp_path):
    rng = np.random.default_rng(0)
    a1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    coeffs = np.kron(np.kron(a1, a2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    path = tmp_path / "bp.json"
    path.write_text(json.dumps({"dims": [2, 2, 2, 2], "coeffs": [[c.real, c.imag] for c in coeffs]}))
    code, report = invoke(capsys, "separability", "--state", str(path))
    assert code == 0
    assert report["outputs"]["finest"] == {"n": 4, "blocks": [[0], [1], [2, 3]]}
    assert report["outputs"]["gme"] is False


def test_separability_of_one_subsystem_is_the_trivial_report(capsys, tmp_path):
    path = tmp_path / "qutrit.json"
    path.write_text(json.dumps({"dims": [3], "coeffs": [1, [0, 2], 3]}))
    code, report = invoke(capsys, "separability", "--state", str(path))
    assert code == 0
    assert report["outputs"] == {"finest": {"n": 1, "blocks": [[0]]}, "product_bipartitions": [], "gme": False}


def test_rank222(capsys, w_file):
    code, report = invoke(capsys, "rank222", "--state", w_file)
    assert code == 0
    assert report["outputs"]["rank"] == 3
    assert report["outputs"]["flattening_lower_bound"] == 2


def test_invariants_table(capsys):
    code, report = invoke(capsys, "invariants", "--da", "2", "--db", "2", "--tmax", "3")
    assert code == 0
    rows = {row["r"]: row for row in report["outputs"]["table"]}
    assert rows[1]["dim"] == 2 and rows[1]["codim"] == 1 and rows[1]["degree"] == 2
    assert rows[1]["hilbert"] == [1, 4, 9, 16]
    assert rows[2]["hilbert"] == [1, 4, 10, 20]


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-160, 1e200, 1e300])
def test_schmidt_of_a_rescaled_ghz_state(capsys, tmp_path, scale):
    path = tmp_path / "ghz.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "coeffs": [scale] + [0] * 6 + [scale]}))
    code, report = invoke(capsys, "schmidt", "--state", str(path), "--cut", "0")
    assert code == 0
    assert np.allclose(report["outputs"]["sigmas"], [2**-0.5] * 2, rtol=0, atol=1e-12)


def test_holonomy_nonlocal_exit(capsys):
    code, report = invoke(capsys, "holonomy", "--p", "2", "--loop", "v")
    assert code == 1
    out = report["outputs"]
    assert out["local_operation"] is False
    assert out["schmidt_rank_before"] == 1 and out["schmidt_rank_after"] == 2


def test_holonomy_trivial_loop_is_local(capsys):
    code, report = invoke(capsys, "holonomy", "--p", "2", "--loop", "uU")
    assert code == 0
    assert report["outputs"]["local_operation"] is True


def test_spinchain_bell(capsys):
    code, report = invoke(capsys, "spinchain", "--theta-u", "0", "--j", "1", "--delta", "2")
    assert code == 0
    out = report["outputs"]
    assert np.allclose(out["spectrum"], [-1, 1, 2, 2], atol=1e-10)
    assert out["schmidt_rank_before"] == 1 and out["schmidt_rank_after"] == 2
    glued = np.array([complex(re, im) for re, im in out["glued_state"]])
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert abs(abs(np.vdot(bell, glued)) - 1.0) < 1e-10


def test_cech_symbol_cover(capsys, tmp_path):
    saved = tmp_path / "cover.json"
    code, report = invoke(capsys, "cech", "--p", "2", "--save-cover", str(saved))
    assert code == 1  # not reducible is the negative verdict
    out = report["outputs"]
    assert out["m"] == 4 and out["class_order"] == 4
    assert out["is_2cocycle"] is True
    assert out["reducible"] is False and out["torsion_bound"] == 2
    data = json.loads(saved.read_text())
    assert data["charts"] == 9 and data["n"] == 4 and data["m"] == 4
    assert {"i", "j", "lift"} <= set(data["pairs"][0])
    # reload through the documented cover format and get identical outputs
    code2, report2 = invoke(capsys, "cech", "--cover", str(saved), "--da", "2", "--db", "2")
    assert code2 == 1
    assert report2["outputs"] == out


def test_cech_without_p_or_cover_reports_the_p_2_symbol_cover(capsys):
    assert invoke(capsys, "cech") == invoke(capsys, "cech", "--p", "2")
    assert invoke(capsys, "cech")[1]["inputs"] == {"p": 2, "da": None, "db": None}


def test_cech_with_only_db_reduces_along_its_cofactor(capsys):
    code, report = invoke(capsys, "cech", "--p", "4", "--db", "2")
    expected = egeo.check_reduction(egeo.symbol_cover(4), 8, 2)
    assert report["outputs"]["torsion_bound"] == expected.torsion == 8
    assert report["outputs"]["pair_locality"] == {f"{i},{j}": v for (i, j), v in sorted(expected.pair_verdicts.items())}
    assert code == (0 if expected.reducible else 1)


def test_cech_default_split_is_the_largest_divisor_up_to_the_square_root():
    for n in range(4, 65):
        old_a = int(round(n**0.5))  # the default before: accepted only when it divides n
        if n % old_a == 0:
            assert _square_split(n) == (old_a, n // old_a)
        divisors = [d for d in range(2, n) if n % d == 0 and d * d <= n]
        if divisors:
            assert _square_split(n) == (divisors[-1], n // divisors[-1])
        else:
            with pytest.raises(ShapeMismatch, match=f"dimension {n} has no split into two factors >= 2; give --da or --db"):
                _square_split(n)


def identity_cover(tmp_path, n):
    path = tmp_path / f"cover{n}.json"
    lift = np.eye(n).tolist()
    path.write_text(json.dumps({"n": n, "pairs": [{"i": 0, "j": 1, "lift": lift}], "triples": [], "quads": []}))
    return str(path)


def test_cech_without_da_or_db_splits_an_8_dimensional_cover_as_2x4(capsys, tmp_path):
    code, report = invoke(capsys, "cech", "--cover", identity_cover(tmp_path, 8))
    assert code == 0
    assert report["outputs"]["torsion_bound"] == egeo.torsion_bound((2, 4))
    assert report["inputs"] == {"cover": identity_cover(tmp_path, 8), "da": None, "db": None}


def test_cech_without_da_or_db_on_a_prime_dimension_is_an_input_error(capsys, tmp_path):
    code = run(["cech", "--cover", identity_cover(tmp_path, 5)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    error = json.loads(captured.err)["error"]
    assert error == "the cover dimension 5 has no split into two factors >= 2; give --da or --db"


def test_cech_reports_on_a_cover_whose_lift_inverts_to_overflow(capsys, tmp_path):
    # np.linalg.inv of inv(a) * 1e-308 overflows, yet the pair is inverse up to scalar, so the cover is accepted
    a = np.kron([[1.0, 2.0], [3.0, 4.0]], [[2.0, 1.0], [1.0, 1.0]])
    pairs = [{"i": 0, "j": 1, "lift": a.tolist()}, {"i": 1, "j": 0, "lift": (np.linalg.inv(a) * 1e-308).tolist()}]
    path = tmp_path / "cover.json"
    path.write_text(json.dumps({"n": 4, "pairs": pairs}))
    code, report = invoke(capsys, "cech", "--cover", str(path))
    assert code in (0, 1)
    assert report["outputs"]["pair_locality"] == {"0,1": True} and report["outputs"]["reducible"]


def test_rank222_of_a_subnormal_ghz_state_is_2_with_nothing_on_stderr(tmp_path):
    path = tmp_path / "ghz.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "coeffs": [1e-320] + [0] * 6 + [1e-320]}))
    env = {**os.environ, "PYTHONPATH": str(Path(egeo.__file__).parents[1])}
    argv = [sys.executable, "-m", "egeo.cli", "rank222", "--state", str(path)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["outputs"] == {"rank": 2, "flattening_lower_bound": 2}


def run_cli(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(egeo.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "egeo.cli", *argv], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("scale", [1e-310, 1e-320, 5e-324])
def test_schmidt_of_a_subnormal_ghz_state_with_nothing_on_stderr(tmp_path, scale):
    path = tmp_path / "ghz.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "coeffs": [scale] + [0] * 6 + [scale]}))
    done = run_cli("schmidt", "--state", str(path), "--cut", "0")
    assert (done.returncode, done.stderr) == (0, "")
    out = json.loads(done.stdout)["outputs"]
    assert np.allclose(out["sigmas"], [2**-0.5] * 2, rtol=0, atol=1e-12)
    assert abs(out["input_norm"] - scale * 2**0.5) <= 5e-324  # within one subnormal step


def test_schmidt_of_a_state_whose_norm_overflows_names_the_norm(tmp_path):
    path = tmp_path / "ghz.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "coeffs": [1.7e308] + [0] * 6 + [1.7e308]}))
    done = run_cli("schmidt", "--state", str(path), "--cut", "0")
    assert (done.returncode, done.stdout) == (2, "")
    assert json.loads(done.stderr)["error"].startswith("the norm of the state overflows a float")


def block_residual(out, j):
    """max |(H0/J) g + g| over the hopping block H0 of the printed Hamiltonian and the printed ground state's g."""
    h0 = np.array([[complex(re, im) for re, im in row[:2]] for row in out["hamiltonian"][:2]])
    gs = np.array([complex(re, im) for re, im in out["ground_state"]])
    return np.abs((h0.real / j + 1j * (h0.imag / j)) @ gs[:2] + gs[:2]).max()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("j", ["1e-159", "1e-165", repr(10**-169.25), "1e-300"])
def test_spinchain_beside_a_huge_penalty_solves_its_hopping_block_exactly(capsys, j):
    # A 4x4 eigensolve scales the hopping block down by delta: the ground state missed its block
    # equation by 9e-12, 9e-6 and 0.23 at the first three J, and the block flushed to zero at the last.
    code = run(["spinchain", f"--j={j}", "--delta=1e300", "--theta-u=1.3"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    out = json.loads(captured.out)["outputs"]
    assert block_residual(out, float(j)) <= 1e-15
    assert out["ground_state"][2:] == [[0.0, 0.0], [0.0, 0.0]]
    assert np.allclose(out["spectrum"], [-float(j), float(j), 1e300, 1e300], rtol=1e-15, atol=0)


@pytest.mark.parametrize("j, delta", [("1e-200", "1e200"), ("1", "1e300"), ("1e-300", "1e-10")])
def test_spinchain_at_extreme_scales_gives_the_ground_state_at_energy_minus_j(j, delta):
    done = run_cli("spinchain", "--j", j, "--delta", delta, "--theta-u", "1.3")
    assert (done.returncode, done.stderr) == (0, "")
    out = json.loads(done.stdout)["outputs"]
    assert block_residual(out, float(j)) <= 1e-15
    assert out["ground_state"][2:] == [[0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("theta_u", [1e-3, 1.0, 3.0])
@pytest.mark.parametrize("j", [SMALLEST_NORMAL, 2 * SMALLEST_NORMAL])
def test_spinchain_hopping_entries_at_the_least_j_keep_their_phase(capsys, j, theta_u):
    # At J = 2.2e-308 and theta_u = 1e-3 the imaginary parts are subnormal (about 5.6e-312): J u^(1/4) and
    # J / u^(1/4) must still be -J e^(+-i theta_u/4) to within two subnormal spacings (2 * 5e-324).
    code = run(["spinchain", f"--j={j!r}", "--delta=1", f"--theta-u={theta_u!r}"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    hamiltonian = json.loads(captured.out)["outputs"]["hamiltonian"]
    cos, sin = j * math.cos(theta_u / 4), j * math.sin(theta_u / 4)
    expected = {(0, 1): (-cos, -sin), (1, 0): (-cos, sin)}
    for (row, col), parts in expected.items():
        assert np.abs(np.subtract(hamiltonian[row][col], parts)).max() <= 2 * 5e-324, (row, col, parts)


def test_block_residual_sees_a_state_that_is_not_the_ground_state():
    # Squares of entries near J = 1e-200 underflow, so a residual norm formed from them reads 0 for any state.
    out = {"hamiltonian": [[[0, 0], [-1e-200, 0]], [[-1e-200, 0], [0, 0]]], "ground_state": [[1, 0], [0, 0]]}
    assert block_residual(out, 1e-200) == 1.0
    out["ground_state"] = [[2**-0.5, 0], [2**-0.5, 0]]
    assert block_residual(out, 1e-200) <= 1e-16


def test_a_reader_that_closes_stdout_early_gets_exit_141_and_no_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody reads: writing the report fails with EPIPE
    env = {**os.environ, "PYTHONPATH": str(Path(egeo.__file__).parents[1])}
    argv = [sys.executable, "-m", "egeo.cli", "repro", "--only", "bell-battery"]
    try:
        done = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr


def test_schmidt_of_a_16_qubit_state_at_cut_0_stays_small(tmp_path):
    # A thin SVD of the 2 x 32768 flattening; a full one also forms a 32768 x 32768 unitary, 16 GiB of it alone.
    # Measured: 56 MB peak RSS for the child (2-core x86-64 VM, numpy 2.4, OpenBLAS); the ceiling is 3x that.
    rng = np.random.default_rng(16)
    coeffs = rng.standard_normal((2**16, 2))
    path = tmp_path / "dense16.json"
    path.write_text(json.dumps({"dims": [2] * 16, "coeffs": coeffs.tolist()}))
    env = {**os.environ, "PYTHONPATH": str(Path(egeo.__file__).parents[1])}
    argv = [sys.executable, "-m", "egeo.cli", "schmidt", "--state", str(path), "--cut", "0"]
    with open(tmp_path / "out.json", "w") as out:
        child = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env)
        _, status, usage = os.wait4(child.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert usage.ru_maxrss < 170 * 1024  # kilobytes on Linux
    assert json.loads((tmp_path / "out.json").read_text())["outputs"]["rank"] == 2


@pytest.mark.parametrize("exponent", range(-300, 301, 25))
def test_input_norm_keeps_its_value_at_normal_scales(capsys, tmp_path, exponent):
    # The norm as computed before subnormal and overflowing norms were handled.
    rng = np.random.default_rng(exponent + 300)
    coeffs = (rng.standard_normal(8) + 1j * rng.standard_normal(8)) * 10.0**exponent
    with np.errstate(over="ignore"):
        plain = float(np.linalg.norm(coeffs))
    top = float(np.abs(coeffs).max())
    expected = plain if 1e-150 <= plain <= 1e150 else top * float(np.linalg.norm(coeffs / top))
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dims": [2, 2, 2], "coeffs": [[z.real, z.imag] for z in coeffs]}))
    code, report = invoke(capsys, "schmidt", "--state", str(path), "--cut", "0,2")
    assert code == 0 and report["outputs"]["input_norm"] == expected


def test_split_exit_codes(capsys):
    code, report = invoke(capsys, "split", "--degrees", "0,1,2,3", "--shape", "2x2")
    assert code == 0
    assert report["outputs"] == {"reducible": True, "b": [0, 1], "c": [0, 2], "t": 0}
    code, report = invoke(capsys, "split", "--degrees", "0,0,1,3", "--shape", "2x2")
    assert code == 1
    assert report["outputs"]["verdict"] == "irreducible"


def test_satake_verdicts(capsys):
    code, report = invoke(capsys, "satake", "--eigs", "2,0;0.5,0;3,0;0.3333333333333333,0", "--d", "2,2")
    assert code == 0
    assert report["outputs"]["verdict"] is True
    assert report["outputs"]["oracle_agrees"] is True
    assert report["outputs"]["witness"] is not None
    code, report = invoke(capsys, "satake", "--eigs", "2,0;2,0;2,0;0.125,0", "--d", "2,2")
    assert code == 1
    assert report["outputs"]["verdict"] is False


def test_repro_subset(capsys):
    code = run(["repro", "--only", "bell-battery,splitting-equivalence"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 0
    assert report["outputs"]["all_passed"] is True
    assert [c["name"] for c in report["outputs"]["checks"]] == ["bell-battery", "splitting-equivalence"]
    assert "PASS" in captured.err


def test_missing_file_is_usage_error(capsys):
    code, report = invoke(capsys, "schmidt", "--state", "/nonexistent.json", "--cut", "0")
    assert code == 2
    assert report is None  # errors go to stderr


def test_bad_state_payload_is_usage_error(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dims": [2, 2], "coeffs": [[0, 0]] * 4}))
    code, _ = invoke(capsys, "schmidt", "--state", str(path), "--cut", "0")
    assert code == 2


@pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["Infinity", "NaN"])
def test_non_finite_coefficient_is_usage_error(capsys, tmp_path, value):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dims": [2, 2], "coeffs": [[value, 0], [0, 0], [0, 0], [1, 0]]}))
    code = run(["separability", "--state", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["command"] == "separability"


def test_malformed_shape_is_usage_error(capsys):
    for shape in ("2x2x2", "2xq"):
        code = run(["split", "--degrees", "0,1,2,3", "--shape", shape])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        error = json.loads(captured.err)["error"]
        assert "--shape" in error and "AxB" in error and repr(shape) in error


def test_repro_unknown_check_is_usage_error(capsys):
    code, _ = invoke(capsys, "repro", "--only", "no-such-check")
    assert code == 2


LIFT = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
MALFORMED_FILES = {
    "state-dims-not-array": ("separability", {"dims": 2, "coeffs": [1, 0]}),
    "state-root-array": ("separability", [[2, 2], [1, 0, 0, 0]]),
    "state-no-coeffs": ("separability", {"dims": [2, 2]}),
    "state-dim-string": ("schmidt", {"dims": ["2", 2], "coeffs": [1, 0, 0, 0]}),
    "state-dim-null": ("separability", {"dims": [None, 2], "coeffs": [1, 0, 0, 0]}),
    "state-dim-boolean": ("separability", {"dims": [True, 2], "coeffs": [1, 0]}),
    "state-coeffs-not-array": ("rank222", {"dims": [2, 2, 2], "coeffs": 8}),
    "state-coeff-null-part": ("separability", {"dims": [2, 2], "coeffs": [[None, 0], 0, 0, 1]}),
    "state-coeff-nested": ("separability", {"dims": [2, 2], "coeffs": [[[1], 0], 0, 0, 1]}),
    "state-coeff-Infinity": ("separability", {"dims": [2, 2], "coeffs": [float("inf"), 0, 0, 1]}),
    "state-coeff-NaN": ("schmidt", {"dims": [2, 2], "coeffs": [[0, float("nan")], 0, 0, 1]}),
    "state-coeff-huge-integer": ("separability", {"dims": [2, 2], "coeffs": [10**400, 0, 0, 1]}),
    "state-not-json": ("separability", '{"dims": [2'),
    "state-dims-product-past-int64": ("separability", {"dims": [4611686018427387905, 4], "coeffs": [1, 0, 0, 1]}),
    "cover-root-array": ("cech", [{"i": 0, "j": 1, "lift": LIFT}]),
    "cover-pairs-not-array": ("cech", {"n": 4, "pairs": 3}),
    "cover-pair-not-object": ("cech", {"n": 4, "pairs": [[0, 1, LIFT]]}),
    "cover-n-string": ("cech", {"n": "4", "pairs": [{"i": 0, "j": 1, "lift": LIFT}]}),
    "cover-n-zero": ("cech", {"n": 0, "pairs": []}),
    "cover-index-null": ("cech", {"n": 4, "pairs": [{"i": None, "j": 1, "lift": LIFT}]}),
    "cover-triple-not-array": ("cech", {"n": 4, "pairs": [{"i": 0, "j": 1, "lift": LIFT}], "triples": [3]}),
    "cover-m-zero": ("cech", {"n": 4, "m": 0, "pairs": [{"i": 0, "j": 1, "lift": LIFT}]}),
    "cover-negative-index": ("cech", {"n": 4, "pairs": [{"i": -1, "j": 1, "lift": LIFT}]}),
    "cover-index-beyond-charts": ("cech", {"n": 4, "charts": 1, "pairs": [{"i": 0, "j": 1, "lift": LIFT}]}),
    "cover-lift-NaN": ("cech", {"n": 4, "pairs": [{"i": 0, "j": 1, "lift": [[float("nan")] * 4] + LIFT[1:]}]}),
    "cover-lift-Infinity": ("cech", {"n": 4, "pairs": [{"i": 0, "j": 1, "lift": [[float("inf")] * 4] + LIFT[1:]}]}),
    "cover-pair-listed-twice": ("cech", {"n": 4, "pairs": [{"i": 0, "j": 1, "lift": LIFT}, {"i": 0, "j": 1, "lift": LIFT}]}),
    "cover-self-pair": ("cech", {"n": 4, "pairs": [{"i": 0, "j": 0, "lift": LIFT}]}),
    "cover-lift-singular": ("cech", {"n": 4, "pairs": [{"i": 0, "j": 1, "lift": [[0] * 4] * 4}], "triples": [], "quads": []}),
    "cover-lift-ragged-row": ("cech", {"n": 2, "pairs": [{"i": 0, "j": 1, "lift": [[1, 0], [0]]}]}),
}
MALFORMED_ARGV = {
    "invariants-negative-tmax": ["invariants", "--da", "2", "--db", "2", "--tmax", "-1"],
    "invariants-zero-rank": ["invariants", "--da", "2", "--db", "2", "--r", "0"],
    "invariants-negative-dim": ["invariants", "--da", "-2", "--db", "2"],
    "satake-NaN-eigenvalue": ["satake", "--eigs=nan,0;1,0;1,0;1,0", "--d", "2,2"],
    "satake-Infinity-eigenvalue": ["satake", "--eigs=1,0;inf,0;1,0;1,0", "--d", "2,2,2"],
    "satake-overflowing-product": ["satake", "--eigs=1e300,0;1e300,0;1e300,0;1e300,0", "--d", "2,2"],
    "satake-negative-tol": ["satake", "--eigs=2,0;0.5,0;3,0;0.5,0", "--d", "2,2", "--tol", "-1"],
    "cech-NaN-tol": ["cech", "--p", "2", "--tol", "nan"],
    "cech-zero-da": ["cech", "--p", "2", "--da", "0"],
    "split-negative-shape": ["split", "--degrees", "0,1,2,3", "--shape=-1x-4"],
    "split-zero-shape": ["split", "--degrees=", "--shape=0x5"],
    "satake-three-number-eigenvalue": ["satake", "--eigs=1,2,3;1,0;1,0;1,0", "--d", "2,2"],
    "repro-empty-only": ["repro", "--only", ""],
    "schmidt-cut-not-integer": ["schmidt", "--state", "BELL_FILE", "--cut", "0,x"],
    "split-degree-not-integer": ["split", "--degrees", "0,1,q,3", "--shape", "2x2"],
    "satake-type-not-integer": ["satake", "--eigs=1,0;1,0;1,0;1,0", "--d", "2,z"],
    "satake-complex-literal-eigenvalue": ["satake", "--eigs=1j,0;1,0;1,0;1,0", "--d", "2,2"],
    "satake-empty-eigs": ["satake", "--eigs", "", "--d", "2,2"],
    "satake-semicolon-only-eigs": ["satake", "--eigs", ";", "--d", "2,2"],
    "invariants-tmax-past-cap": ["invariants", "--da", "2", "--db", "2", "--tmax", "21"],
    "holonomy-p-past-cap": ["holonomy", "--p", "9", "--loop", "uv"],
    "cech-da-not-dividing-cover": ["cech", "--p", "2", "--da", "3"],
    "cech-db-not-dividing-cover": ["cech", "--p", "2", "--db", "3"],
    "cech-p-with-cover": ["cech", "--cover", "COVER_FILE", "--p", "99"],
    "cech-default-p-with-cover": ["cech", "--p", "2", "--cover", "COVER_FILE"],
    "cech-empty-cover-path": ["cech", "--cover", ""],
    "cech-empty-cover-path-with-p": ["cech", "--cover", "", "--p", "3"],
    "spinchain-Infinity-theta-u": ["spinchain", "--theta-u", "inf"],
    "spinchain-NaN-theta-u": ["spinchain", "--theta-u", "nan"],
    "spinchain-Infinity-delta": ["spinchain", "--delta", "inf"],
    "spinchain-NaN-j": ["spinchain", "--j", "nan"],
    "repro-negative-seed": ["repro", "--seed", "-1"],
    "repro-only-with-an-unknown-name": ["repro", "--only", "bell-battery,no-such-check"],
}
# Malformed list arguments: the error text starts with the flag's name.
NAMED_FLAG = {
    "schmidt-cut-not-integer": "--cut",
    "split-degree-not-integer": "--degrees",
    "satake-type-not-integer": "--d",
    "satake-complex-literal-eigenvalue": "--eigs",
    "invariants-tmax-past-cap": "--tmax",
}
# Each error text must contain this: what was wrong, in the numbers the user typed.
ERROR_TEXT = {
    "satake-empty-eigs": "at least one eigenvalue",
    "holonomy-p-past-cap": "2 <= p <= 8 (p^2 <= 64), got 9",
    "cech-da-not-dividing-cover": "--da 3 does not divide the cover dimension 4",
    "cech-db-not-dividing-cover": "--db 3 does not divide the cover dimension 4",
    "cech-p-with-cover": "--p 99 and --cover",
    "cech-default-p-with-cover": "--p 2 and --cover",
    "cech-empty-cover-path": "No such file or directory: ''",
    "cech-empty-cover-path-with-p": "--p 3 and --cover",
    "spinchain-Infinity-theta-u": "theta_u must be finite",
    "spinchain-NaN-theta-u": "theta_u must be finite",
    "spinchain-Infinity-delta": "delta must be finite",
    "spinchain-NaN-j": "j_coupling must be finite",
    "repro-negative-seed": "--seed must be >= 0, got -1",
    "state-dims-product-past-int64": "got 4 coefficients for dims (4611686018427387905, 4) (need 18446744073709551620)",
    "cover-pair-listed-twice": "pair (0, 1) is listed twice",
    "cover-self-pair": "pair (0, 0) joins a chart to itself",
    "cover-lift-singular": "lift for pair (0, 1) is singular",
    "cover-lift-ragged-row": "lift for pair (0, 1) is not a (2, 2) array",
    "repro-empty-only": "unknown check names ''",
    "repro-only-with-an-unknown-name": "unknown check names 'no-such-check';",
}


@pytest.mark.parametrize("case", list(MALFORMED_FILES) + list(MALFORMED_ARGV))
def test_malformed_input_exits_2_with_one_json_error_line(capsys, tmp_path, case):
    if case in MALFORMED_FILES:
        command, payload = MALFORMED_FILES[case]
        path = tmp_path / "input.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        flag = "--cover" if command == "cech" else "--state"
        argv = [command, flag, str(path)] + (["--cut", "0"] if command == "schmidt" else [])
    else:
        (tmp_path / "bell.json").write_text(json.dumps(BELL))
        files = {"BELL_FILE": str(tmp_path / "bell.json"), "COVER_FILE": identity_cover(tmp_path, 4)}
        argv = [files.get(a, a) for a in MALFORMED_ARGV[case]]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    error = json.loads(line)
    assert error["command"] == argv[0] and error["error"]
    if case in NAMED_FLAG:
        assert error["error"].startswith(NAMED_FLAG[case] + " ")
    if case in ERROR_TEXT:
        assert ERROR_TEXT[case] in error["error"]


def test_memory_error_exits_2_with_one_too_large_line(capsys, monkeypatch, bell_file):
    from egeo import tensor_core

    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 64.0 GiB for an array with shape (131072, 65536)")

    monkeypatch.setattr(tensor_core, "schmidt_decompose", out_of_memory)
    code = run(["schmidt", "--state", bell_file, "--cut", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    error = json.loads(line)
    assert error["command"] == "schmidt"
    assert error["error"].startswith("the input needs more memory than is available: Unable to allocate 64.0 GiB")
