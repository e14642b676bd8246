"""The CLI contract as a seeded property test.

Every subcommand runs in process on generated argvs (valid inputs,
near-boundary and extreme numbers, mutated state and cover files; for
`repro`, only its exit-2 paths), with warnings turned into errors, and must
keep the contract:
- exit 0 or 1: stdout is one strict-JSON report (no NaN or Infinity) and
  stderr is empty;
- exit 1: the report holds a negative verdict, and exit 0 a positive one;
- exit 2: stdout is empty and stderr is one strict-JSON error line, with no
  traceback and no warning.
A usage error that argparse finds keeps the exit-2 rule with "command"
null, since argv did not parse; generated argvs with one malformed token
(a non-numeric value, a missing required flag, an unknown flag or
subcommand) are such errors, and a repeated flag parses, its last value
winning. Two further rules: a file flag given ""
exits 2, and `spinchain` exits 0 exactly when its numbers are valid
(finite, delta > J, J at least the smallest normal double, branch 0..3),
with an exact report for J >= 1e-300. The seeds are fixed.
"""

import json
import math
import random
import warnings

import numpy as np
import pytest

from egeo.cli import run
from egeo.repro import CHECKS
from test_cli import block_residual

SEEDS = (1, 2, 3)
CASES_PER_SEED = 12
SMALLEST_NORMAL = 2.2250738585072014e-308  # the least J that spinchain accepts
# The report field that decides exit 0 (true) or exit 1 (false); other subcommands always exit 0 or 2.
VERDICT = {"holonomy": "local_operation", "cech": "reducible", "split": "reducible", "satake": "verdict"}
EXTREMES = [
    "0", "-0.0", "5e-324", "1e-310", "2.2250738585072014e-308", "1e-300", "1e-170", "5.623413251903491e-170",
    "1e-165", "1e-159", "1e-146", "1e-9", "0.5", "1", "2", "1e9", "1e146", "1e300", "1.7976931348623157e308",
    "1e400", "inf", "-inf", "nan", "-1", "-1e-300",
]
TOLS = ["1e-3", "1e-6", "1e-12", "1e-15", "5e-324", "0", "1", "-1", "nan", "inf", "0.9999999999999999"]
SCALES = [1.0, 5e-324, 1e-310, 1e-170, 1e-30, 1e30, 1e200, 1e300, 1.7e308]


def log_float(rnd: random.Random) -> float:
    return rnd.choice([-1, 1]) * 10 ** rnd.uniform(-320, 307.5)


def number(rnd: random.Random) -> str:
    return rnd.choice(EXTREMES) if rnd.random() < 0.5 else repr(log_float(rnd))


def with_tol(rnd: random.Random, argv: list) -> list:
    return argv + [f"--tol={rnd.choice(TOLS)}"] if rnd.random() < 0.3 else argv


def write(tmp_path, rnd: random.Random, payload) -> str:
    path = tmp_path / f"in{rnd.getrandbits(32)}.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def mutate(rnd: random.Random, data: dict, entries: str):
    """A malformed copy of a state or cover: wrong types, non-finite numbers, missing keys or broken text."""
    kind = rnd.randrange(7)
    if kind == 0:
        return json.dumps(data)[: rnd.randrange(1, 40)]
    if kind == 1:
        return {k: v for k, v in data.items() if k != rnd.choice(list(data))}
    if kind == 2:
        return rnd.choice([[], "text", 3, None, True])
    bad = rnd.choice([float("nan"), float("inf"), -float("inf"), "x", None, True, [1, 2, 3], [[1, 0]]])
    text = json.dumps(data)
    if kind == 3:  # one entry replaced
        return text.replace("1.0", json.dumps(bad), 1) if "1.0" in text else text.replace("0", json.dumps(bad), 1)
    if kind == 4:
        return {**data, entries: data[entries][: rnd.randrange(len(data[entries]))]}
    if kind == 5:
        return {**data, rnd.choice(list(data)): bad}
    return text.replace("]", ", 1e999]", 1)  # an entry that reads as inf


def state_file(tmp_path, rnd: random.Random, dims=None) -> str:
    if rnd.random() < 0.1:
        return rnd.choice(["", str(tmp_path / "missing.json")])
    dims = dims or [rnd.choice([2, 2, 3]) for _ in range(rnd.randint(1, 4))]
    size = math.prod(dims)
    kind = rnd.randrange(4)
    if kind == 0:  # product
        vec = np.ones(1)
        for d in dims:
            vec = np.kron(vec, [complex(rnd.gauss(0, 1), rnd.gauss(0, 1)) for _ in range(d)])
    elif kind == 1:  # sparse
        vec = np.zeros(size, dtype=complex)
        vec[rnd.randrange(size)] = 1
        vec[rnd.randrange(size)] += rnd.choice([1, 1j, -1, 1e-12])
    else:
        vec = np.array([complex(rnd.gauss(0, 1), rnd.gauss(0, 1)) for _ in range(size)])
    if rnd.random() < 0.05:
        vec = np.zeros(size)
    scale = rnd.choice(SCALES)
    data = {"dims": dims, "coeffs": [[float(c.real) * scale, float(c.imag) * scale] for c in vec]}
    return write(tmp_path, rnd, mutate(rnd, data, "coeffs") if rnd.random() < 0.3 else data)


def cover_file(tmp_path, rnd: random.Random) -> str:
    if rnd.random() < 0.15:
        return rnd.choice(["", str(tmp_path / "missing.json")])
    n = rnd.choice([4, 6, 9])
    pairs = []
    for i, j in rnd.sample([(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)], rnd.randint(1, 4)):
        kind = rnd.randrange(3)
        if kind == 0:
            lift = np.eye(n)
        elif kind == 1:  # the cyclic shift: not local
            lift = np.roll(np.eye(n), 1, axis=0)
        else:
            lift = np.array([[complex(rnd.gauss(0, 1), rnd.gauss(0, 1)) for _ in range(n)] for _ in range(n)])
        lift = lift * rnd.choice(SCALES[:6])
        pairs.append({"i": i, "j": j, "lift": [[[float(z.real), float(z.imag)] for z in row] for row in lift]})
    data = {"n": n, "pairs": pairs, "triples": [[0, 1, 2]] if rnd.random() < 0.5 else []}
    if rnd.random() < 0.3:
        data["m"] = rnd.choice([0, 1, n, n * n])
    return write(tmp_path, rnd, mutate(rnd, data, "pairs") if rnd.random() < 0.3 else data)


def gen_schmidt(rnd, tmp_path):
    path = state_file(tmp_path, rnd)
    cut = "0" if rnd.random() < 0.6 else ",".join(str(rnd.randint(-1, 4)) for _ in range(rnd.randint(0, 3)))
    return with_tol(rnd, ["schmidt", "--state", path, f"--cut={cut}"])


def gen_separability(rnd, tmp_path):
    return with_tol(rnd, ["separability", "--state", state_file(tmp_path, rnd)])


def gen_rank222(rnd, tmp_path):
    dims = [2, 2, 2] if rnd.random() < 0.8 else None
    return with_tol(rnd, ["rank222", "--state", state_file(tmp_path, rnd, dims)])


def gen_invariants(rnd, tmp_path):
    argv = ["invariants", f"--da={rnd.choice([1, 2, 3, 4, 5, 6, -1])}", f"--db={rnd.choice([1, 2, 3, 4, 5, 6, 0])}"]
    if rnd.random() < 0.5:
        argv.append(f"--r={rnd.randint(0, 7)}")
    if rnd.random() < 0.7:
        argv.append(f"--tmax={rnd.choice([0, 1, 3, 6, 8, 20, 21, -1])}")
    return argv


def gen_holonomy(rnd, tmp_path):
    letters = "uUvV" if rnd.random() < 0.9 else "uUvVx"
    loop = "".join(rnd.choice(letters) for _ in range(rnd.randint(0, 6) if rnd.random() < 0.2 else rnd.randint(1, 6)))
    p = rnd.randint(2, 8) if rnd.random() < 0.85 else rnd.choice([0, 1, 9])
    return with_tol(rnd, ["holonomy", f"--p={p}", f"--loop={loop}"])


def gen_spinchain(rnd, tmp_path):
    mode = rnd.random()
    if mode < 0.3:  # a valid pair, J and delta anywhere in the float range
        j_exp = rnd.uniform(-323, 307.5)
        j_text, delta_text = repr(10**j_exp), repr(10 ** rnd.uniform(j_exp + 1e-9, 308.25))
    elif mode < 0.5:  # a valid pair with J <= 1e-300 delta, where a 4x4 eigensolve loses the hopping block
        delta_exp = rnd.uniform(146, 308.25)
        j_text, delta_text = repr(10 ** rnd.uniform(-323, delta_exp - 300)), repr(10**delta_exp)
    else:
        j_text, delta_text = number(rnd), number(rnd)
    theta = rnd.choice(["0", "1.3", "-2.5", "1e300", "-1e-300", number(rnd)])
    branch = rnd.randint(0, 3) if rnd.random() < 0.9 else rnd.choice([-1, 4])
    return ["spinchain", f"--j={j_text}", f"--delta={delta_text}", f"--theta-u={theta}", f"--branch={branch}"]


def gen_cech(rnd, tmp_path):
    argv = ["cech"]
    if rnd.random() < 0.6:
        argv += ["--cover", cover_file(tmp_path, rnd)]
    if rnd.random() < (0.1 if len(argv) > 1 else 0.7):
        argv.append(f"--p={rnd.randint(1, 6)}")
    for flag in ("--da", "--db"):
        if rnd.random() < 0.3:
            argv.append(f"{flag}={rnd.choice([2, 2, 3, 3, 0, 4, 9])}")
    return with_tol(rnd, argv)


def gen_split(rnd, tmp_path):
    a, b = (rnd.randint(1, 4) if rnd.random() < 0.85 else rnd.randint(-1, 0) for _ in range(2))
    size = a * b if a > 0 and b > 0 and rnd.random() < 0.8 else rnd.randint(0, 9)
    degrees = ",".join(str(rnd.randint(-3, 12)) for _ in range(size))
    shape = f"{a}x{b}" if rnd.random() < 0.9 else rnd.choice(["2by2", "x", "3x", "2x2x2"])
    return ["split", f"--degrees={degrees}", f"--shape={shape}"]


def gen_satake(rnd, tmp_path):
    d = rnd.choice(["2,2", "2,2", "2,2", "2,2,2", "2,2,2", "2", "3,2", "4", "0,2", ""])
    count = math.prod(int(x) for x in d.split(",") if x) if rnd.random() < 0.8 else rnd.randint(0, 9)
    eigs = []
    for _ in range(count):
        z = complex(rnd.gauss(0, 1), rnd.gauss(0, 1))
        re, im = (number(rnd), number(rnd)) if rnd.random() < 0.1 else (repr(z.real), repr(z.imag))
        eigs.append(re if rnd.random() < 0.2 else f"{re},{im}")
    return with_tol(rnd, ["satake", "--eigs=" + ";".join(eigs), f"--d={d}"])


def gen_repro(rnd, tmp_path):
    """Only repro's exit-2 paths, since a battery run takes a second: a negative --seed or an unknown --only name."""
    if rnd.random() < 0.4:
        return ["repro", f"--seed={-rnd.randint(1, 10**6)}"] + (["--only=bell-battery"] if rnd.random() < 0.5 else [])
    names = rnd.sample([name for name, _ in CHECKS], rnd.randint(0, 3)) + [rnd.choice(["", "no-such-check", "Bell-Battery", "bell-battery ", "bell"])]
    rnd.shuffle(names)
    return ["repro", "--only=" + ",".join(names)] + ([f"--seed={rnd.randint(0, 99)}"] if rnd.random() < 0.5 else [])


GENERATORS = {
    "schmidt": gen_schmidt,
    "separability": gen_separability,
    "invariants": gen_invariants,
    "rank222": gen_rank222,
    "holonomy": gen_holonomy,
    "spinchain": gen_spinchain,
    "cech": gen_cech,
    "split": gen_split,
    "satake": gen_satake,
    "repro": gen_repro,
}
# Valid spectra at extreme moduli, each with its exit code and the reason an
# exit 2 names. The first has a column product that underflows, so its
# elementary symmetric values overflow (the other eigenvalues multiply to its
# inverse): exit 2, naming them. The second reaches a predicted slot value of
# modulus 2e308 with finite parts. The last two have finite elementary
# symmetric values whose (2,2,2) relations, |e_1|^4 first, overflow a float.
SATAKE_EXTREMES = {
    (
        "satake",
        "--d=2,3",
        "--eigs=9.51656370776498e-301,4.742817043238833e-301;4.728859740835711e+199,7.411168568691031e+199;"
        "-0.2743575715635508,0.8965915994961811;1.3797377290074926e-100,1.1010998436901292e-101;"
        "0.12438458092154564,0.6638027942211623;1.0454271122093837e+199,1.2160576965642549e+200",
    ): (2, "elementary symmetric values of --eigs overflow"),
    (
        "satake",
        "--d=2,2",
        "--eigs=1e-200,0.0;9.210609940028852e+53,3.894183423086505e+53;1.8532977734728338e+54,7.518559455378651e+53;"
        "3.5355344836299075e+91,-3.535533328235471e+91",
    ): (1, None),
    ("satake", "--d=2,2,2", "--eigs=1e154,1e154;1e-154,0;1,0;1,0;1,0;1,0;1,0;1,0"): (
        2,
        "the (2,2,2) relations of the spectrum overflow a float",
    ),
    ("satake", "--d=2,2,2", "--eigs=1.2e308,1.2e308;1e-154,0;1,0;1,0;1,0;1,0;1,0;1,0"): (
        2,
        "the (2,2,2) relations of the spectrum overflow a float",
    ),
}
# Fixed extremes, run alongside the generated cases.
PINNED = [
    ["cech", "--cover", ""],
    ["cech", "--cover", "", "--p=3"],
    ["separability", "--state", ""],
    ["spinchain", "--j=1e-300", "--delta=1e300"],
    ["spinchain", "--j=5.623413251903491e-170", "--delta=1e300", "--theta-u=1.3"],
    ["spinchain", "--j=5e-324", "--delta=1.7976931348623157e308"],
    ["spinchain", "--j=2.2250738585072014e-308", "--delta=1.7976931348623157e308"],
    ["spinchain", "--j=1.7976931348623155e308", "--delta=1.7976931348623157e308"],
] + [list(argv) for argv in SATAKE_EXTREMES]


def strict_json(text: str):
    def reject(name):
        raise AssertionError(f"{name} in JSON output")

    return json.loads(text, parse_constant=reject)


def run_code(argv) -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(argv)


def check_contract(capsys, argv) -> int:
    """Run argv and check the contract; return its exit code."""
    code = run_code(argv)
    out, err = capsys.readouterr()
    command = argv[0]
    if code == 2:
        assert out == "", argv
        (line,) = err.splitlines()
        error = strict_json(line)
        assert set(error) == {"command", "error", "version"} and error["command"] == command and error["error"], argv
    else:
        assert code in (0, 1) and err == "", (argv, code, err)
        (line,) = out.splitlines()
        report = strict_json(line)
        assert set(report) == {"command", "inputs", "outputs", "tolerances", "version"}, argv
        assert report["command"] == command, argv
        verdict = report["outputs"][VERDICT[command]] if command in VERDICT else True
        assert code == (0 if verdict else 1), (argv, code)
    if any(a == "" for a in argv[1:]):  # a file flag naming no file
        assert code == 2, argv
    if command == "spinchain":
        flags = dict(a.split("=", 1) for a in argv[1:])
        j, delta, theta = (float(flags.get(k, default)) for k, default in (("--j", 1), ("--delta", 2), ("--theta-u", 0)))
        valid = all(map(math.isfinite, (j, delta, theta))) and delta > j >= SMALLEST_NORMAL and int(flags.get("--branch", 0)) in range(4)
        assert (code == 0) == valid, (argv, code, err)
        if code == 0 and j >= 1e-300:
            out = report["outputs"]
            assert block_residual(out, j) <= 1e-15, argv
            assert out["ground_state"][2:] == [[0.0, 0.0], [0.0, 0.0]], argv
            assert np.allclose(out["spectrum"], [-j, j, delta, delta], rtol=1e-15, atol=0), argv
    return code


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("command", list(GENERATORS))
def test_generated_argvs_keep_the_cli_contract(capsys, tmp_path, command, seed):
    rnd = random.Random(f"{command}-{seed}")
    for _ in range(CASES_PER_SEED):
        argv = GENERATORS[command](rnd, tmp_path)
        code = check_contract(capsys, argv)
        assert code == 2 or command != "repro", argv


# Flags whose argparse type rejects a non-numeric token, and each subcommand's required flags.
TYPED_FLAGS = {"--tol", "--da", "--db", "--r", "--tmax", "--p", "--j", "--delta", "--theta-u", "--branch", "--seed"}
REQUIRED = {
    "schmidt": ["--state", "--cut"],
    "separability": ["--state"],
    "invariants": ["--da", "--db"],
    "rank222": ["--state"],
    "holonomy": ["--p", "--loop"],
    "split": ["--degrees", "--shape"],
    "satake": ["--eigs", "--d"],
}
NON_NUMERIC = ["abc", "", "1,2", "0x1f", "one", "1e", "2.0.1", "1 2", "--"]
UNKNOWN_FLAGS = ["--no-such-flag", "--no-such-flag=1", "--TOL=1e-9", "-x", "extra", "-1"]
UNKNOWN_COMMANDS = ["no-such-command", "", "Schmidt", "cech2", "--cech", "repro_"]


def malformed(rnd: random.Random, tmp_path) -> tuple[list, bool]:
    """(argv, whether argparse accepts it): a generated argv given one malformed token."""
    kind = rnd.choice(["non-numeric", "missing-required", "unknown-flag", "unknown-command", "repeated"])
    command = rnd.choice([c for c in GENERATORS if c != "repro" or kind != "repeated"])
    argv = GENERATORS[command](rnd, tmp_path)
    typed = [k for k, a in enumerate(argv) if a.split("=", 1)[0] in TYPED_FLAGS and "=" in a]
    if kind == "non-numeric" and typed:
        at = rnd.choice(typed)
        argv[at] = argv[at].split("=", 1)[0] + "=" + rnd.choice(NON_NUMERIC)
        return argv, False
    if kind == "missing-required" and command in REQUIRED:
        flag = rnd.choice(REQUIRED[command])
        at = next(k for k, a in enumerate(argv) if a.split("=", 1)[0] == flag)
        del argv[at : at + (1 if "=" in argv[at] else 2)]
        return argv, False
    if kind == "unknown-command":
        return [rnd.choice(UNKNOWN_COMMANDS)] + argv[1:], False
    if kind == "repeated":  # argparse keeps the last value, so the argv runs as usual
        flags = [a for a in argv[1:] if a.startswith("--") and "=" in a]
        if flags:
            again = rnd.choice(flags)
            return argv + [again if rnd.random() < 0.5 else again.split("=", 1)[0] + "=" + argv_value(rnd, command, tmp_path, again)], True
    argv.insert(rnd.randint(1, len(argv)), rnd.choice(UNKNOWN_FLAGS))
    return argv, False


def argv_value(rnd: random.Random, command: str, tmp_path, token: str) -> str:
    """A value for token's flag taken from a fresh generated argv, or token's own value if that argv lacks the flag."""
    flag = token.split("=", 1)[0]
    fresh = [a for a in GENERATORS[command](rnd, tmp_path) if a.startswith(flag + "=")]
    return (fresh[0] if fresh else token).split("=", 1)[1]


def check_usage_error(capsys, argv, message: str = "egeo"):
    """argparse rejected argv: exit 2, nothing on stdout, one JSON line with "command" null, led by message."""
    assert run_code(argv) == 2, argv
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    error = strict_json(line)
    assert out == "" and set(error) == {"command", "error", "version"} and error["command"] is None, argv
    assert error["error"].startswith(message), (argv, error)


@pytest.mark.parametrize("seed", SEEDS)
def test_malformed_tokens_keep_the_cli_contract(capsys, tmp_path, seed):
    rnd = random.Random(f"malformed-{seed}")
    for _ in range(3 * CASES_PER_SEED):
        argv, parses = malformed(rnd, tmp_path)
        if parses:
            check_contract(capsys, argv)
        else:
            check_usage_error(capsys, argv)


@pytest.mark.parametrize("argv", PINNED, ids=[" ".join(x or '""' for x in a) for a in PINNED])
def test_pinned_extremes_keep_the_cli_contract(capsys, argv):
    check_contract(capsys, argv)


# argparse's own usage errors: one JSON line with "command" null (argv did not parse), the message led by the
# name of the parser that rejected argv.
USAGE_ERRORS = {
    ("separability",): "egeo separability: the following arguments are required: --state",
    ("separability", "--state", "state.json", "--tol", "abc"): "egeo separability: argument --tol: invalid float value: 'abc'",
    ("invariants", "--da", "2", "--db", "2", "--tmax", "1e3"): "egeo invariants: argument --tmax: invalid int value: '1e3'",
    ("no-such-command",): "egeo: argument command: invalid choice: 'no-such-command'",
    ("separability", "--state", "state.json", "--tol=--"): "egeo separability: argument --tol: expected one argument",
}


@pytest.mark.parametrize("argv,message", USAGE_ERRORS.items(), ids=[" ".join(argv) for argv in USAGE_ERRORS])
def test_a_usage_error_is_one_json_line(capsys, argv, message):
    check_usage_error(capsys, list(argv), message)


@pytest.mark.parametrize(
    "argv,code,reason",
    [(argv, *expected) for argv, expected in SATAKE_EXTREMES.items()],
    ids=["column-product-underflows", "slot-modulus-overflows", "relations-222-overflow-1e154", "relations-222-overflow-1.2e308"],
)
def test_satake_at_extreme_moduli_names_egeo_s_reason_or_gives_a_verdict(capsys, argv, code, reason):
    assert run(list(argv)) == code
    out, err = capsys.readouterr()
    assert "math domain" not in out + err and "absolute value too large" not in out + err
    if code == 2:
        assert reason in err


@pytest.mark.parametrize("m", [4, None], ids=["m-4", "m-null"])
def test_cech_names_a_triple_product_that_overflows(capsys, tmp_path, m):
    # The saved symbol cover with lifts (0, 1), (1, 3) and (0, 3) times 1e300: the triple product over (0, 1, 3)
    # overflows. No RuntimeWarning may reach stderr, and the error names the overflow, not a NaN scalar.
    saved = tmp_path / "cover.json"
    assert run_code(["cech", "--p", "2", "--save-cover", str(saved)]) == 1
    capsys.readouterr()
    data = json.loads(saved.read_text())
    for pair in data["pairs"]:
        if (pair["i"], pair["j"]) in {(0, 1), (1, 3), (0, 3)}:
            pair["lift"] = [[[re * 1e300, im * 1e300] for re, im in row] for row in pair["lift"]]
    data["m"] = m
    argv = ["cech", "--cover", write(tmp_path, random.Random(m), data)]
    assert check_contract(capsys, argv) == 2  # one JSON line on stderr, no warning
    run_code(argv)
    assert json.loads(capsys.readouterr().err)["error"] == "the triple product of lifts over (0, 1, 3) overflows a float"
