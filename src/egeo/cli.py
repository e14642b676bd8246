"""Command-line front end: every subcommand prints one JSON report.

Report schema: {"command", "inputs", "outputs", "tolerances", "version"};
complex numbers are [re, im] pairs, angles are radians. Commands put
arrays, complex numbers and tuples into a report as they are; one JSON
hook, `_plain`, encodes them. Exit codes:
0 success, 1 negative domain verdict (not product / not reducible /
not local / irreducible) with a full report, 2 input or usage error,
141 stdout closed by its reader before the report was written.
Reports are deterministic for fixed inputs and seed; the repro table's
wall-clock details go to stderr so stdout stays byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import isfinite, isqrt
from typing import TYPE_CHECKING

# Domain modules and numpy are imported inside the functions that use them,
# so each process loads only what its subcommand runs.
from . import __version__
from .errors import DEFAULT_RANK_TOL, EgeoError, OutOfRange, ShapeMismatch, TooLarge

if TYPE_CHECKING:
    from .cech_brauer import CechCover
    from .tensor_core import PureState

# ------------------------------------------------------------ serialization


def _plain(value):
    """json's default hook: a complex number becomes [re, im], an array (or numpy scalar) its tolist()."""
    return [value.real, value.imag] if isinstance(value, complex) else value.tolist()


_JSON_TYPES = {
    dict: "object",
    list: "array",
    int: "integer",
    float: "number",
    str: "string",
    bool: "boolean",
    type(None): "null",
}


def _expect(value, what: str, *kinds: type):
    """value itself if its JSON type is one of kinds (true is not an integer), else ShapeMismatch."""
    if type(value) not in kinds:
        wanted = " or ".join(_JSON_TYPES[k] for k in kinds)
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ShapeMismatch(f"{what} must be a JSON {wanted}, got {got}")
    return value


def _member(obj: dict, key: str, what: str, *kinds: type):
    if key not in obj:
        raise ShapeMismatch(f'{what} has no "{key}"')
    return _expect(obj[key], f'{what} "{key}"', *kinds)


def _int_list(value, what: str) -> list[int]:
    return [_expect(i, f"each entry of {what}", int) for i in _expect(value, what, list)]


def _as_complex(entry) -> complex:
    if type(entry) in (int, float):
        return complex(entry)
    if type(entry) is list and len(entry) == 2 and all(type(x) in (int, float) for x in entry):
        return complex(float(entry[0]), float(entry[1]))
    raise ShapeMismatch(f"cannot read complex value from {entry!r} (expected a number or [re, im])")


def load_state(path: str) -> PureState:
    from .tensor_core import make_state

    with open(path, encoding="utf-8") as fh:
        data = _expect(json.load(fh), "state file", dict)
    dims = _int_list(_member(data, "dims", "state", list), 'state "dims"')
    coeffs = _member(data, "coeffs", "state", list)
    return make_state(dims, [_as_complex(c) for c in coeffs])


def state_json(state: PureState) -> dict:
    return {"dims": state.dims, "coeffs": state.coeffs}


def cover_to_json(cover: CechCover) -> dict:
    return {
        "n": cover.n,
        "m": cover.m,
        "charts": cover.chart_count,
        "pairs": [{"i": i, "j": j, "lift": cover.transitions[(i, j)]} for i, j in cover.pairs],
        "triples": cover.triples,
        "quads": cover.quadruples,
    }


def cover_from_json(data) -> CechCover:
    from .cech_brauer import make_cover

    _expect(data, "cover", dict)
    pairs = []
    for p in _member(data, "pairs", "cover", list):
        _expect(p, "each cover pair", dict)
        rows = _member(p, "lift", "cover pair", list)
        lift = [[_as_complex(z) for z in _expect(row, "each lift row", list)] for row in rows]
        pairs.append((_member(p, "i", "cover pair", int), _member(p, "j", "cover pair", int), lift))
    triples, quads = (_expect(data.get(key, []), f'cover "{key}"', list) for key in ("triples", "quads"))
    return make_cover(
        _member(data, "n", "cover", int),
        pairs,
        [tuple(_int_list(t, "each triple")) for t in triples],
        [tuple(_int_list(q, "each quad")) for q in quads],
        m=_expect(data.get("m"), 'cover "m"', int, type(None)),
        chart_count=_expect(data.get("charts"), 'cover "charts"', int, type(None)),
    )


def _parse_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.replace(" ", "").split(",") if x != ""]
    except ValueError:
        raise ShapeMismatch(f"{flag} must be comma-separated integers, got {text!r}") from None


def _parse_eigs(text: str) -> list[complex]:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            parts = [float(x) for x in chunk.split(",")]
        except ValueError:
            raise ShapeMismatch(f"--eigs must be semicolon-separated re or re,im numbers, got {text!r}") from None
        if len(parts) > 2:
            raise ShapeMismatch(f"eigenvalue {chunk!r} must be re or re,im")
        out.append(complex(*parts))
    return out


# ------------------------------------------------------------ subcommands


def cmd_schmidt(args) -> tuple[dict, dict, int]:
    from .tensor_core import Bipartition, schmidt_decompose

    state = load_state(args.state)
    cut = Bipartition.of(state.n_subsystems, tuple(_parse_ints(args.cut, "--cut")))
    sd = schmidt_decompose(state, cut, args.tol)
    outputs = {
        "rank": sd.rank,
        "sigmas": sd.sigmas,
        "left_vecs": sd.left_vecs,
        "right_vecs": sd.right_vecs,
        "input_norm": sd.input_norm,
        "cut": {"block_a": cut.block_a, "block_b": cut.block_b},
    }
    return {"state": state_json(state), "cut": args.cut}, outputs, 0


def cmd_separability(args) -> tuple[dict, dict, int]:
    from .separability import separability_report

    state = load_state(args.state)
    rep = separability_report(state, args.tol)
    outputs = {
        "finest": {"n": rep.finest.n_subsystems, "blocks": rep.finest.blocks},
        "product_bipartitions": [c.block_a for c in rep.product_bipartitions],
        "gme": rep.gme,
    }
    return {"state": state_json(state)}, outputs, 0


def cmd_invariants(args) -> tuple[dict, dict, int]:
    from .rank_geometry import HILBERT_TMAX_CAP, determinantal_degree, determinantal_dim, hilbert_function, secant_expected_dim

    d_a, d_b = args.da, args.db
    if min(d_a, d_b) < 1 or args.tmax < 0:
        raise OutOfRange(f"need --da, --db >= 1 and --tmax >= 0, got {d_a}, {d_b}, {args.tmax}")
    if args.tmax > HILBERT_TMAX_CAP:
        raise TooLarge(f"--tmax must be <= {HILBERT_TMAX_CAP}, got {args.tmax}")
    ranks = [args.r] if args.r is not None else list(range(1, min(d_a, d_b) + 1))
    table = []
    for r in ranks:
        dim, codim = determinantal_dim(d_a, d_b, r)
        table.append(
            {
                "r": r,
                "dim": dim,
                "codim": codim,
                "degree": determinantal_degree(d_a, d_b, r),
                "hilbert": [hilbert_function(d_a, d_b, r, t) for t in range(args.tmax + 1)],
                "secant_expected_dim": secant_expected_dim((d_a, d_b), r),
            }
        )
    inputs = {"da": d_a, "db": d_b, "r": args.r, "tmax": args.tmax}
    return inputs, {"table": table}, 0


def cmd_rank222(args) -> tuple[dict, dict, int]:
    from .separability import flattening_lower_bound, rank_2x2x2

    state = load_state(args.state)
    outputs = {
        "rank": rank_2x2x2(state, args.tol),
        "flattening_lower_bound": flattening_lower_bound(state, args.tol),
    }
    return {"state": state_json(state)}, outputs, 0


def cmd_holonomy(args) -> tuple[dict, dict, int]:
    from .gluing_sim import apply_holonomy, is_local_operator, loop_holonomy
    from .tensor_core import make_state, numerical_rank

    hol = loop_holonomy(args.p, args.loop)
    local = is_local_operator(hol, args.p, args.p, args.tol)
    demo = make_state([args.p, args.p], [1 if (a, b) in ((0, 0), (1, 0)) else 0 for a in range(args.p) for b in range(args.p)])
    image = apply_holonomy(hol, demo)
    outputs = {
        "holonomy": hol,
        "local_operation": local,
        "schmidt_rank_before": numerical_rank(demo.tensor(), args.tol),
        "schmidt_rank_after": numerical_rank(image.tensor(), args.tol),
    }
    inputs = {"p": args.p, "loop": args.loop}
    return inputs, outputs, 0 if local else 1


def cmd_spinchain(args) -> tuple[dict, dict, int]:
    import numpy as np

    from .gluing_sim import SpinChainParams, glue_ground_state, ground_state, spin_hamiltonian, to_qudit_pair
    from .tensor_core import numerical_rank

    params = SpinChainParams(args.j, args.delta, args.theta_u, args.branch)
    h = spin_hamiltonian(params)
    gs = ground_state(params)
    glued = glue_ground_state(params)
    outputs = {
        "hamiltonian": h,
        # the hopping block's eigenvalues and the penalty diagonal: each exact at every scale
        "spectrum": sorted([*np.linalg.eigvalsh(h[:2, :2]), params.delta, params.delta]),
        "ground_state": gs.coeffs,
        "glued_state": glued.coeffs,
        "schmidt_rank_before": numerical_rank(to_qudit_pair(gs, 2).tensor()),
        "schmidt_rank_after": numerical_rank(glued.tensor()),
    }
    inputs = {"theta_u": args.theta_u, "j": args.j, "delta": args.delta, "branch": args.branch}
    return inputs, outputs, 0


def _square_split(n: int) -> tuple[int, int]:
    """(d, n // d) for the largest divisor 2 <= d <= sqrt(n) of n."""
    d = next((d for d in range(isqrt(n), 1, -1) if n % d == 0), None)
    if d is None:
        raise ShapeMismatch(f"the cover dimension {n} has no split into two factors >= 2; give --da or --db")
    return d, n // d


def cmd_cech(args) -> tuple[dict, dict, int]:
    from .cech_brauer import check_reduction, class_order, is_2cocycle, pgl_cocycle_defect, symbol_cover

    if args.cover is not None:
        if args.p is not None:
            raise EgeoError(f"--p {args.p} and --cover {args.cover} each name a cover; give one of them")
        with open(args.cover, encoding="utf-8") as fh:
            cover = cover_from_json(json.load(fh))
        inputs = {"cover": args.cover, "da": args.da, "db": args.db}
    else:
        p = 2 if args.p is None else args.p
        cover = symbol_cover(p)
        inputs = {"p": p, "da": args.da, "db": args.db}
    if any(d is not None and d < 2 for d in (args.da, args.db)):
        raise OutOfRange(f"--da and --db must be >= 2, got {args.da}, {args.db}")
    defect = pgl_cocycle_defect(cover)
    d_a, d_b = args.da, args.db
    if d_a is None and d_b is None:
        d_a, d_b = _square_split(cover.n)
    elif d_a is None or d_b is None:  # the other factor is the cofactor of the one given
        flag, given = ("--da", d_a) if d_b is None else ("--db", d_b)
        if cover.n % given or cover.n // given < 2:
            raise ShapeMismatch(f"{flag} {given} does not divide the cover dimension {cover.n} into two factors >= 2")
        d_a, d_b = (given, cover.n // given) if d_b is None else (cover.n // given, given)
    report = check_reduction(cover, d_a, d_b, args.tol)
    outputs = {
        "charts": cover.chart_count,
        "m": defect.m,
        "defect_exponents": {f"{i},{j},{k}": e for (i, j, k), e in sorted(defect.values.items())},
        "is_2cocycle": is_2cocycle(defect, cover),
        "class_order": class_order(defect, cover),
        "torsion_bound": report.torsion,
        "pair_locality": {f"{i},{j}": v for (i, j), v in sorted(report.pair_verdicts.items())},
        "reducible": report.reducible,
    }
    if args.save_cover:
        with open(args.save_cover, "w", encoding="utf-8") as fh:
            json.dump(cover_to_json(cover), fh, default=_plain)
    return inputs, outputs, 0 if report.reducible else 1


def cmd_split(args) -> tuple[dict, dict, int]:
    from .splitting_p1 import SplittingType, factor_sumset

    degrees = SplittingType(tuple(_parse_ints(args.degrees, "--degrees")))
    try:
        d_a, d_b = (int(x) for x in args.shape.lower().split("x"))
    except ValueError:
        raise ShapeMismatch(f"--shape must be AxB with integers A and B, e.g. 2x3, got {args.shape!r}") from None
    fact = factor_sumset(degrees, d_a, d_b)
    inputs = {"degrees": degrees.degrees, "shape": [d_a, d_b]}
    if fact is None:
        return inputs, {"reducible": False, "verdict": "irreducible"}, 1
    outputs = {
        "reducible": True,
        "b": fact.b,
        "c": fact.c,
        "t": fact.t,
    }
    return inputs, outputs, 0


def cmd_satake(args) -> tuple[dict, dict, int]:
    from .spectral_satake import SpectralClass, d_product_oracle, elem_sym, is_22_product, is_222_product

    dims = tuple(_parse_ints(args.d, "--d"))
    s = SpectralClass(tuple(_parse_eigs(args.eigs)))
    e = elem_sym(s)
    if not all(isfinite(z.real) and isfinite(z.imag) for z in e):  # the report could not carry them as JSON numbers
        raise OutOfRange("the elementary symmetric values of --eigs overflow a float")
    verdict = witness = None
    if dims == (2, 2):
        verdict, w22 = is_22_product(s, args.tol)
        if w22 is not None:
            witness = [[w22[0], 1 / w22[0]], [w22[1], 1 / w22[1]]]
    elif dims == (2, 2, 2):
        verdict = is_222_product(s, args.tol)
    oracle = d_product_oracle(s, dims, args.tol)
    if verdict is None:
        verdict = oracle is not None
    if witness is None and oracle is not None:
        witness = oracle.factors
    outputs = {
        "verdict": verdict,
        "oracle_agrees": (oracle is not None) == verdict,
        "e_values": e,
        "witness": witness,
    }
    inputs = {"eigs": args.eigs, "d": dims}
    return inputs, outputs, 0 if verdict else 1


def cmd_repro(args) -> tuple[dict, dict, int]:
    from .repro import DEFAULT_SEED, run_battery

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        raise OutOfRange(f"--seed must be >= 0, got {seed}")
    names = args.only.split(",") if args.only is not None else None
    results = run_battery(seed=seed, names=names)
    width = max(len(r.name) for r in results)
    for r in results:
        line = f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.elapsed * 1e3:8.1f} ms  {r.detail}"
        print(line, file=sys.stderr)
    outputs = {
        "checks": [{"name": r.name, "passed": r.passed} for r in results],
        "all_passed": all(r.passed for r in results),
    }
    inputs = {"seed": seed, "only": args.only}
    return inputs, outputs, 0 if outputs["all_passed"] else 1


# ------------------------------------------------------------ wiring


class _Parser(argparse.ArgumentParser):
    """A usage error raises EgeoError, so `run` reports it as one JSON line; subparsers inherit the class."""

    def error(self, message):
        raise EgeoError(f"{self.prog}: {message}")

    def _get_values(self, action, arg_strings):
        # argparse drops the value "--" (as in --tol=--) and would store [] for a one-value flag
        if arg_strings == ["--"] and action.nargs is None:
            self.error(f"argument {'/'.join(action.option_strings)}: expected one argument")
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="egeo",
        description=(
            "Entanglement geometry toolkit. Every subcommand prints a JSON report on stdout; "
            "exit 0 = success, 1 = negative domain verdict (not product, not reducible, "
            "not local, irreducible), 2 = usage or input error."
        ),
    )
    parser.add_argument("--version", action="version", version=f"egeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument("--tol", type=float, default=DEFAULT_RANK_TOL, help="relative rank tolerance (default 1e-9)")

    p = sub.add_parser("schmidt", help="Schmidt decomposition and rank across a cut")
    p.add_argument("--state", required=True, help='state JSON file: {"dims": [...], "coeffs": [[re, im], ...]}')
    p.add_argument("--cut", required=True, help="comma-separated subsystem indices of block A, e.g. 0 or 0,2")
    add_tol(p)
    p.set_defaults(handler=cmd_schmidt)

    p = sub.add_parser("separability", help="finest product partition and GME verdict")
    p.add_argument("--state", required=True)
    add_tol(p)
    p.set_defaults(handler=cmd_separability)

    p = sub.add_parser("invariants", help="determinantal dim/codim/degree and Hilbert table")
    p.add_argument("--da", type=int, required=True)
    p.add_argument("--db", type=int, required=True)
    p.add_argument("--r", type=int, default=None, help="specific rank bound (default: all)")
    p.add_argument("--tmax", type=int, default=6, help="Hilbert function computed for t = 0..tmax (default 6)")
    p.set_defaults(handler=cmd_invariants)

    p = sub.add_parser("rank222", help="exact tensor rank of a 2x2x2 state")
    p.add_argument("--state", required=True)
    add_tol(p)
    p.set_defaults(handler=cmd_rank222)

    p = sub.add_parser("holonomy", help="evaluate a loop word; locality and entangling demo")
    p.add_argument("--p", type=int, required=True, help="local dimension; the system has dimension p^2")
    p.add_argument("--loop", required=True, help="word over u, U, v, V (capitals are inverse loops)")
    add_tol(p)
    p.set_defaults(handler=cmd_holonomy)

    p = sub.add_parser("spinchain", help="one-magnon spectrum and the glued ground state")
    p.add_argument("--theta-u", type=float, default=0.0, help="angle of u on the unit circle, radians (default 0)")
    p.add_argument("--j", type=float, default=1.0, help="hopping coupling J > 0 (default 1)")
    p.add_argument("--delta", type=float, default=2.0, help="penalty Delta > J (default 2)")
    p.add_argument("--branch", type=int, default=0, help="fourth-root branch k in 0..3 (default 0)")
    p.set_defaults(handler=cmd_spinchain)

    p = sub.add_parser("cech", help="cocycle defect, class order, reduction verdict")
    p.add_argument("--p", type=int, default=None, help="build the symbol cover for this p (default 2; not with --cover)")
    p.add_argument("--cover", default=None, help="cover JSON file instead of the generated symbol cover")
    p.add_argument("--da", type=int, default=None, help="A-side dimension for the reduction test")
    p.add_argument("--db", type=int, default=None, help="B-side dimension for the reduction test")
    p.add_argument("--save-cover", default=None, help="write the analyzed cover to this JSON file")
    add_tol(p)
    p.set_defaults(handler=cmd_cech)

    p = sub.add_parser("split", help="sumset factorization of a splitting type")
    p.add_argument("--degrees", required=True, help="comma-separated integers, e.g. 0,1,2,3")
    p.add_argument("--shape", required=True, help="factor shape, e.g. 2x2")
    p.set_defaults(handler=cmd_split)

    p = sub.add_parser("satake", help="spectral product criteria with oracle cross-check")
    p.add_argument("--eigs", required=True, help='semicolon-separated "re,im" eigenvalues')
    p.add_argument("--d", required=True, help="type, e.g. 2,2 or 2,2,2")
    add_tol(p)
    p.set_defaults(handler=cmd_satake)

    p = sub.add_parser("repro", help="run the full reproduction battery (table on stderr)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--only", default=None, help="comma-separated check names to run")
    p.set_defaults(handler=cmd_repro)

    return parser


def run(argv=None) -> int:
    args = None  # a usage error leaves it unset: "command" is null
    try:
        args = build_parser().parse_args(argv)
        tol = getattr(args, "tol", DEFAULT_RANK_TOL)
        if not 0 < tol < 1:
            raise OutOfRange(f"--tol must lie in (0, 1), got {tol}")
        inputs, outputs, code = args.handler(args)
        report = {
            "command": args.command,
            "inputs": inputs,
            "outputs": outputs,
            "tolerances": {"rank_tol": tol},
            "version": __version__,
        }
        # stdout is strict JSON: a report holding NaN or Infinity is an error, never printed
        text = json.dumps(report, sort_keys=True, allow_nan=False, default=_plain)
    except (ValueError, OSError, KeyError, OverflowError) as exc:  # EgeoError is a ValueError
        error = exc
    except MemoryError as exc:  # numpy's text names the allocation that failed
        error = TooLarge(f"the input needs more memory than is available: {exc}")
    else:
        print(text)
        return code
    print(json.dumps({"command": getattr(args, "command", None), "error": str(error), "version": __version__}), file=sys.stderr)
    return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early: neither a negative verdict (1) nor an input error (2). Exit 141,
        # the shell's status for a process killed by SIGPIPE, with stdout on devnull so that the
        # interpreter's own flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
