"""Reproduction battery: every headline claim as a timed pass/fail check.

Each check is independent of the code path it certifies wherever the
claim pairs an implementation with an oracle: minor enumeration against
SVD ranks, full partition-lattice search against the bipartition meet,
monomial linear algebra against the Schur-sum Hilbert function, slot
search against the polynomial spectral criteria. The brute-force
references themselves live in `egeo.oracles`.
"""

from __future__ import annotations

import cmath
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb, prod

import numpy as np

from .cech_brauer import (
    check_reduction,
    class_order,
    is_2cocycle,
    pgl_cocycle_defect,
    symbol_cover,
)
from .errors import OutOfRange
from .gluing_sim import (
    SpinChainParams,
    apply_holonomy,
    commutator_scalar,
    glue_ground_state,
    ground_state,
    is_local_operator,
    spin_hamiltonian,
    to_qudit_pair,
    weyl_ops,
)
from .oracles import brute_force_finest, monomial_quotient_dim, random_block_product
from .rank_geometry import determinantal_degree, determinantal_dim, hilbert_function, hilbert_poly_fit, segre_degree
from .separability import finest_product_partition, flattening_lower_bound, rank_2x2x2, w_family, w_state
from .spectral_satake import (
    LocalSpectra,
    SpectralClass,
    d_product_oracle,
    elem_sym,
    is_22_product,
    is_222_product,
    margin_22,
    margin_222,
    quartic_f,
    sphericity_check,
    tensor_spectrum,
)
from .splitting_p1 import SplittingType, factor_sumset, parallelogram
from .tensor_core import (
    Bipartition,
    PureState,
    cofactor_matrix,
    concurrence,
    flatten,
    incidence_lift,
    make_state,
    minor_rank,
    numerical_rank,
    reassemble_lift,
    schmidt_decompose,
)

DEFAULT_SEED = 2024


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


# ---------------------------------------------------------------- helpers


def _bell() -> PureState:
    return make_state([2, 2], np.array([1, 0, 0, 1]) / np.sqrt(2))


# ---------------------------------------------------------------- checks


def check_bell_battery(rng) -> tuple[bool, str]:
    cut = Bipartition.of(2, (0,))
    bell = _bell()
    # warm up the LAPACK det/svd paths so timing measures the computation
    concurrence(bell)
    schmidt_decompose(bell, cut)
    start = time.perf_counter()
    c = concurrence(bell)
    sd = schmidt_decompose(bell, cut)
    det = np.linalg.det(flatten(bell, cut))
    elapsed_ms = (time.perf_counter() - start) * 1e3
    ok = (
        abs(c - 1.0) <= 1e-12
        and len(sd.sigmas) == 2
        and all(abs(s - 1 / np.sqrt(2)) <= 1e-12 for s in sd.sigmas)
        and abs(det - 0.5) <= 1e-12
        and elapsed_ms < 1.0
    )
    return ok, f"C={c:.15f} sigmas={tuple(round(s, 12) for s in sd.sigmas)} det={det:.15f} time={elapsed_ms:.3f}ms"


def check_rank_oracle(rng) -> tuple[bool, str]:
    disagreements = 0
    for _ in range(200):
        rows = int(rng.integers(2, 7))
        cols = int(rng.integers(2, 7))
        r = int(rng.integers(1, min(rows, cols, 4) + 1))
        m = np.zeros((rows, cols), dtype=complex)
        for _ in range(r):
            u = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
            v = rng.standard_normal(cols) + 1j * rng.standard_normal(cols)
            m += np.outer(u, v)
        if numerical_rank(m) != minor_rank(m):
            disagreements += 1
    return disagreements == 0, f"disagreements={disagreements}/200"


def check_w_state(rng) -> tuple[bool, str]:
    w = w_state()
    bound = flattening_lower_bound(w)
    exact = rank_2x2x2(w)
    wn = w.normalized().coeffs
    dists = []
    for t in (1e-1, 1e-2, 1e-3):
        psi = w_family(t).normalized().coeffs
        overlap = abs(np.vdot(wn, psi))
        dists.append(float(np.sqrt(max(0.0, 1.0 - overlap**2))))
    decreasing = all(a > b for a, b in zip(dists, dists[1:]))
    small = all(d < 3 * t for d, t in zip(dists, (1e-1, 1e-2, 1e-3)))
    ok = bound == 2 and exact == 3 and decreasing and small
    return ok, f"bound={bound} rank={exact} dists={[f'{d:.3g}' for d in dists]}"


def check_finest_partition(rng) -> tuple[bool, str]:
    failures = 0
    for trial in range(100):
        n = int(rng.integers(2, 6))
        dims = tuple(int(d) for d in rng.integers(2, 4, n))
        kind = trial % 3
        if kind == 0:
            blocks = [(i,) for i in range(n)]
        elif kind == 1:
            # random, possibly non-contiguous blocks with entangled interiors
            order = list(rng.permutation(n))
            cuts = sorted(rng.choice(range(1, n), size=int(rng.integers(1, n)), replace=False))
            edges = [0] + list(cuts) + [n]
            blocks = [tuple(sorted(order[a:b])) for a, b in zip(edges, edges[1:])]
        else:
            blocks = [tuple(range(n))]
        state = random_block_product(rng, dims, blocks)
        if finest_product_partition(state) != brute_force_finest(state):
            failures += 1
    a1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    psi = make_state([2, 2, 2, 2], np.kron(np.kron(a1, a2), phi))
    example = str(finest_product_partition(psi))
    ok = failures == 0 and example == "0|1|23"
    return ok, f"failures={failures}/100 block-example={example}"


def check_numerology(rng) -> tuple[bool, str]:
    problems = []
    for d in range(2, 7):
        if determinantal_degree(d, d, 1) != segre_degree(d, d):
            problems.append(f"degree mismatch at d={d}")
    if determinantal_degree(3, 3, 2) != 3:
        problems.append("(3,3,2) degree != 3")
    for t in range(7):
        hf = hilbert_function(2, 2, 1, t)
        if hf != (t + 1) ** 2 or hf != monomial_quotient_dim(t):
            problems.append(f"hilbert (2,2,1,{t})")
    for d_a, d_b, r in ((2, 2, 1), (3, 3, 1), (3, 3, 2), (2, 3, 1)):
        fit_dim, fit_deg = hilbert_poly_fit(d_a, d_b, r)
        dim, _ = determinantal_dim(d_a, d_b, r)
        if fit_dim != dim or fit_deg != determinantal_degree(d_a, d_b, r):
            problems.append(f"fit mismatch at ({d_a},{d_b},{r})")
    return not problems, "; ".join(problems) if problems else "all cross-checks agree"


def check_spin_chain(rng) -> tuple[bool, str]:
    problems = []
    for i in range(20):
        params = SpinChainParams(
            j_coupling=1.0 + 0.5 * float(rng.random()),
            delta=3.0 + float(rng.random()),
            theta_u=float(rng.uniform(0, 2 * np.pi)),
            branch_offset=int(i % 4),
        )
        vals = np.linalg.eigvalsh(spin_hamiltonian(params))
        expect = sorted([-params.j_coupling, params.j_coupling, params.delta, params.delta])
        if max(abs(a - b) for a, b in zip(sorted(vals), expect)) > 1e-10:
            problems.append(f"spectrum off at sample {i}")
        pre = to_qudit_pair(ground_state(params), 2)
        post = glue_ground_state(params)
        if numerical_rank(pre.tensor()) != 1:
            problems.append(f"pre-gluing rank != 1 at sample {i}")
        if numerical_rank(post.tensor()) != 2:
            problems.append(f"post-gluing rank != 2 at sample {i}")
    glued = glue_ground_state(SpinChainParams(1.0, 2.0, 0.0, 0))
    bell_overlap = abs(np.vdot(_bell().coeffs, glued.normalized().coeffs))
    if abs(bell_overlap - 1.0) > 1e-10:
        problems.append(f"u=1 glued state vs Bell overlap {bell_overlap}")
    return not problems, "; ".join(problems) if problems else "20 samples: spectrum, ranks, Bell overlap all good"


def check_holonomy(rng) -> tuple[bool, str]:
    problems = []
    for m in range(2, 17):
        w = weyl_ops(m)
        if np.abs(w.z_op @ w.x_op - w.zeta * w.x_op @ w.z_op).max() > 1e-12:
            problems.append(f"Weyl relation fails at m={m}")
    w4 = weyl_ops(4)
    scalar = commutator_scalar(w4.z_op, w4.x_inv)
    if abs(scalar - (-1j)) > 1e-12:
        problems.append(f"commutator scalar {scalar} != -i")
    if is_local_operator(w4.x_inv, 2, 2):
        problems.append("X^-1 wrongly judged local")
    product = make_state([2, 2], [1, 0, 1, 0])
    image = apply_holonomy(w4.x_inv, product)
    if numerical_rank(image.tensor()) != 2:
        problems.append("holonomy image of product state not rank 2")
    return not problems, "; ".join(problems) if problems else "Weyl relations, commutator, locality, entangling demo all good"


def check_cech(rng) -> tuple[bool, str]:
    problems = []
    cover = symbol_cover(2)
    defect = pgl_cocycle_defect(cover)
    if defect.m != 4:
        problems.append(f"defect modulus {defect.m} != 4")
    if not is_2cocycle(defect, cover):
        problems.append("defect fails the 2-cocycle identity")
    report = check_reduction(cover, 2, 2)
    if report.reducible:
        problems.append("cover wrongly judged reducible")
    if report.torsion != 2:
        problems.append(f"torsion bound {report.torsion} != 2")
    order = class_order(defect, cover)
    if order != 4:
        problems.append(
            f"DIAGNOSTIC: computed obstruction order {order} on the 9-chart nerve "
            f"does not resolve the full period 4; the finite model under-resolves the class"
        )
    return not problems, "; ".join(problems) if problems else f"order={order}, not reducible, torsion=2"


def check_splitting(rng) -> tuple[bool, str]:
    problems = []
    count = 0
    for tup in combinations_with_replacement(range(5), 4):
        count += 1
        st = SplittingType(tup)
        factored = factor_sumset(st, 2, 2)
        if (factored is not None) != parallelogram(st):
            problems.append(f"equivalence fails at {tup}")
            continue
        if factored is not None and factored.recombine() != st.degrees:
            problems.append(f"recombination fails at {tup}")
        shifted = factor_sumset(st.shifted(3), 2, 2)
        if (shifted is not None) != (factored is not None):
            problems.append(f"translation symmetry fails at {tup}")
        elif shifted is not None and shifted.t != factored.t + 3:
            problems.append(f"twist shift fails at {tup}")
    # transpose symmetry on a non-square shape
    degrees = SplittingType(tuple(sorted(b + c for b in (0, 2) for c in (0, 1, 5))))
    if (factor_sumset(degrees, 2, 3) is None) or (factor_sumset(degrees, 3, 2) is None):
        problems.append("transpose symmetry fails on 2x3")
    return not problems, "; ".join(problems) if problems else f"{count} multisets equivalent"


def _random_unit_product(rng, d: int) -> tuple[complex, ...]:
    out = [cmath.exp(complex(rng.normal(0, 0.7), rng.normal(0, 0.7))) for _ in range(d - 1)]
    out.append(1.0 / prod(out) if out else 1.0)
    return tuple(out)


def check_satake(rng) -> tuple[bool, str]:
    problems = []
    boundary = []
    hard_disagreements = 0
    for label, factors, trials, criterion, margin in (
        ("(2,2)", 2, 500, lambda s: is_22_product(s)[0], margin_22),
        ("(2,2,2)", 3, 200, is_222_product, margin_222),
    ):
        for trial in range(trials):
            if trial % 2 == 0:
                s = tensor_spectrum(LocalSpectra(tuple(_random_unit_product(rng, 2) for _ in range(factors))))
            else:
                s = SpectralClass(tuple(cmath.exp(complex(rng.normal(), rng.normal())) for _ in range(2**factors)))
            if criterion(s) != (d_product_oracle(s, (2,) * factors) is not None):
                gap = margin(s)
                if 1e-11 < gap < 1e-7:
                    boundary.append(f"{label} trial {trial} margin {gap:.2e}")
                else:
                    hard_disagreements += 1
    if hard_disagreements:
        problems.append(f"{hard_disagreements} oracle disagreements away from the tolerance boundary")
    ones = SpectralClass(tuple([1.0] * 8))
    e = elem_sym(ones)
    expected = tuple(comb(8, k) for k in range(1, 8))
    if any(abs(e[k] - expected[k]) > 1e-9 for k in range(7)) or abs(quartic_f(e)) > 1e-9:
        problems.append("all-ones elementary symmetric values or quartic off")
    for _ in range(20):
        a = cmath.exp(complex(rng.normal(), rng.normal()))
        b = cmath.exp(complex(rng.normal(), rng.normal()))
        e = elem_sym(tensor_spectrum(LocalSpectra(((a, 1 / a), (b, 1 / b)))))
        if (
            abs(e[0] - (a + 1 / a) * (b + 1 / b)) > 1e-10
            or abs(e[1] - (a**2 + a**-2 + b**2 + b**-2 + 2)) > 1e-10
            or abs(e[2] - e[0]) > 1e-10
        ):
            problems.append("pullback identity fails")
            break
    spherical = []
    def types_up_to(n_max):
        def rec(prefix, min_d, left):
            for d in range(min_d, left + 1):
                yield prefix + (d,)
                yield from rec(prefix + (d,), d, left // d)
        yield from rec((), 2, n_max)
    for dims in types_up_to(64):
        if len(dims) >= 2 and sphericity_check(dims):
            spherical.append(dims)
    if spherical != [(2, 2)]:
        problems.append(f"sphericity survivors {spherical} != [(2, 2)]")
    detail = "; ".join(problems) if problems else "criteria agree with the oracle on 700 spectra"
    if boundary:
        detail += f" | boundary cases logged: {boundary}"
    return not problems, detail


def check_incidence(rng) -> tuple[bool, str]:
    problems = []
    for trial in range(50):
        n = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(2, 4, n))
        state = random_block_product(rng, dims, [tuple(range(n))])
        block = (0,) + tuple(i for i in range(1, n) if rng.random() < 0.4)
        cut = Bipartition.of(n, block[: n - 1])
        lift = incidence_lift(state, cut)
        m = flatten(state, cut)
        err = np.abs(reassemble_lift(lift) - m).max() / np.abs(m).max()
        if err >= 1e-9:
            problems.append(f"round trip error {err:.2e} at trial {trial}")
    rng2 = np.random.default_rng(5)
    u = rng2.standard_normal(3) + 1j * rng2.standard_normal(3)
    v = rng2.standard_normal(3) + 1j * rng2.standard_normal(3)
    u2 = rng2.standard_normal(3) + 1j * rng2.standard_normal(3)
    v2 = rng2.standard_normal(3) + 1j * rng2.standard_normal(3)
    mats = {
        0: np.zeros((3, 3), dtype=complex),
        1: np.outer(u, v),
        2: np.outer(u, v) + np.outer(u2, v2),
        3: np.eye(3, dtype=complex),
    }
    for rank, m in mats.items():
        vanish = np.abs(cofactor_matrix(m)).max() < 1e-9 * max(1.0, np.abs(m).max() ** 2)
        if vanish != (rank <= 1):
            problems.append(f"cofactor verdict wrong at rank {rank}")
    return not problems, "; ".join(problems) if problems else "50 round trips < 1e-9; cofactor vanishing exact on ranks 0..3"


CHECKS = [
    ("bell-battery", check_bell_battery),
    ("rank-oracle-agreement", check_rank_oracle),
    ("w-state-rank-gap", check_w_state),
    ("finest-partition-oracle", check_finest_partition),
    ("degree-hilbert-crosschecks", check_numerology),
    ("spin-chain-gluing", check_spin_chain),
    ("weyl-holonomy", check_holonomy),
    ("cech-obstruction", check_cech),
    ("splitting-equivalence", check_splitting),
    ("satake-criteria", check_satake),
    ("incidence-cofactor", check_incidence),
]
# Wall-clock budgets in seconds: a check whose whole call reaches its budget fails.
BUDGETS = {"degree-hilbert-crosschecks": 1.0, "cech-obstruction": 1.0, "splitting-equivalence": 1.0}


def run_battery(seed: int = DEFAULT_SEED, names: list[str] | None = None) -> list[CheckResult]:
    """Run the named checks (every check when names is empty or None) in CHECKS order; an unknown name is OutOfRange."""
    checks = dict(CHECKS)
    unknown = [name for name in names or () if name not in checks]
    if unknown:
        raise OutOfRange(f"unknown check names {', '.join(map(repr, unknown))}; the checks are {', '.join(checks)}")
    results = []
    for name, fn in CHECKS:
        if names and name not in names:
            continue
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        try:
            passed, detail = fn(rng)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if elapsed >= BUDGETS.get(name, float("inf")):
            passed, detail = False, f"{detail}; too slow: {elapsed:.3f}s against a {BUDGETS[name]:g}s budget"
        results.append(CheckResult(name, passed, detail, elapsed))
    return results
