"""The brute-force oracles and the partition lattice against verbatim copies of their unshared forms.

`brute_force_finest` skips partitions that its running meet already
refines, fails a partition with a block whose sigma_1 share is below
1 - tol by more than a margin without building its candidate, and
flattens each cut itself, with no `Bipartition` and no `flatten`.
`d_product_oracle` computes each predicted grid value's candidate list
(the eigenvalues within the match bound, nearest first) once per
spectrum, shared with its mirror, and skips a column whose value in some
row slot has no candidate. `meet` relabels each subsystem by its pair of
block labels, and `refines` counts those pairs. `minor_rank` takes its subset
indices from a cached read-only table, and `monomial_quotient_dim`
eliminates over sparse rows. None may change a verdict, a witness or a
dimension: the references below are the code as it was before, with the
set-intersection lattice operations, the value pool, the `Bipartition`
flattenings, the uncached subsets and the dense `Fraction` rows, and every
comparison is exact equality. At extreme moduli the slot search is held
to its reference wherever every column product stays finite and nonzero;
elsewhere the log of a column product is the sum of the logs, which the
reference could not take.

The constructions written once and shared are held to their former
separate formulas the same way, bit for bit: `cofactor_matrix` (minor by
minor), the factor swap in `is_local_operator` (a permutation-matrix
product), the `is_22_product` witness match (a value pool) and
`random_block_product` (`np.kron`). So are the early stops of the Smith
form's pivot search, `elem_sym`'s in-place update and `_unit_product`.
`is_local_operator` and `rank_2x2x2`
ask the certified rank-1 test of a cut; they are held verdict for verdict
to the SVD forms they had before, near the tolerance and at every scale.
"""

import cmath
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import prod
from types import SimpleNamespace

import numpy as np
import pytest

from egeo import (
    Bipartition,
    LocalSpectra,
    Partition,
    PureState,
    ShapeMismatch,
    SpectralClass,
    WrongShape,
    bipartitions,
    cofactor_matrix,
    d_product_oracle,
    elem_sym,
    flatten,
    is_22_product,
    is_local_operator,
    loop_holonomy,
    make_state,
    meet,
    minor_rank,
    numerical_rank,
    rank_2x2x2,
    refines,
    symbol_cover,
    tensor_spectrum,
    w_family,
    w_state,
)
from egeo import modular, oracles, spectral_satake, tensor_core
from egeo.cech_brauer import _coboundary_matrix
from egeo.errors import NonFinite, OutOfRange, WrongSize, ZeroState
from egeo.oracles import _leading_factors, brute_force_finest, monomial_quotient_dim, random_block_product, set_partitions
from egeo.separability import _meet_cuts
from egeo.spectral_satake import SPECTRAL_TOL, _bipartite_splits, _greedy_match, _match_entry, _relations_22
from egeo.separability import PENCIL_TOL
from egeo.tensor_core import CERTIFY_MIN_TOL, DEFAULT_RANK_TOL, unit_max_modulus

# ------------------------------------------------------------- references


def reference_refines(p, q):
    if p.n_subsystems != q.n_subsystems:
        raise ShapeMismatch("partitions are over different subsystem counts")
    qsets = [set(b) for b in q.blocks]
    return all(any(set(b) <= qs for qs in qsets) for b in p.blocks)


def reference_meet(p, q):
    if p.n_subsystems != q.n_subsystems:
        raise ShapeMismatch("partitions are over different subsystem counts")
    blocks = []
    for b in p.blocks:
        for c in q.blocks:
            both = tuple(sorted(set(b) & set(c)))
            if both:
                blocks.append(both)
    return Partition.of(p.n_subsystems, tuple(blocks))


def reference_reconstructs(reference, dims, partition, factor, tol):
    if len(partition.blocks) == 1:
        return True
    vec = factor(partition.blocks[0])
    for block in partition.blocks[1:]:
        vec = np.multiply.outer(vec, factor(block)).ravel()
    order = [i for block in partition.blocks for i in block]
    candidate = vec.reshape([dims[i] for i in order]).transpose(np.argsort(order)).ravel()
    candidate /= np.linalg.norm(candidate)
    return bool(abs(np.vdot(reference, candidate)) >= 1.0 - tol)


def reference_brute_force_finest(state, tol=1e-8):
    """Meet of every partition that passes, each partition tested."""
    n = state.n_subsystems
    reference = state.normalized().coeffs
    factor = reference_leading_factors(state)
    finest = Partition.trivial(n)
    for blocks in set_partitions(n):
        p = Partition.of(n, tuple(tuple(b) for b in blocks))
        if reference_reconstructs(reference, state.dims, p, factor, tol):
            finest = reference_meet(finest, p)
    return finest


def reference_match_multiset(candidates, targets, tol):
    pool = list(targets)
    for c in candidates:
        best, best_err = None, None
        for k, z in enumerate(pool):
            err = abs(c - z)
            if best_err is None or err < best_err:
                best, best_err = k, err
        if best is None or best_err > tol * (1.0 + abs(c)):
            return False
        pool.pop(best)
    return not pool


def reference_bipartite_splits(zs, d_a, d_b, tol):
    rest = list(range(1, len(zs)))
    z00 = zs[0]
    for row_idx in combinations(rest, d_b - 1):
        row_left = [k for k in rest if k not in row_idx]
        for col_idx in combinations(row_left, d_a - 1):
            remaining = [zs[k] for k in row_left if k not in col_idx]
            row = [z00] + [zs[k] for k in row_idx]
            col = [z00] + [zs[k] for k in col_idx]
            interior = [col[i] * row[j] / z00 for i in range(1, d_a) for j in range(1, d_b)]
            if not reference_match_multiset(interior, remaining, max(tol, 1e-7)):
                continue
            col_prod = prod(col)
            for k in range(d_a):
                beta0 = cmath.exp((cmath.log(col_prod) + 2j * cmath.pi * k) / d_a)
                alpha = tuple(c / beta0 for c in col)
                alpha0 = z00 / beta0
                beta = tuple(r / alpha0 for r in row)
                if abs(prod(alpha) - 1.0) <= tol * 10 and abs(prod(beta) - 1.0) <= tol * 10:
                    yield alpha, beta


def reference_d_product_oracle(s, dims, tol=SPECTRAL_TOL):
    if len(dims) == 1:
        return LocalSpectra((s.eigenvalues,))
    for alpha, beta in reference_bipartite_splits(s.eigenvalues, dims[0], prod(dims[1:]), tol):
        inner = reference_d_product_oracle(SpectralClass(beta), dims[1:], tol)
        if inner is not None:
            return LocalSpectra((alpha,) + inner.factors)
    return None


# ------------------------------------------------------------- d_product_oracle

TYPES = ((2, 2), (2, 2, 2), (2, 3))
# One eigenvalue moved by this much times (1 + |z|): around the 1e-7 floor of
# the multiset match, around the verdict tolerance, and well clear of both.
PERTURBATIONS = (
    1e-7 * (1 - 1e-3),
    1e-7 * (1 + 1e-3),
    SPECTRAL_TOL * (1 - 1e-3),
    SPECTRAL_TOL * (1 + 1e-3),
    1e-5,
)


def unit_product(rng, d, spread):
    out = [cmath.exp(complex(rng.normal(0, spread), rng.normal(0, spread))) for _ in range(d - 1)]
    return tuple(out) + (1.0 / prod(out),)


def seeded_spectra(rng, count):
    """(type, spectrum): products, products with one eigenvalue perturbed, generic, degenerate."""
    for trial in range(count):
        dims = TYPES[trial % len(TYPES)]
        kind = (trial // len(TYPES)) % 8
        spread = (0.05, 0.7, 1.5)[trial % 3]
        product = tensor_spectrum(LocalSpectra(tuple(unit_product(rng, d, spread) for d in dims)))
        if kind == 0:
            yield dims, product
        elif kind <= len(PERTURBATIONS):
            zs = list(product.eigenvalues)
            k = int(rng.integers(len(zs)))
            zs[k] += PERTURBATIONS[kind - 1] * (1 + abs(zs[k])) * cmath.exp(1j * rng.uniform(0, 2 * np.pi))
            yield dims, SpectralClass(tuple(zs))
        elif kind == 6:
            yield dims, SpectralClass(tuple(cmath.exp(complex(rng.normal(), rng.normal())) for _ in range(prod(dims))))
        else:  # repeated local eigenvalues: many ties in the nearest-match
            a = (1.0 + 0j,) * dims[0]
            yield dims, tensor_spectrum(LocalSpectra((a,) + tuple(unit_product(rng, d, spread) for d in dims[1:])))


def test_d_product_oracle_matches_the_unshared_reference_witness_for_witness():
    rng = np.random.default_rng(131)
    found = 0
    for dims, s in seeded_spectra(rng, 720):
        d_rest = prod(dims[1:])
        got_splits = list(_bipartite_splits(s.eigenvalues, dims[0], d_rest, SPECTRAL_TOL))
        assert got_splits == list(reference_bipartite_splits(s.eigenvalues, dims[0], d_rest, SPECTRAL_TOL))
        got = d_product_oracle(s, dims)
        assert got == reference_d_product_oracle(s, dims)
        found += got is not None
    assert 200 < found < 720  # both verdicts are exercised


def test_d_product_oracle_matches_the_reference_at_other_tolerances():
    rng = np.random.default_rng(137)
    for tol in (1e-12, 1e-8, 1e-6, 1e-4):
        for dims, s in seeded_spectra(rng, 48):
            assert d_product_oracle(s, dims, tol) == reference_d_product_oracle(s, dims, tol)


def test_bipartite_splits_break_exact_ties_like_the_reference():
    # With z00 = 1 the predicted values are exactly 1 and 1 + 2e, and 1 +- e
    # are exactly e from 1: which of the tied pair is taken first decides
    # whether 1 + 2e still finds a partner within the 1e-7 * (1 + |c|) bound.
    e = 2.0**-23
    for perm in set(permutations((1.0, 1.0, 1 + 2 * e, 1 + e, 1 - e))):
        zs = tuple(complex(z) for z in (1.0,) + perm)
        assert list(_bipartite_splits(zs, 2, 3, SPECTRAL_TOL)) == list(reference_bipartite_splits(zs, 2, 3, SPECTRAL_TOL))


def test_d_product_oracle_computes_each_predicted_value_once_per_spectrum(monkeypatch):
    calls = []
    real_abs = abs

    def counting_abs(x):
        calls.append(x)
        return real_abs(x)

    monkeypatch.setattr(spectral_satake, "abs", counting_abs, raising=False)
    rng = np.random.default_rng(163)
    s = SpectralClass(tuple(cmath.exp(complex(rng.normal(), rng.normal())) for _ in range(8)))
    assert list(_bipartite_splits(s.eigenvalues, 2, 4, SPECTRAL_TOL)) == []
    # 7 * 6 / 2 unordered pairs {column, row}: a value and its mirror share one candidate list,
    # each with 8 distances and one bound
    assert len(calls) <= 7 * 6 // 2 * (8 + 1)


# ------------------------------------------------------------- meet and refines


@cache
def lattice(n):
    """Every partition of range(n), in set_partitions order."""
    return tuple(Partition.of(n, blocks) for blocks in set_partitions(n))


def test_label_meet_matches_the_set_intersection_reference_on_every_pair():
    # meet is also brute_force_finest's running meet.
    for n in range(1, 7):
        parts = lattice(n)
        for p in parts:
            for q in parts:
                assert meet(p, q) == reference_meet(p, q)
                assert refines(p, q) == reference_refines(p, q)


def reference_meet_cuts(n, masks):
    """reference_meet folded over each cut's two blocks {mask, rest}."""
    finest = Partition.trivial(n)
    for mask in masks:
        cut = [i for i in range(n) if mask >> i & 1]
        finest = reference_meet(finest, Partition.of(n, (cut, sorted(set(range(n)) - set(cut)))))
    return finest


def test_cut_fold_matches_the_reference_meet_fold():
    # The scan's fold of its product cuts: no cuts, repeated cuts, random subsets, and every cut up to n = 10.
    rng = np.random.default_rng(31)
    for n in range(1, 17):
        every = range(1, 2**n - 1, 2)
        cases = [[]] + ([[every[0]] * 3, [every[-1], every[0], every[-1]]] if n > 1 else []) + ([list(every)] if 1 < n <= 10 else [])
        for _ in range(12 if n > 1 else 0):
            k = int(rng.integers(1, min(len(every), 2 * n) + 1))
            picked = [int(m) for m in rng.choice(every, size=k)]
            cases.append(picked + picked[: k // 2])
        for masks in cases:
            assert _meet_cuts(n, masks) == reference_meet_cuts(n, masks), (n, masks)
    # Every cut at n = 16: the cuts {0} and {0, j} already separate every pair.
    assert _meet_cuts(16, range(1, 2**16 - 1, 2)) == Partition.discrete(16)


def test_lattice_operations_reject_mismatched_subsystem_counts():
    p, q = Partition.discrete(2), Partition.trivial(3)
    for op in (meet, refines):
        with pytest.raises(ShapeMismatch):
            op(p, q)


# ------------------------------------------------------------- brute_force_finest


def planted_states(rng, count):
    """Seeded block products on 2..6 subsystems, perturbed at 0 and 1e-12..1e-6, 1e-8 * (1 +- 1e-3) included."""
    levels = (0.0, 1e-12, 1e-9, 1e-8 * (1 - 1e-3), 1e-8, 1e-8 * (1 + 1e-3), 1e-7, 1e-6)
    for trial in range(count):
        n = 2 + trial % 5
        dims = tuple(int(d) for d in rng.integers(2, 4 if n < 6 else 3, n))
        order = list(rng.permutation(n))
        cuts = sorted(rng.choice(range(1, n), size=int(rng.integers(0, n)), replace=False))
        edges = [0] + list(cuts) + [n]
        blocks = [tuple(sorted(order[a:b])) for a, b in zip(edges, edges[1:])]
        st = random_block_product(rng, dims, blocks)
        eps = levels[trial % len(levels)]
        noise = rng.standard_normal(st.coeffs.size) + 1j * rng.standard_normal(st.coeffs.size)
        yield make_state(dims, st.coeffs + eps * np.linalg.norm(st.coeffs) * noise), Partition.of(n, tuple(blocks)), eps


def test_brute_force_finest_matches_the_unskipped_reference():
    rng = np.random.default_rng(139)
    for st, planted, eps in planted_states(rng, 120):
        got = brute_force_finest(st)
        assert got == reference_brute_force_finest(st)
        if eps == 0.0:
            assert got == planted


def test_brute_force_finest_at_the_oracle_tolerance_boundary():
    # 1e-8 * (1 +- 1e-3) relative noise sits on both sides of the 1e-8 overlap tolerance
    rng = np.random.default_rng(149)
    for st, _, _ in planted_states(rng, 40):
        for tol in (1e-16 * (1 - 1e-3), 1e-16 * (1 + 1e-3), 1e-8 * (1 - 1e-3), 1e-8 * (1 + 1e-3)):
            assert brute_force_finest(st, tol) == reference_brute_force_finest(st, tol)


def recorded_reconstructions(monkeypatch):
    """The partitions that reach `_reconstructs`, in order, each as a tuple of blocks."""
    tested = []
    real = oracles._reconstructs

    def recording(reference, dims, blocks, factor, tol):
        tested.append(tuple(map(tuple, blocks)))
        return real(reference, dims, blocks, factor, tol)

    monkeypatch.setattr(oracles, "_reconstructs", recording)
    return tested


def test_brute_force_finest_tests_only_the_discrete_partition_of_a_full_product(monkeypatch):
    # set_partitions yields the discrete partition first; once it passes, the
    # running meet is discrete and refines every later partition.
    tested = recorded_reconstructions(monkeypatch)
    rng = np.random.default_rng(151)
    state = random_block_product(rng, (2, 3, 2, 2, 3), [(i,) for i in range(5)])
    assert brute_force_finest(state) == Partition.discrete(5)
    assert tested == [((0,), (1,), (2,), (3,), (4,))]


def test_brute_force_finest_tests_every_partition_of_an_entangled_state(monkeypatch):
    # The running meet of a GME state stays trivial, which refines no other
    # partition, so all Bell(5) - 1 = 51 multi-block partitions are decided.
    # Each has a block whose sigma_1 share is far below 1 - tol, so none is
    # reconstructed, and the 15 cuts of 5 subsystems take one SVD each.
    tested = recorded_reconstructions(monkeypatch)
    current, decided, svds = [None], set(), []
    real_partitions, real_factors, real_svd = oracles.set_partitions, oracles._leading_factors, np.linalg.svd

    def numbered_partitions(n):
        for blocks in real_partitions(n):
            if n == 5:  # not the recursion's shorter partitions
                current[0] = tuple(map(tuple, blocks))
            yield blocks

    def recorded_factors(state):
        factor = real_factors(state)

        def recorded(block):
            decided.add(current[0])
            return factor(block)

        return recorded

    def counted_svd(*args, **kwargs):
        svds.append(args[0].shape)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(oracles, "set_partitions", numbered_partitions)
    monkeypatch.setattr(oracles, "_leading_factors", recorded_factors)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    rng = np.random.default_rng(157)
    state = make_state((2,) * 5, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    assert brute_force_finest(state) == Partition.trivial(5)
    assert len(decided) == 51 and all(len(p) > 1 for p in decided)
    assert tested == []
    assert len(svds) == 15


def test_brute_force_finest_reconstructs_a_partition_whose_sigma_1_share_is_within_the_margin(monkeypatch):
    # Two qubits with Schmidt coefficients (c, sqrt(1 - c^2)), turned by local unitaries:
    # the sigma_1 share of either qubit is c, and so is the overlap of the reconstruction.
    # c = 1 - tol - 5e-13 lies inside the margin, so the screen lets it through and the
    # reconstruction rejects it; c = 1 - tol + 5e-13 passes both.
    tested = recorded_reconstructions(monkeypatch)
    rng = np.random.default_rng(167)
    tol = 1e-8
    for offset, expected in ((-5e-13, Partition.trivial(2)), (5e-13, Partition.discrete(2))):
        c = 1.0 - tol + offset
        u, v = (np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0] for _ in range(2))
        state = make_state((2, 2), (u @ np.diag([c, np.sqrt(1.0 - c * c)]) @ v.T).ravel())
        assert abs(oracles._leading_factors(state)((0,))[1] - c) < 1e-15
        tested.clear()
        assert brute_force_finest(state, tol) == expected
        assert tested == [((0,), (1,))]


# ------------------------------------------------------------- the early stops
# The Smith form's pivot search stops at a unit entry and skips the
# divisibility sweep under a unit pivot; elem_sym updates its coefficients in
# place; _unit_product converts with map and tests for a zero with `in`. Each
# is held bit for bit to the form it replaced, verbatim below.


def reference_smith_normal_form(matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Return (s, u) with u @ matrix @ v = s for some unimodular v, u unimodular, s diagonal.

    Diagonal entries are nonnegative with s[i] | s[i+1]. The column
    transform v is not built: reading a class over Z/m needs only u.
    """
    a = [[int(x) for x in row] for row in matrix]
    rows, cols = len(a), len(a[0]) if a else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]

    def row_combine(i, j, q):  # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_combine(i, j, q):  # col i -= q * col j
        for r in range(rows):
            a[r][i] -= q * a[r][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]

    t = 0
    while t < min(rows, cols):
        # Pivot: a smallest-modulus nonzero entry of the trailing block.
        # Re-selected after every sweep, which keeps entry growth tame.
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    pivot, best = (i, j), abs(a[i][j])
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        clean = True
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                row_combine(i, t, a[i][t] // a[t][t])
                if a[i][t] != 0:
                    clean = False
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                col_combine(j, t, a[t][j] // a[t][t])
                if a[t][j] != 0:
                    clean = False
        if not clean:
            continue  # a strictly smaller pivot now exists; re-select
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        # Divisibility: fold a non-multiple row into the pivot row and redo.
        folded = False
        for i in range(t + 1, rows):
            if any(a[i][j] % a[t][t] != 0 for j in range(t + 1, cols)):
                row_combine(t, i, -1)
                folded = True
                break
        if folded:
            continue
        t += 1
    return a, u


def reference_elem_sym(s):
    """Elementary symmetric values e_1 .. e_n of the eigenvalues."""
    coeffs = [1.0 + 0j]
    for z in s.eigenvalues:
        coeffs = [coeffs[k] + (z * coeffs[k - 1] if k else 0) for k in range(len(coeffs))] + [z * coeffs[-1]]
    return coeffs[1:]


def reference_unit_product(values):
    zs = tuple(complex(z) for z in values)
    if not zs:
        raise WrongSize("a spectral class needs at least one eigenvalue")
    if not all(map(cmath.isfinite, zs)):
        raise NonFinite("eigenvalues must be finite")
    if any(z == 0 for z in zs):
        raise ZeroState("spectral classes require nonzero eigenvalues")
    total = prod(zs)
    if total == 0 or not cmath.isfinite(total):
        raise OutOfRange("the product of the eigenvalues overflows or underflows")
    root = cmath.exp(cmath.log(total) / len(zs))
    return tuple(z / root for z in zs)


def seeded_integer_matrices(rng, count):
    """The coboundary matrices of the symbol covers p = 2..5, then matrices up to 7 x 7 with entries
    up to 2, 5 or 30 in modulus, of either sign: plain, all multiples of 2, 3 or 6 (no unit pivot),
    with zero rows and columns, and even entries with one unit late in row-major order."""
    for p in range(2, 6):
        yield _coboundary_matrix(symbol_cover(p))[0]
    for trial in range(count):
        rows, cols = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = rng.integers(-(2, 5, 30)[trial % 3], (2, 5, 30)[trial % 3] + 1, (rows, cols))
        kind = trial // 3 % 4
        if kind == 1:
            a *= (2, 3, 6)[trial // 12 % 3]
        elif kind == 2:
            a[rng.random(rows) < 0.3, :] = 0
            a[:, rng.random(cols) < 0.3] = 0
        elif kind == 3:
            a *= 2
            a[-1, int(rng.integers(cols))] = (1, -1)[trial % 2]
        yield a.tolist()


def test_pivot_search_stops_only_where_the_full_scan_would_pick_the_same_entry():
    # Asked first: a search that stopped at a later minimum than the full scan's could
    # leave a remainder it never picks up, and the Smith form would not terminate.
    rng = np.random.default_rng(227)
    for a in seeded_integer_matrices(rng, 600):
        for t in range(min(len(a), len(a[0]))):
            # the full scan's pivot: the least modulus, first in row-major order
            entries = [(abs(a[i][j]), i, j) for i in range(t, len(a)) for j in range(t, len(a[0])) if a[i][j]]
            assert modular._pivot(a, t) == (min(entries)[1:] if entries else None), (a, t)


def test_smith_normal_form_matches_the_full_pivot_scan_bit_for_bit():
    rng = np.random.default_rng(229)
    units = non_units = 0
    for a in seeded_integer_matrices(rng, 1200):
        s, u = modular.smith_normal_form(a)
        assert (s, u) == reference_smith_normal_form(a), a
        diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
        units += 1 in diag
        non_units += any(x > 1 for x in diag)
    assert units > 600 and non_units > 300, (units, non_units)


def bits(values) -> bytes:
    return np.array(list(values), dtype=complex).tobytes()


def outcome(f, *args):
    """("ok", the result's bits), or the error's type and text."""
    try:
        return "ok", bits(f(*args))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def wide_spectra(rng, count):
    """Lists of 1..16 values with moduli 10^+-(0 .. 150), spread freely (their product may under-
    or overflow) or with log-moduli summing to zero; some have a repeated value, a zero, real
    values, or an exact 1."""
    for trial in range(count):
        n = 1 + trial % 16
        top = (0, 1, 10, 75, 150)[trial // 16 % 5]
        logs = rng.uniform(-top, top, n)
        if trial // 80 % 2:
            logs -= logs.mean()
        zs = [cmath.rect(10.0 ** x, rng.uniform(-np.pi, np.pi)) for x in logs]
        k = int(rng.integers(n))
        if trial % 7 == 3:
            zs[k] = zs[0]
        elif trial % 11 == 5:
            zs[k] = 0j
        elif trial % 13 == 4:
            zs = [z.real for z in zs]
        elif trial % 17 == 6:
            zs[k] = 1.0
        yield zs


def test_unit_product_and_elem_sym_match_their_former_forms_bit_for_bit():
    rng = np.random.default_rng(233)
    outcomes, non_finite = Counter(), 0
    for zs in wide_spectra(rng, 4000):
        got = outcome(spectral_satake._unit_product, zs)
        assert got == outcome(reference_unit_product, zs), zs
        outcomes[got[0]] += 1
        raw = SimpleNamespace(eigenvalues=tuple(map(complex, zs)))  # elem_sym reads only the eigenvalues
        e = elem_sym(raw)
        assert bits(e) == bits(reference_elem_sym(raw)), zs
        non_finite += not all(map(cmath.isfinite, e))
        if got[0] == "ok":
            s = SpectralClass(tuple(zs))
            assert bits(elem_sym(s)) == bits(reference_elem_sym(s)), zs
    assert outcomes["ok"] > 3000 and outcomes["OutOfRange"] > 100 and outcomes["ZeroState"] > 100, outcomes
    assert non_finite > 100, non_finite


# ------------------------------------------------------------- shared constructions


def reference_cofactor_matrix(m):
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    out = np.empty((n, n), dtype=complex)
    idx = np.arange(n)
    for i in range(n):
        for j in range(n):
            sub = m[np.ix_(idx != i, idx != j)]
            out[i, j] = (-1) ** (i + j) * (np.linalg.det(sub) if n > 1 else 1.0)
    return out


def test_cofactor_matrix_matches_the_minor_by_minor_reference_bit_for_bit():
    rng = np.random.default_rng(167)
    for trial in range(360):
        n, kind = trial % 9, (trial // 9) % 4
        if kind == 0:
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        elif kind == 1:  # rank n - 2 or below, where the cofactor matrix vanishes
            m = sum((np.outer(rng.standard_normal(n), rng.standard_normal(n) + 1j) for _ in range(max(n - 2, 0))), np.zeros((n, n)))
        elif kind == 2:  # rank n - 1: exact zeros and signed zeros in the input
            m = rng.integers(-2, 3, (n, n)).astype(float)
            if n:
                m[-1] = m[0] * -0.0
        else:
            m = rng.standard_normal((n, n)) * 10.0 ** float(rng.uniform(-40, 40))  # no 7x7 minor overflows
        got, want = cofactor_matrix(m), reference_cofactor_matrix(m)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (n, kind)
    assert cofactor_matrix([[5.0]]).tolist() == [[1 + 0j]]


def reference_swap_operator(d):
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def realigned(g, d_a, d_b):
    return g.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b)


def test_is_local_operator_swaps_the_factors_like_the_permutation_matrix_bit_for_bit(monkeypatch):
    # Below CERTIFY_MIN_TOL the SVD decides both cuts: {0,2} is the
    # realignment of the operator, {0,3} that of the operator times the swap.
    seen = []
    real = tensor_core.numerical_rank

    def recording(m, tol):
        seen.append(np.array(m))
        return real(m, tol)

    monkeypatch.setattr(tensor_core, "numerical_rank", recording)
    tol = CERTIFY_MIN_TOL / 10
    rng = np.random.default_rng(173)
    operators = [loop_holonomy(p, word) for p in range(2, 7) for word in ("v", "uv", "uVv")]
    for trial in range(250):
        d = 2 + trial % 5
        a, b, c = (rng.standard_normal((d**k, d**k)) + 1j * rng.standard_normal((d**k, d**k)) for k in (1, 1, 2))
        g = np.kron(a, b) @ reference_swap_operator(d) if trial % 2 else c  # local after the swap, or generic
        operators.append(np.where(rng.random(g.shape) < 0.2, -0.0, g))
    swapped = 0
    for g in operators:
        d = int(round(g.shape[0] ** 0.5))
        seen.clear()
        local = is_local_operator(g, d, d, tol)
        assert seen[0].tobytes() == realigned(unit_max_modulus(g), d, d).tobytes()
        if len(seen) == 2:
            expected = realigned(unit_max_modulus(g) @ reference_swap_operator(d), d, d)
            assert seen[1].tobytes() == expected.tobytes()
            swapped += 1
        else:
            assert local and len(seen) == 1
    assert swapped >= 150


def reference_is_22_product(s, tol):
    if not all(r <= tol * w for r, w in _relations_22(s)):
        return False, None
    zs = s.eigenvalues
    wtol = max(tol, 1e-7)  # witness matching may be looser than the verdict
    for j in range(1, 4):
        u = zs[0]
        v = next(zs[k] for k in range(1, 4) if k != j)
        for sign in (1, -1):
            a = sign * cmath.sqrt(u * v)
            if a == 0:
                continue
            b = u / a
            spectrum = (a * b, a / b, b / a, 1.0 / (a * b))
            if reference_match_multiset(spectrum, zs, wtol):
                return True, (a, b)
    return True, None


def test_is_22_product_matches_the_value_pool_reference_witness_for_witness():
    rng = np.random.default_rng(179)
    witnesses = 0
    for dims, s in seeded_spectra(rng, 900):
        if dims != (2, 2):
            continue
        for tol in (1e-12, SPECTRAL_TOL, 1e-6, 1e-4):
            got = is_22_product(s, tol)
            assert got == reference_is_22_product(s, tol)
            witnesses += got[1] is not None
    assert witnesses > 150


def reference_random_block_product(rng, dims, blocks):
    n = len(dims)
    factors = []
    for block in blocks:
        size = int(prod(dims[i] for i in block))
        factors.append(rng.standard_normal(size) + 1j * rng.standard_normal(size))
    vec = factors[0]
    for f in factors[1:]:
        vec = np.kron(vec, f)
    order = [i for block in blocks for i in block]
    inverse = np.argsort(order)
    shaped = vec.reshape([dims[i] for i in order]).transpose(inverse)
    return make_state(dims, shaped.ravel())


def reference_random_state(rng, dims):
    n = int(prod(dims))
    return make_state(dims, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def test_random_block_product_matches_the_kron_reference_bit_for_bit():
    # One block is the repro battery's generic state: the same draws, the same state.
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 6
        dims = tuple(int(d) for d in rng.integers(2, 4, n))
        order = [int(i) for i in rng.permutation(n)]
        cuts = sorted(int(c) for c in rng.choice(range(1, n), size=int(rng.integers(0, n)), replace=False)) if n > 1 else []
        edges = [0] + cuts + [n]
        blocks = [tuple(sorted(order[a:b])) for a, b in zip(edges, edges[1:])]
        for got_blocks, reference in ((blocks, lambda r: reference_random_block_product(r, dims, blocks)),
                                      ([tuple(range(n))], lambda r: reference_random_state(r, dims))):
            got_rng, want_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
            got, want = random_block_product(got_rng, dims, got_blocks), reference(want_rng)
            assert got.dims == want.dims and got.coeffs.tobytes() == want.coeffs.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


# ------------------------------------------------------------- the rank-1 test for operators and 2x2x2 states
# `is_local_operator` and `rank_2x2x2` ask the certified cut test
# (`tensor_core._cross_tests`); the references are the SVD forms they
# replaced, verbatim.


def reference_realignment_rank_one(g, d_a, d_b, tol):
    r = g.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b)
    return numerical_rank(r, tol) == 1


def reference_is_local_operator(g, d_a, d_b, tol=DEFAULT_RANK_TOL):
    ga = unit_max_modulus(g)
    if ga.shape != (d_a * d_b, d_a * d_b):
        raise ShapeMismatch(f"operator shape {ga.shape} does not match ({d_a * d_b}, {d_a * d_b})")
    if reference_realignment_rank_one(ga, d_a, d_b, tol):
        return True
    if d_a == d_b:
        # composing with the factor swap exchanges the two column indices
        return reference_realignment_rank_one(ga.reshape(d_a * d_a, d_a, d_a).transpose(0, 2, 1), d_a, d_b, tol)
    return False


def reference_rank_2x2x2(state, tol=DEFAULT_RANK_TOL):
    if state.dims != (2, 2, 2):
        raise WrongShape(f"exact rank implemented only for dims (2,2,2), got {state.dims}")
    state = PureState(state.dims, unit_max_modulus(state.coeffs))
    ranks = [numerical_rank(flatten(state, cut), tol) for cut in bipartitions(3)]
    if all(r == 1 for r in ranks):
        return 1
    if min(ranks) == 1:
        # A factor splits off; the other pair carries Schmidt rank 2.
        return max(ranks)
    t = state.tensor()
    m0, m1 = t[0], t[1]
    # Binary quadratic det(a M0 + b M1) = A a^2 + B ab + C b^2; with all
    # flattening ranks 2 it cannot vanish identically.
    qa = np.linalg.det(m0)
    qc = np.linalg.det(m1)
    qb = np.linalg.det(m0 + m1) - qa - qc
    scale = max(abs(qa), abs(qb), abs(qc))
    qa, qb, qc = qa / scale, qb / scale, qc / scale
    disc = qb * qb - 4.0 * qa * qc
    return 2 if abs(disc) > PENCIL_TOL else 3


TOLS = (1e-3, 1e-6, 1e-9, 1e-12)
# sigma_2 / sigma_1 planted at f * tol: on the SVD's tolerance, on the bounds behind the two certificates, and clear of them.
RATIO_FACTORS = tuple(f * (1 + s) for f in (0.0, 1e-3, 0.25, 0.5, 1.0, 2.0, 4.0) for s in (-1e-3, 1e-3))
SCALES = (1e-320, 1e-300, 1e-150, 1.0, 1e150, 1e300)
SPLITS = ((2, 2), (3, 3), (2, 3), (3, 2), (4, 4), (2, 4))


def unit_columns(rng, d, k):
    """k orthonormal complex columns of length d."""
    return np.linalg.qr(rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k)))[0]


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def planted_operator(rng, d_a, d_b, ratio):
    """An operator whose realignment has singular values 1 and ratio."""
    u, v = unit_columns(rng, d_a * d_a, 2), unit_columns(rng, d_b * d_b, 2)
    r = np.outer(u[:, 0], v[:, 0].conj()) + ratio * np.outer(u[:, 1], v[:, 1].conj())
    return r.reshape(d_a, d_a, d_b, d_b).transpose(0, 2, 1, 3).reshape(d_a * d_b, d_a * d_b)


def seeded_operators(rng):
    """(operator, d_a, d_b, tol): holonomies, symbol-cover lifts, planted, Kronecker, swapped and generic ones."""
    for p in range(2, 9):
        for _ in range(12):
            word = "".join(rng.choice(list("uUvV"), size=int(rng.integers(1, 7))))
            for tol in TOLS:
                yield loop_holonomy(p, word), p, p, tol
    for p in range(2, 6):
        cover = symbol_cover(p)
        splits = [(d, p * p // d) for d in range(2, p * p) if p * p % d == 0 and p * p // d >= 2]
        for i, j in cover.pairs:
            for d_a, d_b in splits:
                yield cover.lift(i, j), d_a, d_b, TOLS[(i + j) % 4]
                yield cover.lift(j, i), d_a, d_b, TOLS[(i * j) % 4]
    for tol in TOLS:
        for f in RATIO_FACTORS:
            for d_a, d_b in SPLITS:
                g = planted_operator(rng, d_a, d_b, f * tol) * SCALES[int(rng.integers(len(SCALES)))]
                yield g, d_a, d_b, tol
                if d_a == d_b:
                    yield g @ reference_swap_operator(d_a), d_a, d_b, tol
    for trial in range(300):
        d_a, d_b = SPLITS[trial % len(SPLITS)]
        a, b, c = complex_normal(rng, (d_a, d_a)), complex_normal(rng, (d_b, d_b)), complex_normal(rng, (d_a * d_b,) * 2)
        scale = SCALES[trial % len(SCALES)]
        tol = TOLS[trial // len(SCALES) % 4]
        yield np.kron(a, b) * scale, d_a, d_b, tol
        yield c * scale, d_a, d_b, tol
        if d_a == d_b:
            yield np.kron(a, b) @ reference_swap_operator(d_a) * scale, d_a, d_b, tol
    for d_a, d_b in SPLITS:
        for tol in TOLS:
            yield np.zeros((d_a * d_b,) * 2), d_a, d_b, tol


@pytest.mark.filterwarnings("error")
def test_is_local_operator_matches_the_svd_reference_verdict_for_verdict():
    rng = np.random.default_rng(181)
    cases = local = 0
    for g, d_a, d_b, tol in seeded_operators(rng):
        got = is_local_operator(g, d_a, d_b, tol)
        assert got == reference_is_local_operator(g, d_a, d_b, tol), (d_a, d_b, tol)
        cases += 1
        local += got
    assert cases >= 2000 and 500 < local < cases - 500


def planted_state(rng, ratio):
    """A 2x2x2 state whose flattening along each factor has singular values 1 and ratio."""
    a, b, c = (unit_columns(rng, 2, 2) for _ in range(3))
    return np.einsum("i,j,k->ijk", a[:, 0], b[:, 0], c[:, 0]) + ratio * np.einsum("i,j,k->ijk", a[:, 1], b[:, 1], c[:, 1])


def partly_product(rng, factor, ratio):
    """The factor subsystem times a two-qubit state of Schmidt ratio `ratio`, perturbed off product at 1e-3."""
    u, v = unit_columns(rng, 2, 2), unit_columns(rng, 2, 2)
    pair = np.outer(u[:, 0], v[:, 0]) + ratio * np.outer(u[:, 1], v[:, 1])
    t = np.einsum("i,jk->ijk", complex_normal(rng, 2), pair)
    return np.moveaxis(t, 0, factor)


def two_product_cuts(rng, ratio):
    """|000> + ratio (|101> + |110>) under local unitaries: flattening ratios sqrt(2) ratio, ratio, ratio.

    Near ratio = tol two cuts pass the rank test and one does not, which no exact tensor allows.
    """
    t = np.zeros((2, 2, 2), dtype=complex)
    t[0, 0, 0], t[1, 0, 1], t[1, 1, 0] = 1.0, ratio, ratio
    t = np.einsum("ai,bj,ck,ijk->abc", *(unit_columns(rng, 2, 2) for _ in range(3)), t)
    return np.moveaxis(t, 0, int(rng.integers(3)))


def seeded_2x2x2_states(rng):
    """(coefficients, tol): product, partly product, generic and W-family states, planted near tol, at every scale."""
    w_coeffs = w_state().coeffs.reshape(2, 2, 2)
    for tol in TOLS:
        for f in RATIO_FACTORS:
            for scale in SCALES:
                yield planted_state(rng, f * tol) * scale, tol
                yield two_product_cuts(rng, f * tol) * scale, tol
                yield partly_product(rng, int(rng.integers(3)), 1.0) + f * tol * planted_state(rng, 1.0) * 0.5, tol
                yield partly_product(rng, int(rng.integers(3)), f * tol) * scale, tol
    for trial in range(1200):
        tol, scale = TOLS[trial % 4], SCALES[trial // 4 % len(SCALES)]
        kind = trial // 24 % 5
        if kind == 0:
            t = np.einsum("i,j,k->ijk", *(complex_normal(rng, 2) for _ in range(3)))
        elif kind == 1:
            t = partly_product(rng, trial % 3, float(rng.uniform(0.01, 1)))
        elif kind == 2:
            t = complex_normal(rng, (2, 2, 2))
        elif kind == 3:
            t = w_family(complex(*rng.standard_normal(2)) * 10.0 ** float(rng.uniform(-6, 1))).coeffs.reshape(2, 2, 2)
        else:  # local images of W: rank 3, at flattening rank 2
            t = np.einsum("ai,bj,ck,ijk->abc", *(complex_normal(rng, (2, 2)) for _ in range(3)), w_coeffs)
        yield t / np.abs(t).max() * scale, tol


@pytest.mark.filterwarnings("error")
def test_rank_2x2x2_matches_the_svd_reference_rank_for_rank():
    rng = np.random.default_rng(191)
    counts = {1: 0, 2: 0, 3: 0}
    product_cuts = [0] * 4
    for t, tol in seeded_2x2x2_states(rng):
        state = make_state([2, 2, 2], t.reshape(-1))
        got = rank_2x2x2(state, tol)
        assert got == reference_rank_2x2x2(state, tol), tol
        counts[got] += 1
        product_cuts[sum(numerical_rank(flatten(state, cut), tol) == 1 for cut in bipartitions(3))] += 1
    assert sum(counts.values()) >= 2000 and min(counts.values()) >= 100, counts
    assert min(product_cuts) >= 20, product_cuts  # every count of product cuts, 2 included


# ------------------------------------------------------------- the oracles' round trips
# The direct flattenings of `brute_force_finest`, the cached subsets of
# `minor_rank` and the sparse elimination of `monomial_quotient_dim`,
# against the forms they replaced, verbatim.


def reference_leading_factors(state):
    n = state.n_subsystems
    factors = {}

    def factor(block):
        if block not in factors:
            cut = Bipartition.of(n, block)
            u, _, vh = np.linalg.svd(flatten(state, cut), full_matrices=False)
            factors[cut.block_a], factors[cut.block_b] = u[:, 0], vh[0, :]
        return factors[block]

    return factor


def test_leading_factors_match_the_bipartition_flatten_reference_bit_for_bit():
    rng = np.random.default_rng(193)
    for trial, (st, _, _) in enumerate(planted_states(rng, 80)):
        st = make_state(st.dims, st.coeffs * (1e-300, 1.0, 1e250)[trial % 3])
        n = st.n_subsystems
        got, want = _leading_factors(st), reference_leading_factors(st)
        blocks = [block for size in range(1, n) for block in combinations(range(n), size)]
        unit = st.normalized()
        for block in blocks[trial % 2 :] + blocks[: trial % 2]:  # either side of a cut may come first
            (g, share), w = got(block), want(block)
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), (st.dims, block)
            # sigma_1 / ||t||_F, at every scale: sigma_1 of the normalized state's flattening
            assert abs(share - np.linalg.svd(flatten(unit, Bipartition.of(n, block)), compute_uv=False)[0]) < 1e-14


def reference_monomial_quotient_dim(t):
    def monomials(deg):
        return [
            (i, j, k, deg - i - j - k)
            for i in range(deg + 1)
            for j in range(deg + 1 - i)
            for k in range(deg + 1 - i - j)
        ]

    target = monomials(t)
    if t < 2:
        return len(target)
    source = monomials(t - 2)
    index = {m: i for i, m in enumerate(target)}
    rows = []
    for m in source:
        row = [Fraction(0)] * len(target)
        up = (m[0] + 1, m[1], m[2], m[3] + 1)  # * ad
        dn = (m[0], m[1] + 1, m[2] + 1, m[3])  # * bc
        row[index[up]] += 1
        row[index[dn]] -= 1
        rows.append(row)
    # exact Gaussian elimination
    rank, lead = 0, 0
    for col in range(len(target)):
        piv = next((r for r in range(lead, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        for r in range(len(rows)):
            if r != lead and rows[r][col] != 0:
                f = rows[r][col] / rows[lead][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[lead])]
        lead += 1
        rank += 1
        if lead == len(rows):
            break
    return len(target) - rank


def test_monomial_quotient_dim_matches_the_dense_fraction_reference():
    for t in range(13):
        assert monomial_quotient_dim(t) == reference_monomial_quotient_dim(t) == (t + 1) ** 2, t


def reference_stacked_minors(m, k):
    ri = np.array(list(combinations(range(m.shape[0]), k)), dtype=np.intp)
    ci = np.array(list(combinations(range(m.shape[1]), k)), dtype=np.intp)
    return np.linalg.det(m[ri[:, None, :, None], ci[None, :, None, :]])


def test_stacked_minors_match_the_uncached_enumeration_bit_for_bit():
    rng = np.random.default_rng(197)
    for rows in range(1, 9):
        for cols in range(1, 9):
            m = complex_normal(rng, (rows, cols)) * 10.0 ** float(rng.uniform(-30, 30))
            for k in range(0, min(rows, cols) + 1):
                got, want = tensor_core._stacked_minors(m, k), reference_stacked_minors(m, k)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (rows, cols, k)


def test_cached_subset_tables_are_read_only_and_shared():
    table = tensor_core._subsets(6, 3)
    assert table is tensor_core._subsets(6, 3) and table.shape == (20, 3)
    with pytest.raises(ValueError):
        table[0, 0] = 5
    rng = np.random.default_rng(199)
    m = complex_normal(rng, (6, 2)) @ complex_normal(rng, (2, 6))
    assert minor_rank(m) == numerical_rank(m) == 2
    assert tensor_core._subsets(6, 3).tolist() == [list(c) for c in combinations(range(6), 3)]


EXTREME_TYPES = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 2, 2))


def extreme_spectra(rng, count):
    """(type, spectrum): products of local spectra, products with one eigenvalue moved by 1e-5, and
    generic spectra, with moduli spread over 10^+-(5 .. 200); spectra SpectralClass rejects are left out."""
    for trial in range(count):
        dims = EXTREME_TYPES[trial % len(EXTREME_TYPES)]
        top = (5, 50, 100, 150, 200)[trial // len(EXTREME_TYPES) % 5]
        kind = trial // (5 * len(EXTREME_TYPES)) % 3

        def draw(k):
            return [cmath.rect(10.0 ** rng.uniform(-top, top), rng.uniform(-np.pi, np.pi)) for _ in range(k)]

        if kind < 2:
            zs = [1.0]
            for factor in map(draw, dims):
                zs = [v * a for v in zs for a in factor]
            if kind == 1:
                zs[int(rng.integers(len(zs)))] *= 1 + 1e-5
        else:
            zs = draw(prod(dims))
        try:
            yield dims, SpectralClass(tuple(zs))
        except ValueError:  # a zero, non-finite or overflowing eigenvalue or product
            continue


def column_products_stay_finite(zs, d_a, d_b):
    rest = range(1, len(zs))
    for row_idx in combinations(rest, d_b - 1):
        for col_idx in combinations([k for k in rest if k not in row_idx], d_a - 1):
            p = prod([zs[0]] + [zs[k] for k in col_idx])
            if p == 0 or not cmath.isfinite(p):
                return False
    return True


def test_bipartite_splits_match_the_reference_at_extreme_moduli():
    # The predicted values zs[a] zs[b] / zs[0] overflow to inf or nan parts on many of these
    # spectra; the reference accepts such a value as a match, and so must the candidate lists.
    rng = np.random.default_rng(211)
    compared = non_finite_cells = splits = 0
    for dims, s in extreme_spectra(rng, 1500):
        zs, d_a, d_b = s.eigenvalues, dims[0], prod(dims[1:])
        if not column_products_stay_finite(zs, d_a, d_b):
            continue
        try:
            want = list(reference_bipartite_splits(zs, d_a, d_b, SPECTRAL_TOL))
        except OverflowError:  # the reference's abs of a modulus past the float range with finite parts
            continue
        assert list(_bipartite_splits(zs, d_a, d_b, SPECTRAL_TOL)) == want
        compared += 1
        splits += bool(want)
        non_finite_cells += any(not cmath.isfinite(zs[a] * zs[b] / zs[0]) for a in range(1, len(zs)) for b in range(1, len(zs)))
    assert compared > 700 and splits > 100 and non_finite_cells > 30, (compared, splits, non_finite_cells)


def test_greedy_match_takes_a_non_finite_value_like_the_value_pool():
    # A value with an inf part lies at distance inf from every eigenvalue, within its inf bound;
    # one with nan parts and no inf compares with nothing. The value pool lets either take the
    # first eigenvalue left, and so must the candidate lists.
    rng = np.random.default_rng(227)
    inf, nan = float("inf"), float("nan")
    specials = (complex(inf, 0), complex(-inf, 1), complex(inf, nan), complex(nan, 0), complex(nan, nan), complex(1, nan))
    matched = 0
    for trial in range(600):
        n = 4 + trial % 5
        zs = [cmath.exp(complex(*rng.normal(size=2))) for _ in range(n)]
        values = [zs[k] * (1 + 1e-9 * (trial % 3)) for k in rng.permutation(n)]
        for k in rng.choice(n, size=1 + trial % 3, replace=False):
            values[k] = specials[int(rng.integers(len(specials)))]
        for tol in (1e-12, SPECTRAL_TOL, 1e-4):
            got = _greedy_match((_match_entry(c, zs, tol) for c in values), list(range(n)))
            assert got == reference_match_multiset(values, zs, max(tol, 1e-7)), (values, tol)
            matched += got
    assert 300 < matched < 1800, matched


def spectrum_matches(witness, s):
    """The slotwise products of the witness, unnormalized (their running product may under- or overflow), match s."""
    values = [1.0]
    for factor in witness.factors:
        values = [v * a for v in values for a in factor]
    return reference_match_multiset(values, s.eigenvalues, 1e-6)


def test_d_product_oracle_takes_the_log_of_a_column_product_that_under_or_overflows():
    # The reference raises ValueError (math domain error) from cmath.log(0) on an underflowed
    # product, and drops the split of an overflowed one; the sum of the logs gives the same roots.
    # One split here has a factor entry that underflows to 0, and must be passed over.
    rng = np.random.default_rng(211)
    witnessed = 0
    for dims, s in extreme_spectra(rng, 3000):
        if column_products_stay_finite(s.eigenvalues, dims[0], prod(dims[1:])):
            continue
        got = d_product_oracle(s, dims)
        if got is not None:
            assert spectrum_matches(got, s), dims
            witnessed += 1
    assert witnessed >= 10, witnessed


def test_slot_search_compares_a_value_whose_modulus_overflows_at_quarter_scale():
    # (x y, x/y, y/x, 1/(x y)) with |1/(x y^3)| = 2e308: the split is found at column 2 of
    # row 1, and the column scan also reads cell (3, 1), whose modulus overflows with finite parts.
    x, y = cmath.rect(1e-100, 0.1), cmath.rect((5e-309 / 1e-100) ** (1 / 3), 0.3)
    s = SpectralClass((x * y, x / y, y / x, 1 / (x * y)))
    assert not cmath.isfinite(abs(s.eigenvalues[3]) * abs(s.eigenvalues[1]) / abs(s.eigenvalues[0]))
    got = d_product_oracle(s, (2, 2))
    assert got is not None and got == reference_d_product_oracle(s, (2, 2))
    # Here the first value the match reads, zs[2] zs[1] / zs[0], has modulus 2e308: the reference raises.
    zs = (1e-200, cmath.rect(1e54, 0.4), cmath.rect(2e54, 0.385398))
    s = SpectralClass(zs + (1 / prod(zs),))
    with pytest.raises(OverflowError):
        reference_d_product_oracle(s, (2, 2))
    assert d_product_oracle(s, (2, 2)) is None
