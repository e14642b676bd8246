"""The brute-force oracles and the partition lattice against verbatim copies of their unshared forms.

`brute_force_finest` skips partitions that its running meet already
refines, and `d_product_oracle` computes each predicted grid value and its
distances once per spectrum. `meet` and `refines` fold block masks into
one label per subsystem. None may change a verdict or a witness: the
references below are the code as it was before that sharing, with the
set-intersection lattice operations, and every comparison is exact
equality.

The constructions written once and shared are held to their former
separate formulas the same way, bit for bit: `cofactor_matrix` (minor by
minor), the factor swap in `is_local_operator` (a permutation-matrix
product), the `is_22_product` witness match (a value pool) and
`random_block_product` (`np.kron`).
"""

import cmath
from itertools import combinations, permutations
from math import prod

import numpy as np
import pytest

from egeo import (
    LocalSpectra,
    Partition,
    ShapeMismatch,
    SpectralClass,
    cofactor_matrix,
    d_product_oracle,
    is_22_product,
    is_local_operator,
    loop_holonomy,
    make_state,
    meet,
    refines,
    tensor_spectrum,
)
from egeo import gluing_sim, oracles, spectral_satake
from egeo.oracles import _leading_factors, brute_force_finest, random_block_product, set_partitions
from egeo.separability import _labelled, _meet_labels
from egeo.spectral_satake import SPECTRAL_TOL, _bipartite_splits, _relations_22
from egeo.tensor_core import unit_max_modulus

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
    return Partition(p.n_subsystems, tuple(blocks))


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
    factor = _leading_factors(state)
    finest = Partition.trivial(n)
    for blocks in set_partitions(n):
        p = Partition(n, tuple(tuple(b) for b in blocks))
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
    # 7 * 6 ordered (column, row) pairs, each with 8 distances and one bound
    assert len(calls) <= 7 * 6 * (8 + 1)


# ------------------------------------------------------------- meet and refines


def test_label_meet_matches_the_set_intersection_reference_on_every_pair():
    # The fold from p's own labels is brute_force_finest's running meet.
    for n in range(1, 7):
        parts = [Partition(n, tuple(tuple(b) for b in blocks)) for blocks in set_partitions(n)]
        masks = {p: [sum(1 << i for i in b) for b in p.blocks] for p in parts}
        for p in parts:
            labels = _meet_labels([0] * n, masks[p])
            for q in parts:
                expected = reference_meet(p, q)
                assert meet(p, q) == expected
                assert _labelled(_meet_labels(labels, masks[q])) == expected
                assert refines(p, q) == reference_refines(p, q)


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
        yield make_state(dims, st.coeffs + eps * np.linalg.norm(st.coeffs) * noise), Partition(n, tuple(blocks)), eps


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


def test_brute_force_finest_tests_only_the_discrete_partition_of_a_full_product(monkeypatch):
    # set_partitions yields the discrete partition first; once it passes, the
    # running meet is discrete and refines every later partition.
    tested = []
    real = oracles._reconstructs

    def recording(reference, dims, blocks, factor, tol):
        tested.append([tuple(b) for b in blocks])
        return real(reference, dims, blocks, factor, tol)

    monkeypatch.setattr(oracles, "_reconstructs", recording)
    rng = np.random.default_rng(151)
    state = random_block_product(rng, (2, 3, 2, 2, 3), [(i,) for i in range(5)])
    assert brute_force_finest(state) == Partition.discrete(5)
    assert tested == [[(0,), (1,), (2,), (3,), (4,)]]


def test_brute_force_finest_tests_every_partition_of_an_entangled_state(monkeypatch):
    # The running meet of a GME state stays trivial, which refines no other
    # partition, so all Bell(5) - 1 = 51 multi-block partitions are tested.
    tested = []
    real = oracles._reconstructs

    def recording(reference, dims, blocks, factor, tol):
        tested.append(len(blocks))
        return real(reference, dims, blocks, factor, tol)

    monkeypatch.setattr(oracles, "_reconstructs", recording)
    rng = np.random.default_rng(157)
    state = make_state((2,) * 5, rng.standard_normal(32) + 1j * rng.standard_normal(32))
    assert brute_force_finest(state) == Partition.trivial(5)
    assert len(tested) == 51 and 1 not in tested


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


def test_is_local_operator_swaps_the_factors_like_the_permutation_matrix_bit_for_bit(monkeypatch):
    seen = []
    real = gluing_sim._realignment_rank_one

    def recording(g, d_a, d_b, tol):
        seen.append(np.array(g))
        return real(g, d_a, d_b, tol)

    monkeypatch.setattr(gluing_sim, "_realignment_rank_one", recording)
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
        local = is_local_operator(g, d, d)
        if len(seen) == 2:
            expected = unit_max_modulus(g) @ reference_swap_operator(d)
            assert seen[1].tobytes() == expected.tobytes()
            swapped += 1
        else:
            assert local
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
