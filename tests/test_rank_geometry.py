from itertools import product
from math import comb, prod

import numpy as np
import pytest

from egeo import (
    Bipartition,
    IntegerPartition,
    OutOfRange,
    PureState,
    WrongShape,
    ZeroState,
    bipartitions,
    determinantal_degree,
    determinantal_dim,
    flatten,
    flattening_lower_bound,
    hilbert_function,
    hilbert_poly_fit,
    make_state,
    numerical_rank,
    rank_2x2x2,
    schur_dim,
    secant_expected_dim,
    segre_degree,
    variety_invariants,
    w_family,
    w_state,
)
from egeo import separability
from egeo.errors import DEFAULT_RANK_TOL
from egeo.oracles import monomial_quotient_dim
from egeo.separability import CERTIFY_MIN_TOL
from egeo.tensor_core import unit_max_modulus

RNG = np.random.default_rng(23)


def ghz3():
    c = np.zeros(8)
    c[0] = c[7] = 1
    return make_state([2, 2, 2], c)


def random_product_222(rng):
    vec = np.array([1.0 + 0j])
    for _ in range(3):
        vec = np.kron(vec, rng.standard_normal(2) + 1j * rng.standard_normal(2))
    return make_state([2, 2, 2], vec)


# --------------------------------------------------------- flattening bound


def test_flattening_lower_bound_examples():
    assert flattening_lower_bound(w_state()) == 2
    assert flattening_lower_bound(random_product_222(RNG)) == 1
    assert flattening_lower_bound(ghz3()) == 2


def svd_bound(state, tol):
    """The reference: the largest SVD rank over every cut, as the bound was computed before cuts could be skipped."""
    state = PureState(state.dims, unit_max_modulus(state.coeffs))
    return max(numerical_rank(flatten(state, cut), tol) for cut in bipartitions(state.n_subsystems))


def product_sum(rng, dims, r):
    coeffs = np.zeros(prod(dims), dtype=complex)
    for _ in range(r):
        term = np.ones(1, dtype=complex)
        for d in dims:
            term = np.kron(term, rng.standard_normal(d) + 1j * rng.standard_normal(d))
        coeffs += term
    return coeffs


TOLS = (1e-12, 1e-11, 1e-9, 1e-6, 1e-3, 0.5)
# f, the noise over tol: a log grid, and the boundaries 1/2, 1 and 2, each missed by 1e-3.
NOISE_OVER_TOL = (*10 ** np.linspace(-1.5, 1.5, 7), *(a * (1 + e) for a in (0.5, 1, 2) for e in (-1e-3, 1e-3)))
SCALES = (5e-314, 1e-300, 1.0, 1e300, 1.7e308)


def test_flattening_lower_bound_is_the_max_svd_rank_near_every_boundary():
    # A sum of 1-3 product terms plus noise of norm f tol ||sum||: a product term or a dense vector.
    rng = np.random.default_rng(7)
    for tol, f, scale in product(TOLS, NOISE_OVER_TOL, SCALES):
        dims = tuple(int(d) for d in rng.choice([2, 2, 3], int(rng.integers(3, 7))))
        coeffs = product_sum(rng, dims, int(rng.integers(1, 4)))
        if rng.random() < 0.5:
            noise = product_sum(rng, dims, 1)
        else:
            noise = rng.standard_normal(coeffs.size) + 1j * rng.standard_normal(coeffs.size)
        coeffs += noise * (f * tol * np.linalg.norm(coeffs) / np.linalg.norm(noise))
        state = make_state(dims, coeffs / np.abs(coeffs).max() * scale)
        assert flattening_lower_bound(state, tol) == svd_bound(state, tol), (dims, tol, f, scale)


def count_svds(monkeypatch):
    calls = []

    def counted(m, tol):
        calls.append(m.shape)
        return numerical_rank(m, tol)

    monkeypatch.setattr(separability, "numerical_rank", counted)
    return calls


def test_a_generic_three_term_sum_takes_one_svd(monkeypatch):
    state = make_state([2] * 10, product_sum(np.random.default_rng(3), [2] * 10, 3))
    calls = count_svds(monkeypatch)
    assert flattening_lower_bound(state) == 3
    assert len(calls) == 1  # the first cut, 32 x 32; the certificate skips the 500 others with min(D_A, D_B) > 3


def record_certificates(monkeypatch):
    """The stacks `_ranks_at_most` is given, each with the verdicts it returns."""
    certify, batches = separability._ranks_at_most, []

    def recorded(stack, omega, tol):
        batches.append((stack.copy(), omega.shape, certify(stack, omega, tol)))
        return batches[-1][2]

    monkeypatch.setattr(separability, "_ranks_at_most", recorded)
    return batches


def test_after_a_wasted_certificate_the_svd_decides_every_cut_left(monkeypatch):
    # Dense noise of norm tol/2: no cut's rank rises past 3, but the residual's Frobenius norm
    # exceeds what the certificate allows, so it fails on the first cut it tries.
    rng = np.random.default_rng(3)
    coeffs = product_sum(rng, [2] * 10, 3)
    noise = rng.standard_normal(coeffs.size) + 1j * rng.standard_normal(coeffs.size)
    state = make_state([2] * 10, coeffs + noise * (0.5e-9 * np.linalg.norm(coeffs) / np.linalg.norm(noise)))
    batches = record_certificates(monkeypatch)
    calls = count_svds(monkeypatch)
    assert flattening_lower_bound(state) == 3
    assert len(batches) == 1 and not batches[0][2][0]  # the first verdict is False, and no other is read
    assert len(calls) == 501
    assert svd_bound(state, DEFAULT_RANK_TOL) == 3


def test_verdicts_after_a_failed_certificate_are_not_read(monkeypatch):
    # The first verdict of the first stack is made False: every cut after it, in that stack too,
    # then takes the SVD although its own certificate holds.
    state = make_state([2] * 10, product_sum(np.random.default_rng(3), [2] * 10, 3))
    certify = separability._ranks_at_most

    def first_fails(stack, omega, tol):
        verdicts = certify(stack, omega, tol)
        assert verdicts.all()
        verdicts[0] = False
        return verdicts

    monkeypatch.setattr(separability, "_ranks_at_most", first_fails)
    calls = count_svds(monkeypatch)
    assert flattening_lower_bound(state) == 3
    assert len(calls) == 501


def test_certificates_run_over_runs_of_same_shape_cuts_in_visit_order(monkeypatch):
    # A generic 3-term sum: the first cut's SVD sets k = 3 and the certificate settles the 500
    # cuts left with min(D_A, D_B) > 3. They are 32 x 32, 16 x 64, 8 x 128 and 4 x 256, so
    # BATCH_ENTRIES // 1024 = 32 fit in a stack.
    state = make_state([2] * 10, product_sum(np.random.default_rng(3), [2] * 10, 3))
    batches = record_certificates(monkeypatch)
    assert flattening_lower_bound(state) == 3
    scaled = PureState(state.dims, unit_max_modulus(state.coeffs))
    cuts = sorted(bipartitions(10), key=lambda cut: min(2 ** len(cut.block_a), 2 ** len(cut.block_b)), reverse=True)
    visited = iter(cuts[1:])
    for stack, omega_shape, verdicts in batches:
        c, rows, cols = stack.shape
        assert c * rows * cols <= separability.BATCH_ENTRIES and rows <= cols
        assert omega_shape[0] >= cols and omega_shape[1] == 3 and verdicts.all()
        for m in stack:  # the next cut in visit order, as a wide matrix
            flat = flatten(scaled, next(visited))
            assert np.array_equal(m, flat if flat.shape == (rows, cols) else flat.T)
    assert [(len(b[0]), b[0].shape[1]) for b in batches] == [
        *[(32, 32)] * 3, (29, 32), *[(32, 16)] * 6, (18, 16), *[(32, 8)] * 3, (24, 8), (32, 4), (13, 4)
    ]


def test_no_bipartition_is_built_for_a_dense_16_qubit_state(monkeypatch):
    def refuse(*args):
        raise AssertionError("flattening_lower_bound built a Bipartition")

    monkeypatch.setattr(separability, "bipartitions", refuse)
    monkeypatch.setattr(Bipartition, "__post_init__", refuse)
    rng = np.random.default_rng(16)
    state = make_state([2] * 16, rng.standard_normal(2**16) + 1j * rng.standard_normal(2**16))
    calls = count_svds(monkeypatch)
    assert flattening_lower_bound(state) == 256
    assert calls == [(256, 256)]


BELL_PAIRS_8 = np.kron(np.kron([1, 0, 0, 1], [1, 0, 0, 1]), np.kron([1, 0, 0, 1], [1, 0, 0, 1])).astype(complex)


@pytest.mark.parametrize("f", [0, 0.3, 0.5, 1, 2])
def test_a_bound_that_rises_mid_scan_is_the_max_svd_rank(monkeypatch, f):
    # Bell pairs on (0,1), (2,3), (4,5) and (6,7), plus dense noise of norm f tol: the first 4|4
    # cut visited, {0,1,2,3}, has rank 1 and the cut {0,2,4,6} rank 16.
    tol = DEFAULT_RANK_TOL
    rng = np.random.default_rng(8)
    noise = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    state = make_state([2] * 8, BELL_PAIRS_8 + noise * (f * tol * np.linalg.norm(BELL_PAIRS_8) / np.linalg.norm(noise)))
    calls = count_svds(monkeypatch)
    assert flattening_lower_bound(state, tol) == svd_bound(state, tol) == 16
    assert len(calls) > 2  # the bound rose after the first cut and was not settled by it


# Qubits and qutrits: min(D_A, D_B) runs through 27, 24, 18, 16, 12, 9, 8, 6, 4 and 3, so the
# stacks change shape at each value and the sketch is sliced to each long side.
MIXED_DIMS = (2, 3, 2, 2, 3, 2, 2, 3)


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
@pytest.mark.parametrize("f", [0, 0.3, 0.5, 1, 2])
@pytest.mark.parametrize("r", [2, 3, 5])
def test_qubit_qutrit_bounds_are_the_max_svd_rank(monkeypatch, r, f, tol):
    rng = np.random.default_rng(100 * r + int(10 * f))
    coeffs = product_sum(rng, MIXED_DIMS, r)
    noise = rng.standard_normal(coeffs.size) + 1j * rng.standard_normal(coeffs.size)
    state = make_state(MIXED_DIMS, coeffs + noise * (f * tol * np.linalg.norm(coeffs) / np.linalg.norm(noise)))
    batches = record_certificates(monkeypatch)
    bound = svd_bound(state, tol)
    assert flattening_lower_bound(state, tol) == bound >= r  # noise at 2 tol can lift a cut past r
    if f == 0:  # one stack per shape, each wide, with the sketch cut to its long side
        assert [b[0].shape[1] for b in batches] == [d for d in (24, 18, 16, 12, 9, 8, 6, 4, 3) if d > r]
        assert all(b[0].shape[1] <= b[0].shape[2] <= b[1][0] and b[1][1] == r for b in batches)


def test_a_qubit_qutrit_bound_that_rises_twice_is_the_max_svd_rank(monkeypatch):
    # Maximally entangled pairs on (0,2), (1,4), (3,5) and a rank-2 qubit-qutrit pair on (6,7):
    # the first cut (32 x 27) has rank 2, a 24 x 36 cut then rank 6, and {0,1,3,6} rank 2*3*2*2 = 24.
    t = np.einsum("ac,be,df,gh->abcdefgh", np.eye(2), np.eye(3), np.eye(2), np.eye(2, 3))
    state = make_state(MIXED_DIMS, t.reshape(-1))
    calls = count_svds(monkeypatch)
    assert flattening_lower_bound(state) == svd_bound(state, DEFAULT_RANK_TOL) == 24
    assert calls == [(32, 27), (24, 36), (24, 36)]


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_a_stacked_cut_with_block_a_long_is_decided_as_stored_near_tol(monkeypatch, tol):
    # Pairs (0,3), (2,5) and (4,6) with Schmidt coefficients (1, 1), and (1,7) with (1, 1, f tol (1 -+ 1e-3)):
    # the first cut has rank 2 and {0,1,2,3} rank 4 or 6. The third, {0,1,2,4}, is 36 x 24 and stacked short
    # side first, so the SVD that decides its rank, 16 or 24, is of the transpose of its flattening.
    rng = np.random.default_rng(36)

    def pair(schmidt, rows, cols):
        u, v = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0] for d in (rows, cols))
        return (u[:, : len(schmidt)] * schmidt) @ v[: len(schmidt)]

    decided = []
    monkeypatch.setattr(separability, "numerical_rank", lambda m, tol: decided.append(m.copy()) or numerical_rank(m, tol))
    for f in (0.5, 1, 2):
        for side in (1 - 1e-3, 1 + 1e-3):
            weak = pair([1, 1, f * side * tol], 3, 3)
            t = np.einsum("ad,cf,bh,eg->abcdefgh", pair([1, 1], 2, 2), pair([1, 1], 2, 2), weak, pair([1, 1], 3, 2))
            state = make_state(MIXED_DIMS, t.reshape(-1))
            decided.clear()
            assert flattening_lower_bound(state, tol) == svd_bound(state, tol) == (24 if f * side > 1 else 16), (f, side)
            flat = flatten(PureState(state.dims, unit_max_modulus(state.coeffs)), Bipartition.of(8, [0, 1, 2, 4]))
            assert flat.shape == (36, 24) and any(np.array_equal(m, flat.T) for m in decided)


def test_below_the_certificate_floor_every_cut_that_could_raise_the_bound_takes_its_svd(monkeypatch):
    tol = CERTIFY_MIN_TOL / 10
    state = make_state([2] * 10, product_sum(np.random.default_rng(3), [2] * 10, 3))
    calls = count_svds(monkeypatch)
    assert flattening_lower_bound(state, tol) == 3
    assert len(calls) == sum(1 for cut in bipartitions(10) if min(len(cut.block_a), len(cut.block_b)) >= 2) == 501


# ------------------------------------------------------------- exact rank


def test_rank_2x2x2_examples():
    assert rank_2x2x2(w_state()) == 3
    assert rank_2x2x2(ghz3()) == 2
    assert rank_2x2x2(make_state([2, 2, 2], [1] + [0] * 7)) == 1


def test_rank_2x2x2_wrong_shape():
    with pytest.raises(WrongShape):
        rank_2x2x2(make_state([2, 2], [1, 0, 0, 1]))


def test_rank_2x2x2_partial_product():
    # u (x) Bell on factors 2,3: rank 2, with one splitting factor
    u = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    st = make_state([2, 2, 2], np.kron(u, phi))
    assert rank_2x2x2(st) == 2
    # Bell on factors 1,3 with a spectator in the middle
    vec = np.zeros(8, dtype=complex)
    vec[0] = 1  # |000>
    vec[5] = 1  # |101>
    assert rank_2x2x2(make_state([2, 2, 2], vec)) == 2


def test_rank_bounded_below_by_flattening_and_strict_only_on_w_class():
    rng = np.random.default_rng(41)
    for _ in range(40):
        st = make_state([2, 2, 2], rng.standard_normal(8) + 1j * rng.standard_normal(8))
        r, b = rank_2x2x2(st), flattening_lower_bound(st)
        assert r >= b
        assert (r > b) == (r == 3)
    # local transforms of W stay rank 3 and keep the gap
    for _ in range(10):
        gs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
        g = np.kron(np.kron(gs[0], gs[1]), gs[2])
        moved = make_state([2, 2, 2], g @ w_state().coeffs)
        assert rank_2x2x2(moved) == 3
        assert flattening_lower_bound(moved) == 2


# ----------------------------------------------------------------- w family


def test_w_family_zero_at_origin():
    with pytest.raises(ZeroState):
        w_family(0.0)


def test_w_family_rank_two_witness():
    assert rank_2x2x2(w_family(1.0)) == 2
    assert rank_2x2x2(w_family(0.37 - 0.2j)) == 2


def test_w_family_approaches_w():
    wn = w_state().normalized().coeffs
    dists = []
    for t in (1e-1, 1e-2, 1e-3):
        psi = w_family(t).normalized().coeffs
        overlap = abs(np.vdot(wn, psi))
        dist = np.sqrt(max(0.0, 1.0 - overlap**2))
        assert dist < 3 * t
        dists.append(dist)
    assert dists[0] > dists[1] > dists[2]


# ---------------------------------------------------------------- numerology


def test_determinantal_dim_examples():
    assert determinantal_dim(2, 2, 1) == (2, 1)
    assert determinantal_dim(3, 3, 2) == (7, 1)
    assert determinantal_dim(3, 3, 3) == (8, 0)
    with pytest.raises(OutOfRange):
        determinantal_dim(2, 2, 3)


def test_segre_degree_examples():
    assert segre_degree(2, 2) == 2
    assert segre_degree(3, 3) == 6
    assert segre_degree(2, 3) == 3


def test_determinantal_degree_examples():
    assert determinantal_degree(2, 2, 1) == 2
    assert determinantal_degree(3, 3, 2) == 3
    assert determinantal_degree(3, 3, 1) == 6
    assert determinantal_degree(2, 3, 1) == determinantal_degree(3, 2, 1)
    with pytest.raises(OutOfRange):
        determinantal_degree(3, 3, 4)


def test_degree_formulas_agree_up_to_six():
    for d_a in range(2, 7):
        for d_b in range(d_a, 7):
            assert determinantal_degree(d_a, d_b, 1) == segre_degree(d_a, d_b)


def test_schur_dim_symmetric_power():
    for t in range(1, 6):
        for d in range(1, 5):
            assert schur_dim(IntegerPartition((t,)), d) == comb(t + d - 1, d - 1)


def test_schur_dim_examples():
    assert schur_dim(IntegerPartition((1, 1)), 3) == 3
    assert schur_dim(IntegerPartition((2, 1)), 2) == 2
    assert schur_dim(IntegerPartition((1, 1, 1)), 2) == 0


def test_integer_partition_validation():
    with pytest.raises(OutOfRange):
        IntegerPartition((1, 2))
    with pytest.raises(OutOfRange):
        IntegerPartition((2, 0))


def test_hilbert_function_rank_one_is_binomial_product():
    for d_a, d_b in ((2, 2), (2, 3), (3, 3)):
        for t in range(6):
            expected = comb(t + d_a - 1, d_a - 1) * comb(t + d_b - 1, d_b - 1)
            assert hilbert_function(d_a, d_b, 1, t) == expected


def test_hilbert_function_quadric_matches_monomial_oracle():
    for t in range(7):
        value = hilbert_function(2, 2, 1, t)
        assert value == (t + 1) ** 2
        assert value == monomial_quotient_dim(t)


def test_hilbert_function_full_rank_is_whole_ring():
    for d_a, d_b in ((2, 2), (2, 3)):
        n = d_a * d_b
        r = min(d_a, d_b)
        for t in range(5):
            assert hilbert_function(d_a, d_b, r, t) == comb(t + n - 1, n - 1)


def test_hilbert_fit_recovers_dim_and_degree():
    for d_a, d_b, r in ((2, 2, 1), (3, 3, 1), (3, 3, 2), (2, 3, 1)):
        fit_dim, fit_deg = hilbert_poly_fit(d_a, d_b, r)
        assert fit_dim == determinantal_dim(d_a, d_b, r)[0]
        assert fit_deg == determinantal_degree(d_a, d_b, r)


def test_variety_invariants_consistency():
    for d_a, d_b in ((2, 2), (2, 4), (3, 5)):
        for r in range(1, min(d_a, d_b) + 1):
            inv = variety_invariants(d_a, d_b, r)
            assert inv.dim + inv.codim == d_a * d_b - 1
            assert inv.degree >= 1


def test_secant_expected_dim_examples():
    assert secant_expected_dim([2, 2], 1) == 2
    assert secant_expected_dim([2, 2, 2], 2) == 7
    # bipartite: actual secant dimension (determinantal) never exceeds expected
    for d_a, d_b in ((2, 2), (2, 3), (3, 3), (3, 4)):
        for r in range(1, min(d_a, d_b) + 1):
            actual = determinantal_dim(d_a, d_b, r)[0]
            assert actual <= secant_expected_dim([d_a, d_b], r)


def test_w_state_flattening_image():
    # the first-factor contraction image is span{|00>, |01> + |10>}
    m = flatten(w_state(), Bipartition.of(3, (0,)))
    assert numerical_rank(m) == 2
    assert np.allclose(m[0], [0, 1, 1, 0])
    assert np.allclose(m[1], [1, 0, 0, 0])
