from math import comb

import numpy as np
import pytest

from egeo import (
    Bipartition,
    IntegerPartition,
    OutOfRange,
    WrongShape,
    ZeroState,
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
from egeo.oracles import monomial_quotient_dim

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
    m = flatten(w_state(), Bipartition(3, (0,)))
    assert numerical_rank(m) == 2
    assert np.allclose(m[0], [0, 1, 1, 0])
    assert np.allclose(m[1], [1, 0, 0, 0])
