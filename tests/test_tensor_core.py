from itertools import combinations

import numpy as np
import pytest

from egeo import (
    Bipartition,
    NonFinite,
    NotSquare,
    ShapeMismatch,
    TooLarge,
    WrongShape,
    ZeroState,
    cofactor_matrix,
    concurrence,
    flatten,
    incidence_lift,
    make_state,
    minor_rank,
    numerical_rank,
    schmidt_decompose,
    sector_decompose,
)
from egeo.separability import w_state
from egeo.tensor_core import reassemble_lift

RNG = np.random.default_rng(11)


def bell():
    return make_state([2, 2], np.array([1, 0, 0, 1]) / np.sqrt(2))


def random_state(rng, dims):
    n = int(np.prod(dims))
    return make_state(dims, rng.standard_normal(n) + 1j * rng.standard_normal(n))


CUT01 = Bipartition.of(2, (0,))


# ------------------------------------------------------------- make_state


def test_make_state_bell():
    st = bell()
    assert st.dims == (2, 2)
    assert abs(st.norm() - 1.0) < 1e-12


def test_make_state_single_qubit():
    st = make_state([2], [1, 0])
    assert st.n_subsystems == 1


def test_make_state_zero_rejected():
    with pytest.raises(ZeroState):
        make_state([2, 2], [0, 0, 0, 0])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
def test_make_state_non_finite_rejected(bad):
    with pytest.raises(NonFinite):
        make_state([2, 2], [1, 0, 0, bad])


def test_make_state_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        make_state([2, 2], [1, 0, 0])
    with pytest.raises(ShapeMismatch):
        make_state([2, 1], [1, 0])


def test_make_state_does_not_normalize():
    st = make_state([2], [3, 0])
    assert st.coeffs[0] == 3


# ------------------------------------------------------------ bipartitions


def test_a_bipartition_is_its_mask_with_subsystem_0_in_block_a():
    for n in range(2, 7):
        full = 2**n - 1
        for mask in (0, full, full + 1, 2**n, 2 ** (n + 1), -1):
            with pytest.raises(ShapeMismatch):
                Bipartition(n, mask)
        for mask in range(1, full):
            cut, complement = Bipartition(n, mask), Bipartition(n, full ^ mask)
            assert cut.mask == (mask if mask & 1 else full ^ mask)
            assert cut == complement and hash(cut) == hash(complement)
            assert cut.block_a == tuple(i for i in range(n) if cut.mask >> i & 1)
            assert cut.block_b == tuple(i for i in range(n) if i not in cut.block_a)
    for n in (-1, 0, 1):
        with pytest.raises(ShapeMismatch):
            Bipartition(n, 1)


def test_bipartition_of_a_block_ignores_order_and_repeats():
    rng = np.random.default_rng(30)
    for n in range(2, 7):
        for mask in range(1, 2**n - 1):
            block = [i for i in range(n) if mask >> i & 1]
            shuffled = tuple(int(i) for i in rng.permutation(block + block[: int(rng.integers(0, len(block) + 1))]))
            cut = Bipartition.of(n, shuffled)
            assert cut == Bipartition(n, mask) and hash(cut) == hash(Bipartition(n, mask))
            assert cut.block_a == (tuple(block) if mask & 1 else tuple(i for i in range(n) if i not in block))


@pytest.mark.parametrize("n, block", [(3, ()), (3, (0, 1, 2)), (3, (2, 1, 0, 0)), (3, (0, 3)), (3, (-1,)), (1, (0,)), (0, ())])
def test_bipartition_of_a_block_that_is_not_a_proper_subset_is_refused(n, block):
    with pytest.raises(ShapeMismatch) as err:
        Bipartition.of(n, block)
    assert str(err.value) == f"block {block} is not a proper nonempty subset of range({n})"


# ---------------------------------------------------------------- flatten


def test_flatten_bell_is_scaled_identity():
    m = flatten(bell(), CUT01)
    assert np.allclose(m, np.eye(2) / np.sqrt(2))


def test_flatten_two_qubit_coefficients():
    a, b, c, d = 0.1, 0.2 + 1j, -0.3, 0.7j
    m = flatten(make_state([2, 2], [a, b, c, d]), CUT01)
    assert np.allclose(m, [[a, b], [c, d]])


def test_flatten_is_a_read_only_complex_matrix():
    m = flatten(random_state(np.random.default_rng(17), (2, 3, 2)), Bipartition.of(3, (1,)))
    assert type(m) is np.ndarray and m.shape == (4, 3) and m.dtype == complex
    assert not m.flags.writeable


def test_flatten_product_is_outer_product():
    u = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
    v = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
    m = flatten(make_state([3, 4], np.kron(u, v)), Bipartition.of(2, (0,)))
    assert np.allclose(m, np.outer(u, v))


def test_flatten_cut_mismatch():
    with pytest.raises(ShapeMismatch):
        flatten(bell(), Bipartition.of(3, (0,)))


def test_flatten_multipartite_grouping():
    st = random_state(RNG, (2, 3, 2))
    m = flatten(st, Bipartition.of(3, (0, 2)))
    t = st.tensor()
    for i in range(2):
        for k in range(2):
            for j in range(3):
                assert m[i * 2 + k, j] == t[i, j, k]


# ------------------------------------------------------------------ ranks


def test_numerical_rank_bell():
    assert numerical_rank(flatten(bell(), CUT01)) == 2


def test_numerical_rank_outer_product():
    u = RNG.standard_normal(4)
    v = RNG.standard_normal(5)
    assert numerical_rank(np.outer(u, v)) == 1


def test_numerical_rank_near_product_family():
    for t, expected in ((1e-3, 2), (0.0, 1)):
        st = make_state([2, 2], [1, 0, 0, t])
        assert numerical_rank(flatten(st, CUT01)) == expected


def test_minor_rank_singular_two_by_two():
    assert minor_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1


def test_minor_rank_identity():
    assert minor_rank(np.eye(3)) == 3


def test_minor_rank_constructed_rank_two():
    m = np.zeros((4, 4), dtype=complex)
    for _ in range(2):
        m += np.outer(RNG.standard_normal(4) + 1j * RNG.standard_normal(4),
                      RNG.standard_normal(4) + 1j * RNG.standard_normal(4))
    assert minor_rank(m) == 2 == numerical_rank(m)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(np.nan, 1.0)])
def test_minor_rank_names_a_non_finite_entry(bad):
    for shape, where in (((4, 4), (1, 2)), ((2, 5), (0, 0)), ((1, 1), (0, 0))):
        m = np.ones(shape, dtype=complex) if shape == (1, 1) else np.eye(*shape, dtype=complex)
        m[where] = bad
        with pytest.raises(NonFinite, match="matrix has a non-finite entry"):
            minor_rank(m)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(np.nan, 1.0)])
def test_numerical_rank_names_a_non_finite_entry(bad):
    m = np.eye(3, dtype=complex)
    m[1, 2] = bad
    with pytest.raises(NonFinite, match="matrix has a non-finite entry"):
        numerical_rank(m)


def test_numerical_rank_does_not_depend_on_scale():
    # Unscaled, the SVD read [[2, 1], [1, 1]] * 5e-324 (entries two and one subnormal steps) as rank 1.
    full, single = np.array([[2.0, 1.0], [1.0, 1.0]]), np.array([[1.0, 1.0], [2.0, 2.0]])
    for scale in (5e-324, 1e-320, 1e-310, 1e-150, 1.0, 1e150, 1e300, 5e307):
        assert numerical_rank(full * scale) == 2, scale
        assert numerical_rank(single * scale) == 1, scale
        assert numerical_rank(1j * full * scale) == 2, scale
    assert numerical_rank(np.zeros((2, 2))) == 0 == numerical_rank(np.zeros((0, 3)))


def test_minor_rank_size_cap():
    with pytest.raises(TooLarge):
        minor_rank(np.eye(9))


def nested_loop_minor_rank(m, tol=1e-9):
    """Reference: one det per minor, the enumeration minor_rank stacks."""
    m = np.asarray(m, dtype=complex)
    rows, cols = m.shape
    top = np.abs(m).max()
    if top == 0.0:
        return 0
    scaled = m / top
    for k in range(min(rows, cols), 0, -1):
        for ri in combinations(range(rows), k):
            sub = scaled[np.ix_(ri, range(cols))]
            for ci in combinations(range(cols), k):
                if abs(np.linalg.det(sub[:, ci])) > tol:
                    return k
    return 0


def rank_sum(rng, rows, cols, r):
    m = np.zeros((rows, cols), dtype=complex)
    for _ in range(r):
        m += np.outer(rng.standard_normal(rows) + 1j * rng.standard_normal(rows),
                      rng.standard_normal(cols) + 1j * rng.standard_normal(cols))
    return m


def test_minor_rank_matches_nested_loop_reference_on_every_shape():
    rng = np.random.default_rng(41)
    for rows in range(1, 9):
        for cols in range(1, 9):
            r = int(rng.integers(0, min(rows, cols) + 1))
            exact = rank_sum(rng, rows, cols, r)
            noisy = exact + 1e-10 * (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
            for m in (exact, noisy, np.zeros((rows, cols), dtype=complex)):
                for tol in (1e-9, 1e-6):
                    assert minor_rank(m, tol) == nested_loop_minor_rank(m, tol), (rows, cols, r, tol)
            assert minor_rank(exact) == r


@pytest.mark.parametrize("side", [1 + 1e-3, 1 - 1e-3], ids=["above", "below"])
def test_minor_rank_at_the_tolerance_boundary(side):
    # A monomial matrix (permuted diagonal, random phases, zero padding) has one
    # nonzero top-order minor, the product of its entries; set it to tol*(1 +- 1e-3).
    rng = np.random.default_rng(43)
    tol = 1e-9
    for trial in range(24):
        k = 2 + trial % 6
        rows, cols = min(8, k + int(rng.integers(0, 3))), min(8, k + int(rng.integers(0, 3)))
        mods = np.concatenate([[1.0], rng.uniform(0.5, 1.0, k - 1)])
        mods[-1] = tol * side / np.prod(mods[:-1])
        m = np.zeros((rows, cols), dtype=complex)
        m[rng.permutation(rows)[:k], rng.permutation(cols)[:k]] = mods * np.exp(2j * np.pi * rng.random(k))
        m *= 10.0 ** rng.uniform(-5, 5)
        expected = k if side > 1 else k - 1
        assert nested_loop_minor_rank(m, tol) == expected
        assert minor_rank(m, tol) == expected


def test_rank_oracle_agreement_on_random_states():
    # 200 random states, N <= 4, d_i <= 4; flattenings small enough for minors
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(2, 5, n))
        st = random_state(rng, dims)
        block = (0,) + tuple(i for i in range(1, n) if rng.random() < 0.5)
        cut = Bipartition.of(n, block[: n - 1])
        m = flatten(st, cut)
        if max(m.shape) <= 8:
            assert numerical_rank(m) == minor_rank(m)


def test_scale_invariance():
    st = random_state(RNG, (2, 2))
    scaled = make_state(st.dims, 17.3j * st.coeffs)
    assert numerical_rank(flatten(st, CUT01)) == numerical_rank(flatten(scaled, CUT01))
    prod = make_state([2, 2], np.kron([1, 2], [3, 1j]))
    prod_scaled = make_state([2, 2], -0.01 * prod.coeffs)
    assert concurrence(prod.normalized()) < 1e-12
    assert concurrence(prod_scaled.normalized()) < 1e-12


def test_local_invertible_invariance():
    rng = np.random.default_rng(8)
    for _ in range(20):
        st = random_state(rng, (3, 4))
        g_a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        g_b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        moved = make_state(st.dims, np.kron(g_a, g_b) @ st.coeffs)
        cut = Bipartition.of(2, (0,))
        assert numerical_rank(flatten(moved, cut)) == numerical_rank(flatten(st, cut))


# ---------------------------------------------------------------- schmidt


def test_schmidt_bell_sigmas():
    sd = schmidt_decompose(bell(), CUT01)
    assert np.allclose(sd.sigmas, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_schmidt_product_state():
    st = make_state([2, 2], np.kron([1, 1j], [2, 1]))
    sd = schmidt_decompose(st, CUT01)
    assert len(sd.sigmas) == 1
    assert abs(sd.sigmas[0] - 1.0) < 1e-10


def test_schmidt_two_term_example():
    st = make_state([2, 2], [1, 0, 0, 2])
    sd = schmidt_decompose(st, CUT01)
    assert np.allclose(sd.sigmas, [2 / np.sqrt(5), 1 / np.sqrt(5)], atol=1e-12)


def test_schmidt_contract_on_random_states():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(2, 4, n))
        st = random_state(rng, dims)
        block = (0,) + tuple(i for i in range(1, n) if rng.random() < 0.5)
        cut = Bipartition.of(n, block[: n - 1])
        sd = schmidt_decompose(st, cut)
        assert abs(sum(s * s for s in sd.sigmas) - 1.0) <= 1e-10
        m = flatten(st.normalized(), cut)
        rebuilt = sd.left_vecs @ np.diag(sd.sigmas) @ sd.right_vecs.T
        assert np.abs(rebuilt - m).max() <= 1e-9
        assert sd.rank == numerical_rank(flatten(st, cut))
        gram_l = sd.left_vecs.conj().T @ sd.left_vecs
        gram_r = sd.right_vecs.conj().T @ sd.right_vecs
        assert np.abs(gram_l - np.eye(sd.rank)).max() <= 1e-10
        assert np.abs(gram_r - np.eye(sd.rank)).max() <= 1e-10
        # phase convention: first nonzero left component real positive
        for col in sd.left_vecs.T:
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(lead.imag) < 1e-10 and lead.real > 0


def test_schmidt_records_input_norm():
    st = make_state([2, 2], [2, 0, 0, 2])
    sd = schmidt_decompose(st, CUT01)
    assert abs(sd.input_norm - np.sqrt(8)) < 1e-12


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-160, 1e200, 1e300])
def test_schmidt_is_scale_safe(scale):
    ghz = make_state([2, 2, 2], [scale] + [0] * 6 + [scale])
    sd = schmidt_decompose(ghz, Bipartition.of(3, (0,)))
    assert len(sd.sigmas) == 2 and all(abs(s - 2**-0.5) <= 1e-12 for s in sd.sigmas)
    assert abs(sd.input_norm / (scale * np.sqrt(2)) - 1.0) <= 1e-12


def test_norm_in_the_plain_range_is_numpys():
    rng = np.random.default_rng(19)
    for scale in (1e-140, 1e-3, 1.0, 1e140):
        st = make_state([2, 3], scale * rng.standard_normal(6))
        assert st.norm() == float(np.linalg.norm(st.coeffs))


# ------------------------------------------------------------- concurrence


def test_concurrence_bell():
    assert abs(concurrence(bell()) - 1.0) <= 1e-12


def test_concurrence_is_scale_safe():
    assert abs(concurrence(make_state([2, 2], [1e-170, 0, 0, 1e-170])) - 1.0) <= 1e-12


def test_concurrence_product_zero():
    u = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
    v = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
    vec = np.kron(u, v)
    st = make_state([2, 2], vec / np.linalg.norm(vec))
    assert concurrence(st) < 1e-12


def test_concurrence_two_thirds():
    st = make_state([2, 2], np.array([1, 1, 1, 0]) / np.sqrt(3))
    assert abs(concurrence(st) - 2 / 3) < 1e-12


def test_concurrence_wrong_shape():
    with pytest.raises(WrongShape):
        concurrence(make_state([2, 3], [1, 0, 0, 0, 0, 0]))
    with pytest.raises(WrongShape):
        concurrence(make_state([2, 2, 2], [1] + [0] * 7))


# ---------------------------------------------------------------- cofactor


def test_cofactor_rank_one_vanishes():
    m = np.outer([1, 2, 3], [4, 5, 6]).astype(complex)
    assert np.abs(cofactor_matrix(m)).max() < 1e-12


def test_cofactor_identity():
    assert np.allclose(cofactor_matrix(np.eye(3)), np.eye(3))


def test_cofactor_diagonal():
    assert np.allclose(cofactor_matrix(np.diag([1.0, 1.0, 0.0])), np.diag([0.0, 0.0, 1.0]))


def test_cofactor_not_square():
    with pytest.raises(NotSquare):
        cofactor_matrix(np.ones((2, 3)))


def test_cofactor_vanishing_iff_rank_below_n_minus_one():
    rng = np.random.default_rng(5)
    vecs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(6)]
    by_rank = {
        0: np.zeros((3, 3), dtype=complex),
        1: np.outer(vecs[0], vecs[1]),
        2: np.outer(vecs[0], vecs[1]) + np.outer(vecs[2], vecs[3]),
        3: np.outer(vecs[0], vecs[1]) + np.outer(vecs[2], vecs[3]) + np.outer(vecs[4], vecs[5]),
    }
    for rank, m in by_rank.items():
        vanishes = np.abs(cofactor_matrix(m)).max() < 1e-9
        assert vanishes == (minor_rank(m) <= 1)
        assert vanishes == (rank <= 1)


# ----------------------------------------------------------- incidence lift


def test_incidence_lift_rank_two_round_trip():
    rng = np.random.default_rng(9)
    m = np.zeros(9, dtype=complex)
    for _ in range(2):
        m += np.kron(rng.standard_normal(3) + 1j * rng.standard_normal(3),
                     rng.standard_normal(3) + 1j * rng.standard_normal(3))
    st = make_state([3, 3], m)
    lift = incidence_lift(st, Bipartition.of(2, (0,)))
    assert lift.rank == 2
    target = flatten(st, Bipartition.of(2, (0,)))
    assert np.abs(reassemble_lift(lift) - target).max() / np.abs(target).max() < 1e-9


def test_incidence_lift_w_state_image():
    lift = incidence_lift(w_state(), Bipartition.of(3, (0,)))
    assert lift.rank == 2
    expected = np.array([[1, 0, 0, 0], [0, 1, 1, 0]], dtype=complex) / np.array([[1], [np.sqrt(2)]])
    proj_expected = expected.T @ expected.conj()
    basis = lift.ub_basis
    proj = basis @ np.linalg.pinv(basis)
    assert np.abs(proj - proj_expected).max() < 1e-9


def test_incidence_lift_product_state():
    st = make_state([2, 2], np.kron([1, 1], [1, -1]))
    lift = incidence_lift(st, CUT01)
    assert lift.rank == 1 and lift.core.shape == (1, 1)


def test_incidence_lift_span_is_projectively_unique():
    st = random_state(RNG, (3, 3))
    scaled = make_state(st.dims, (0.3 - 2j) * st.coeffs)
    l1 = incidence_lift(st, Bipartition.of(2, (0,)))
    l2 = incidence_lift(scaled, Bipartition.of(2, (0,)))
    p1 = l1.ua_basis @ l1.ua_basis.conj().T
    p2 = l2.ua_basis @ l2.ua_basis.conj().T
    assert np.abs(p1 - p2).max() < 1e-9


# ---------------------------------------------------------- sector decompose


def test_sector_decompose_local_a():
    a = np.array([[1, 2], [3, -1]], dtype=complex)  # traceless
    sd = sector_decompose(np.kron(a, np.eye(2)), 2, 2)
    assert abs(sd.scalar) < 1e-12
    assert np.abs(sd.a_local - a).max() < 1e-12
    assert np.abs(sd.b_local).max() < 1e-12
    assert np.abs(sd.entangling).max() < 1e-12


def test_sector_decompose_identity():
    sd = sector_decompose(np.eye(6), 2, 3)
    assert abs(sd.scalar - 1.0) < 1e-12
    assert np.abs(sd.a_local).max() < 1e-12 and np.abs(sd.b_local).max() < 1e-12
    assert np.abs(sd.entangling).max() < 1e-12


def test_sector_decompose_cnot_has_entangling_part():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    sd = sector_decompose(cnot, 2, 2)
    assert np.abs(sd.entangling).max() > 0.1


def test_sector_decompose_reconstructs_and_traces_vanish():
    rng = np.random.default_rng(17)
    for d_a, d_b in ((2, 2), (2, 3), (3, 3)):
        n = d_a * d_b
        op = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sd = sector_decompose(op, d_a, d_b)
        rebuilt = (
            sd.scalar * np.eye(n)
            + np.kron(sd.a_local, np.eye(d_b))
            + np.kron(np.eye(d_a), sd.b_local)
            + sd.entangling
        )
        assert np.abs(rebuilt - op).max() < 1e-10
        assert abs(np.trace(sd.a_local)) < 1e-10 and abs(np.trace(sd.b_local)) < 1e-10
        ent = sd.entangling.reshape(d_a, d_b, d_a, d_b)
        assert np.abs(np.trace(ent, axis1=1, axis2=3)).max() < 1e-10
        assert np.abs(np.trace(ent, axis1=0, axis2=2)).max() < 1e-10


def test_sector_decompose_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        sector_decompose(np.eye(5), 2, 2)
