import warnings

import numpy as np
import pytest

from egeo import (
    BadWord,
    Bipartition,
    NonFinite,
    NotCentral,
    OutOfRange,
    ShapeMismatch,
    SpinChainParams,
    apply_holonomy,
    commutator_scalar,
    flatten,
    glue_ground_state,
    ground_state,
    is_local_operator,
    loop_holonomy,
    make_state,
    numerical_rank,
    proj_equal,
    qudit_encode,
    spin_hamiltonian,
    to_qudit_pair,
    weyl_ops,
)
from egeo.gluing_sim import _scalar_value, det_normalize, wire_order

CUT = Bipartition.of(2, (0,))


def schmidt_rank(state):
    return numerical_rank(flatten(state, CUT))


# ------------------------------------------------------------------- weyl


def test_weyl_qubit_case():
    w = weyl_ops(2)
    assert np.allclose(w.x_op, [[0, 1], [1, 0]])
    assert np.allclose(w.z_op, [[1, 0], [0, -1]])
    assert abs(w.zeta + 1) < 1e-12


def test_weyl_commutation_m4():
    w = weyl_ops(4)
    assert abs(w.zeta - 1j) < 1e-12
    assert np.abs(w.z_op @ w.x_op - 1j * w.x_op @ w.z_op).max() < 1e-12


@pytest.mark.parametrize("m", range(2, 17))
def test_weyl_relations_all_m(m):
    w = weyl_ops(m)
    assert np.abs(w.z_op @ w.x_op - w.zeta * w.x_op @ w.z_op).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(w.x_op, m) - np.eye(m)).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(w.z_op, m) - np.eye(m)).max() < 1e-12


def test_weyl_inverse_shift_is_the_power_of_the_shift():
    for m in range(2, 17):
        w = weyl_ops(m)
        assert np.array_equal(w.x_inv, np.linalg.matrix_power(w.x_op, m - 1))
        assert np.abs(w.x_inv @ w.x_op - np.eye(m)).max() < 1e-12
        assert not w.x_inv.flags.writeable


def test_weyl_bounds():
    with pytest.raises(OutOfRange):
        weyl_ops(1)
    with pytest.raises(OutOfRange):
        weyl_ops(65)


# --------------------------------------------------------------- holonomy


def test_loop_letter_u_is_clock_class():
    hol = loop_holonomy(2, "u")
    assert proj_equal(hol, weyl_ops(4).z_op)


def test_loop_empty_and_unknown_letters():
    with pytest.raises(BadWord):
        loop_holonomy(2, "")
    with pytest.raises(BadWord):
        loop_holonomy(2, "ux")


def test_loop_cancellation():
    hol = loop_holonomy(2, "uU")
    assert proj_equal(hol, np.eye(4))


def test_loop_commutator_word():
    hol = loop_holonomy(2, "uvUV")
    assert proj_equal(hol, np.eye(4))
    w = weyl_ops(4)
    x_inv = np.linalg.matrix_power(w.x_op, 3)
    scalar = commutator_scalar(w.z_op, x_inv)
    assert abs(scalar - w.zeta ** -1) < 1e-12


def test_holonomy_config_validation():
    with pytest.raises(OutOfRange):
        loop_holonomy(1, "u")
    with pytest.raises(OutOfRange):  # p is checked before the word
        loop_holonomy(1, "")


def test_commutator_scalar_examples():
    w = weyl_ops(4)
    x_inv = np.linalg.matrix_power(w.x_op, 3)
    assert abs(commutator_scalar(w.z_op, x_inv) - (-1j)) < 1e-12
    assert abs(commutator_scalar(np.eye(4), w.x_op) - 1.0) < 1e-12
    assert abs(commutator_scalar(w.x_op, w.z_op) - w.zeta ** -1) < 1e-12
    assert abs(commutator_scalar(w.z_op, w.x_op) - w.zeta) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, np.nan)])
def test_a_non_finite_matrix_is_never_scalar(bad):
    # NaN compares False with every bound, so a bound test alone would call NaN I the scalar NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _scalar_value(np.full((3, 3), bad, dtype=complex)) is None
        assert _scalar_value(np.diag([bad, 1, 1]).astype(complex)) is None
        assert _scalar_value(np.eye(3, dtype=complex) * 2j) == 2j


def test_commutator_scalar_rejects_noncentral():
    g = np.diag([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(NotCentral):
        commutator_scalar(g, weyl_ops(4).x_op)


# ---------------------------------------------------------------- locality


def test_local_operator_kron_true():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert is_local_operator(np.kron(a, b), 2, 2)
    a3 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert is_local_operator(np.kron(a3, b), 3, 2)


def test_local_operator_shift_false():
    w = weyl_ops(4)
    assert not is_local_operator(np.linalg.matrix_power(w.x_op, 3), 2, 2)
    assert not is_local_operator(w.x_op, 2, 2)


def test_local_operator_swap_true():
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1
    assert is_local_operator(swap, 2, 2)


def test_local_operator_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        is_local_operator(np.eye(4), 2, 3)


@pytest.mark.filterwarnings("error")
def test_zero_operator_is_not_local_and_prints_nothing(capfd):
    # Rank 0 on every cut: the certified test leaves it to the SVD instead of dividing by a zero pivot.
    for d_a, d_b in ((2, 2), (3, 3), (2, 3)):
        for tol in (1e-3, 1e-9, 1e-12):
            assert is_local_operator(np.zeros((d_a * d_b, d_a * d_b)), d_a, d_b, tol) is False
    assert capfd.readouterr() == ("", "")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3)])
def test_local_operator_names_a_non_finite_entry(d_a, d_b, bad):
    for where in ((0, 0), (1, 3), (-1, -1)):
        g = np.eye(d_a * d_b, dtype=complex)
        g[where] = bad
        with pytest.raises(NonFinite, match="operator has a non-finite entry"):
            is_local_operator(g, d_a, d_b)
    with pytest.raises(NonFinite, match="operator has a non-finite entry"):
        is_local_operator(np.full((d_a * d_b, d_a * d_b), bad), d_a, d_b)


def test_local_operator_rejects_tol_outside_unit_interval():
    for tol in (0.0, 1.0, -1e-9, 2.0):
        with pytest.raises(ShapeMismatch):
            is_local_operator(np.eye(4), 2, 2, tol)


def test_locality_is_conjugation_covariant():
    rng = np.random.default_rng(5)
    w = weyl_ops(4)
    x_inv = np.linalg.matrix_power(w.x_op, 3)
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1
    cases = [x_inv, w.z_op, swap, np.kron(rng.standard_normal((2, 2)), rng.standard_normal((2, 2))) + 0j]
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        loc = np.kron(a, b)
        for g in cases:
            conjugated = loc @ g @ np.linalg.inv(loc)
            assert is_local_operator(conjugated, 2, 2) == is_local_operator(g, 2, 2)


def test_local_operators_preserve_schmidt_rank():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    local = np.kron(a, b)
    assert is_local_operator(local, 2, 2)
    for _ in range(50):
        st = make_state([2, 2], rng.standard_normal(4) + 1j * rng.standard_normal(4))
        assert schmidt_rank(apply_holonomy(local, st)) == schmidt_rank(st)
    # and the shift is not local: it entangles some product state
    w = weyl_ops(4)
    x_inv = np.linalg.matrix_power(w.x_op, 3)
    product = make_state([2, 2], [1, 0, 1, 0])
    assert schmidt_rank(product) == 1
    assert schmidt_rank(apply_holonomy(x_inv, product)) == 2


# ---------------------------------------------------------------- encoding


def test_qudit_encode_examples():
    assert qudit_encode(3, 2) == (1, 1)
    assert qudit_encode(0, 5) == (0, 0)
    assert qudit_encode(2, 2) == (0, 1)
    with pytest.raises(OutOfRange):
        qudit_encode(4, 2)


def test_wire_order_matches_encoding():
    st = make_state([2, 2], [10, 20, 30, 40])  # tensor index (a, b), b fastest
    wire = wire_order(st)
    for r in range(4):
        a, b = qudit_encode(r, 2)
        assert wire[r] == st.tensor()[a, b]


def test_apply_holonomy_entangles_product_state():
    w = weyl_ops(4)
    x_inv = np.linalg.matrix_power(w.x_op, 3)
    product = make_state([2, 2], [1, 0, 1, 0])
    image = apply_holonomy(x_inv, product)
    target = np.array([1, 0, 0, 1]) / np.sqrt(2)
    overlap = abs(np.vdot(target, image.normalized().coeffs))
    assert abs(overlap - 1.0) < 1e-12
    assert schmidt_rank(image) == 2


def test_apply_holonomy_identity():
    st = make_state([2, 2], [1, 2, 3, 4])
    out = apply_holonomy(np.eye(4), st)
    assert np.allclose(out.coeffs, st.coeffs)


def test_apply_holonomy_general_p():
    p = 3
    w = weyl_ops(p * p)
    x_inv = np.linalg.matrix_power(w.x_op, p * p - 1)
    coeffs = np.zeros(p * p, dtype=complex)
    coeffs[0 * p + 0] = 1  # |0>_A |0>_B in tensor order
    coeffs[1 * p + 0] = 1  # |1>_A |0>_B
    st = make_state([p, p], coeffs)
    out = apply_holonomy(x_inv, st)
    t = out.tensor()
    assert abs(t[0, 0] - 1) < 1e-12
    assert abs(t[p - 1, p - 1] - 1) < 1e-12
    assert np.abs(t).sum() == pytest.approx(2.0, abs=1e-12)


def test_apply_holonomy_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        apply_holonomy(np.eye(4), make_state([2], [1, 0]))


# --------------------------------------------------------------- spin chain


def test_spin_hamiltonian_top_block_at_unit_u():
    h = spin_hamiltonian(SpinChainParams(1.0, 2.0, 0.0, 0))
    assert np.allclose(h[:2, :2], [[0, -1], [-1, 0]])
    assert np.allclose(np.diag(h)[2:], [2, 2])


@pytest.mark.parametrize("theta,branch", [(0.0, 0), (1.3, 1), (4.0, 2), (5.9, 3)])
def test_spin_hamiltonian_spectrum_and_hermiticity(theta, branch):
    params = SpinChainParams(1.2, 2.7, theta, branch)
    h = spin_hamiltonian(params)
    assert np.abs(h - h.conj().T).max() < 1e-12
    vals = sorted(np.linalg.eigvalsh(h))
    assert np.allclose(vals, [-1.2, 1.2, 2.7, 2.7], atol=1e-12)


def test_ground_state_formula():
    params = SpinChainParams(1.0, 2.0, 0.0, 0)
    gs = ground_state(params)
    assert np.allclose(gs.coeffs, np.array([1, 1, 0, 0]) / np.sqrt(2), atol=1e-12)
    generic = SpinChainParams(1.0, 2.0, 2.1, 1)
    gs2 = ground_state(generic)
    w = generic.u_quarter_root
    formula = np.array([w, 1, 0, 0]) / np.sqrt(2)
    assert abs(abs(np.vdot(formula, gs2.coeffs)) - 1.0) < 1e-12
    h = spin_hamiltonian(generic)
    energy = np.vdot(gs2.coeffs, h @ gs2.coeffs).real
    assert abs(energy + 1.0) < 1e-12


def test_ground_state_params_validated():
    with pytest.raises(OutOfRange):
        SpinChainParams(2.0, 1.0, 0.0, 0)
    with pytest.raises(OutOfRange):
        SpinChainParams(1.0, 2.0, 0.0, 4)


@pytest.mark.parametrize("j", [5e-324, 1e-323, 1e-310, 2.225073858507201e-308])
def test_ground_state_params_reject_a_subnormal_coupling_naming_j(j):
    # Below the smallest normal double the hopping entries J u^(1/4) round to whole subnormal steps.
    with pytest.raises(OutOfRange, match=r"J must be at least the smallest normal double .*got J="):
        SpinChainParams(j, 1.0, 1.0, 0)


def test_ground_state_at_the_smallest_normal_coupling():
    params = SpinChainParams(2.2250738585072014e-308, 1.0, 1.0, 0)
    assert abs(ground_state(params).coeffs[1] - 2**-0.5) < 1e-15


def test_glue_ground_state_is_bell_at_unit_u():
    glued = glue_ground_state(SpinChainParams(1.0, 2.0, 0.0, 0))
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert abs(abs(np.vdot(bell, glued.normalized().coeffs)) - 1.0) < 1e-12
    assert schmidt_rank(glued) == 2


@pytest.mark.parametrize("theta,branch", [(0.7, 0), (3.0, 2), (6.0, 1)])
def test_gluing_raises_rank(theta, branch):
    params = SpinChainParams(1.0, 3.5, theta, branch)
    pre = to_qudit_pair(ground_state(params), 2)
    assert schmidt_rank(pre) == 1
    assert schmidt_rank(glue_ground_state(params)) == 2


def test_branch_monodromy():
    for k in (0, 1, 2):
        lo = ground_state(SpinChainParams(1.0, 2.0, 0.9, k))
        hi = ground_state(SpinChainParams(1.0, 2.0, 0.9, k + 1))
        ratio = hi.coeffs[0] / lo.coeffs[0]
        assert abs(ratio - 1j) < 1e-12
        assert schmidt_rank(glue_ground_state(SpinChainParams(1.0, 2.0, 0.9, k))) == 2


def test_det_normalize():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    normed = det_normalize(g)
    assert abs(np.linalg.det(normed) - 1.0) < 1e-9
    assert proj_equal(g, normed)


# ------------------------------------------------------- projective routines at every scale
# Each routine answers a projective question, so rescaling its input by any s > 0
# must leave the verdict or scalar as it is at s = 1, and raise no RuntimeWarning.

PROJECTIVE_SCALES = (1e-300, 1e-200, 1e-100, 1e-5, 1e5, 1e80, 1e200, 1e300)


def weyl_word(rng, m):
    """X^a Z^b for random exponents: every pair of these commutes up to a root of unity."""
    w = weyl_ops(m)
    a, b = rng.integers(0, m, 2)
    return np.linalg.matrix_power(w.x_op, a) @ np.linalg.matrix_power(w.z_op, b)


def invertible(rng, m):
    """A random unitary times a diagonal in [0.5, 2]: condition number at most 4."""
    q = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
    return q * rng.uniform(0.5, 2, m)


def projective_pairs():
    """(g, h): Weyl words, commuting invertible matrices and generic invertible ones, dims 2..8."""
    rng = np.random.default_rng(3030)
    for trial in range(12):
        m = 2 + trial % 7
        g = invertible(rng, m)
        yield weyl_word(rng, m), weyl_word(rng, m)
        yield g, g @ g - 2 * g
        yield g, invertible(rng, m)


def commutator_or_none(g, h):
    try:
        return commutator_scalar(g, h)
    except NotCentral:
        return None


def test_commutator_scalar_does_not_depend_on_scale():
    w = weyl_ops(4)
    for s in PROJECTIVE_SCALES:
        assert abs(commutator_scalar(w.z_op * s, w.x_op * s) - 1j) < 1e-12, s
    verdicts = set()
    for g, h in projective_pairs():
        want = commutator_or_none(g, h)
        verdicts.add(want is None)
        for s, t in zip(PROJECTIVE_SCALES, PROJECTIVE_SCALES[::-1]):
            got = commutator_or_none(g * s, h * t)
            assert (got is None) == (want is None), (s, t)
            assert got is None or abs(got - want) < 1e-9, (s, t)
    assert verdicts == {True, False}


def test_det_normalize_does_not_depend_on_scale():
    for s in PROJECTIVE_SCALES:
        assert np.allclose(det_normalize(s * np.eye(4)), np.eye(4), rtol=0, atol=1e-12), s
    for g, _ in projective_pairs():
        want = det_normalize(g)
        singular = g.copy()
        singular[:, -1] = singular[:, 0]
        for s in PROJECTIVE_SCALES:
            got = det_normalize(g * s)
            # Unique up to an n-th root of unity: the chosen root may differ where 1/det is real positive.
            assert abs(np.linalg.det(got) - 1) < 1e-9 and proj_equal(got, want), s
            with pytest.raises(ShapeMismatch, match="numerically singular"):
                det_normalize(singular * s)


def test_proj_equal_does_not_depend_on_scale():
    rng = np.random.default_rng(3031)
    verdicts = set()
    for g, h in projective_pairs():
        for other in (h, g * (rng.uniform(0.5, 2) * np.exp(2j * np.pi * rng.random()))):
            want = proj_equal(g, other)
            verdicts.add(want)
            for s in PROJECTIVE_SCALES:
                for t in PROJECTIVE_SCALES:
                    assert proj_equal(g * s, other * t) == want, (s, t)
    assert verdicts == {True, False}


def test_is_local_operator_does_not_depend_on_scale():
    rng = np.random.default_rng(3032)
    verdicts = set()
    for d_a, d_b in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3)):
        for g in (
            np.kron(weyl_word(rng, d_a), weyl_word(rng, d_b)),
            weyl_word(rng, d_a * d_b),
            np.kron(invertible(rng, d_a), invertible(rng, d_b)),
            invertible(rng, d_a * d_b),
        ):
            want = is_local_operator(g, d_a, d_b)
            verdicts.add(want)
            for s in PROJECTIVE_SCALES:
                assert is_local_operator(g * s, d_a, d_b) == want, (d_a, d_b, s)
    assert verdicts == {True, False}
