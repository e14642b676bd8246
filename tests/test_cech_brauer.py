import cmath
import dataclasses
import warnings
from math import gcd, prod

import numpy as np
import pytest

from egeo import (
    BadNerve,
    Cocycle2,
    NonFinite,
    NotPGLCocycle,
    NotRootOfUnity,
    OutOfRange,
    ShapeMismatch,
    check_reduction,
    class_order,
    is_2cocycle,
    make_cover,
    pgl_cocycle_defect,
    symbol_cover,
    torsion_bound,
    validate_nerve,
    weyl_ops,
)
from egeo.cech_brauer import CechCover, _coboundary_matrix
from egeo.modular import smith_normal_form
from egeo.tensor_core import _frozen


# Explicit Z/m solves: the oracle the Smith-form class order is checked against. It runs no Smith form:
# A x = b (mod m) is A x + m y = b over Z, decided exactly by an integer column echelon form of [A | m I].
def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s a + t b = g = gcd(a, b) >= 0."""
    if b == 0:
        return abs(a), (1 if a >= 0 else -1), 0
    g, s, t = _egcd(b, a % b)
    return g, t, s - (a // b) * t


def solve_mod(matrix, rhs, mod: int) -> list[int] | None:
    """One solution x of matrix @ x = rhs (mod mod), or None if unsolvable."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0:
        return [0] * cols
    width = cols + rows
    # Columns of M = [A | mod I], each beside its column of the unimodular W with M_start W = M (W starts as I).
    m = [[int(matrix[r][k]) for r in range(rows)] for k in range(cols)] + [[mod * (r == k) for r in range(rows)] for k in range(rows)]
    w = [[int(i == k) for i in range(width)] for k in range(width)]
    # mod I has full row rank, so row r gets its pivot in column r; extended-gcd steps clear the row to its right.
    for r in range(rows):
        for k in range(r + 1, width):
            if m[k][r] != 0:
                a, b = m[r][r], m[k][r]
                g, x, y = _egcd(a, b)  # [[x, -b/g], [y, a/g]] has determinant 1
                for table in (m, w):
                    table[r], table[k] = (
                        [x * p + y * q for p, q in zip(table[r], table[k])],
                        [(a // g) * q - (b // g) * p for p, q in zip(table[r], table[k])],
                    )
    # Lower-triangular L = M W with a nonzero diagonal: L z = b has one rational solution, and M (W z) = b.
    z = []
    for r in range(rows):
        rest = int(rhs[r]) - sum(m[k][r] * z[k] for k in range(r))
        if rest % m[r][r] != 0:
            return None
        z.append(rest // m[r][r])
    return [sum(w[k][i] * z[k] for k in range(rows)) % mod for i in range(cols)]


def coboundary_witness(c: Cocycle2, cover: CechCover, scale: int = 1) -> dict | None:
    """b on pairs with (delta b)_ijk = scale * c_ijk mod m, or None."""
    matrix, pairs = _coboundary_matrix(cover)
    rhs = [(scale * c.values[t]) % c.m for t in cover.triples]
    sol = solve_mod(matrix, rhs, c.m)
    if sol is None:
        return None
    return dict(zip(pairs, sol))


def rescale_lifts(cover: CechCover, b_exponents: dict, m: int) -> CechCover:
    """Multiply each canonical lift by zeta_m^(-b): shifts the defect by -delta(b)."""
    zeta = cmath.exp(2j * cmath.pi / m)
    new = {}
    for (i, j), lift in cover.transitions.items():
        key = (i, j) if (i, j) in b_exponents else (j, i)
        sign = 1 if (i, j) in b_exponents else -1
        b = b_exponents.get(key, 0)
        new[(i, j)] = _frozen(lift * zeta ** (-sign * b))
    return CechCover(cover.chart_count, cover.n, new, cover.triples, cover.quadruples, cover.m)


def vertex_gauge_cover(n, charts, lifts_at_charts, m=None, full_nerve=True):
    """Cover with g_ij = h_i h_j^-1: an honest cocycle with trivial defect."""
    pairs = []
    for i in range(charts):
        for j in range(i + 1, charts):
            pairs.append((i, j, lifts_at_charts[i] @ np.linalg.inv(lifts_at_charts[j])))
    triples = []
    quads = []
    if full_nerve:
        from itertools import combinations

        triples = list(combinations(range(charts), 3))
        quads = list(combinations(range(charts), 4))
    return make_cover(n, pairs, triples, quads, m=m, chart_count=charts)


# ------------------------------------------------------------ modular solver


def exact_det(mat):
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def test_smith_normal_form_random():
    from itertools import combinations

    rng = np.random.default_rng(7)
    for _ in range(30):
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = rng.integers(-5, 6, (rows, cols)).tolist()
        s, u = smith_normal_form(a)
        assert abs(exact_det(u)) == 1
        diag = [s[i][i] for i in range(min(rows, cols))]
        assert all(s[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
        for x, y in zip(diag, diag[1:]):
            assert x >= 0
            assert x == 0 or y % x == 0
        # the k-th determinantal divisor (gcd of all k x k minors) is s_11 ... s_kk
        for k in range(1, min(rows, cols) + 1):
            minors = [exact_det([[a[i][j] for j in cs] for i in rs]) for rs in combinations(range(rows), k) for cs in combinations(range(cols), k)]
            assert gcd(*(int(d) for d in minors)) == prod(diag[:k])


def test_solve_mod_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        mod = int(rng.choice([2, 3, 4, 6, 9, 12]))
        a = rng.integers(-4, 5, (rows, cols))
        x_true = rng.integers(0, mod, cols)
        rhs = (a @ x_true) % mod
        x = solve_mod(a.tolist(), rhs.tolist(), mod)
        assert x is not None
        assert ((a @ np.array(x) - rhs) % mod == 0).all()


def test_solve_mod_unsolvable():
    assert solve_mod([[2]], [1], 4) is None
    assert solve_mod([[0]], [1], 3) is None


# ------------------------------------------------------------ nerve checking


def test_validate_two_chart_cover():
    cover = make_cover(2, [(0, 1, np.eye(2))])
    validate_nerve(cover)


def test_validate_missing_pair():
    with pytest.raises(BadNerve, match=r"pair \(0, 2\) is missing"):
        make_cover(2, [(0, 1, np.eye(2)), (1, 2, np.eye(2))], triples=[(0, 1, 2)])


def test_validate_missing_triple_under_quadruple():
    from itertools import combinations

    pairs = [(i, j, np.eye(2)) for i, j in combinations(range(4), 2)]
    with pytest.raises(BadNerve, match="triple"):
        make_cover(2, pairs, triples=[(0, 1, 2)], quadruples=[(0, 1, 2, 3)])


def test_validate_inconsistent_inverse_pair():
    with pytest.raises(BadNerve, match="not inverse"):
        make_cover(2, [(0, 1, np.diag([1.0, 2.0])), (1, 0, np.diag([1.0, 3.0]))])


def test_validate_a_pair_whose_inverse_overflows():
    # np.linalg.inv of [[1e-310]] is [[inf]], and of inv(a) * 1e-308 overflows too, but each pair is inverse up to
    # scalar: the check inverts the lift divided by its max modulus.
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    for n, lift, other in ((1, [[1e-310]], [[1.0]]), (2, a, np.linalg.inv(a) * 1e-308)):
        assert make_cover(n, [(0, 1, lift), (1, 0, other)]).pairs == ((0, 1), (1, 0))
        assert make_cover(n, [(1, 0, lift), (0, 1, other)]).pairs == ((1, 0), (0, 1))


def test_validate_nerve_checks_a_cover_built_directly():
    # CechCover(...) skips make_cover, so validate_nerve stays public for such covers
    cover = CechCover(3, 2, {(0, 1): _frozen(np.eye(2)), (1, 2): _frozen(np.eye(2))}, ((0, 1, 2),), ())
    with pytest.raises(BadNerve):
        validate_nerve(cover)


def test_pairs_are_the_transition_keys_in_insertion_order():
    cover = make_cover(2, [(1, 2, np.eye(2)), (0, 1, np.eye(2)), (0, 2, np.eye(2))], triples=[(0, 1, 2)])
    assert cover.pairs == tuple(cover.transitions) == ((1, 2), (0, 1), (0, 2))
    assert "pairs" not in {f.name for f in dataclasses.fields(CechCover)}


@pytest.mark.parametrize(
    "lift",
    [np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 4.0]]), np.diag([1.0, 1e-12])],
    ids=["zero", "rank-1", "below-default-tol"],
)
def test_make_cover_rejects_a_singular_lift_naming_the_pair(lift):
    with pytest.raises(BadNerve, match=r"lift for pair \(0, 1\) is singular"):
        make_cover(2, [(0, 1, lift)])


@pytest.mark.parametrize("scale", [5e-324, 1e-310, 1e300])
def test_make_cover_takes_an_invertible_lift_at_any_scale(scale):
    # [[2, 1], [1, 1]] * 5e-324 has an exact inverse, but an unscaled SVD of it reads a zero singular value
    lift = np.array([[2.0, 1.0], [1.0, 1.0]]) * scale
    assert make_cover(2, [(0, 1, lift)]).pairs == ((0, 1),)


def test_make_cover_rejects_a_ragged_lift_naming_the_pair_and_shape():
    with pytest.raises(ShapeMismatch, match=r"lift for pair \(0, 1\) is not a \(2, 2\) array"):
        make_cover(2, [(0, 1, [[1, 0], [0]])])


def test_symbol_cover_nerve_is_valid():
    cover = symbol_cover(2)
    assert cover.chart_count == 9
    assert len(cover.triples) > 0
    validate_nerve(cover)


# ------------------------------------------------------------------- defect


def test_defect_of_honest_cocycle_is_zero():
    rng = np.random.default_rng(3)
    hs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4)]
    cover = vertex_gauge_cover(2, 4, hs, m=2)
    defect = pgl_cocycle_defect(cover)
    assert all(v == 0 for v in defect.values.values())
    assert is_2cocycle(defect, cover)
    assert class_order(defect, cover) == 1


def test_defect_of_symbol_cover():
    cover = symbol_cover(2)
    defect = pgl_cocycle_defect(cover)
    assert defect.m == 4
    assert set(defect.values.values()) <= {0, 1, 2, 3}
    assert any(v != 0 for v in defect.values.values())
    assert is_2cocycle(defect, cover)


def test_defect_rejects_nonscalar_product():
    rng = np.random.default_rng(5)
    lifts = {
        (0, 1): rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
        (1, 2): rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
        (0, 2): rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
    }
    cover = make_cover(2, [(i, j, m) for (i, j), m in lifts.items()], triples=[(0, 1, 2)])
    with pytest.raises(NotPGLCocycle):
        pgl_cocycle_defect(cover)


@pytest.mark.parametrize("scales", [(1.0, 1.0, 1.0), (1e300, 1e300, 1e300), (1e-300, 1e-300, 1e-300), (1e-200, 1e300, 1e-320), (1e-310, 1.0, 1e200)])
def test_defect_decides_a_nonscalar_product_at_every_scale(scales):
    # Scalar-ness is decided on the max-modulus-scaled lifts, so no scale of them under- or overflows it; the
    # product of the raw lifts reads as the scalar NaN where it overflows and as the scalar 0 where it underflows.
    rng = np.random.default_rng(5)
    lifts = [(0, 1), (1, 2), (0, 2)]
    pairs = [(i, j, (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * s) for (i, j), s in zip(lifts, scales)]
    cover = make_cover(2, pairs, triples=[(0, 1, 2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPGLCocycle, match="not a scalar matrix"):
            pgl_cocycle_defect(cover)


@pytest.mark.parametrize("m", [4, None])
def test_defect_names_a_triple_product_that_overflows(m):
    # The symbol cover's triple products are scalars; with pairs (0, 1), (1, 3) and (0, 3) at 1e300 the one over
    # (0, 1, 3) is too, but 1e300 * 1e300 overflows on the way to it.
    cover = symbol_cover(2)
    big = {pair: g * 1e300 if pair in {(0, 1), (1, 3), (0, 3)} else g for pair, g in cover.transitions.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match=r"the triple product of lifts over \(0, 1, 3\) overflows a float"):
            pgl_cocycle_defect(dataclasses.replace(cover, transitions=big, m=m))


def test_defect_rejects_nonunit_scalar():
    cover = make_cover(
        2,
        [(0, 1, np.eye(2)), (1, 2, np.eye(2)), (0, 2, 0.5 * np.eye(2))],
        triples=[(0, 1, 2)],
    )
    with pytest.raises(NotRootOfUnity):
        pgl_cocycle_defect(cover)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_defect_of_a_cover_without_m_infers_m_as_p_squared(p):
    cover = symbol_cover(p)
    inferred = pgl_cocycle_defect(dataclasses.replace(cover, m=None))
    assert inferred.m == p * p
    assert inferred == pgl_cocycle_defect(cover)


@pytest.mark.parametrize("scalar", [1 + 1e-6, cmath.exp(2j * cmath.pi * 2**-0.5)])
def test_defect_without_m_rejects_a_scalar_off_the_unit_circle_or_of_no_small_order(scalar):
    cover = make_cover(2, [(0, 1, np.eye(2)), (1, 2, np.eye(2)), (0, 2, np.eye(2) / scalar)], triples=[(0, 1, 2)])
    with pytest.raises(NotRootOfUnity):
        pgl_cocycle_defect(cover)


def test_is_2cocycle_zero_and_tampered():
    cover = symbol_cover(2)
    zero = Cocycle2(4, {t: 0 for t in cover.triples})
    assert is_2cocycle(zero, cover)
    defect = pgl_cocycle_defect(cover)
    tampered = dict(defect.values)
    face = cover.quadruples[0][:3]
    tampered[face] = (tampered[face] + 1) % 4
    assert not is_2cocycle(Cocycle2(4, tampered), cover)


# -------------------------------------------------------------- class order


def test_class_order_symbol_cover_and_multiples():
    cover = symbol_cover(2)
    defect = pgl_cocycle_defect(cover)
    assert class_order(defect, cover) == 4
    doubled = Cocycle2(4, {t: (2 * v) % 4 for t, v in defect.values.items()})
    assert class_order(doubled, cover) == 2
    zero = Cocycle2(4, {t: 0 for t in cover.triples})
    assert class_order(zero, cover) == 1


def test_class_order_divides_modulus():
    cover = symbol_cover(3)
    defect = pgl_cocycle_defect(cover)
    assert defect.m == 9
    assert is_2cocycle(defect, cover)
    assert 9 % class_order(defect, cover) == 0


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_symbol_cover_obstruction_exceeds_torsion_bound(p):
    # the class order is p^2 while reducibility would force it to divide p
    cover = symbol_cover(p)
    defect = pgl_cocycle_defect(cover)
    assert class_order(defect, cover) == p * p
    assert torsion_bound((p, p)) == p


def test_trivial_class_rescales_to_genuine_cocycle():
    # start from an honest cocycle and twist every lift by a root of unity:
    # the defect is a coboundary and the witness undoes it
    rng = np.random.default_rng(13)
    hs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4)]
    cover = vertex_gauge_cover(2, 4, hs, m=4)
    twists = {p: int(t) for p, t in zip([(i, j) for i in range(4) for j in range(i + 1, 4)], rng.integers(0, 4, 6))}
    zeta = np.exp(2j * np.pi / 4)
    twisted = make_cover(
        2,
        [(i, j, cover.transitions[(i, j)] * zeta ** twists[(i, j)]) for (i, j) in cover.pairs],
        cover.triples,
        cover.quadruples,
        m=4,
    )
    defect = pgl_cocycle_defect(twisted)
    assert class_order(defect, twisted) == 1
    b = coboundary_witness(defect, twisted)
    assert b is not None
    fixed = rescale_lifts(twisted, b, 4)
    for i, j, k in fixed.triples:
        product = fixed.lift(i, j) @ fixed.lift(j, k) @ fixed.lift(k, i)
        assert np.abs(product - np.eye(2)).max() < 1e-9


def divisor_loop_order(c, cover):
    """The order as the first divisor l of m whose l * c has a coboundary witness: one solve per divisor."""
    return next(ell for ell in range(1, c.m + 1) if c.m % ell == 0 and coboundary_witness(c, cover, scale=ell) is not None)


def seeded_cocycles():
    rng = np.random.default_rng(71)
    for p in (2, 3, 4, 5):
        cover = symbol_cover(p)
        defect = pgl_cocycle_defect(cover)
        m = defect.m
        pairs = sorted({(min(i, j), max(i, j)) for i, j in cover.pairs})
        b = dict(zip(pairs, rng.integers(0, m, len(pairs)).tolist()))
        boundary = {(i, j, k): b[(j, k)] - b[(i, k)] + b[(i, j)] for i, j, k in cover.triples}
        k = int(rng.integers(2, m))
        for scale in (1, p, k):
            yield f"p{p}-{scale}x-defect", Cocycle2(m, {t: scale * v % m for t, v in defect.values.items()}), cover
        yield f"p{p}-{k}x-defect+boundary", Cocycle2(m, {t: (k * v + boundary[t]) % m for t, v in defect.values.items()}), cover
        yield f"p{p}-boundary", Cocycle2(m, {t: x % m for t, x in boundary.items()}), cover
    # more triples than pairs and no quadruples, so every cochain is a cocycle:
    # one dense cochain, then sparse ones whose values share factors with m
    from itertools import combinations

    skeleton = make_cover(1, [(i, j, [[1]]) for i, j in combinations(range(6), 2)], list(combinations(range(6), 3)), m=12)
    for trial in range(8):
        values = dict.fromkeys(skeleton.triples, 0)
        for at in rng.choice(20, 2 if trial else 20, replace=False):
            values[skeleton.triples[at]] = int(rng.choice([3, 4, 6]) if trial else rng.integers(1, 12))
        yield f"simplex-skeleton-{trial}", Cocycle2(12, values), skeleton
    yield "no-triples", Cocycle2(4, {}), make_cover(2, [(0, 1, np.eye(2))], m=4)


def test_class_order_matches_divisor_loop_with_one_snf(monkeypatch):
    import egeo.cech_brauer
    import egeo.modular

    calls = []

    def counted(matrix):
        calls.append(len(matrix))
        return smith_normal_form(matrix)

    checked = set()
    for name, c, cover in seeded_cocycles():
        expected = divisor_loop_order(c, cover)
        with monkeypatch.context() as patch:
            patch.setattr(egeo.cech_brauer, "smith_normal_form", counted)
            patch.setattr(egeo.modular, "smith_normal_form", counted)
            calls.clear()
            assert class_order(c, cover) == expected, name
            assert len(calls) == 1, name
        checked.add(expected)
    assert checked >= {1, 2, 3, 4, 5, 9, 16, 25}


def test_gauge_invariance_of_class_order():
    cover = symbol_cover(2)
    base_order = class_order(pgl_cocycle_defect(cover), cover)
    target = cover.pairs[5]
    zeta = np.exp(2j * np.pi / 4)
    new_pairs = [
        (i, j, cover.transitions[(i, j)] * (zeta if (i, j) == target else 1.0))
        for (i, j) in cover.pairs
    ]
    moved = make_cover(4, new_pairs, cover.triples, cover.quadruples, m=4)
    defect = pgl_cocycle_defect(moved)
    assert is_2cocycle(defect, moved)
    assert class_order(defect, moved) == base_order


# ---------------------------------------------------------------- reduction


def test_reduction_local_cover():
    rng = np.random.default_rng(17)
    hs = [
        np.kron(
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
        )
        for _ in range(4)
    ]
    cover = vertex_gauge_cover(4, 4, hs, m=2)
    report = check_reduction(cover, 2, 2)
    assert report.reducible
    assert report.torsion == 2
    defect = pgl_cocycle_defect(cover)
    assert report.torsion % class_order(defect, cover) == 0


def test_reduction_symbol_cover_fails():
    report = check_reduction(symbol_cover(2), 2, 2)
    assert not report.reducible
    assert report.torsion == 2
    assert any(not v for v in report.pair_verdicts.values())
    assert any(v for v in report.pair_verdicts.values())  # identity overlaps stay local


def test_reduction_single_chart_cover():
    cover = make_cover(4, [], chart_count=1)
    report = check_reduction(cover, 2, 2)
    assert report.reducible


def test_torsion_bound():
    assert torsion_bound((2, 2)) == 2
    assert torsion_bound((3, 3)) == 3
    assert torsion_bound((5, 5)) == 5
    assert torsion_bound((2, 3)) == 6
    with pytest.raises(OutOfRange):
        torsion_bound((1, 2))


def test_symbol_cover_bounds():
    with pytest.raises(OutOfRange):
        symbol_cover(1)
    with pytest.raises(OutOfRange):
        symbol_cover(6)


def test_symbol_cover_lifts_are_special():
    cover = symbol_cover(2)
    for pair in cover.pairs[:8]:
        assert abs(np.linalg.det(cover.transitions[pair]) - 1.0) < 1e-9


def test_seam_reassignment_shifts_defect_by_coboundary():
    # same torus nerve, but the 2-pi branch jump placed on the (0,1) seam
    # instead of (2,0): the defect differs by a coboundary, the class does not
    from itertools import combinations

    from egeo.gluing_sim import det_normalize

    m = 4
    w = weyl_ops(m)
    x_inv = np.linalg.inv(w.x_op)
    charts = [(a, b) for a in range(3) for b in range(3)]

    def jump(x, y):
        if (x, y) == (0, 1):
            return 1
        if (x, y) == (1, 0):
            return -1
        return 0

    def lift_for(i, j):
        (ai, bi), (aj, bj) = charts[i], charts[j]
        g = np.linalg.matrix_power(w.z_op, jump(ai, aj) % m) @ np.linalg.matrix_power(
            x_inv, jump(bi, bj) % m
        )
        return det_normalize(g)

    def in_nerve(ids):
        return len({charts[i][0] for i in ids}) <= 2 and len({charts[i][1] for i in ids}) <= 2

    pairs = [(i, j, lift_for(i, j)) for i in range(9) for j in range(i + 1, 9)]
    triples = [t for t in combinations(range(9), 3) if in_nerve(t)]
    quads = [q for q in combinations(range(9), 4) if in_nerve(q)]
    variant = make_cover(m, pairs, triples, quads, m=m, chart_count=9)
    validate_nerve(variant)

    reference = symbol_cover(2)
    d_ref = pgl_cocycle_defect(reference)
    d_var = pgl_cocycle_defect(variant)
    assert is_2cocycle(d_var, variant)
    assert class_order(d_var, variant) == class_order(d_ref, reference) == 4
    difference = Cocycle2(m, {t: (d_var.values[t] - d_ref.values[t]) % m for t in reference.triples})
    assert coboundary_witness(difference, reference) is not None


def test_weyl_transitions_appear_in_symbol_cover():
    # the clock and inverse-shift gauge elements show up across the seams
    cover = symbol_cover(2)
    w = weyl_ops(4)
    seen_z = seen_x = False
    from egeo import proj_equal

    for i, j in cover.pairs:
        for lift in (cover.lift(i, j), cover.lift(j, i)):
            if proj_equal(lift, w.z_op):
                seen_z = True
            if proj_equal(lift, np.linalg.inv(w.x_op)):
                seen_x = True
    assert seen_z and seen_x


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_make_cover_rejects_non_finite_lift(bad):
    lift = np.eye(2, dtype=complex)
    lift[0, 1] = bad
    with pytest.raises(NonFinite):
        make_cover(2, [(0, 1, lift)])


def test_make_cover_rejects_empty_lift_size():
    with pytest.raises(ShapeMismatch):
        make_cover(0, [])


@pytest.mark.parametrize(
    "kwargs",
    [{"m": 0}, {"chart_count": 1}, {"triples": [(0, 1, -2)]}, {"quadruples": [(0, 1, 2, 3)]}],
    ids=["m-zero", "index-beyond-charts", "negative-index", "quad-beyond-charts"],
)
def test_make_cover_rejects_out_of_range_indices_and_modulus(kwargs):
    kwargs.setdefault("chart_count", 3)
    with pytest.raises(OutOfRange):
        make_cover(2, [(0, 1, np.eye(2))], **kwargs)
