"""Finite-cover Cech machinery for projective transition data.

Covers are combinatorial nerves with one constant invertible lift per
overlap (the desk-scale stand-in for a sheaf-theoretic cover with
contractible overlaps). The scalar discrepancies of triple products form
a mu_m-valued 2-cocycle; its order modulo coboundaries is decided by an
exact Smith-normal-form solve over Z/m.
"""

from __future__ import annotations

import cmath
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cache
from math import gcd, lcm

import numpy as np

from .errors import (
    BadNerve,
    NonFinite,
    NotCocycle,
    NotPGLCocycle,
    NotRootOfUnity,
    OutOfRange,
    ShapeMismatch,
)
from .gluing_sim import PROJ_TOL, _scalar_value, det_normalize, is_local_operator, proj_equal, weyl_ops
from .modular import smith_normal_form
from .tensor_core import DEFAULT_RANK_TOL, _frozen, numerical_rank, unit_max_modulus

ROOT_ORDER_CAP = 64


@dataclass(frozen=True)
class CechCover:
    """Nerve of a finite cover with invertible transition lifts.

    transitions maps ordered index pairs to n x n lifts; the reverse of a
    stored pair is implicitly the inverse lift. triples and quadruples
    list the higher overlaps of the nerve, ascending.
    """

    chart_count: int
    n: int
    transitions: dict
    triples: tuple[tuple[int, int, int], ...]
    quadruples: tuple[tuple[int, int, int, int], ...]
    m: int | None = None

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.transitions)

    def lift(self, i: int, j: int) -> np.ndarray:
        if i == j:
            return np.eye(self.n, dtype=complex)
        if (i, j) in self.transitions:
            return self.transitions[(i, j)]
        if (j, i) in self.transitions:
            return np.linalg.inv(self.transitions[(j, i)])
        raise BadNerve(f"no transition stored for pair ({i}, {j})")


def make_cover(n: int, pairs_with_lifts, triples=(), quadruples=(), m: int | None = None, chart_count: int | None = None) -> CechCover:
    """Assemble a cover and check it (validate_nerve); chart_count defaults to 1 + the largest index seen."""
    if n < 1:
        raise ShapeMismatch(f"lifts must be n x n with n >= 1, got n={n}")
    transitions = {}
    for i, j, lift in pairs_with_lifts:
        if i == j or (i, j) in transitions:
            raise BadNerve(f"pair ({i}, {j}) joins a chart to itself" if i == j else f"pair ({i}, {j}) is listed twice")
        try:
            lift = np.asarray(lift, dtype=complex)
        except ValueError:  # ragged rows
            raise ShapeMismatch(f"lift for pair ({i}, {j}) is not a ({n}, {n}) array of numbers") from None
        if lift.shape != (n, n):
            raise ShapeMismatch(f"lift for pair ({i}, {j}) has shape {lift.shape}, expected ({n}, {n})")
        if not np.isfinite(lift).all():
            raise NonFinite(f"lift for pair ({i}, {j}) has a non-finite entry")
        rank = numerical_rank(lift)
        if rank < n:
            raise BadNerve(f"lift for pair ({i}, {j}) is singular: numerical rank {rank} < n = {n}")
        transitions[(i, j)] = _frozen(lift)
    indices = [i for p in transitions for i in p] + [i for t in triples for i in t] + [0]
    count = chart_count if chart_count is not None else max(indices) + 1
    listed = indices + [i for q in quadruples for i in q]
    if min(listed) < 0 or max(listed) >= count:
        raise OutOfRange(f"chart indices must lie in 0..{count - 1}, got {min(listed)}..{max(listed)}")
    if m is not None and m < 1:
        raise OutOfRange(f"the cocycle modulus must be >= 1, got m={m}")
    cover = CechCover(count, n, transitions, tuple(tuple(t) for t in triples), tuple(tuple(q) for q in quadruples), m)
    validate_nerve(cover)
    return cover


def _canonical_pairs(cover: CechCover) -> list[tuple[int, int]]:
    seen = set()
    out = []
    for i, j in cover.pairs:
        key = (min(i, j), max(i, j))
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def validate_nerve(cover: CechCover) -> None:
    """Check downward closure and inverse-pair consistency; raise BadNerve."""
    have = {(min(i, j), max(i, j)) for i, j in cover.pairs}
    for t in cover.triples:
        if list(t) != sorted(set(t)):
            raise BadNerve(f"triple {t} is not strictly ascending")
        for a in range(3):
            for b in range(a + 1, 3):
                if (t[a], t[b]) not in have:
                    raise BadNerve(f"triple {t} lists overlap but pair ({t[a]}, {t[b]}) is missing")
    triple_set = set(cover.triples)
    for q in cover.quadruples:
        if list(q) != sorted(set(q)):
            raise BadNerve(f"quadruple {q} is not strictly ascending")
        for skip in range(4):
            face = tuple(x for k, x in enumerate(q) if k != skip)
            if face not in triple_set:
                raise BadNerve(f"quadruple {q} lists overlap but triple {face} is missing")
    for i, j in cover.pairs:
        if (j, i) in cover.transitions:
            if not proj_equal(cover.transitions[(j, i)], np.linalg.inv(unit_max_modulus(cover.transitions[(i, j)]))):
                raise BadNerve(f"lifts for ({i}, {j}) and ({j}, {i}) are not inverse up to scalar")


@dataclass(frozen=True)
class Cocycle2:
    """mu_m-valued triple-overlap scalars, stored as exponents mod m."""

    m: int
    values: dict


def _root_exponent(scalar: complex, m: int) -> int:
    if abs(abs(scalar) - 1.0) > PROJ_TOL:
        raise NotRootOfUnity(f"scalar {scalar} does not lie on the unit circle")
    e = round(m * (cmath.phase(scalar) % (2 * cmath.pi)) / (2 * cmath.pi)) % m
    if abs(scalar - cmath.exp(2j * cmath.pi * e / m)) > PROJ_TOL:
        raise NotRootOfUnity(f"scalar {scalar} is not close to a {m}-th root of unity")
    return e


def _infer_order(scalar: complex) -> int:
    if abs(abs(scalar) - 1.0) > PROJ_TOL:
        raise NotRootOfUnity(f"scalar {scalar} does not lie on the unit circle")
    for order in range(1, ROOT_ORDER_CAP + 1):
        if abs(scalar**order - 1.0) < PROJ_TOL * order:
            return order
    raise NotRootOfUnity(f"scalar {scalar} has no small root-of-unity order")


def pgl_cocycle_defect(cover: CechCover) -> Cocycle2:
    """Scalars of all triple products, as exponents in Z/m.

    m is taken from the cover when present, otherwise inferred as the lcm
    of the detected scalar orders.  Being scalar is projective, so it is
    decided on the lifts divided by their max modulus, whose product does
    not overflow; the scalar itself is read off the lifts as given.
    """
    unit = replace(cover, transitions={pair: unit_max_modulus(g) for pair, g in cover.transitions.items()})
    lift, unit_lift = cache(cover.lift), cache(unit.lift)  # each inverse lift is formed once
    scalars = {}
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing product is refused below
        for t in cover.triples:
            if _scalar_value(_triple_product(unit_lift, t)) is None:
                raise NotPGLCocycle("triple product of lifts is not a scalar matrix")
            product = _triple_product(lift, t)
            if not np.isfinite(product).all():
                raise OutOfRange(f"the triple product of lifts over {t} overflows a float")
            scalars[t] = complex(np.trace(product)) / cover.n
    m = cover.m
    if m is None:
        m = 1
        for c in scalars.values():
            m = lcm(m, _infer_order(c))
    values = {t: _root_exponent(c, m) for t, c in scalars.items()}
    return Cocycle2(m, values)


def _triple_product(lift: Callable[[int, int], np.ndarray], t: tuple[int, int, int]) -> np.ndarray:
    i, j, k = t
    return lift(i, j) @ lift(j, k) @ lift(k, i)


def is_2cocycle(c: Cocycle2, cover: CechCover) -> bool:
    """Check the alternating-sum identity on every nerve quadruple."""
    for i, j, k, l in cover.quadruples:
        total = c.values[(j, k, l)] - c.values[(i, k, l)] + c.values[(i, j, l)] - c.values[(i, j, k)]
        if total % c.m != 0:
            return False
    return True


def _coboundary_matrix(cover: CechCover) -> tuple[list[list[int]], list[tuple[int, int]]]:
    pairs = _canonical_pairs(cover)
    index = {p: col for col, p in enumerate(pairs)}
    rows = []
    for i, j, k in cover.triples:
        row = [0] * len(pairs)
        row[index[(j, k)]] += 1
        row[index[(i, k)]] -= 1
        row[index[(i, j)]] += 1
        rows.append(row)
    return rows, pairs


def class_order(c: Cocycle2, cover: CechCover) -> int:
    """Smallest l >= 1 such that l * c is a coboundary over Z/m.

    With u A v = S the Smith form of the coboundary matrix A, l * c = A b is
    solvable iff g_i = gcd(s_ii, m) divides l * (u c)_i for every row i.
    """
    if not is_2cocycle(c, cover):
        raise NotCocycle("exponent cochain fails the 2-cocycle identity")
    matrix, pairs = _coboundary_matrix(cover)
    s, u = smith_normal_form(matrix)
    rhs = [c.values[tr] for tr in cover.triples]
    t = [sum(x * y for x, y in zip(row, rhs)) % c.m for row in u]
    g = [gcd(s[i][i] if i < len(pairs) else 0, c.m) for i in range(len(u))]
    return lcm(*(gi // gcd(ti, gi) for gi, ti in zip(g, t)))


@dataclass(frozen=True)
class ReductionReport:
    """Per-pair stabilizer-membership verdicts and the overall reduction flag."""

    pair_verdicts: dict
    reducible: bool
    torsion: int


def torsion_bound(dims) -> int:
    """lcm of the subsystem dimensions: the order bound for reducible classes."""
    dims = [int(d) for d in dims]
    if any(d < 2 for d in dims):
        raise OutOfRange(f"subsystem dimensions must be >= 2, got {dims}")
    return lcm(*dims)


def check_reduction(cover: CechCover, d_a: int, d_b: int, tol: float = DEFAULT_RANK_TOL) -> ReductionReport:
    """Test every transition for Segre-stabilizer membership of type (d_a, d_b)."""
    if cover.n != d_a * d_b:
        raise ShapeMismatch(f"cover acts in dimension {cover.n}, not {d_a}*{d_b}")
    verdicts = {}
    for i, j in _canonical_pairs(cover):
        verdicts[(i, j)] = is_local_operator(cover.lift(i, j), d_a, d_b, tol)
    return ReductionReport(verdicts, all(verdicts.values()), torsion_bound((d_a, d_b)))


_ARC_COUNT = 3


def _arc_jump(a_i: int, a_j: int) -> int:
    # Branch sheet of chart i minus that of chart j on their overlap; the
    # 2 pi jump sits on the seam between the last arc and the first.
    if (a_i, a_j) == (_ARC_COUNT - 1, 0):
        return 1
    if (a_i, a_j) == (0, _ARC_COUNT - 1):
        return -1
    return 0


def symbol_cover(p: int) -> CechCover:
    """Desk-scale symbol-algebra cover of the unit torus, m = p^2.

    Nine charts (3 arcs per circle factor); crossing a u-seam contributes
    a power of Z, crossing a v-seam a power of X^-1, and lifts are
    normalized to determinant 1. Higher overlaps exist exactly when the
    charts involve at most two distinct arcs per factor.
    """
    if not 2 <= p <= 5:
        raise OutOfRange(f"symbol cover supports 2 <= p <= 5, got {p}")
    m = p * p
    w = weyl_ops(m)
    charts = [(a, b) for a in range(_ARC_COUNT) for b in range(_ARC_COUNT)]
    count = len(charts)

    def lift_for(i: int, j: int) -> np.ndarray:
        (ai, bi), (aj, bj) = charts[i], charts[j]
        s = _arc_jump(ai, aj) % m
        t = _arc_jump(bi, bj) % m
        g = np.linalg.matrix_power(w.z_op, s) @ np.linalg.matrix_power(w.x_inv, t)
        return det_normalize(g)

    pairs = [(i, j, lift_for(i, j)) for i in range(count) for j in range(i + 1, count)]

    def in_nerve(ids) -> bool:
        return len({charts[i][0] for i in ids}) <= 2 and len({charts[i][1] for i in ids}) <= 2

    from itertools import combinations

    triples = [t for t in combinations(range(count), 3) if in_nerve(t)]
    quadruples = [q for q in combinations(range(count), 4) if in_nerve(q)]
    return make_cover(m, pairs, triples, quadruples, m=m, chart_count=count)
