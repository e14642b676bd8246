"""Satake-side product criteria on unit-product eigenvalue multisets.

Spectral classes are renormalized to unit product on construction (the
principal n-th root of the product is divided out). The polynomial
criteria work purely at the level of elementary symmetric coordinates;
the brute-force slot-assignment oracle is their independent check.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import combinations, product
from math import isfinite, prod

from .errors import NonFinite, OutOfRange, TooLarge, WrongSize, ZeroState

SPECTRAL_TOL = 1e-9
ORACLE_SIZE_CAP = 16


def _unit_product(values) -> tuple[complex, ...]:
    zs = tuple(map(complex, values))
    if not zs:
        raise WrongSize("a spectral class needs at least one eigenvalue")
    if not all(map(cmath.isfinite, zs)):
        raise NonFinite("eigenvalues must be finite")
    if 0 in zs:
        raise ZeroState("spectral classes require nonzero eigenvalues")
    total = prod(zs)
    if total == 0 or not cmath.isfinite(total):
        raise OutOfRange("the product of the eigenvalues overflows or underflows")
    root = cmath.exp(cmath.log(total) / len(zs))
    return tuple(z / root for z in zs)


@dataclass(frozen=True)
class SpectralClass:
    """Multiset of nonzero eigenvalues with product 1."""

    eigenvalues: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _unit_product(self.eigenvalues))

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class LocalSpectra:
    """Per-factor eigenvalue lists, each with product 1."""

    factors: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(_unit_product(f) for f in self.factors))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.factors)


def elem_sym(s: SpectralClass) -> list[complex]:
    """Elementary symmetric values e_1 .. e_n of the eigenvalues.

    Each eigenvalue updates the coefficients in place, from the highest
    index down, so every update still reads the previous coefficients.
    """
    coeffs = [1.0 + 0j]
    for z in s.eigenvalues:
        coeffs.append(z * coeffs[-1])
        for k in range(len(coeffs) - 2, 0, -1):
            coeffs[k] = coeffs[k] + z * coeffs[k - 1]
    return coeffs[1:]


def tensor_spectrum(locals_: LocalSpectra) -> SpectralClass:
    """All slotwise products prod_i a_(i, j_i) over index tuples."""
    values = [1.0 + 0j]
    for factor in locals_.factors:
        values = [v * a for v in values for a in factor]
    return SpectralClass(tuple(values))


def _match_entry(c: complex, zs, tol: float) -> list[int]:
    """Indices of the eigenvalues within the match bound of c (looser than the verdict), nearest first, ties by index."""
    try:
        dist, bound = [abs(c - z) for z in zs], max(tol, 1e-7) * (1.0 + abs(c))
    except OverflowError:  # |c - z| or |c| past the float range, parts finite: the same test at quarter scale
        c, zs = c / 4, [z / 4 for z in zs]
        dist, bound = [abs(c - z) for z in zs], max(tol, 1e-7) * (0.25 + abs(c))
    return sorted([k for k, d in enumerate(dist) if not d > bound], key=dist.__getitem__)


def _greedy_match(entries, pool: list[int]) -> bool:
    """Each entry (candidate indices, nearest first) in turn takes its first index still in pool.

    As pool is ascending, that is its nearest unused eigenvalue, the first of equally
    near ones. The match fails at the first entry with none left. Consumes pool.
    """
    for candidates in entries:
        best = next((k for k in candidates if k in pool), None)
        if best is None:
            return False
        pool.remove(best)
    return True


def _relations_22(s: SpectralClass) -> list[tuple[float, float]]:
    """(residual, scale) of e_1 = e_3; a criterion holds iff every residual <= tol * scale."""
    if s.n != 4:
        raise WrongSize(f"(2,2) test needs 4 eigenvalues, got {s.n}")
    e = elem_sym(s)
    return [(abs(e[0] - e[2]), 1.0 + abs(e[0]))]


def is_22_product(s: SpectralClass, tol: float = SPECTRAL_TOL) -> tuple[bool, tuple[complex, complex] | None]:
    """Palindromic test e_1 = e_3 with witness reconstruction.

    The witness pairs the multiset into inversion pairs {u, 1/u, v, 1/v},
    then takes a with a^2 = uv and b = u/a.
    """
    if not all(r <= tol * w for r, w in _relations_22(s)):
        return False, None
    zs = s.eigenvalues
    u = zs[0]
    for v in (zs[2], zs[1]):  # u's inverse partner is zs[1], or else zs[2] or zs[3]
        for sign in (1, -1):
            a = sign * cmath.sqrt(u * v)
            if a == 0:
                continue
            b = u / a
            spectrum = (a * b, a / b, b / a, 1.0 / (a * b))
            if _greedy_match((_match_entry(c, zs, tol) for c in spectrum), [0, 1, 2, 3]):
                return True, (a, b)
    return True, None


def quartic_f(e) -> complex:
    """F = e3^2 + 2 e1 e3 + e1^4 - (e4 + 2 e2 + 1) e1^2 on the first four e's."""
    e1, e2, e3, e4 = (complex(x) for x in e[:4])
    return e3 * e3 + 2 * e1 * e3 + e1**4 - (e4 + 2 * e2 + 1) * e1 * e1


def _relations_222(s: SpectralClass) -> list[tuple[float, float]]:
    """(residual, scale) of e_k = e_(8-k) for k = 1, 2, 3 and of F = 0, all finite, or OutOfRange."""
    if s.n != 8:
        raise WrongSize(f"(2,2,2) test needs 8 eigenvalues, got {s.n}")
    e = elem_sym(s)
    try:  # a float power or modulus past the float range raises; a sum or product goes to inf
        palindromic = [(abs(e[7 - k] - e[k - 1]), 1.0 + max(abs(e[k - 1]), abs(e[7 - k]))) for k in (1, 2, 3)]
        scale = 1.0 + abs(e[2]) ** 2 + 2 * abs(e[0]) * abs(e[2]) + abs(e[0]) ** 4 + (abs(e[3]) + 2 * abs(e[1]) + 1) * abs(e[0]) ** 2
        relations = palindromic + [(abs(quartic_f(e)), scale)]
        if all(isfinite(r) and isfinite(w) for r, w in relations):
            return relations
    except OverflowError:
        pass
    raise OutOfRange("the (2,2,2) relations of the spectrum overflow a float")


def is_222_product(s: SpectralClass, tol: float = SPECTRAL_TOL) -> bool:
    """Three palindromic relations plus the vanishing of the quartic F."""
    return all(r <= tol * w for r, w in _relations_222(s))


def margin_222(s: SpectralClass) -> float:
    """Largest scaled residual of the (2,2,2) relations; small iff product."""
    return max(r / w for r, w in _relations_222(s))


def margin_22(s: SpectralClass) -> float:
    """Scaled residual of the (2,2) relation; small iff product."""
    return max(r / w for r, w in _relations_22(s))


def _bipartite_splits(zs: tuple[complex, ...], d_a: int, d_b: int, tol: float):
    """Yield (alpha, beta) with alpha_i * beta_j matching zs, unit products.

    Fixes the (0,0) cell at zs[0] (Weyl symmetry), enumerates the first
    row and column, predicts the rest of the grid, and verifies the
    multiset. Root-of-unity rescales are tried to meet the unit-product
    constraint on both sides.

    The multiset check is `_greedy_match` of the predicted interior, in
    grid order, against the unused eigenvalues. A predicted value depends
    only on its row and column entries, so its candidates are computed
    once per spectrum, on first use. A column with no candidate in some
    row slot fails whatever the pool, so each row takes its columns from
    the others, in order. The log of a column product that under- or
    overflows is the sum of logs: off by a multiple of 2 pi i, it gives
    the same d_a roots.
    """
    rest = list(range(1, len(zs)))
    z00 = zs[0]
    cells: dict[tuple[int, int], list[int]] = {}  # (a, b) and (b, a): candidates of the interior value zs[a] * zs[b] / z00
    for row_idx in combinations(rest, d_b - 1):
        row_left = [k for k in rest if k not in row_idx]
        columns = []  # every cell of a kept column is in cells
        for a in row_left:
            for b in row_idx:
                cell = cells.get((a, b))
                if cell is None:  # zs[a] * zs[b] and zs[b] * zs[a] are the same float sums, bit for bit
                    cell = cells[a, b] = cells[b, a] = _match_entry(zs[a] * zs[b] / z00, zs, tol)
                if not cell:
                    break
            else:
                columns.append(a)
        for col_idx in combinations(columns, d_a - 1):
            pool = [k for k in row_left if k not in col_idx]
            if not _greedy_match(map(cells.__getitem__, product(col_idx, row_idx)), pool):
                continue
            row = [z00] + [zs[k] for k in row_idx]
            col = [z00] + [zs[k] for k in col_idx]
            col_prod = prod(col)
            log_prod = cmath.log(col_prod) if col_prod != 0 and cmath.isfinite(col_prod) else sum(map(cmath.log, col))
            for k in range(d_a):
                beta0 = cmath.exp((log_prod + 2j * cmath.pi * k) / d_a)
                alpha = tuple(c / beta0 for c in col)
                alpha0 = z00 / beta0
                if alpha0 == 0:  # it underflows: this split's beta would leave the float range
                    continue
                beta = tuple(r / alpha0 for r in row)
                if abs(prod(alpha) - 1.0) <= tol * 10 and abs(prod(beta) - 1.0) <= tol * 10:
                    yield alpha, beta


def d_product_oracle(s: SpectralClass, d, tol: float = SPECTRAL_TOL) -> LocalSpectra | None:
    """Brute-force factorization of the spectrum into slotwise products.

    Recursive over bipartite splits (d_1, prod of the rest); returns local
    witnesses or None. Exhaustive up to Weyl symmetry; capped at n <= 16.
    """
    dims = tuple(int(x) for x in d)
    if any(x < 1 for x in dims) or not dims:
        raise OutOfRange(f"bad type {d}")
    n = prod(dims)
    if n > ORACLE_SIZE_CAP:
        raise TooLarge(f"oracle capped at {ORACLE_SIZE_CAP} eigenvalues, got {n}")
    if s.n != n:
        raise WrongSize(f"spectrum has {s.n} eigenvalues, type {dims} needs {n}")
    if len(dims) == 1:
        return LocalSpectra((s.eigenvalues,))
    d_rest = prod(dims[1:])
    for alpha, beta in _bipartite_splits(s.eigenvalues, dims[0], d_rest, tol):
        inner = d_product_oracle(SpectralClass(beta), dims[1:], tol)
        if inner is not None:
            return LocalSpectra((alpha,) + inner.factors)
    return None


def sphericity_check(d) -> bool:
    """Necessary dimension condition n^2 - n - 2 sum(d_i^2) + 2r <= 0."""
    dims = tuple(int(x) for x in d)
    if len(dims) < 2 or any(x < 2 for x in dims):
        raise OutOfRange(f"need r >= 2 factors all of dimension >= 2, got {dims}")
    n = prod(dims)
    return n * n - n - 2 * sum(x * x for x in dims) + 2 * len(dims) <= 0
