"""Determinantal-variety numerology in exact integer arithmetic.

Dimension, degree, Schur dimensions and Hilbert function of the rank <= r
loci, and secant dimensions. No numpy is loaded: the numerical flattening
ranks these loci are cut out by live in `separability`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from .errors import OutOfRange

DEGREE_DIM_CAP = 12
HILBERT_TMAX_CAP = 20  # `invariants --tmax` cap: a 12x12 table takes 0.9 s at 20 and 2.2 s at 25 (2-vCPU VM)


@dataclass(frozen=True)
class IntegerPartition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True):
            raise OutOfRange(f"parts must be positive and weakly decreasing, got {self.parts}")
        object.__setattr__(self, "parts", parts)


@dataclass(frozen=True)
class VarietyInvariants:
    dim: int
    codim: int
    degree: int


def determinantal_dim(d_a: int, d_b: int, k: int) -> tuple[int, int]:
    """(dimension, codimension) of the rank <= k locus in P^(d_a d_b - 1)."""
    if not 1 <= k <= min(d_a, d_b):
        raise OutOfRange(f"need 1 <= k <= min(d_a, d_b), got k={k} for ({d_a}, {d_b})")
    dim = k * (d_a + d_b - k) - 1
    return dim, (d_a - k) * (d_b - k)


def segre_degree(d_a: int, d_b: int) -> int:
    """Degree of the two-factor Segre variety."""
    if d_a < 2 or d_b < 2:
        raise OutOfRange("segre_degree needs both dimensions >= 2")
    return comb(d_a + d_b - 2, d_a - 1)


def determinantal_degree(d_a: int, d_b: int, r: int) -> int:
    """Projective degree of the rank <= r determinantal variety, exact."""
    if d_a > d_b:
        d_a, d_b = d_b, d_a
    if not 1 <= r <= d_a:
        raise OutOfRange(f"need 1 <= r <= min(d_a, d_b), got r={r} for ({d_a}, {d_b})")
    if d_b > DEGREE_DIM_CAP:
        raise OutOfRange(f"degree formula capped at dimension {DEGREE_DIM_CAP}")
    deg = Fraction(1)
    for i in range(d_a - r):
        deg *= Fraction(factorial(d_b + i) * factorial(i), factorial(r + i) * factorial(d_b - r + i))
    assert deg.denominator == 1
    return int(deg)


def schur_dim(lam: IntegerPartition, d: int) -> int:
    """Dimension of the Schur functor S_lambda(C^d) by hook content."""
    if d < 1:
        raise OutOfRange("dimension must be >= 1")
    parts = lam.parts
    if len(parts) > d:
        return 0
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    num, den = 1, 1
    for i, row in enumerate(parts):
        for j in range(row):
            num *= d + j - i
            den *= (row - j) + (conj[j] - i) - 1  # hook length
    assert num % den == 0
    return num // den


def _partitions_of(t: int, max_len: int, cap: int | None = None):
    if t == 0:
        yield ()
        return
    if max_len < 1:
        return
    first = min(t, cap) if cap is not None else t
    for head in range(first, 0, -1):
        for tail in _partitions_of(t - head, max_len - 1, head):
            yield (head,) + tail


def hilbert_function(d_a: int, d_b: int, r: int, t: int) -> int:
    """Degree-t dimension of the determinantal coordinate ring.

    Sum over partitions of t with at most r rows of the product of Schur
    dimensions on both sides.
    """
    if t < 0 or r < 1 or r > min(d_a, d_b):
        raise OutOfRange(f"bad Hilbert arguments ({d_a}, {d_b}, {r}, {t})")
    if t == 0:
        return 1
    total = 0
    for parts in _partitions_of(t, r):
        lam = IntegerPartition(parts)
        total += schur_dim(lam, d_a) * schur_dim(lam, d_b)
    return total


def hilbert_poly_fit(d_a: int, d_b: int, r: int) -> tuple[int, int]:
    """Fit the Hilbert values to a polynomial by exact finite differences.

    Returns (polynomial degree, degree! * leading coefficient): the
    variety's dimension and projective degree, recovered without the
    closed formulas and usable as their independent oracle.
    """
    dim, _ = determinantal_dim(d_a, d_b, r)
    seq = [hilbert_function(d_a, d_b, r, t) for t in range(dim + 5)]
    level = 0
    while len(seq) >= 3:
        nxt = [b - a for a, b in zip(seq, seq[1:])]
        if all(x == 0 for x in nxt):
            if len(set(seq)) != 1 or seq[0] == 0:
                break
            return level, seq[0]
        seq, level = nxt, level + 1
    raise OutOfRange("Hilbert values did not stabilize to a polynomial")


def secant_expected_dim(dims, r: int) -> int:
    """Expected dimension of the r-th secant of the Segre of the given type."""
    if r < 1:
        raise OutOfRange("secant index must be >= 1")
    dims = [int(d) for d in dims]
    ambient = prod(dims) - 1
    return min(r * (sum(d - 1 for d in dims) + 1) - 1, ambient)


def variety_invariants(d_a: int, d_b: int, r: int) -> VarietyInvariants:
    dim, codim = determinantal_dim(d_a, d_b, r)
    return VarietyInvariants(dim, codim, determinantal_degree(d_a, d_b, r))
