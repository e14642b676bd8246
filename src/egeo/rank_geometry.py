"""Tensor rank at desk scale and determinantal-variety numerology.

Exact tensor rank is implemented only for shape 2x2x2 via the pencil of
first-factor contractions; everywhere else only flattening bounds are
exposed. Degree and Hilbert data use exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod, sqrt

import numpy as np

from .errors import OutOfRange, WrongShape, ZeroState
from .separability import CERTIFY_MIN_TOL, bipartitions
from .tensor_core import DEFAULT_RANK_TOL, Bipartition, PureState, flatten, make_state, numerical_rank, unit_max_modulus

DEGREE_DIM_CAP = 12
HILBERT_TMAX_CAP = 20  # `invariants --tmax` cap: a 12x12 table takes 0.9 s at 20 and 2.2 s at 25 (2-vCPU VM)
PENCIL_TOL = 1e-9


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


def flattening_lower_bound(state: PureState, tol: float = DEFAULT_RANK_TOL) -> int:
    """Max flattening rank over all bipartitions: a border-rank lower bound.

    A cut's rank is at most min(D_A, D_B), so the cuts are visited by
    descending min(D_A, D_B) and the scan stops at the first one that
    cannot exceed the running max k.  For tol >= CERTIFY_MIN_TOL, a cut
    visited with k >= 1 first tries `_rank_at_most`'s certificate that its
    rank is <= k, and is skipped if that holds; every other cut takes the
    SVD, so the bound is the SVD's.  Once a certificate fails on a cut the
    SVD puts at rank <= k, the SVD decides every cut left.
    """
    if state.n_subsystems == 1:
        return 1
    state = PureState(state.dims, unit_max_modulus(state.coeffs))
    total = prod(state.dims)

    def min_side(cut: Bipartition) -> int:
        d_a = prod(state.dims[i] for i in cut.block_a)
        return min(d_a, total // d_a)

    certify = tol >= CERTIFY_MIN_TOL
    best, omega = 0, None
    for cut in sorted(bipartitions(state.n_subsystems), key=min_side, reverse=True):  # stable
        if min_side(cut) <= best:
            break
        m = flatten(state, cut)
        if certify and best and _rank_at_most(m, omega, tol):
            continue
        rank = numerical_rank(m, tol)
        if rank > best:
            # Every cut left has min(D_A, D_B) > rank, so its long side is at most total // (rank + 1).
            best, omega = rank, _sketch(total // (rank + 1), rank)
        else:
            # The certificate failed on a cut of rank <= best: noise this close to tol
            # defeats it, so the SVD alone decides the cuts left.
            certify = False
    return best


def _sketch(d: int, k: int) -> np.ndarray:
    """The fixed d x k test matrix exp(2 pi i frac(i j phi + j sqrt 2)).

    Entry (i, j) does not depend on d, so its first rows are the sketch of
    any shorter side.  It is a formula, not a random draw, so that no
    process loads numpy.random for it.
    """
    i, j = np.ogrid[:d, :k]
    return np.exp(2j * np.pi * np.modf(i * j * ((1 + sqrt(5)) / 2) + j * sqrt(2))[0])


def _rank_at_most(m: np.ndarray, omega: np.ndarray, tol: float) -> bool:
    """True when a range sketch proves sigma_(k+1)(m) <= tol/2 sigma_1(m).

    With m wide (transposed if tall) and Omega the first rows of the
    k-column `_sketch`, Q = qr(m Omega), B = Q^H m and E = m - Q B: QB has
    rank <= k, so sigma_(k+1) <= ||E||_F (Eckart-Young), and B has k rows
    with ||B||_2 <= sigma_1, so sigma_1 >= ||B||_F / sqrt(k).  Hence
    ||E||_F^2 <= (tol/2)^2 ||B||_F^2 / k proves sigma_(k+1) <= tol/2 sigma_1,
    and the SVD, whose rounding is far below that factor-2 margin, would
    count at most k singular values above tol sigma_1.  E is formed entry
    by entry: ||m||^2 - ||B||^2 or a Gram matrix would square m and put its
    rounding (about 1e-8 sigma_1) above tol.  Below CERTIFY_MIN_TOL the
    rounding is no longer small next to the margin, so there the SVD
    decides every cut.  False proves nothing.
    """
    if m.shape[0] > m.shape[1]:
        m = m.T
    k = omega.shape[1]
    q = np.linalg.qr(m @ omega[: m.shape[1]])[0]
    b = (m.T @ q.conj()).T  # = Q^H m, with m as BLAS's first operand: it packs no copy of m into new pages
    e = q @ b
    e -= m  # -E, in place
    return np.vdot(e, e).real <= (0.5 * tol) ** 2 * np.vdot(b, b).real / k


def rank_2x2x2(state: PureState, tol: float = DEFAULT_RANK_TOL) -> int:
    """Exact tensor rank of a 2x2x2 tensor, in {1, 2, 3}.

    Uses the pencil of first-factor contractions M0, M1: rank 2 iff the
    binary quadratic det(a M0 + b M1) has two projectively distinct roots
    (the pencil contains two independent rank-1 members), rank 3 iff the
    discriminant vanishes and the state is not product. When some
    flattening has rank 1 a tensor factor splits off and the question
    reduces to the bipartite rank of the remaining pair.
    """
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


def w_family(t: complex) -> PureState:
    """The curve (|0> + t|1>)^(x3) - |000> of rank <= 2 tensors limiting to W."""
    coeffs = np.zeros(8, dtype=complex)
    for r in range(8):
        weight = bin(r).count("1")
        coeffs[r] = t**weight
    coeffs[0] -= 1.0
    if not np.any(coeffs != 0):
        raise ZeroState("w_family degenerates to the zero vector at t = 0")
    return make_state([2, 2, 2], coeffs)


def w_state() -> PureState:
    """|001> + |010> + |100>."""
    coeffs = np.zeros(8, dtype=complex)
    coeffs[[1, 2, 4]] = 1.0
    return make_state([2, 2, 2], coeffs)


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
