"""Dense pure-state tensors: flattenings, rank tests, Schmidt decomposition.

States are projective: nothing here normalizes on construction, and every
rank/membership output is invariant under rescaling the coefficient vector.
Coefficients are stored row-major with the last subsystem index fastest.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import prod

import numpy as np

from .errors import DEFAULT_RANK_TOL, NonFinite, NotSquare, OutOfRange, ShapeMismatch, TooLarge, WrongShape, ZeroState

MINOR_SIZE_CAP = 8
# Below this tolerance the rounding in a residual is no longer small next to
# the certificates' factor-2 margin, so the SVD decides every cut.
CERTIFY_MIN_TOL = 1e-11
SMALLEST_NORMAL = float(np.finfo(float).tiny)
EPS = float(np.finfo(float).eps)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PureState:
    """A nonzero vector in a tensor product of subsystems, up to scale."""

    dims: tuple[int, ...]
    coeffs: np.ndarray

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def tensor(self) -> np.ndarray:
        """Coefficients reshaped to one axis per subsystem."""
        return self.coeffs.reshape(self.dims)

    def norm(self) -> float:
        """Euclidean norm. Outside [1e-150, 1e150] the squares under- or overflow,
        so there the coefficients are divided by their max modulus first.
        Raises OutOfRange if the norm itself overflows a float."""
        with np.errstate(over="ignore"):
            plain = float(np.linalg.norm(self.coeffs))
        if 1e-150 <= plain <= 1e150:
            return plain
        top, unit = _max_modulus_scale(self.coeffs)
        norm = top * float(np.linalg.norm(unit))
        if not np.isfinite(norm):
            raise OutOfRange(f"the norm of the state overflows a float (it exceeds {np.finfo(float).max:.6g})")
        return norm

    def normalized(self) -> "PureState":
        norm = self.norm()
        if norm >= SMALLEST_NORMAL:
            return PureState(self.dims, _frozen(self.coeffs / norm))
        # A subnormal norm keeps only a few digits: normalize the max-modulus-scaled vector.
        unit = unit_max_modulus(self.coeffs)
        return PureState(self.dims, _frozen(unit / np.linalg.norm(unit)))


def make_state(dims, coeffs) -> PureState:
    """Validate and build a PureState. Does not normalize.

    Raises ZeroState if every coefficient vanishes, ShapeMismatch if the
    coefficient count disagrees with the subsystem dimensions, NonFinite if
    a coefficient is infinite or NaN.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 1 or any(d < 2 for d in dims):
        raise ShapeMismatch(f"subsystem dimensions must all be >= 2, got {dims}")
    vec = np.asarray(coeffs, dtype=complex).reshape(-1)
    n = prod(dims)  # Python ints: a product past numpy's index range cannot wrap onto vec.size
    if vec.size != n:
        raise ShapeMismatch(f"got {vec.size} coefficients for dims {dims} (need {n})")
    if not np.isfinite(vec).all():
        raise NonFinite("state coefficients must be finite")
    if not np.any(vec != 0):
        raise ZeroState("state has no nonzero coefficient")
    return PureState(dims, _frozen(vec))


@dataclass(frozen=True)
class Bipartition:
    """A cut A|A^c of the subsystems as a bitmask (bit i: subsystem i in A), A holding subsystem 0."""

    n_subsystems: int
    mask: int

    def __post_init__(self):
        full = (1 << self.n_subsystems) - 1 if self.n_subsystems > 0 else 0  # no shift by a negative n
        if not 0 < self.mask < full:
            raise ShapeMismatch(f"mask {self.mask} is not a proper nonempty cut of range({self.n_subsystems})")
        if not self.mask & 1:
            object.__setattr__(self, "mask", full ^ self.mask)

    @classmethod
    def of(cls, n: int, block) -> "Bipartition":
        """The cut block|rest; the order and repeats of block do not matter."""
        if not 0 < len(members := set(block)) < n or not members <= set(range(n)):
            raise ShapeMismatch(f"block {block} is not a proper nonempty subset of range({n})")
        return cls(n, sum(1 << i for i in members))

    @property
    def block_a(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_subsystems) if self.mask >> i & 1)

    @property
    def block_b(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_subsystems) if not self.mask >> i & 1)


def flatten(state: PureState, cut: Bipartition) -> np.ndarray:
    """Flatten a state along a bipartition into a read-only D_A x D_B complex matrix.

    Entry (alpha, beta) is the coefficient at the multi-index obtained by
    merging alpha over the block-A subsystems and beta over the complement,
    both row-major in sorted subsystem order.
    """
    if cut.n_subsystems != state.n_subsystems:
        raise ShapeMismatch(f"cut is over {cut.n_subsystems} subsystems, state has {state.n_subsystems}")
    return _frozen(_flattening(state.tensor(), cut.mask))


def _flattening(t: np.ndarray, mask: int) -> np.ndarray:
    """The D_A x D_B flattening of t along a cut (bit i: axis i in A): `_cut_axes`, the side holding axis 0 as rows."""
    rows = mask if mask & 1 else mask ^ ((1 << t.ndim) - 1)
    v = t.transpose(_cut_axes(rows, t.ndim))
    return v.reshape(prod(v.shape[: bin(rows).count("1")]), -1)


def _cut_axes(rows: int | np.ndarray, ndim: int) -> np.ndarray:
    """How a cut is laid out as a matrix: the axes of the row-side bitmask rows, then the rest, each ascending."""
    return np.argsort(np.asarray(rows)[..., None] >> np.arange(ndim) & 1 == 0, axis=-1, kind="stable")


def unit_max_modulus(a: np.ndarray) -> np.ndarray:
    """a divided by its largest entry modulus, or a itself if it is zero: `_max_modulus_scale`'s array."""
    return _max_modulus_scale(a)[1]


def _max_modulus_scale(a: np.ndarray) -> tuple[float, np.ndarray]:
    """(top, a / top), top the largest entry modulus of a, or (0.0, a) if a is zero.

    Rank and membership verdicts do not depend on scale, but an SVD or a
    determinant of subnormal or near-overflow entries does: every
    scale-sensitive verdict rescales its input once, here.  numpy divides a
    complex array by a real number through its reciprocal, which overflows
    when the divisor is subnormal, so then the parts are divided one by one.
    Raises NonFinite on an infinite or NaN entry.  Where a modulus overflows
    although its parts are finite, a is halved once first and top is inf.
    """
    a = np.asarray(a, dtype=complex)
    with np.errstate(over="ignore"):  # a modulus may overflow although its parts are finite
        top = float(np.abs(a).max())
    if not top < np.inf:
        if not np.isfinite(a).all():
            raise NonFinite("matrix has a non-finite entry")
        a = a / 2  # no modulus of a / 2 overflows
        top = float(np.abs(a).max())
        return 2 * top, a / top
    if top >= SMALLEST_NORMAL:
        return top, a / top
    return top, a if top == 0.0 else a.real / top + 1j * (a.imag / top)


def _rank_of(s: np.ndarray, tol: float) -> int:
    """Count the singular values (descending) above tol times the largest."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def _check_rank_tol(tol: float) -> None:
    if not 0 < tol < 1:
        raise ShapeMismatch(f"relative tolerance must lie in (0, 1), got {tol}")


def numerical_rank(m: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    """Count singular values above tol times the largest one, whatever the scale of m.

    When the largest lies outside [1e-150, 1e150] the small ones may under-
    or overflow (unscaled, [[2, 1], [1, 1]] * 5e-324 reads as rank 1), so
    there the SVD is taken again, of m divided by its largest modulus.
    """
    _check_rank_tol(tol)
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise NonFinite("matrix has a non-finite entry")
    s = np.linalg.svd(m, compute_uv=False)
    if s.size and not 1e-150 <= s[0] <= 1e150:
        s = np.linalg.svd(unit_max_modulus(m), compute_uv=False)
    return _rank_of(s, tol)


def _cross_tests(t: np.ndarray, tol: float) -> tuple[Callable[[int], bool], Callable[[], bool]]:
    """(rank_one, every_cut): the test "is the flattening of the n-axis array t
    along this cut (a bitmask) rank 1?", and a proof that every flattening is.

    Every flattening has the same entries, so the max-modulus entry is the
    maximal-volume pivot of every one, and the rank-1 cross residual R
    through it obeys ||R||_max <= 2 sigma_2 (Goreinov-Tyrtyshnikov).  So
    ||R||_max > 4 tol ||T||_F proves sigma_2 > 2 tol sigma_1: not rank 1.
    Also sigma_2 <= ||R||_F and sigma_1 is at least the norm of the pivot
    row and of the pivot column, so ||R||_F <= tol/2 times the larger of
    them proves sigma_2 <= tol/2 sigma_1: rank 1.  The factor-2 band keeps
    each certified verdict equal to the SVD's, which decides between the
    bounds, below CERTIFY_MIN_TOL and for a zero t (rank 0 on every cut),
    on `_flattening`, the matrix `flatten` gives: the side holding axis 0 first.
    The reject test runs first; the two cannot both pass, as the pivot row
    and column are slices of T, so an accepted cut has ||R||_max <= ||R||_F
    <= tol/2 ||T||_F, a factor 8 below the reject bound.  R is formed on
    the n-axis array, unflattened, after `unit_max_modulus` divides t by
    its largest modulus, and the pivot is taken from that scaled array:
    with entries of modulus at most 1 no square overflows and the pivot's
    does not underflow, whatever the scale of t.  The SVD sees the same
    rescaled entries.  Each closure writes R into one array of its own and
    rejects first from R's real and imaginary parts, the extremes of that
    array's float view, with no moduli formed: |R_ij| >= max(|Re R_ij|,
    |Im R_ij|), so a part beyond the bound proves the modulus test, which
    runs only when no part is.

    every_cut() is True when one global residual proves sigma_2 <= tol/2
    sigma_1 on every cut at once, rank_one's accept band.  A =
    `_cross_product(t, at)`, the pivot's n fibers multiplied out, has rank
    1 on every flattening, so for delta >= ||T - A||_F Weyl's inequality
    gives sigma_2 <= delta, and sigma_1 >= ||A||_F - delta >= ||T||_F - 2
    delta: delta <= tol/2 (||T||_F - 2 delta) is the proof.  delta is the
    computed residual plus 2 n eps ||A||_F, which covers the rounding of
    A's n complex products (each within sqrt(5) u, u = eps/2), so the A it
    bounds is exactly rank 1.  False proves nothing; it is always False
    where rank_one calls the SVD alone.
    """
    _check_rank_tol(tol)
    n = t.ndim
    t = unit_max_modulus(t)
    at = np.unravel_index(int(np.argmax(np.abs(t))), t.shape)
    pivot = t[at]
    fixed = [slice(i, i + 1) for i in at]
    free = slice(None)
    norm = np.linalg.norm(t)
    reject = 4.0 * tol * norm
    certify = tol >= CERTIFY_MIN_TOL and pivot != 0
    r = np.empty(t.shape, dtype=complex)
    parts = r.view(float)

    def rank_one(mask: int) -> bool:
        if certify:
            col = t[tuple(free if mask >> i & 1 else fixed[i] for i in range(n))]
            row = t[tuple(fixed[i] if mask >> i & 1 else free for i in range(n))]
            np.subtract(t, np.multiply(col, row / pivot, out=r), out=r)
            if parts.max() > reject or parts.min() < -reject or np.abs(r).max() > reject:
                return False
            if np.vdot(r, r).real <= (0.5 * tol) ** 2 * max(np.vdot(col, col).real, np.vdot(row, row).real):
                return True
        return numerical_rank(_flattening(t, mask), tol) == 1

    def every_cut() -> bool:
        if not certify:
            return False
        a = _cross_product(t, at)
        delta = np.linalg.norm(np.subtract(t, a, out=r)) + 2 * n * EPS * np.linalg.norm(a)
        return bool(delta <= 0.5 * tol * (norm - 2 * delta))

    return rank_one, every_cut


def _cross_product(t: np.ndarray, at: tuple[int, ...]) -> np.ndarray:
    """pivot * prod_i (t[at with axis i free] / pivot), pivot = t[at]: the rank-1
    cross approximation of t through its pivot, n complex products per entry."""
    pivot = t[at]
    a = np.full((1,) * t.ndim, pivot)
    for i in range(t.ndim):
        a = a * (t[tuple(slice(None) if k == i else slice(j, j + 1) for k, j in enumerate(at))] / pivot)
    return a


def minor_rank(m: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank by exhaustive minor enumeration: the independent oracle.

    Returns the smallest k such that every (k+1)-minor of the
    max-modulus-normalized matrix has modulus <= tol. Capped at 8x8.
    All minors of one order go through one stacked det call; each is the
    same LU as a det of that submatrix alone.
    """
    scaled = unit_max_modulus(m)
    rows, cols = scaled.shape
    if rows > MINOR_SIZE_CAP or cols > MINOR_SIZE_CAP:
        raise TooLarge(f"minor enumeration capped at {MINOR_SIZE_CAP}x{MINOR_SIZE_CAP}, got {rows}x{cols}")
    for k in range(min(rows, cols), 0, -1):
        if (np.abs(_stacked_minors(scaled, k)) > tol).any():
            return k
    return 0


def _stacked_minors(m: np.ndarray, k: int) -> np.ndarray:
    """Every k-minor of m, indexed [row subset, column subset] with the subsets in lexicographic order."""
    ri, ci = _subsets(m.shape[0], k), _subsets(m.shape[1], k)
    return np.linalg.det(m[ri[:, None, :, None], ci[None, :, None, :]])


@cache
def _subsets(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) in lexicographic order, one per row, read-only (n <= MINOR_SIZE_CAP: at most 45 arrays)."""
    return _frozen(np.array(list(combinations(range(n), k)), dtype=np.intp))


@dataclass(frozen=True)
class SchmidtDecomposition:
    """sigma/left/right data of a bipartite cut, for the normalized state.

    input_norm records the norm of the supplied state so the caller can
    undo the internal normalization.
    """

    sigmas: tuple[float, ...]
    left_vecs: np.ndarray
    right_vecs: np.ndarray
    input_norm: float

    @property
    def rank(self) -> int:
        return len(self.sigmas)


def _lex_key(v: np.ndarray):
    return tuple(np.round(np.ascontiguousarray(v, dtype=complex).view(np.float64), 9).tolist())


def schmidt_decompose(state: PureState, cut: Bipartition, tol: float = DEFAULT_RANK_TOL) -> SchmidtDecomposition:
    """SVD of the flattening with deterministic phases.

    The state is normalized internally. Phase convention: the first
    nonvanishing component of each left vector is real positive. Ties in
    sigma are ordered lexicographically on the phase-fixed left vectors.
    """
    norm = state.norm()
    m = flatten(state.normalized(), cut)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    k = _rank_of(s, tol)
    cols = []
    for a in range(k):
        ua, va = u[:, a].copy(), vh[a, :].copy()
        nz = np.flatnonzero(np.abs(ua) > 1e-12)
        if nz.size:
            phase = ua[nz[0]] / abs(ua[nz[0]])
            ua, va = ua * np.conj(phase), va * phase
        cols.append((round(float(s[a]), 12), ua, va, float(s[a])))
    cols.sort(key=lambda c: (-c[0], _lex_key(c[1])))
    sigmas = tuple(c[3] for c in cols)
    left = np.column_stack([c[1] for c in cols]) if cols else np.zeros((m.shape[0], 0))
    right = np.column_stack([c[2] for c in cols]) if cols else np.zeros((m.shape[1], 0))
    return SchmidtDecomposition(sigmas, _frozen(left), _frozen(right), norm)


def concurrence(state: PureState) -> float:
    """2|det| of the two-qubit flattening; zero exactly on product states."""
    if state.dims != (2, 2):
        raise WrongShape(f"concurrence needs two qubits, got dims {state.dims}")
    m = unit_max_modulus(state.coeffs).reshape(2, 2)
    return float(2.0 * abs(np.linalg.det(m / np.linalg.norm(m))))


def cofactor_matrix(m: np.ndarray) -> np.ndarray:
    """Signed (n-1)-minor matrix; vanishes identically iff rank <= n-2."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"cofactor matrix needs a square input, got shape {m.shape}")
    n = m.shape[0]
    if n > MINOR_SIZE_CAP:
        raise TooLarge(f"cofactor enumeration capped at {MINOR_SIZE_CAP}, got {n}")
    if n == 0:
        return np.empty((0, 0), dtype=complex)
    # reversed, the lexicographic (n-1)-subsets omit index 0, 1, ..., n-1 in turn
    idx = np.arange(n)
    return _stacked_minors(m, n - 1)[::-1, ::-1] * (-1) ** np.add.outer(idx, idx)


@dataclass(frozen=True)
class IncidenceLift:
    """Orthonormal support bases on both sides plus the k x k core.

    Reassembling sum_ij core[i,j] ua_i (x) ub_j reproduces the state.
    """

    ua_basis: np.ndarray
    ub_basis: np.ndarray
    core: np.ndarray

    @property
    def rank(self) -> int:
        return self.core.shape[0]


def incidence_lift(state: PureState, cut: Bipartition, tol: float = DEFAULT_RANK_TOL) -> IncidenceLift:
    """Lift a state to (support of A-side, support of B-side, core).

    ua_basis spans the column space of the flattening, ub_basis the column
    space of its transpose; in the chosen bases the flattening takes the
    block form with only the leading k x k block nonzero.
    """
    m = flatten(state, cut)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    k = max(_rank_of(s, tol), 1)
    ua = u[:, :k]
    ub = vh[:k, :].T
    core = ua.conj().T @ m @ ub.conj()
    return IncidenceLift(_frozen(ua), _frozen(ub), _frozen(core))


def reassemble_lift(lift: IncidenceLift) -> np.ndarray:
    """Rebuild the flattening matrix encoded by an incidence lift."""
    return lift.ua_basis @ lift.core @ lift.ub_basis.T


@dataclass(frozen=True)
class SectorDecomposition:
    """Split of an operator on H_A (x) H_B into scalar/local/entangling parts."""

    scalar: complex
    a_local: np.ndarray
    b_local: np.ndarray
    entangling: np.ndarray


def _partial_trace(op4: np.ndarray, over_b: bool) -> np.ndarray:
    # op4 has axes (i, a, j, b) with row index i*d_b + a.
    return np.trace(op4, axis1=1, axis2=3) if over_b else np.trace(op4, axis1=0, axis2=2)


def sector_decompose(op: np.ndarray, d_a: int, d_b: int) -> SectorDecomposition:
    """Project an operator onto scalar + A-local + B-local + entangling.

    The entangling component lies in End_0 (x) End_0: both partial traces
    vanish. Reconstruction scalar*I + a (x) I + I (x) b + entangling is exact
    up to floating error.
    """
    op = np.asarray(op, dtype=complex)
    n = d_a * d_b
    if op.shape != (n, n):
        raise ShapeMismatch(f"operator shape {op.shape} does not match ({n}, {n})")
    op4 = op.reshape(d_a, d_b, d_a, d_b)
    scalar = complex(np.trace(op)) / n
    a_marg = _partial_trace(op4, over_b=True) / d_b
    b_marg = _partial_trace(op4, over_b=False) / d_a
    a_local = a_marg - (np.trace(a_marg) / d_a) * np.eye(d_a)
    b_local = b_marg - (np.trace(b_marg) / d_b) * np.eye(d_b)
    ent = op - scalar * np.eye(n) - np.kron(a_local, np.eye(d_b)) - np.kron(np.eye(d_a), b_local)
    return SectorDecomposition(scalar, _frozen(a_local), _frozen(b_local), _frozen(ent))
