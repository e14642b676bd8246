"""Flattening ranks over the cuts of a state: product/GME tests and rank bounds.

A state is pi-product iff every block-versus-rest flattening has rank 1:
intersecting product loci along the partition meet reduces the test to
those bipartite checks, so no recursive factor extraction is needed.
The max rank over the same cuts is a border-rank lower bound; exact
tensor rank is implemented only for 2x2x2, via the contraction pencil.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import ShapeMismatch, TooLarge, WrongShape, ZeroState
from .tensor_core import CERTIFY_MIN_TOL, DEFAULT_RANK_TOL, Bipartition, PureState, _cross_tests, make_state, numerical_rank, unit_max_modulus

MAX_ENUM_SUBSYSTEMS = 16
PENCIL_TOL = 1e-9
# The most complex entries (512 KB) one stacked certificate in `flattening_lower_bound` holds.
BATCH_ENTRIES = 2**15


@dataclass(frozen=True)
class Partition:
    """A set partition of subsystem indices as block labels: labels[i] ranks i's block by least member."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if not all(k == label for k, label in enumerate(dict.fromkeys(self.labels))):  # the k-th label to appear is k
            raise ShapeMismatch(f"labels {self.labels} are not ranked by least member")

    @classmethod
    def of(cls, n: int, blocks) -> "Partition":
        """The partition of range(n) into the given blocks, in any order."""
        members = [sorted(b) for b in blocks]
        if not all(members):
            raise ShapeMismatch("partition blocks must be nonempty")
        if sorted(i for b in members for i in b) != list(range(n)):
            raise ShapeMismatch(f"blocks {blocks} do not partition range({n})")
        rank = {i: k for k, b in enumerate(sorted(members)) for i in b}  # disjoint sorted blocks sort by least member
        return cls(tuple(rank[i] for i in range(n)))

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        """The single-block partition."""
        return cls((0,) * n)

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        """The all-singletons partition."""
        return cls(tuple(range(n)))

    @property
    def n_subsystems(self) -> int:
        return len(self.labels)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks, each sorted, ordered by least member."""
        blocks: dict[int, list[int]] = {}  # labels first appear in rank order
        for i, label in enumerate(self.labels):
            blocks.setdefault(label, []).append(i)
        return tuple(map(tuple, blocks.values()))

    def __str__(self) -> str:
        return "|".join("".join(str(i) for i in b) for b in self.blocks)


def _relabel(labels: Iterable[int], keys: Iterable) -> Partition:
    """The subsystems that share both their label and their key, as blocks ranked by least member."""
    seen: dict = {}
    return Partition(tuple(seen.setdefault(pair, len(seen)) for pair in zip(labels, keys)))


def _meet_cuts(n: int, masks: Iterable[int]) -> Partition:
    """Meet of the cuts {mask, rest}: each subsystem is keyed by its packed bit column, one bit per cut."""
    columns = np.packbits(np.fromiter(masks, np.int64) >> np.arange(n)[:, None] & 1, axis=1)
    return _relabel((0,) * n, map(bytes, columns))


def refines(p: Partition, q: Partition) -> bool:
    """True iff every block of p is contained in some block of q: each p label meets one q label."""
    if p.n_subsystems != q.n_subsystems:
        raise ShapeMismatch("partitions are over different subsystem counts")
    return len(set(zip(p.labels, q.labels))) == len(set(p.labels))


def meet(p: Partition, q: Partition) -> Partition:
    """Common refinement: all nonempty pairwise block intersections."""
    if p.n_subsystems != q.n_subsystems:
        raise ShapeMismatch("partitions are over different subsystem counts")
    return _relabel(p.labels, q.labels)


def _cut_masks(n: int) -> range:
    """Bitmasks (bit i: subsystem i in block A) of the canonical cuts, in order."""
    if not 2 <= n <= MAX_ENUM_SUBSYSTEMS:
        raise TooLarge(f"bipartition enumeration supports 2 <= n <= {MAX_ENUM_SUBSYSTEMS}, got {n}")
    return range(1, 2**n - 1, 2)


def bipartitions(n: int) -> list[Bipartition]:
    """All 2^(n-1) - 1 canonical bipartitions (block containing index 0)."""
    return [Bipartition(n, mask) for mask in _cut_masks(n)]


def is_pi_product(state: PureState, p: Partition, tol: float = DEFAULT_RANK_TOL) -> bool:
    """True iff the state factors along every block of the partition."""
    if p.n_subsystems != state.n_subsystems:
        raise ShapeMismatch("partition does not match the state's subsystem count")
    masks = [sum(1 << i for i, label in enumerate(p.labels) if label == k) for k in range(max(p.labels) + 1)]
    return len(masks) == 1 or all(map(_cross_tests(state.tensor(), tol)[0], masks))  # the trivial partition is product


def _product_cuts(state: PureState, tol: float) -> Iterator[int]:
    """The masks of the cuts along which the state is product, in canonical order.

    Once the first cut is product, one global residual may prove that every
    cut is (`_cross_tests`' every_cut: the Segre locus in one test), and
    then the rest take no per-cut residual; otherwise each takes its own.
    """
    masks = _cut_masks(state.n_subsystems)
    rank_one, every_cut = _cross_tests(state.tensor(), tol)
    if rank_one(masks[0]):
        yield masks[0]
        if every_cut():
            yield from masks[1:]
            return
    yield from filter(rank_one, masks[1:])


def finest_product_partition(state: PureState, tol: float = DEFAULT_RANK_TOL) -> Partition:
    """Meet of all bipartitions along which the state is product."""
    n = state.n_subsystems
    return _meet_cuts(n, _product_cuts(state, tol) if n > 1 else ())


def is_gme(state: PureState, tol: float = DEFAULT_RANK_TOL) -> bool:
    """Genuinely multipartite entangled: product along no bipartition."""
    if state.n_subsystems < 2:
        raise ShapeMismatch("GME needs at least two subsystems")
    return next(_product_cuts(state, tol), None) is None


@dataclass(frozen=True)
class SeparabilityReport:
    finest: Partition
    product_bipartitions: tuple[Bipartition, ...]
    gme: bool


def separability_report(state: PureState, tol: float = DEFAULT_RANK_TOL) -> SeparabilityReport:
    """Finest product partition, the product cuts, and the GME verdict."""
    n = state.n_subsystems
    masks = list(_product_cuts(state, tol)) if n > 1 else []
    cuts = tuple(Bipartition(n, mask) for mask in masks)
    return SeparabilityReport(_meet_cuts(n, masks), cuts, n > 1 and not cuts)  # GME needs two subsystems


def flattening_lower_bound(state: PureState, tol: float = DEFAULT_RANK_TOL) -> int:
    """Max flattening rank over all bipartitions: a border-rank lower bound.

    A cut's rank is at most min(D_A, D_B), so the cuts (bitmasks) are
    visited by descending min(D_A, D_B), in a stable order, and the scan
    stops at the first one that cannot exceed the running max k.  For tol
    >= CERTIFY_MIN_TOL, once k >= 1 the cuts are flattened short side first
    into stacks of same-shape matrices (a run of consecutive cuts, at most
    BATCH_ENTRIES entries, or one cut if it alone is larger), and
    `_ranks_at_most` certifies each stack's ranks <= k at once.  The
    verdicts are read in visit order: a certified cut is skipped, and the
    first one that is not takes the SVD.  If its rank exceeds k, k rises
    and a new stack starts at the next cut; otherwise the certificate has
    failed on a cut the SVD puts at rank <= k, and the SVD decides every
    cut left.  A skip proves rank <= k, and k never exceeds the bound, so
    the bound is the SVD's whatever the stacking.
    """
    n = state.n_subsystems
    if n == 1:
        return 1
    t = unit_max_modulus(state.coeffs).reshape(state.dims)
    cuts = _cut_masks(n)
    masks = np.arange(cuts.start, cuts.stop, cuts.step)
    in_a = (masks[:, None] >> np.arange(n) & 1).astype(bool)
    d_a = np.where(in_a, state.dims, 1).prod(axis=1)
    short = np.minimum(d_a, t.size // d_a)
    order = np.argsort(-short, kind="stable")
    per_stack = max(1, BATCH_ENTRIES // t.size)  # every flattening has t.size entries
    certify = tol >= CERTIFY_MIN_TOL
    best, omega, p = 0, None, 0
    while p < order.size and short[order[p]] > best:
        rows = int(short[order[p]])
        stacked = certify and best > 0
        batch = order[p : p + per_stack] if stacked else order[p : p + 1]
        batch = batch[short[batch] == rows]  # the sort puts each shape's cuts in one run
        stack = np.empty((batch.size, rows, t.size // rows), dtype=complex)
        wide = d_a[batch] == rows  # block A (the side holding subsystem 0) is the short side
        # Each cut's axes, short side first, both sides in subsystem order.
        for m, axes in zip(stack, np.argsort(in_a[batch] != wide[:, None], axis=1, kind="stable")):
            v = t.transpose(axes)
            m.reshape(v.shape)[...] = v
        certified = _ranks_at_most(stack, omega, tol) if stacked else (False,)
        for m, a_first, ok in zip(stack, wide, certified):
            p += 1
            if ok and certify:
                continue
            rank = numerical_rank(m if a_first else m.T, tol)  # the D_A x D_B flattening
            if rank > best:
                # Every cut left has min(D_A, D_B) > rank, so its long side is at most t.size // (rank + 1).
                best, omega = rank, _sketch(t.size // (rank + 1), rank)
                break
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


def _ranks_at_most(stack: np.ndarray, omega: np.ndarray, tol: float) -> np.ndarray:
    """Per wide matrix m of the stack, True when a range sketch proves sigma_(k+1)(m) <= tol/2 sigma_1(m).

    With Omega the first rows of the k-column `_sketch`, Q = qr(m Omega),
    B = Q^H m and E = Q B - m: QB has rank <= k, so sigma_(k+1) <= ||E||_F
    (Eckart-Young), and B has k rows with ||B||_2 <= sigma_1, so sigma_1 >=
    ||B||_F / sqrt(k).  Hence ||E||_F^2 <= (tol/2)^2 ||B||_F^2 / k proves
    sigma_(k+1) <= tol/2 sigma_1, and the SVD, whose rounding is far below
    that factor-2 margin, would count at most k singular values above tol
    sigma_1.  E is formed entry by entry: ||m||^2 - ||B||^2 or a Gram matrix
    would square m and put its rounding (about 1e-8 sigma_1) above tol.
    Below CERTIFY_MIN_TOL the rounding is no longer small next to the
    margin, so there the SVD decides every cut.  Each product and the QR
    run once over the whole stack.  False proves nothing.
    """
    cols, k = stack.shape[2], omega.shape[1]
    q = np.linalg.qr(stack @ omega[:cols])[0]
    b = q.conj().swapaxes(1, 2) @ stack
    e = q @ b
    e -= stack
    return _sq_norms(e) <= (0.5 * tol) ** 2 * _sq_norms(b) / k


def _sq_norms(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a complex stack, read through its float view."""
    x = stack.reshape(stack.shape[0], -1).view(np.float64)
    return np.einsum("ij,ij->i", x, x)


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
    products = sum(map(_cross_tests(state.tensor(), tol)[0], _cut_masks(3)))
    if products == 3:
        return 1
    if products:
        # A factor splits off; the other pair carries Schmidt rank 2 (every flattening is 2 x 4).
        return 2
    t = unit_max_modulus(state.coeffs).reshape(2, 2, 2)
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
