"""Partition lattice of subsystems and product/GME tests.

A state is pi-product iff every block-versus-rest flattening has rank 1:
intersecting product loci along the partition meet reduces the test to
those bipartite checks, so no recursive factor extraction is needed.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch, TooLarge
from .tensor_core import DEFAULT_RANK_TOL, Bipartition, PureState, _check_rank_tol, flatten, numerical_rank, unit_max_modulus

MAX_ENUM_SUBSYSTEMS = 16
# Below this tolerance the rounding in a residual is no longer small next to
# the certificates' factor-2 margin, so the SVD decides every cut.
CERTIFY_MIN_TOL = 1e-11


@dataclass(frozen=True)
class Partition:
    """A set partition of subsystem indices, blocks sorted by minimum."""

    n_subsystems: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.n_subsystems
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        seen: list[int] = []
        for b in blocks:
            if not b:
                raise ShapeMismatch("partition blocks must be nonempty")
            seen.extend(b)
        if sorted(seen) != list(range(n)):
            raise ShapeMismatch(f"blocks {self.blocks} do not partition range({n})")
        object.__setattr__(self, "blocks", tuple(sorted(blocks, key=min)))

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        """The single-block partition."""
        return cls(n, (tuple(range(n)),))

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        """The all-singletons partition."""
        return cls(n, tuple((i,) for i in range(n)))

    def __str__(self) -> str:
        return "|".join("".join(str(i) for i in b) for b in self.blocks)


def _meet_labels(labels: list[int], masks: Iterable[int]) -> list[int]:
    """Meet of a partition given as block labels with the cuts {mask, rest}, labelled by least member."""
    cuts = tuple(masks)
    keys: dict[tuple[int, ...], int] = {}
    return [keys.setdefault((label, *[m >> i & 1 for m in cuts]), len(keys)) for i, label in enumerate(labels)]


def _labelled(labels: list[int]) -> Partition:
    blocks: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        blocks.setdefault(label, []).append(i)
    return Partition(len(labels), tuple(map(tuple, blocks.values())))


def refines(p: Partition, q: Partition) -> bool:
    """True iff every block of p is contained in some block of q."""
    return meet(p, q) == p


def meet(p: Partition, q: Partition) -> Partition:
    """Common refinement: all nonempty pairwise block intersections."""
    if p.n_subsystems != q.n_subsystems:
        raise ShapeMismatch("partitions are over different subsystem counts")
    return _labelled(_meet_labels([0] * p.n_subsystems, (sum(1 << i for i in b) for b in p.blocks + q.blocks)))


def _cut_masks(n: int) -> range:
    """Bitmasks (bit i: subsystem i in block A) of the canonical cuts, in order."""
    if not 2 <= n <= MAX_ENUM_SUBSYSTEMS:
        raise TooLarge(f"bipartition enumeration supports 2 <= n <= {MAX_ENUM_SUBSYSTEMS}, got {n}")
    return range(1, 2**n - 1, 2)


def _members(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if mask >> i & 1)


def bipartitions(n: int) -> list[Bipartition]:
    """All 2^(n-1) - 1 canonical bipartitions (block containing index 0)."""
    return [Bipartition(n, _members(mask, n)) for mask in _cut_masks(n)]


def _rank_one_test(state: PureState, tol: float) -> Callable[[int], bool]:
    """The test "is the flattening along this cut (a bitmask) rank 1?".

    Every flattening has the same entries, so the max-modulus coefficient
    is the maximal-volume pivot of every one, and the rank-1 cross residual
    R through it obeys ||R||_max <= 2 sigma_2 (Goreinov-Tyrtyshnikov).  So
    ||R||_max > 4 tol ||T||_F proves sigma_2 > 2 tol sigma_1: not rank 1.
    Also sigma_2 <= ||R||_F and sigma_1 is at least the norm of the pivot
    row and of the pivot column, so ||R||_F <= tol/2 times the larger of
    them proves sigma_2 <= tol/2 sigma_1: rank 1.  The factor-2 band keeps
    each certified verdict equal to the SVD's; between the bounds the SVD
    decides.  The reject test runs first; the two cannot both pass, as the
    pivot row and column are slices of T, so an accepted cut has ||R||_max
    <= ||R||_F <= tol/2 ||T||_F, a factor 8 below the reject bound that
    rounding cannot close.  R is formed on the n-axis tensor, unflattened,
    after dividing by the pivot's modulus: the verdicts do not depend on
    scale, and with entries of modulus at most 1 no square overflows and
    the pivot's does not underflow, whatever the scale of the coefficients.
    The SVD sees the same rescaled entries.
    """
    _check_rank_tol(tol)
    n = state.n_subsystems
    t = state.tensor()
    with np.errstate(over="ignore"):  # an overflowing modulus is still the largest
        at = np.unravel_index(int(np.argmax(np.abs(t))), state.dims)
    t = unit_max_modulus(t)
    scaled = PureState(state.dims, t.reshape(-1))
    pivot = t[at]
    fixed = [slice(i, i + 1) for i in at]
    free = slice(None)
    reject = 4.0 * tol * np.linalg.norm(t)
    certify = tol >= CERTIFY_MIN_TOL

    def rank_one(mask: int) -> bool:
        if certify:
            col = t[tuple(free if mask >> i & 1 else fixed[i] for i in range(n))]
            row = t[tuple(fixed[i] if mask >> i & 1 else free for i in range(n))]
            r = t - col * (row / pivot)
            if np.abs(r).max() > reject:
                return False
            if np.vdot(r, r).real <= (0.5 * tol) ** 2 * max(np.vdot(col, col).real, np.vdot(row, row).real):
                return True
        return numerical_rank(flatten(scaled, Bipartition(n, _members(mask, n))), tol) == 1

    return rank_one


def is_pi_product(state: PureState, p: Partition, tol: float = DEFAULT_RANK_TOL) -> bool:
    """True iff the state factors along every block of the partition."""
    if p.n_subsystems != state.n_subsystems:
        raise ShapeMismatch("partition does not match the state's subsystem count")
    if len(p.blocks) == 1:
        return True  # trivial partition: always product
    rank_one = _rank_one_test(state, tol)
    return all(rank_one(sum(1 << i for i in block)) for block in p.blocks)


def _product_cuts(state: PureState, tol: float) -> Iterator[int]:
    masks = _cut_masks(state.n_subsystems)
    return filter(_rank_one_test(state, tol), masks)


def finest_product_partition(state: PureState, tol: float = DEFAULT_RANK_TOL) -> Partition:
    """Meet of all bipartitions along which the state is product."""
    return separability_report(state, tol).finest


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
    if n == 1:  # no cuts, and GME needs two subsystems
        return SeparabilityReport(Partition.trivial(1), (), False)
    masks = list(_product_cuts(state, tol))
    cuts = tuple(Bipartition(n, _members(mask, n)) for mask in masks)
    return SeparabilityReport(_labelled(_meet_labels([0] * n, masks)), cuts, not cuts)
