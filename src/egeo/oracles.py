"""Brute-force references that the production routes are checked against.

Each oracle reaches its answer by a route independent of the code it
certifies: reconstruction and a full partition-lattice search against the
cut scan, with each cut flattened here and decomposed once per state;
monomial linear algebra (exact elimination over sparse rows) against the
Schur-sum Hilbert function.
The reproduction battery and the tests import them from here; no other
subcommand loads this module. References that only tests call (one
partition's reconstruction test, the explicit Z/m solve against the
Smith-form class order) live in those tests. Two oracles live beside the
code they serve instead: `tensor_core.minor_rank`, which the package
exports, and `spectral_satake.d_product_oracle`, which `egeo satake`
reports from.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

import numpy as np

from .separability import Partition, _labelled, _meet_labels
from .tensor_core import PureState, make_state


def _block_product(dims, blocks, factors) -> np.ndarray:
    """Flat product of one vector per block, with the subsystems put back in index order."""
    vec = factors[0]
    for f in factors[1:]:
        vec = np.multiply.outer(vec, f).ravel()
    order = [i for block in blocks for i in block]
    return vec.reshape([dims[i] for i in order]).transpose(sorted(range(len(order)), key=order.__getitem__)).ravel()


def random_block_product(rng, dims, blocks) -> PureState:
    """State that factors exactly along the given blocks, generic inside each."""
    sizes = [int(prod(dims[i] for i in block)) for block in blocks]
    factors = [rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in sizes]
    return make_state(dims, _block_product(dims, blocks, factors))


def set_partitions(n: int):
    """All partitions of range(n), blocks sorted by minimum."""
    if n == 0:
        yield []
        return
    for rest in set_partitions(n - 1):
        element = n - 1
        yield rest + [[element]]
        for k in range(len(rest)):
            yield rest[:k] + [rest[k] + [element]] + rest[k + 1 :]


def _leading_factors(state: PureState):
    """Block -> (leading singular vector of the block's side of its flattening, sigma_1 / ||t||_F).

    Each cut is flattened (subsystem 0's side as rows) and decomposed once, on
    first use, and both of its sides are kept, so every lookup after that
    returns the very same vector. The ratio is taken from the singular values
    scaled by sigma_1 (their squares sum to ||t||_F^2), so it neither under-
    nor overflows whatever the scale of the state.
    """
    n, t = state.n_subsystems, state.tensor()
    factors: dict[tuple[int, ...], tuple[np.ndarray, float]] = {}

    def factor(block: tuple[int, ...]) -> tuple[np.ndarray, float]:
        if block not in factors:
            rest = tuple(i for i in range(n) if i not in block)
            a, b = (block, rest) if 0 in block else (rest, block)
            u, s, vh = np.linalg.svd(t.transpose(a + b).reshape(prod(state.dims[i] for i in a), -1), full_matrices=False)
            share = 1.0 / float(np.linalg.norm(s / s[0]))
            factors[a], factors[b] = (u[:, 0], share), (vh[0, :], share)
        return factors[block]

    return factor


def _reconstructs(reference: np.ndarray, dims, blocks, factor, tol: float) -> bool:
    """Projective overlap of the product of the block factors with the normalized state.

    blocks is a sequence of sorted index sequences, ordered by minimum.
    """
    if len(blocks) == 1:
        return True
    candidate = _block_product(dims, blocks, [factor(tuple(block))[0] for block in blocks])
    candidate /= np.linalg.norm(candidate)
    return bool(abs(np.vdot(reference, candidate)) >= 1.0 - tol)


# The normalized candidate of a partition is f_b (x) g for unit vectors f_b and g,
# so its overlap with the normalized state is at most sigma_1 of the b|rest
# flattening over ||t||_F. A block whose ratio is below 1 - tol by more than this
# margin proves the overlap below 1 - tol; the margin is far above the rounding of
# sigma_1 and of the overlap (about 1e-14 at n <= 6), so no partition that the
# reconstruction would accept is turned away.
SHARE_MARGIN = 1e-12


def brute_force_finest(state: PureState, tol: float = 1e-8) -> Partition:
    """Meet of every partition that passes the reconstruction oracle.

    The normalized state and each block's factor are computed once and
    shared by all Bell(n) partitions. A partition that the running meet
    already refines is skipped: meeting with it changes nothing, whether
    it passes or not. A partition with a block whose sigma_1 share is
    below 1 - tol - SHARE_MARGIN fails without building its candidate.
    The running meet is kept as one block label per subsystem.
    """
    n = state.n_subsystems
    reference = state.normalized().coeffs
    factor = _leading_factors(state)
    floor = 1.0 - tol - SHARE_MARGIN
    labels, count = [0] * n, 1
    for blocks in set_partitions(n):
        if sum(len({labels[i] for i in b}) for b in blocks) == count:
            continue  # no label is split across blocks: the running meet refines this partition
        if any(factor(tuple(b))[1] < floor for b in blocks):
            continue  # some block's overlap bound is below 1 - tol: the partition fails
        if _reconstructs(reference, state.dims, blocks, factor, tol):
            labels = _meet_labels(labels, (sum(1 << i for i in b) for b in blocks))
            count = max(labels) + 1
    return _labelled(labels)


def monomial_quotient_dim(t: int) -> int:
    """Degree-t dimension of C[a,b,c,d]/(ad - bc) by explicit linear algebra.

    Builds the multiplication-by-(ad - bc) matrix on monomial bases and
    subtracts its rank from the count of degree-t monomials.
    """
    def monomials(deg):
        return [
            (i, j, k, deg - i - j - k)
            for i in range(deg + 1)
            for j in range(deg + 1 - i)
            for k in range(deg + 1 - i - j)
        ]

    target = monomials(t)
    if t < 2:
        return len(target)
    source = monomials(t - 2)
    index = {m: i for i, m in enumerate(target)}
    # Exact Gaussian elimination on sparse rows (column -> coefficient): a row is
    # reduced by the pivot row of its leading column until it is zero or pivots.
    pivots: dict[int, dict[int, Fraction]] = {}
    for m in source:
        up, dn = (m[0] + 1, m[1], m[2], m[3] + 1), (m[0], m[1] + 1, m[2] + 1, m[3])  # m * ad, m * bc
        row = {index[up]: Fraction(1), index[dn]: Fraction(-1)}
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = row
                break
            f = row[lead] / pivots[lead][lead]
            for col, x in pivots[lead].items():
                row[col] = row.get(col, 0) - f * x
            row = {col: x for col, x in row.items() if x}
    return len(target) - len(pivots)
