"""Brute-force references that the production routes are checked against.

Each oracle reaches its answer by a route independent of the code it
certifies: reconstruction and a full partition-lattice search against the
cut scan, monomial linear algebra against the Schur-sum Hilbert function.
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
from .tensor_core import Bipartition, PureState, flatten, make_state


def _block_product(dims, blocks, factors) -> np.ndarray:
    """Flat product of one vector per block, with the subsystems put back in index order."""
    vec = factors[0]
    for f in factors[1:]:
        vec = np.multiply.outer(vec, f).ravel()
    order = [i for block in blocks for i in block]
    return vec.reshape([dims[i] for i in order]).transpose(np.argsort(order)).ravel()


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
    """Block -> leading singular vector of the block's side of its flattening.

    Each cut is decomposed once, on first use, and both of its sides are
    kept, so every lookup after that returns the very same vector.
    """
    n = state.n_subsystems
    factors: dict[tuple[int, ...], np.ndarray] = {}

    def factor(block: tuple[int, ...]) -> np.ndarray:
        if block not in factors:
            cut = Bipartition(n, block)
            u, _, vh = np.linalg.svd(flatten(state, cut), full_matrices=False)
            factors[cut.block_a], factors[cut.block_b] = u[:, 0], vh[0, :]
        return factors[block]

    return factor


def _reconstructs(reference: np.ndarray, dims, blocks, factor, tol: float) -> bool:
    """Projective overlap of the product of the block factors with the normalized state.

    blocks is a sequence of sorted index sequences, ordered by minimum.
    """
    if len(blocks) == 1:
        return True
    candidate = _block_product(dims, blocks, [factor(tuple(block)) for block in blocks])
    candidate /= np.linalg.norm(candidate)
    return bool(abs(np.vdot(reference, candidate)) >= 1.0 - tol)


def brute_force_finest(state: PureState, tol: float = 1e-8) -> Partition:
    """Meet of every partition that passes the reconstruction oracle.

    The normalized state and each block's factor are computed once and
    shared by all Bell(n) partitions. A partition that the running meet
    already refines is skipped: meeting with it changes nothing, whether
    it passes or not. The running meet is kept as one block label per
    subsystem.
    """
    n = state.n_subsystems
    reference = state.normalized().coeffs
    factor = _leading_factors(state)
    labels, count = [0] * n, 1
    for blocks in set_partitions(n):
        if sum(len({labels[i] for i in b}) for b in blocks) == count:
            continue  # no label is split across blocks: the running meet refines this partition
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
    rows = []
    for m in source:
        row = [Fraction(0)] * len(target)
        up = (m[0] + 1, m[1], m[2], m[3] + 1)  # * ad
        dn = (m[0], m[1] + 1, m[2] + 1, m[3])  # * bc
        row[index[up]] += 1
        row[index[dn]] -= 1
        rows.append(row)
    # exact Gaussian elimination
    rank, lead = 0, 0
    for col in range(len(target)):
        piv = next((r for r in range(lead, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        for r in range(len(rows)):
            if r != lead and rows[r][col] != 0:
                f = rows[r][col] / rows[lead][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[lead])]
        lead += 1
        rank += 1
        if lead == len(rows):
            break
    return len(target) - rank
