"""The README's invariances as properties of seeded block products.

Each generated state factors along planted blocks and is generic inside
each, so its finest product partition is the planted one. Rescaling it,
relabelling its subsystems, or applying a well-conditioned local
invertible map A_1 (x) ... (x) A_n must leave the finest partition fixed
(up to the relabelling) and, for the local map, every flattening rank.
The reference answer is the brute-force partition-lattice search wherever
it is affordable (n <= 5).
"""

import cmath

import numpy as np
import pytest

from egeo import Partition, bipartitions, finest_product_partition, flatten, make_state, numerical_rank
from egeo.oracles import brute_force_finest, random_block_product

CASES = 100
BRUTE_FORCE_MAX_N = 5


def rng_for(trial, purpose):
    """One independent stream per case and per use of it."""
    return np.random.default_rng([2718, trial, purpose])


def random_blocks(rng, n):
    order = [int(i) for i in rng.permutation(n)]
    k = int(rng.integers(1, n + 1))
    edges = [0, *sorted(int(e) for e in rng.choice(range(1, n), size=k - 1, replace=False)), n]
    return [tuple(sorted(order[a:b])) for a, b in zip(edges, edges[1:])]


@pytest.fixture(scope="module")
def cases():
    """(trial, state, expected finest partition) for n = 2..6, qubits and qutrits."""
    out = []
    for trial in range(CASES):
        rng = rng_for(trial, 0)
        n = 2 + trial % 5
        dims = (2,) * n if trial % 2 else tuple(int(d) for d in rng.integers(2, 4, n))
        blocks = random_blocks(rng, n)
        state = random_block_product(rng, dims, blocks)
        planted = Partition(n, tuple(blocks))
        expected = brute_force_finest(state) if n <= BRUTE_FORCE_MAX_N else planted
        assert expected == planted
        out.append((trial, state, expected))
    return out


def relabelled(p: Partition, new_index) -> Partition:
    return Partition(p.n_subsystems, tuple(tuple(int(new_index[i]) for i in b) for b in p.blocks))


def test_rescaling_leaves_the_finest_partition_unchanged(cases):
    for trial, state, expected in cases:
        rng = rng_for(trial, 1)
        phase = cmath.exp(1j * float(rng.uniform(0, 2 * np.pi)))
        for factor in (1e-150, 1e150, phase):
            assert finest_product_partition(make_state(state.dims, state.coeffs * factor)) == expected, factor


def test_permuting_subsystems_permutes_the_finest_partition(cases):
    for trial, state, expected in cases:
        rng = rng_for(trial, 2)
        perm = rng.permutation(state.n_subsystems)  # new subsystem k is old subsystem perm[k]
        moved = make_state([state.dims[i] for i in perm], state.tensor().transpose(perm).ravel())
        assert finest_product_partition(moved) == relabelled(expected, np.argsort(perm))


def well_conditioned(rng, d):
    """Q (I + G / 4 ||G||) with Q unitary: singular values in [3/4, 5/4]."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q @ (np.eye(d) + g / (4 * np.linalg.norm(g, 2)))


def test_local_invertible_maps_keep_the_finest_partition_and_every_flattening_rank(cases):
    for trial, state, expected in cases:
        rng = rng_for(trial, 3)
        t = state.tensor()
        for axis, d in enumerate(state.dims):
            t = np.moveaxis(np.tensordot(well_conditioned(rng, d), t, axes=(1, axis)), 0, axis)
        mapped = make_state(state.dims, t.ravel())
        assert finest_product_partition(mapped) == expected
        for cut in bipartitions(state.n_subsystems):
            assert numerical_rank(flatten(mapped, cut)) == numerical_rank(flatten(state, cut)), cut
