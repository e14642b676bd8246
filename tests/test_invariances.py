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

from egeo import (
    Partition,
    bipartitions,
    concurrence,
    finest_product_partition,
    flatten,
    flattening_lower_bound,
    is_local_operator,
    make_state,
    minor_rank,
    numerical_rank,
    rank_2x2x2,
    separability_report,
    weyl_ops,
)
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


# Scales at which plain arithmetic on the entries under- or overflows: the
# smallest subnormal, a subnormal, and the far ends of the normal range.
EXTREME_SCALES = [5e-324, 1e-320, 1e-300, 1e300, 1.7e308]
GHZ = np.array([1, 0, 0, 0, 0, 0, 0, 1.0])
W = np.array([0, 1, 1, 0, 1, 0, 0, 0.0])
BELL = np.array([1, 0, 0, 1]) * 2**-0.5


def test_tensor_rank_and_flattening_bound_hold_at_every_scale():
    for scale in EXTREME_SCALES:
        ghz, w = make_state([2, 2, 2], GHZ * scale), make_state([2, 2, 2], W * scale)
        assert (rank_2x2x2(ghz), rank_2x2x2(w)) == (2, 3), scale
        assert flattening_lower_bound(ghz) == flattening_lower_bound(w) == 2, scale


def test_minor_rank_and_concurrence_hold_at_every_scale():
    for scale in EXTREME_SCALES:
        assert minor_rank(scale * np.eye(3)) == 3, scale
        assert abs(concurrence(make_state([2, 2], BELL * scale)) - 1.0) <= 1e-12, scale


def test_locality_holds_at_every_scale():
    for scale in EXTREME_SCALES:
        assert is_local_operator(scale * np.eye(4), 2, 2), scale
        assert not is_local_operator(scale * weyl_ops(4).x_inv, 2, 2), scale


def test_svd_decided_cut_scan_holds_at_every_scale():
    # Below the certificates' smallest tolerance the SVD decides every cut.
    for scale in EXTREME_SCALES:
        state = make_state([2, 2, 2], np.kron([1, 1.0], BELL) * scale)
        assert separability_report(state, 1e-12).finest == Partition(3, ((0,), (1, 2))), scale


def test_verdicts_hold_when_an_entry_modulus_overflows():
    # Both parts are finite, but |z| = 2.4e308 is not.
    z = 1.7e308 + 1.7e308j
    ghz, w = make_state([2, 2, 2], GHZ * z), make_state([2, 2, 2], W * z)
    assert (rank_2x2x2(ghz), rank_2x2x2(w), flattening_lower_bound(ghz)) == (2, 3, 2)
    assert separability_report(ghz).gme and separability_report(ghz, 1e-12).gme
    assert abs(concurrence(make_state([2, 2], np.array([z, 0, 0, z]))) - 1.0) <= 1e-12
    assert is_local_operator(np.diag([z] * 4), 2, 2)
