import sys

import numpy as np
import pytest

from egeo import (
    Bipartition,
    Partition,
    PureState,
    ShapeMismatch,
    TooLarge,
    bipartitions,
    finest_product_partition,
    incidence_lift,
    is_gme,
    is_pi_product,
    make_state,
    meet,
    minor_rank,
    refines,
    separability_report,
)
from egeo.oracles import _leading_factors, _reconstructs, brute_force_finest, random_block_product, set_partitions

RNG = np.random.default_rng(13)


# The reference factorization test behind brute_force_finest, for one partition.
def pi_product_by_reconstruction(state: PureState, partition: Partition, tol: float = 1e-8) -> bool:
    """Oracle factorization test: extract one factor per block, reassemble, compare.

    Independent of the rank-counting route: the verdict is the projective
    overlap of the reassembled product with the original state.
    """
    return _reconstructs(state.normalized().coeffs, state.dims, partition.blocks, _leading_factors(state), tol)


def ghz3():
    c = np.zeros(8)
    c[0] = c[7] = 1
    return make_state([2, 2, 2], c / np.sqrt(2))


def block_example(rng=RNG):
    """a1 (x) a2 (x) Phi_34 with Phi entangled."""
    a1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return make_state([2, 2, 2, 2], np.kron(np.kron(a1, a2), phi))


P = Partition


def test_partition_canonical_form():
    p = P(4, ((2, 3), (1,), (0,)))
    assert p.blocks == ((0,), (1,), (2, 3))
    assert str(p) == "0|1|23"


def test_partition_validation():
    with pytest.raises(ShapeMismatch):
        P(3, ((0, 1),))
    with pytest.raises(ShapeMismatch):
        P(3, ((0, 1), (1, 2)))
    with pytest.raises(ShapeMismatch):
        P(2, ((0, 1), ()))


def test_refines_examples():
    assert refines(P(3, ((0,), (1,), (2,))), P(3, ((0,), (1, 2))))
    assert not refines(P(3, ((0,), (1, 2))), P(3, ((1,), (0, 2))))
    p = P(3, ((0, 1), (2,)))
    assert refines(p, p)


def test_refines_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        refines(P(2, ((0,), (1,))), P(3, ((0, 1, 2),)))


def test_meet_examples():
    assert meet(P(3, ((0,), (1, 2))), P(3, ((1,), (0, 2)))) == P.discrete(3)
    p = P(4, ((0, 1), (2, 3)))
    assert meet(p, p) == p
    assert meet(P(4, ((0, 1), (2, 3))), P(4, ((0, 2), (1, 3)))) == P.discrete(4)


def test_meet_lattice_properties_exhaustive():
    # commutative, associative, idempotent, glb; N = 4 exhaustively
    parts = [P(4, tuple(tuple(b) for b in blocks)) for blocks in set_partitions(4)]
    for p in parts:
        assert meet(p, p) == p
        assert refines(p, p)
        for q in parts:
            m = meet(p, q)
            assert m == meet(q, p)
            assert refines(m, p) and refines(m, q)
            for r in parts:
                assert meet(meet(p, q), r) == meet(p, meet(q, r))
                if refines(r, p) and refines(r, q):
                    assert refines(r, m)


def test_refines_is_partial_order_n5():
    parts = [P(5, tuple(tuple(b) for b in blocks)) for blocks in set_partitions(5)]
    for p in parts:
        for q in parts:
            if refines(p, q) and refines(q, p):
                assert p == q
            m = meet(p, q)
            assert refines(m, p) and refines(m, q)


def test_bipartitions_counts():
    assert len(bipartitions(2)) == 1
    assert len(bipartitions(3)) == 3
    assert len(bipartitions(4)) == 7
    for cut in bipartitions(4):
        assert 0 in cut.block_a


def test_bipartitions_bounds():
    with pytest.raises(TooLarge):
        bipartitions(1)
    with pytest.raises(TooLarge):
        bipartitions(17)


def test_bipartition_canonicalizes_to_contain_zero():
    cut = Bipartition(3, (1, 2))
    assert cut.block_a == (0,)


def test_is_pi_product_examples():
    basis = make_state([2, 2, 2, 2], [1] + [0] * 15)
    assert is_pi_product(basis, P.discrete(4))
    st = block_example()
    assert is_pi_product(st, P(4, ((0,), (1,), (2, 3))))
    assert not is_pi_product(st, P.discrete(4))
    assert is_pi_product(st, P.trivial(4))
    w = make_state([2, 2, 2], [0, 1, 1, 0, 1, 0, 0, 0])
    for cut in bipartitions(3):
        assert not is_pi_product(w, P(3, (cut.block_a, cut.block_b)))


def test_finest_product_partition_examples():
    basis = make_state([2, 2, 2, 2], [1] + [0] * 15)
    assert finest_product_partition(basis) == P.discrete(4)
    assert finest_product_partition(block_example()) == P(4, ((0,), (1,), (2, 3)))
    assert finest_product_partition(ghz3()) == P.trivial(3)


def test_is_gme():
    assert is_gme(ghz3())
    assert not is_gme(block_example())
    st = make_state([2, 2, 2], RNG.standard_normal(8) + 1j * RNG.standard_normal(8))
    assert is_gme(st)


def test_finest_is_product_and_characterizes_all_partitions():
    rng = np.random.default_rng(29)
    for trial in range(12):
        n = int(rng.integers(2, 6))
        dims = tuple(int(d) for d in rng.integers(2, 4, n))
        order = list(rng.permutation(n))
        cuts = sorted(rng.choice(range(1, n), size=int(rng.integers(1, n)), replace=False))
        edges = [0] + list(cuts) + [n]
        blocks = [tuple(sorted(order[a:b])) for a, b in zip(edges, edges[1:])]
        st = random_block_product(rng, dims, blocks)
        star = finest_product_partition(st)
        assert is_pi_product(st, star)
        for raw in set_partitions(n):
            rho = P(n, tuple(tuple(b) for b in raw))
            assert is_pi_product(st, rho) == refines(star, rho)


def test_three_party_two_cuts_implies_fully_product():
    rng = np.random.default_rng(31)
    for _ in range(10):
        st = random_block_product(rng, (2, 3, 2), [(0,), (1,), (2,)])
        product_cuts = [c for c in bipartitions(3) if is_pi_product(st, P(3, (c.block_a, c.block_b)))]
        assert len(product_cuts) == 3
        assert finest_product_partition(st) == P.discrete(3)
    # if any state is product along two distinct cuts, the meet forces full product
    for _ in range(10):
        st = random_block_product(rng, (2, 2, 2), [(0,), (1, 2)])
        cuts = [c for c in bipartitions(3) if is_pi_product(st, P(3, (c.block_a, c.block_b)))]
        assert len(cuts) == 1  # entangled pair blocks exactly one cut


def test_four_party_two_cuts_do_not_imply_fully_product():
    st = block_example()
    in_0_rest = is_pi_product(st, P(4, ((0,), (1, 2, 3))))
    in_1_rest = is_pi_product(st, P(4, ((1,), (0, 2, 3))))
    assert in_0_rest and in_1_rest
    assert not is_pi_product(st, P.discrete(4))


def test_factor_extraction_recovers_projective_factors():
    rng = np.random.default_rng(37)
    factors = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (2, 3, 2)]
    vec = factors[0]
    for f in factors[1:]:
        vec = np.kron(vec, f)
    st = make_state([2, 3, 2], vec)
    for i, f in enumerate(factors):
        cut = Bipartition(3, (i,))
        lift = incidence_lift(st, cut)
        basis = lift.ua_basis if set(cut.block_a) == {i} else lift.ub_basis
        assert basis.shape[1] == 1
        overlap = abs(np.vdot(basis[:, 0], f / np.linalg.norm(f)))
        assert abs(overlap - 1.0) < 1e-9


def test_separability_report_consistency():
    rep = separability_report(block_example())
    assert not rep.gme
    assert rep.finest == P(4, ((0,), (1,), (2, 3)))
    # cuts along block unions: 0|123, 1|023 (canonical 023), 01|23
    assert len(rep.product_bipartitions) == 3
    rep_ghz = separability_report(ghz3())
    assert rep_ghz.gme and rep_ghz.finest == P.trivial(3) and not rep_ghz.product_bipartitions


def planted_states(rng, count):
    """Seeded block products, n = 2..5 qubits and qutrits, perturbed at 0 and 1e-12..1e-6."""
    for trial in range(count):
        n = 2 + trial % 4
        dims = tuple(int(d) for d in rng.integers(2, 4, n))
        order = list(rng.permutation(n))
        cuts = sorted(rng.choice(range(1, n), size=int(rng.integers(0, n)), replace=False))
        edges = [0] + list(cuts) + [n]
        blocks = [tuple(sorted(order[a:b])) for a, b in zip(edges, edges[1:])]
        st = random_block_product(rng, dims, blocks)
        eps = (0.0, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 1e-6)[trial % 9]
        noise = rng.standard_normal(st.coeffs.size) + 1j * rng.standard_normal(st.coeffs.size)
        yield make_state(dims, st.coeffs + eps * np.linalg.norm(st.coeffs) * noise), P(n, tuple(blocks)), eps


def test_brute_force_finest_is_the_meet_of_partitions_tested_one_by_one():
    # pi_product_by_reconstruction called alone recomputes every block factor,
    # so this checks the oracle's shared factors against the unshared route.
    rng = np.random.default_rng(47)
    for st, planted, eps in planted_states(rng, 72):
        n = st.n_subsystems
        expected = P.trivial(n)
        for raw in set_partitions(n):
            rho = P(n, tuple(tuple(b) for b in raw))
            if pi_product_by_reconstruction(st, rho):
                expected = meet(expected, rho)
        assert brute_force_finest(st) == expected
        if eps == 0.0:
            assert expected == planted


def test_oracles_do_not_use_the_rank_counting_route(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an oracle called the rank-counting route")

    for name, module in list(sys.modules.items()):
        if name == "egeo" or name.startswith("egeo."):
            for attr in ("numerical_rank", "_rank_one_test", "finest_product_partition"):
                if attr in vars(module):
                    monkeypatch.setattr(module, attr, forbidden)
    rng = np.random.default_rng(53)
    for st, _, _ in planted_states(rng, 8):
        brute_force_finest(st)
        pi_product_by_reconstruction(st, P.discrete(st.n_subsystems))
    assert minor_rank(rng.standard_normal((4, 5))) == 4
