"""The certified product-cut scan against the exhaustive SVD scan.

The reference asks the SVD rank of every flattening; the scan under test
decides most cuts from residual bounds and must give the same verdicts,
including on flattenings whose singular-value ratio sits at the tolerance.
"""

import numpy as np
import pytest

import egeo.separability as separability
import egeo.tensor_core as tensor_core
from egeo import (
    Bipartition,
    Partition,
    ShapeMismatch,
    bipartitions,
    flatten,
    is_gme,
    is_local_operator,
    is_pi_product,
    make_state,
    numerical_rank,
    rank_2x2x2,
    separability_report,
    w_state,
    weyl_ops,
)
from egeo.oracles import random_block_product
from egeo.tensor_core import DEFAULT_RANK_TOL as TOL

PERTURBATIONS = (0.0, 1e-13, 1e-12, 1e-11, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 1e-7, 1e-6)


def reference_cuts(state, tol=TOL):
    """The exhaustive oracle: every cut whose flattening has SVD rank 1."""
    return [c for c in bipartitions(state.n_subsystems) if numerical_rank(flatten(state, c), tol) == 1]


def reference_pi_product(state, partition, tol=TOL):
    n = state.n_subsystems
    return all(
        numerical_rank(flatten(state, Bipartition(n, b)), tol) == 1 for b in partition.blocks if len(b) < n
    )


def random_blocks(rng, n):
    order = [int(i) for i in rng.permutation(n)]
    k = int(rng.integers(1, n + 1))
    edges = [0, *sorted(int(e) for e in rng.choice(range(1, n), size=k - 1, replace=False)), n]
    return [tuple(sorted(order[a:b])) for a, b in zip(edges, edges[1:])]


def perturbed(rng, state, eps):
    noise = rng.standard_normal(state.coeffs.size) + 1j * rng.standard_normal(state.coeffs.size)
    noise *= eps * state.norm() / np.linalg.norm(noise)
    return make_state(state.dims, state.coeffs + noise)


def planted_states(seed, count, qutrits):
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = int(rng.integers(2, 9))
        dims = tuple(int(d) for d in rng.integers(2, 4, n)) if qutrits else (2,) * n
        if np.prod(dims) > 2**9:
            dims = (2,) * n
        state = random_block_product(rng, dims, random_blocks(rng, n))
        yield perturbed(rng, state, PERTURBATIONS[trial % len(PERTURBATIONS)])


def with_ratio(rng, dims, block, ratio):
    """A state whose block|rest flattening has singular values (1, ratio)."""
    n = len(dims)
    rest = tuple(i for i in range(n) if i not in block)
    d_a = int(np.prod([dims[i] for i in block]))
    d_b = int(np.prod([dims[i] for i in rest]))

    def orthonormal(d, k):
        q, _ = np.linalg.qr(rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k)))
        return q

    m = orthonormal(d_a, 2) @ np.diag([1.0, ratio]) @ orthonormal(d_b, 2).T
    order = block + rest
    tensor = m.reshape([dims[i] for i in order]).transpose(np.argsort(order))
    return make_state(dims, tensor.ravel())


def assert_report_matches_reference(state, tol=TOL):
    cuts = reference_cuts(state, tol)
    report = separability_report(state, tol)
    assert report.product_bipartitions == tuple(cuts)
    assert report.gme == (not cuts)
    assert is_gme(state, tol) == (not cuts)


@pytest.mark.parametrize("qutrits", [False, True], ids=["qubits", "qutrit-mix"])
def test_scan_matches_exhaustive_svd_on_perturbed_block_products(qutrits):
    for state in planted_states(seed=401 + qutrits, count=110, qutrits=qutrits):
        assert_report_matches_reference(state)


@pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3], ids=["just-below", "just-above"])
@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0], ids=["accept-bound", "tol", "reject-bound"])
def test_scan_matches_exhaustive_svd_at_the_boundaries(side, scale):
    # scale 1 puts sigma_2/sigma_1 on the rank tolerance; 1/2 and 2 put it on
    # the bounds behind the two certificates.
    rng = np.random.default_rng(7)
    for dims in [(2, 2, 2), (2, 3, 2, 2), (2, 2, 2, 2, 2, 2), (3, 2, 2, 3, 2)]:
        n = len(dims)
        for _ in range(3):
            block = tuple(sorted(int(i) for i in rng.choice(n, size=int(rng.integers(1, n)), replace=False)))
            state = with_ratio(rng, dims, block, scale * side * TOL)
            assert_report_matches_reference(state)
            cut = Bipartition(n, block)
            if scale == 1.0:  # the construction does sit on either side of tol
                assert (cut in reference_cuts(state)) == (side < 1)


def test_scan_matches_exhaustive_svd_below_the_certified_tolerance():
    tol = separability.CERTIFY_MIN_TOL / 10
    for state in planted_states(seed=409, count=20, qutrits=True):
        assert_report_matches_reference(state, tol)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e200, 1e300])
def test_scan_matches_exhaustive_svd_at_extreme_scales(scale):
    # Squares of coefficients at these scales underflow to 0 or overflow.
    for state in planted_states(seed=412, count=22, qutrits=True):
        assert_report_matches_reference(make_state(state.dims, state.coeffs * scale))


@pytest.mark.parametrize("scale", [5e-324, 1e-320, 1e-300, 1e-170, 1e200, 1e300])
def test_ghz_is_gme_at_any_scale(scale):
    ghz = make_state([2, 2, 2], np.array([1, 0, 0, 0, 0, 0, 0, 1]) * scale)
    assert_report_matches_reference(ghz)
    assert separability_report(ghz).gme
    assert not is_pi_product(ghz, Partition(3, ((0,), (1, 2))))


@pytest.mark.parametrize("tol", [0.0, 1.0, 1.5, float("nan")])
def test_scan_rejects_a_tolerance_outside_the_unit_interval(tol):
    state = make_state([2, 2, 2], [1, 0, 0, 0, 0, 0, 0, 1])
    with pytest.raises(ShapeMismatch):
        separability_report(state, tol)
    with pytest.raises(ShapeMismatch):
        is_pi_product(state, Partition.discrete(3), tol)


def test_is_pi_product_matches_reference():
    rng = np.random.default_rng(411)
    for state in planted_states(seed=410, count=60, qutrits=True):
        n = state.n_subsystems
        for _ in range(4):
            p = Partition(n, tuple(random_blocks(rng, n)))
            assert is_pi_product(state, p) == reference_pi_product(state, p)


def test_clear_verdicts_need_no_svd(monkeypatch):
    calls = []
    monkeypatch.setattr(tensor_core, "numerical_rank", lambda *a: calls.append(a) or numerical_rank(*a))
    rng = np.random.default_rng(3)
    dims = (2, 2, 3, 2, 2, 2, 2, 2)
    generic = make_state(dims, rng.standard_normal(384) + 1j * rng.standard_normal(384))
    planted = random_block_product(rng, dims, [(0, 5), (1,), (2, 3, 7), (4, 6)])
    assert separability_report(generic).gme
    assert len(separability_report(planted).product_bipartitions) == 2**3 - 1
    assert calls == []
    # The same count sees the SVDs below the certified tolerance, one per cut.
    assert separability_report(generic, separability.CERTIFY_MIN_TOL / 10).gme
    assert len(calls) == 2**7 - 1


def test_clear_operator_and_2x2x2_verdicts_need_no_svd(monkeypatch):
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: calls.append(m) or real(m, **kw))
    rng = np.random.default_rng(4)
    a, b = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
    generic = make_state([2, 2, 2], rng.standard_normal(8) + 1j * rng.standard_normal(8))
    assert not is_local_operator(weyl_ops(4).x_inv, 2, 2)
    assert is_local_operator(np.kron(a, b), 2, 2)
    assert rank_2x2x2(generic) in (2, 3) and rank_2x2x2(w_state()) == 3
    assert calls == []
    # Below the certified tolerance the SVD decides: two cuts for the shift, one for the product, three for W.
    tol = separability.CERTIFY_MIN_TOL / 10
    assert not is_local_operator(weyl_ops(4).x_inv, 2, 2, tol)
    assert is_local_operator(np.kron(a, b), 2, 2, tol)
    assert rank_2x2x2(w_state(), tol) == 3
    assert [m.shape for m in calls] == [(4, 4)] * 3 + [(2, 4), (4, 2), (4, 2)]


def test_a_rejected_cut_pays_for_no_accept_test(monkeypatch):
    # The reject bound is tested first; the accept test's three vdots would
    # run on each of the 127 cuts if the order were swapped back.
    calls = []
    real = np.vdot
    monkeypatch.setattr(np, "vdot", lambda *a: calls.append(a) or real(*a))
    rng = np.random.default_rng(5)
    generic = make_state((2,) * 8, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    assert separability_report(generic, 1e-9).gme
    assert calls == []


def test_product_cuts_fold_into_one_partition(monkeypatch):
    # A fully product 9-qubit state has 255 product cuts; folding them with
    # meet would build a Partition per cut and per meet.
    built = []
    real = Partition.__post_init__
    monkeypatch.setattr(Partition, "__post_init__", lambda self: built.append(self) or real(self))
    state = random_block_product(np.random.default_rng(6), (2,) * 9, [(i,) for i in range(9)])
    report = separability_report(state)
    assert len(report.product_bipartitions) == 255
    assert len(built) == 1
    assert report.finest == Partition.discrete(9)
