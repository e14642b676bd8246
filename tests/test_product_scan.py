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
        numerical_rank(flatten(state, Bipartition.of(n, b)), tol) == 1 for b in partition.blocks if len(b) < n
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
            cut = Bipartition.of(n, block)
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
    assert not is_pi_product(ghz, Partition.of(3, ((0,), (1, 2))))


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
            p = Partition.of(n, tuple(random_blocks(rng, n)))
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
    # Block {1} does not hold subsystem 0, yet its flattening keeps subsystem 0's side {0, 2} as rows.
    product, blocks = make_state([2, 3, 4], np.kron(np.kron([1, 2], [1, -1, 3]), [2, 0, 1, 5])), Partition.of(3, ((0, 2), (1,)))
    assert is_pi_product(product, blocks)
    assert calls == []
    # Below the certified tolerance the SVD decides: two cuts for the shift, one for the product, three for W,
    # and both blocks of the 2x3x4 product, each as the 8 x 3 flattening.
    tol = separability.CERTIFY_MIN_TOL / 10
    assert not is_local_operator(weyl_ops(4).x_inv, 2, 2, tol)
    assert is_local_operator(np.kron(a, b), 2, 2, tol)
    assert rank_2x2x2(w_state(), tol) == 3
    assert is_pi_product(product, blocks, tol)
    assert [m.shape for m in calls] == [(4, 4)] * 3 + [(2, 4), (4, 2), (4, 2)] + [(8, 3), (8, 3)]


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


def with_off_fiber_entry(state, tol):
    """The state plus c e_x, c = 1.2 * 4 tol ||T||_F e^(i pi/4), x differing from the max-modulus entry in every index.

    Along a cut that is a union of the state's blocks the pivot's row and column miss x, so the cross residual
    is c e_x to rounding: its modulus is 1.2 times the reject bound 4 tol ||T||_F, its parts 0.85 times it.
    """
    t = state.tensor().copy()
    at = np.unravel_index(int(np.argmax(np.abs(t))), t.shape)
    t[tuple((i + 1) % d for i, d in zip(at, t.shape))] += 1.2 * 4 * tol * np.linalg.norm(t) * np.exp(0.25j * np.pi)
    return make_state(state.dims, t.ravel())


def residual_extremes(state, cut, tol):
    """(largest |Re R| or |Im R|, largest |R|) of the cut's rank-1 cross residual, in units of 4 tol ||T||_F."""
    m = flatten(state, cut)
    m = m / np.abs(m).max()
    i, j = np.unravel_index(int(np.argmax(np.abs(m))), m.shape)
    r = m - np.outer(m[:, j], m[i, :] / m[i, j])
    bound = 4 * tol * np.linalg.norm(m)
    return max(np.abs(r.real).max(), np.abs(r.imag).max()) / bound, np.abs(r).max() / bound


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_a_residual_past_the_bound_in_modulus_only_is_rejected_with_no_svd(monkeypatch, tol):
    # The reject test reads R's real and imaginary parts first and its moduli only when no part is past the
    # bound; these cuts need the moduli. Without them they would reach the SVD, with the same verdict.
    calls = []
    monkeypatch.setattr(tensor_core, "numerical_rank", lambda *a: calls.append(a) or numerical_rank(*a))
    rng = np.random.default_rng(34)
    cases = [((2, 3, 2, 2, 3, 2), [(0,), (1, 3), (2, 4, 5)]), ((2,) * 7, [(i,) for i in range(7)])]
    for dims, blocks in cases:
        base = with_off_fiber_entry(random_block_product(rng, dims, blocks), tol)
        band = [c for c in bipartitions(len(dims)) if all(len(set(b) & set(c.block_a)) in (0, len(b)) for b in blocks)]
        assert len(band) == 2 ** (len(blocks) - 1) - 1
        for cut in band:
            parts, modulus = residual_extremes(base, cut, tol)
            assert parts < 0.9 and modulus > 1.1, (cut, parts, modulus)
        for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300):
            state = make_state(dims, base.coeffs * scale)
            report = separability_report(state, tol)
            assert calls == []
            assert report.gme and report.product_bipartitions == tuple(reference_cuts(state, tol)) == ()


def test_two_closures_used_by_turns_keep_their_own_residuals():
    # rank_one writes R, and every_cut T - A, into an array of its own closure's; closures called in turn,
    # on states of different shapes and verdicts, must answer as a fresh closure does for each call.
    rng = np.random.default_rng(35)
    a, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    swap = np.eye(9)[[3 * (k % 3) + k // 3 for k in range(9)]]
    generic = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    ops = {"local": np.kron(a, b), "swapped": np.kron(a, b) @ swap, "generic": generic}
    planted = random_block_product(rng, (2, 3, 3, 2), [(0, 2), (1, 3)])
    product = random_block_product(rng, (3, 2, 2, 3), [(0,), (1,), (2,), (3,)])
    arrays = [g.reshape(3, 3, 3, 3) for g in ops.values()] + [planted.tensor(), product.tensor()]
    closures = [tensor_core._cross_tests(t, TOL) for t in arrays]
    for mask in (0b0011, 0b0101, 0b1001, 0b0001, 0b0111):
        for t, (rank_one, every_cut) in zip(arrays, closures):
            fresh_one, fresh_every = tensor_core._cross_tests(t, TOL)
            assert rank_one(mask) == fresh_one(mask)
            assert every_cut() == fresh_every()
    # is_local_operator asks its two cuts of one closure; each verdict is the fresh closure's.
    for name, g in ops.items():
        verdicts = [tensor_core._cross_tests(g.reshape(3, 3, 3, 3), TOL)[0](m) for m in (0b0101, 0b1001)]
        assert verdicts == {"local": [True, False], "swapped": [False, True], "generic": [False, False]}[name]
        assert is_local_operator(g, 3, 3) == any(verdicts)
    assert [every_cut() for _, every_cut in closures] == [False, False, False, False, True]


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


# ------------------------------------------------------------- one global residual for a fully product state
# Once the first cut is product, `_product_cuts` asks `_cross_tests`' every_cut: A = `_cross_product`, the
# product of the pivot's fibers, and delta = ||T - A||_F (plus A's rounding) accept every cut when
# delta <= tol/2 (||T||_F - 2 delta). Otherwise the per-cut scan runs as before.

# sigma_2 / sigma_1 planted at f * tol: clear of the bounds, on the accept band, on the tolerance and past it.
RATIO_FACTORS = tuple(f * (1 + s) for f in (0.0, 1e-3, 0.25, 0.5, 1.0, 2.0) for s in (-1e-3, 1e-3))
SCALES = (1e-300, 1e-150, 1.0, 1e150, 1e300)


def unit_pair(rng, d):
    """Two orthonormal complex vectors of length d."""
    q = np.linalg.qr(rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2)))[0]
    return q[:, 0], q[:, 1]


def near_block_product(rng, dims, blocks, chosen, ratio):
    """v + ratio w, v the product of unit vectors v_b over the blocks and w that of w_b, with w_b a unit vector
    orthogonal to v_b on the chosen blocks (two or more) and w_b = v_b elsewhere.

    A cut that is a union of blocks and splits the chosen ones has flattening singular values exactly
    (1, ratio); any other union of blocks is a product cut.
    """
    pairs = [unit_pair(rng, int(np.prod([dims[i] for i in b]))) for b in blocks]
    v, w = np.ones(1, dtype=complex), np.ones(1, dtype=complex)
    for k, (vb, wb) in enumerate(pairs):
        v, w = np.kron(v, vb), np.kron(w, wb if k in chosen else vb)
    order = [i for b in blocks for i in b]
    return make_state(dims, (v + ratio * w).reshape([dims[i] for i in order]).transpose(np.argsort(order)).ravel())


def near_product_states(seed):
    """Fully product states and block products with noise at f tol, on qubits and qubit/qutrit mixes.

    Half the noisy ones are over the discrete partition, where the certificate decides near its bound; the rest
    keep subsystem 0 a block of its own, so that the first cut is product and the certificate must decline.
    The exhaustive reference takes 0.15 s at n = 11 and 0.6 s at n = 12 (on qubits), so larger n get fewer states:
    n = 11 and 12 only a fully product one.
    """
    rng = np.random.default_rng(seed)
    for n in range(2, 13):
        factors = RATIO_FACTORS if n <= 8 else RATIO_FACTORS[6::5] if n <= 10 else ()
        mixes = [(2,) * n]
        if n <= 10:  # and qutrits anywhere: n // 3 of them up to n = 8, one above
            k = max(1, n // 3) if n <= 8 else 1
            mixes.append(tuple(int(d) for d in rng.permutation([3] * k + [2] * (n - k))))
        for dims in mixes:
            yield random_block_product(rng, dims, [(i,) for i in range(n)])
            for k, f in enumerate(factors if n > 2 else ()):
                if k % 2:
                    rest = random_blocks(rng, n - 1)
                    blocks = [(0,), *(tuple(i + 1 for i in b) for b in rest)]
                else:
                    blocks = [(i,) for i in range(n)]
                chosen = {int(c) for c in rng.choice(len(blocks), size=2, replace=False)}
                yield near_block_product(rng, dims, blocks, chosen, f * TOL)


@pytest.fixture
def scan_counts(monkeypatch):
    """Counts of global residuals (`_cross_product` calls) and of vdots (three per per-cut accept)."""
    counts = {"global": 0, "vdot": 0}
    cross, vdot = tensor_core._cross_product, np.vdot

    def counted_cross(*args):
        counts["global"] += 1
        return cross(*args)

    def counted_vdot(*args):
        counts["vdot"] += 1
        return vdot(*args)

    monkeypatch.setattr(tensor_core, "_cross_product", counted_cross)
    monkeypatch.setattr(np, "vdot", counted_vdot)
    return counts


def test_scan_matches_exhaustive_svd_on_product_and_near_tolerance_states(scan_counts):
    settled = declined = 0
    for trial, state in enumerate(near_product_states(seed=420)):
        scales = SCALES if state.n_subsystems <= 4 else SCALES[trial % len(SCALES) :][:1]
        for scale in scales:
            scan_counts.update(dict.fromkeys(scan_counts, 0))
            assert_report_matches_reference(make_state(state.dims, state.coeffs * scale))
            # The report asks the certificate once its first cut is product; is_gme stops at that cut. Each
            # per-cut test that does not reject takes three vdots, so 6 means the certificate settled the rest.
            settled += scan_counts["global"] == 1 and scan_counts["vdot"] == 6
            declined += scan_counts["global"] == 1 and scan_counts["vdot"] > 6
    assert settled >= 100 and declined >= 100, (settled, declined)


def basis_pair(dims, flipped, eps):
    """e_0 + eps e_x, x being 1 on the flipped subsystems (two or more) and 0 elsewhere.

    The pivot is e_0 and each of its fibers holds only the pivot, so A = e_0 and ||T - A||_F = eps exactly;
    the cuts that split the flipped set have sigma_2 / sigma_1 = eps and the others are product.
    """
    t = np.zeros(dims, dtype=complex)
    t[(0,) * len(dims)] = 1.0
    t[tuple(int(i in flipped) for i in range(len(dims)))] = eps
    return make_state(dims, t.ravel())


def certificate_bound(n, tol):
    """The eps at which delta = eps + 2 n EPS (A's rounding allowance) meets tol/2 (||T||_F - 2 delta)."""
    eps = 0.0
    for _ in range(200):  # a contraction: each step moves eps by at most tol times the last move
        eps = 0.5 * tol * np.sqrt(1 + eps * eps) / (1 + tol) - 2 * n * tensor_core.EPS
    return eps


@pytest.mark.parametrize("tol", [0.5, 0.1])
def test_the_certificate_accepts_exactly_up_to_its_bound(scan_counts, tol):
    # On e_0 + eps e_x the residual is known exactly, so the bound delta <= tol/2 (||T||_F - 2 delta) is
    # found to 1e-3: a 1 in place of the 2, or tol in place of tol/2, moves it by 5% or more at these tols.
    dims = (2, 3, 2, 2, 3, 2)
    n = len(dims)
    eps_bound = certificate_bound(n, tol)
    for side, settled in ((1 - 1e-3, True), (1 + 1e-3, False)):
        state = basis_pair(dims, {0, 3}, eps_bound * side)
        scan_counts.update(dict.fromkeys(scan_counts, 0))
        report = separability_report(state, tol)
        assert report.product_bipartitions == tuple(reference_cuts(state, tol))
        assert len(report.product_bipartitions) == 2 ** (n - 1) - 1  # eps < tol: every cut is product
        assert scan_counts["global"] == 1
        assert (scan_counts["vdot"] == 3) == settled, (side, scan_counts)


def test_a_fully_product_10_qubit_report_forms_one_global_and_one_per_cut_residual(scan_counts):
    rng = np.random.default_rng(21)
    state = random_block_product(rng, (2,) * 10, [(i,) for i in range(10)])
    report = separability_report(state)
    assert len(report.product_bipartitions) == 511 and report.finest == Partition.discrete(10)
    assert scan_counts == {"global": 1, "vdot": 3}  # the first cut's accept; without the certificate, 511 * 3
    # A GME state fails its first cut and pays for no global residual.
    scan_counts.update(dict.fromkeys(scan_counts, 0))
    generic = make_state((2,) * 10, rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
    assert separability_report(generic).gme and scan_counts["global"] == 0


def test_a_fully_product_16_qubit_report_takes_one_global_residual(scan_counts):
    state = random_block_product(np.random.default_rng(22), (2,) * 16, [(i,) for i in range(16)])
    report = separability_report(state)
    assert len(report.product_bipartitions) == 2**15 - 1 and report.finest == Partition.discrete(16)
    assert report.product_bipartitions[-1] == Bipartition.of(16, (0, *range(2, 16)))
    assert scan_counts == {"global": 1, "vdot": 3}


def test_the_certificate_never_runs_below_the_certified_tolerance(scan_counts):
    rng = np.random.default_rng(23)
    for n in range(2, 9):
        state = random_block_product(rng, (2,) * n, [(i,) for i in range(n)])
        assert_report_matches_reference(state, separability.CERTIFY_MIN_TOL / 10)
        assert separability.finest_product_partition(state, separability.CERTIFY_MIN_TOL / 10) == Partition.discrete(n)
    assert scan_counts == {"global": 0, "vdot": 0}
    # At CERTIFY_MIN_TOL itself it runs, once per scan.
    separability_report(state, separability.CERTIFY_MIN_TOL)
    assert scan_counts == {"global": 1, "vdot": 3}
