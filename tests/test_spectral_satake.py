import cmath
from math import comb, isfinite, prod

import numpy as np
import pytest

from egeo import (
    LocalSpectra,
    NonFinite,
    OutOfRange,
    SpectralClass,
    TooLarge,
    WrongSize,
    ZeroState,
    d_product_oracle,
    elem_sym,
    is_22_product,
    is_222_product,
    quartic_f,
    sphericity_check,
    tensor_spectrum,
)
from egeo.spectral_satake import margin_22, margin_222

RNG = np.random.default_rng(19)


def random_unit_product(rng, d):
    out = [cmath.exp(complex(rng.normal(0, 0.7), rng.normal(0, 0.7))) for _ in range(d - 1)]
    out.append(1.0 / prod(out))
    return tuple(out)


def random_generic(rng, n):
    return SpectralClass(tuple(cmath.exp(complex(rng.normal(), rng.normal())) for _ in range(n)))


# ------------------------------------------------------------- construction


def test_spectral_class_normalizes_product():
    s = SpectralClass((2.0, 3.0, 5.0, 7.0))
    assert abs(prod(s.eigenvalues) - 1.0) <= 1e-9


def test_spectral_class_rejects_zero():
    with pytest.raises(ZeroState):
        SpectralClass((1.0, 0.0, 2.0))


def test_empty_multisets_are_rejected():
    with pytest.raises(WrongSize):
        SpectralClass(())
    with pytest.raises(WrongSize):
        LocalSpectra(((),))


def test_local_spectra_normalized_per_factor():
    loc = LocalSpectra(((2.0, 3.0), (1.0, 5.0)))
    for factor in loc.factors:
        assert abs(prod(factor) - 1.0) <= 1e-9


# ----------------------------------------------------------------- elem_sym


def test_elem_sym_all_ones():
    e = elem_sym(SpectralClass((1.0,) * 4))
    assert np.allclose(e, [4, 6, 4, 1])


def test_elem_sym_last_value_is_one():
    s = random_generic(RNG, 5)
    assert abs(elem_sym(s)[-1] - 1.0) < 1e-9


def test_pullback_identities():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = cmath.exp(complex(rng.normal(), rng.normal()))
        b = cmath.exp(complex(rng.normal(), rng.normal()))
        e = elem_sym(tensor_spectrum(LocalSpectra(((a, 1 / a), (b, 1 / b)))))
        assert abs(e[0] - (a + 1 / a) * (b + 1 / b)) < 1e-10
        assert abs(e[1] - (a**2 + a**-2 + b**2 + b**-2 + 2)) < 1e-10
        assert abs(e[2] - e[0]) < 1e-10


# ----------------------------------------------------------- tensor spectrum


def test_tensor_spectrum_two_factor_products():
    s = tensor_spectrum(LocalSpectra(((2, 0.5), (3, 1 / 3))))
    got = sorted(s.eigenvalues, key=lambda z: z.real)
    assert np.allclose(got, sorted([6, 2 / 3, 3 / 2, 1 / 6]), atol=1e-12)


def test_tensor_spectrum_all_ones():
    s = tensor_spectrum(LocalSpectra(((1, 1), (1, 1), (1, 1))))
    e = elem_sym(s)
    assert np.allclose(e, [comb(8, k) for k in range(1, 9)])


# -------------------------------------------------------------- (2,2) test


def test_is_22_product_true_with_witness():
    s = SpectralClass((2, 0.5, 3, 1 / 3))
    ok, witness = is_22_product(s)
    assert ok and witness is not None
    a, b = witness
    rebuilt = sorted((a * b, a / b, b / a, 1 / (a * b)), key=lambda z: (z.real, z.imag))
    target = sorted(s.eigenvalues, key=lambda z: (z.real, z.imag))
    assert np.allclose(rebuilt, target, atol=1e-8)


def test_is_22_product_false():
    s = SpectralClass((2, 2, 2, 1 / 8))
    ok, witness = is_22_product(s)
    assert not ok and witness is None
    e = elem_sym(s)
    assert abs(e[0] - 49 / 8) < 1e-12
    assert abs(e[2] - 19 / 2) < 1e-12


def test_is_22_product_all_ones():
    ok, witness = is_22_product(SpectralClass((1.0,) * 4))
    assert ok
    a, b = witness
    assert abs(a - 1) < 1e-9 and abs(b - 1) < 1e-9


def test_is_22_product_wrong_size():
    with pytest.raises(WrongSize):
        is_22_product(SpectralClass((1.0, 1.0)))


def test_palindromic_equivalences_at_n4():
    # predicate 1: e1 = e3; predicate 2: inversion-closed multiset;
    # predicate 3: palindromic characteristic polynomial
    def inversion_closed(s, tol=1e-8):
        pool = list(s.eigenvalues)
        for z in s.eigenvalues:
            best = min(range(len(pool)), key=lambda k: abs(pool[k] - 1 / z))
            if abs(pool[best] - 1 / z) > tol * (1 + abs(1 / z)):
                return False
            pool.pop(best)
        return True

    def palindromic(s, tol=1e-8):
        e = elem_sym(s)
        coeffs = [1, -e[0], e[1], -e[2], e[3]]
        return all(abs(c - d) <= tol * (1 + abs(c)) for c, d in zip(coeffs, coeffs[::-1]))

    rng = np.random.default_rng(29)
    for trial in range(40):
        if trial % 2 == 0:
            s = tensor_spectrum(LocalSpectra((random_unit_product(rng, 2), random_unit_product(rng, 2))))
        else:
            s = random_generic(rng, 4)
        p1 = is_22_product(s)[0]
        assert p1 == inversion_closed(s) == palindromic(s)


# ------------------------------------------------------------ (2,2,2) test


def test_quartic_f_all_ones_vector():
    assert abs(quartic_f((8, 28, 56, 70))) < 1e-12


def test_quartic_f_vanishes_without_e1_e3():
    rng = np.random.default_rng(31)
    for _ in range(10):
        e2, e4 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert abs(quartic_f((0.0, e2, 0.0, e4))) < 1e-12


def test_quartic_f_generic_nonzero():
    s = random_generic(np.random.default_rng(37), 8)
    assert abs(quartic_f(elem_sym(s))) > 1e-6


def test_is_222_product_forward():
    rng = np.random.default_rng(41)
    for _ in range(25):
        loc = LocalSpectra(tuple(random_unit_product(rng, 2) for _ in range(3)))
        assert is_222_product(tensor_spectrum(loc))


def test_is_222_product_perturbation_flips():
    rng = np.random.default_rng(43)
    loc = LocalSpectra(tuple(random_unit_product(rng, 2) for _ in range(3)))
    s = tensor_spectrum(loc)
    vals = list(s.eigenvalues)
    vals[0] *= 1.1
    assert not is_222_product(SpectralClass(tuple(vals)))


def test_is_222_product_all_ones_and_wrong_size():
    assert is_222_product(SpectralClass((1.0,) * 8))
    with pytest.raises(WrongSize):
        is_222_product(SpectralClass((1.0,) * 4))


# ---------------------------------------------------- verdicts and margins


def inline_22(s, tol):
    """The (2,2) verdict and margin, each written out with its own formula."""
    e = elem_sym(s)
    return abs(e[0] - e[2]) <= tol * (1.0 + abs(e[0])), abs(e[0] - e[2]) / (1.0 + abs(e[0]))


def inline_222(s, tol):
    """The (2,2,2) verdict and margin, each written out with its own formula."""
    e = elem_sym(s)
    scale = 1.0 + abs(e[2]) ** 2 + 2 * abs(e[0]) * abs(e[2]) + abs(e[0]) ** 4 + (abs(e[3]) + 2 * abs(e[1]) + 1) * abs(e[0]) ** 2
    verdict = abs(quartic_f(e)) <= tol * scale
    worst = 0.0
    for k in (1, 2, 3):
        if abs(e[8 - k - 1] - e[k - 1]) > tol * (1.0 + max(abs(e[k - 1]), abs(e[8 - k - 1]))):
            verdict = False
        worst = max(worst, abs(e[8 - k - 1] - e[k - 1]) / (1.0 + max(abs(e[k - 1]), abs(e[8 - k - 1]))))
    return verdict, max(worst, abs(quartic_f(e)) / scale)


def criteria_cases():
    rng = np.random.default_rng(59)
    for factors, inline, verdict, margin in (
        (2, inline_22, lambda s, tol: is_22_product(s, tol)[0], margin_22),
        (3, inline_222, is_222_product, margin_222),
    ):
        for trial in range(40):
            product = tensor_spectrum(LocalSpectra(tuple(random_unit_product(rng, 2) for _ in range(factors))))
            if trial % 3 == 0:
                s = product
            elif trial % 3 == 1:
                s = random_generic(rng, 2**factors)
            else:  # a product spectrum nudged off the locus by a margin far from 0 and 1
                vals = list(product.eigenvalues)
                vals[0] *= 1 + 10.0 ** rng.uniform(-9, -3)
                s = SpectralClass(tuple(vals))
            yield s, inline, verdict, margin


def test_criteria_verdicts_and_margins_match_inline_formulas():
    near = 0
    for s, inline, verdict, margin in criteria_cases():
        m = margin(s)
        assert m == inline(s, 1e-9)[1]
        assert verdict(s, 1e-9) == inline(s, 1e-9)[0]
        if 0 < m < 1e-3:
            # the margin sits at tol * (1 - 1e-3), at tol exactly, and at tol * (1 + 1e-3)
            for tol, expected in ((m / (1 - 1e-3), True), (m, None), (m / (1 + 1e-3), False)):
                assert verdict(s, tol) == inline(s, tol)[0]
                if expected is not None:
                    assert verdict(s, tol) is expected
            near += 1
    assert near >= 20


def test_222_relations_past_the_float_range_are_refused_never_nan():
    # A first eigenvalue scaled up to 1e300: while every residual and scale is finite the margin is
    # the inline formula's, bit for bit; past that, margin_222 and is_222_product raise OutOfRange.
    rng = np.random.default_rng(383)
    kept = refused = 0
    for k in range(0, 301, 4):
        vals = list(random_generic(rng, 8).eigenvalues)
        vals[0] *= 10.0**k
        s = SpectralClass(tuple(vals))
        try:
            m = margin_222(s)
        except OutOfRange:
            with pytest.raises(OutOfRange):
                is_222_product(s)
            refused += 1
            continue
        assert isfinite(m) and m == inline_222(s, 1e-9)[1], k
        kept += 1
    assert kept >= 20 and refused >= 20, (kept, refused)


def test_margins_need_the_right_size():
    with pytest.raises(WrongSize):
        margin_22(SpectralClass((1.0,) * 8))
    with pytest.raises(WrongSize):
        margin_222(SpectralClass((1.0,) * 4))


# ------------------------------------------------------------------- oracle


def test_oracle_agrees_with_22_criterion():
    rng = np.random.default_rng(47)
    for trial in range(60):
        if trial % 2 == 0:
            s = tensor_spectrum(LocalSpectra((random_unit_product(rng, 2), random_unit_product(rng, 2))))
        else:
            s = random_generic(rng, 4)
        assert (d_product_oracle(s, (2, 2)) is not None) == is_22_product(s)[0]


def test_oracle_agrees_with_222_criterion():
    rng = np.random.default_rng(53)
    for trial in range(30):
        if trial % 2 == 0:
            s = tensor_spectrum(LocalSpectra(tuple(random_unit_product(rng, 2) for _ in range(3))))
        else:
            s = random_generic(rng, 8)
        assert (d_product_oracle(s, (2, 2, 2)) is not None) == is_222_product(s)


def test_oracle_witness_reconstructs_spectrum():
    rng = np.random.default_rng(59)
    loc = LocalSpectra((random_unit_product(rng, 2), random_unit_product(rng, 3)))
    s = tensor_spectrum(loc)
    witness = d_product_oracle(s, (2, 3))
    assert witness is not None
    assert witness.dims == (2, 3)
    rebuilt = tensor_spectrum(witness)
    got = sorted(rebuilt.eigenvalues, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    want = sorted(s.eigenvalues, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    assert np.allclose(got, want, atol=1e-7)


def test_oracle_all_ones():
    loc = d_product_oracle(SpectralClass((1.0,) * 8), (2, 2, 2))
    assert loc is not None
    for factor in loc.factors:
        assert np.allclose(factor, [1.0, 1.0], atol=1e-9)


def test_oracle_bounds():
    with pytest.raises(TooLarge):
        d_product_oracle(SpectralClass((1.0,) * 18), (2, 3, 3))
    with pytest.raises(WrongSize):
        d_product_oracle(SpectralClass((1.0,) * 4), (2, 2, 2))


# --------------------------------------------------------------- sphericity


def test_sphericity_examples():
    assert sphericity_check((2, 2))
    assert not sphericity_check((2, 3))
    assert not sphericity_check((2, 2, 2))
    with pytest.raises(OutOfRange):
        sphericity_check((2,))
    with pytest.raises(OutOfRange):
        sphericity_check((1, 4))


def test_sphericity_only_two_two_up_to_64():
    def types(n_max):
        def rec(prefix, lo, budget):
            for d in range(lo, budget + 1):
                yield prefix + (d,)
                yield from rec(prefix + (d,), d, budget // d)
        yield from rec((), 2, n_max)

    winners = [t for t in types(64) if len(t) >= 2 and prod(t) <= 64 and sphericity_check(t)]
    assert winners == [(2, 2)]


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(1, float("-inf"))], ids=["nan", "inf", "-inf-imag"])
def test_non_finite_eigenvalues_rejected(bad):
    with pytest.raises(NonFinite):
        SpectralClass((bad, 1, 1, 1))
    with pytest.raises(NonFinite):
        LocalSpectra(((1, 1), (bad, 1)))


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_eigenvalue_product_out_of_range_rejected(scale):
    with pytest.raises(OutOfRange):
        SpectralClass((scale,) * 4)
