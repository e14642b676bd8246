"""Symmetries of the spectral and splitting-type verdicts, on seeded cases.

A spectral class is a multiset, and z -> 1/z maps products of local
spectra to products of the inverted local spectra. So permuting the
eigenvalues or inverting them must leave the (2,2) and (2,2,2) criteria
and the slot oracle's verdict unchanged. A splitting type factors as
{b_i + c_j + t} for shape d_a x d_b iff its translate factors with t
moved by the shift, and iff it factors for shape d_b x d_a.
"""

import cmath

import numpy as np
import pytest

from egeo import (
    LocalSpectra,
    SpectralClass,
    SplittingType,
    d_product_oracle,
    factor_sumset,
    is_22_product,
    is_222_product,
    tensor_spectrum,
)
from egeo.spectral_satake import SPECTRAL_TOL, margin_22, margin_222

SATAKE_CASES = {2: 200, 3: 100}
SATAKE_CRITERIA = {2: (lambda s: is_22_product(s)[0], margin_22), 3: (is_222_product, margin_222)}


def unit_circle_jitter(rng):
    """A nonzero complex number: log-normal modulus around 1, uniform phase."""
    return cmath.exp(complex(rng.normal(scale=0.5), rng.uniform(0, 2 * cmath.pi)))


def satake_case(rng, factors, planted_product):
    if planted_product:
        z = [unit_circle_jitter(rng) for _ in range(factors)]
        return tensor_spectrum(LocalSpectra(tuple((a, 1 / a) for a in z)))
    return SpectralClass(tuple(unit_circle_jitter(rng) for _ in range(2**factors)))


@pytest.mark.parametrize("factors", [2, 3], ids=["2x2", "2x2x2"])
def test_satake_verdicts_ignore_eigenvalue_order_and_inversion(factors):
    criterion, margin = SATAKE_CRITERIA[factors]
    dims = (2,) * factors
    rng = np.random.default_rng([31, factors])
    skipped = 0
    for trial in range(SATAKE_CASES[factors]):
        s = satake_case(rng, factors, planted_product=trial % 2 == 0)
        zs = s.eigenvalues
        variants = [
            s,
            SpectralClass(tuple(zs[k] for k in rng.permutation(len(zs)))),
            SpectralClass(tuple(1 / z for z in zs)),
        ]
        if any(SPECTRAL_TOL / 10 <= margin(v) <= SPECTRAL_TOL * 10 for v in variants):
            skipped += 1
            continue
        verdicts = {(criterion(v), d_product_oracle(v, dims) is not None) for v in variants}
        assert verdicts == {(trial % 2 == 0,) * 2}, (trial, verdicts)
    assert skipped <= SATAKE_CASES[factors] // 10


def planted_degrees(rng, d_a, d_b):
    b = [0, *(int(x) for x in rng.integers(0, 7, d_a - 1))]
    c = [0, *(int(x) for x in rng.integers(0, 7, d_b - 1))]
    t = int(rng.integers(-5, 6))
    return [x + y + t for x in b for y in c]


@pytest.mark.parametrize("d_a,d_b", [(2, 3), (3, 2), (3, 3), (2, 4)])
def test_sumset_factorization_commutes_with_translation_and_transposition(d_a, d_b):
    rng = np.random.default_rng([37, d_a, d_b])
    irreducible = 0
    for trial in range(100):
        degrees = planted_degrees(rng, d_a, d_b)
        if trial % 2:  # the same multiset with one degree moved by one
            degrees[int(rng.integers(len(degrees)))] += int(rng.choice([-1, 1]))
        a = SplittingType(tuple(degrees))
        shift = int(rng.integers(-20, 21))
        found = factor_sumset(a, d_a, d_b)
        shifted = factor_sumset(a.shifted(shift), d_a, d_b)
        swapped = factor_sumset(a, d_b, d_a)
        assert (found is None) == (shifted is None) == (swapped is None), (trial, a)
        if trial % 2 == 0:
            assert found is not None, (trial, a)
        if found is None:
            irreducible += 1
            continue
        assert shifted.t == found.t + shift
        assert found.recombine() == swapped.recombine() == a.degrees
        assert shifted.recombine() == a.shifted(shift).degrees
    assert irreducible > 0
