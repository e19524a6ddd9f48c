"""Elliptic layer: series coefficients against quadrature, AGM against scipy,
Landen evaluation against scipy.special.ellipj, poles, periods."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from elliptic_sl2.elliptic import (
    asn_series,
    complete_K,
    complete_Kprime,
    elliptic_constants,
    jacobi_numeric,
    periods,
    sn_cn_dn_series,
    sn_quintic_crosscheck,
)
from elliptic_sl2.errors import DomainError, PoleError


def test_integrand_quartic_coefficient_hand_convolution():
    # (1-t^2)^(-1/2)(1-k^2 t^2)^(-1/2), t^4 coefficient at k^2 = 1/2:
    # 3/8 + k^2/4 + 3 k^4/8 = 19/32, done by hand
    k = math.sqrt(0.5)
    s = asn_series(k, 6)
    # the t^4 integrand coefficient lands on the u^5 slot divided by 5
    assert abs(s.coeffs[5] * 5 - 19 / 32) < 1e-15


@pytest.mark.parametrize("k", [0.0, 0.3, 0.6, 0.95, 1.0])
def test_arcsn_cubic_and_quintic_coefficients(k):
    s = asn_series(k, 6)
    k2 = k * k
    assert abs(s.coeffs[3] - (1 + k2) / 6) < 1e-15
    assert abs(s.coeffs[5] - (9 + 6 * k2 + 9 * k2 * k2) / 120) < 1e-15
    assert np.all(s.coeffs[0::2] == 0.0)


@pytest.mark.parametrize("k", [0.0, 0.3, 0.6, 0.95, 1.0])
def test_sn_cubic_and_quintic_coefficients(k):
    sn, cn, dn = sn_cn_dn_series(k, 6)
    k2 = k * k
    assert abs(sn.coeffs[1] - 1.0) < 1e-15
    assert abs(sn.coeffs[3] + (1 + k2) / 6) < 1e-15
    assert abs(sn.coeffs[5] - (1 + 14 * k2 + k2 * k2) / 120) < 1e-14
    assert abs(cn.coeffs[0] - 1.0) < 1e-15
    assert abs(cn.coeffs[2] + 0.5) < 1e-15
    assert abs(dn.coeffs[2] + k2 / 2) < 1e-15


def test_sn_quintic_crosscheck_flags_the_right_variant():
    report = sn_quintic_crosscheck(0.5)
    assert report["matches_variant_b"] is True
    assert report["matches_variant_a"] is False
    # the two variants only collide where k = k^2
    report01 = sn_quintic_crosscheck(1.0)
    assert report01["matches_variant_a"] is True


def test_arcsn_series_matches_quadrature():
    k = 0.7
    s = asn_series(k, 24)
    for v in (0.05, 0.15, 0.3):
        val, err = scipy.integrate.quad(
            lambda t: 1.0 / math.sqrt((1 - t * t) * (1 - k * k * t * t)), 0.0, v)
        assert err < 1e-12
        assert abs(s.eval(v) - val) < 1e-12


def test_complete_K_special_values():
    assert abs(complete_K(0.0) - math.pi / 2) < 1e-15
    k = 1 / math.sqrt(2)
    val, err = scipy.integrate.quad(
        lambda t: 1.0 / math.sqrt((1 - t * t) * (1 - k * k * t * t)), 0.0, 1.0)
    assert abs(complete_K(k) - val) < 1e-9 + err
    # scipy parametrizes by m = k^2
    for kk in (0.1, 0.5, 0.9, 0.99):
        assert abs(complete_K(kk) - scipy.special.ellipk(kk * kk)) < 1e-13


def test_Kprime_self_duality():
    for k in (0.2, 0.5, 0.8):
        kp = math.sqrt(1 - k * k)
        assert abs(complete_Kprime(k) - complete_K(kp)) < 1e-12
        assert abs(complete_Kprime(kp) - complete_K(k)) < 1e-12


@pytest.mark.parametrize("k", [1e-12, 1e-9, 5e-9, 1.2e-8, 1e-7, 1e-3, 0.6, 0.99, 1.0])
def test_Kprime_matches_mpmath_down_to_tiny_moduli(k):
    # K'(k) = K(m = 1 - k**2) in mpmath's parameter convention; at k = 1e-9
    # the old route rounded k' = sqrt(1 - k**2) to 1 and refused it.
    with mpmath.workdps(40):
        ref = mpmath.ellipk(1 - mpmath.mpf(k) ** 2)
        assert abs(complete_Kprime(k) - ref) / ref <= 5e-16


def test_domain_errors():
    with pytest.raises(DomainError):
        complete_K(1.0)
    with pytest.raises(DomainError):
        complete_K(-0.1)
    with pytest.raises(DomainError):
        complete_Kprime(0.0)
    with pytest.raises(DomainError):
        jacobi_numeric(0.3, 1.0)
    with pytest.raises(DomainError):
        periods(0.0)


def test_jacobi_numeric_against_scipy_on_the_real_line():
    rng = np.random.default_rng(11)
    for k in (0.0, 0.25, 0.6, 0.9):
        for u in rng.uniform(-4, 4, size=12):
            sn, cn, dn = jacobi_numeric(u, k)
            sn_s, cn_s, dn_s, _ = scipy.special.ellipj(u, k * k)
            assert abs(sn - sn_s) < 1e-12
            assert abs(cn - cn_s) < 1e-12
            assert abs(dn - dn_s) < 1e-12


def test_series_matches_numeric_for_small_arguments():
    for k in (0.0, 0.4, 0.8):
        sn, cn, dn = sn_cn_dn_series(k, 21)
        for u in (0.05, 0.2, 0.4 + 0.1j):
            n_sn, n_cn, n_dn = jacobi_numeric(u, k)
            assert abs(sn.eval(u) - n_sn) < 1e-10
            assert abs(cn.eval(u) - n_cn) < 1e-10
            assert abs(dn.eval(u) - n_dn) < 1e-10


def test_trigonometric_degeneration_at_k0():
    for u in (0.3, 1.2, 0.5 + 0.2j):
        sn, cn, dn = jacobi_numeric(u, 0.0)
        assert abs(sn - np.sin(u)) < 1e-14
        assert abs(cn - np.cos(u)) < 1e-14
        assert abs(dn - 1.0) < 1e-15


def test_hyperbolic_degeneration_near_k1():
    k = 1.0 - 1e-6
    for u in (0.2, 0.7, 1.3):
        sn, _, _ = jacobi_numeric(u, k)
        assert abs(sn - math.tanh(u)) < 1e-4


def test_pole_raises():
    k = 0.6
    kp = complete_Kprime(k)
    with pytest.raises(PoleError):
        jacobi_numeric(1j * kp, k)


def test_pythagorean_identities_for_complex_arguments():
    rng = np.random.default_rng(5)
    k = 0.55
    for _ in range(20):
        u = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        sn, cn, dn = jacobi_numeric(u, k)
        scale = max(1.0, abs(sn) ** 2)
        assert abs(sn * sn + cn * cn - 1.0) / scale < 1e-12
        assert abs(dn * dn + k * k * sn * sn - 1.0) / scale < 1e-12


def test_period_table_and_numeric_periodicity():
    k = 0.6
    table = periods(k)
    K, Kp = complete_K(k), complete_Kprime(k)
    assert table["sn"] == (complex(4 * K), 2j * Kp)
    assert table["cn"] == (complex(4 * K), 2 * complex(K, Kp))
    assert table["dn"] == (complex(2 * K), 4j * Kp)
    u = 0.37 + 0.21j
    base = jacobi_numeric(u, k)
    for i, name in enumerate(("sn", "cn", "dn")):
        for period in table[name]:
            shifted = jacobi_numeric(u + period, k)
            assert abs(shifted[i] - base[i]) < 1e-9


def test_elliptic_constants_bundle():
    c = elliptic_constants(0.5)
    assert c.k == 0.5
    assert abs(c.K - complete_K(0.5)) == 0.0
    assert set(c.period_table) == {"sn", "cn", "dn"}
    j = c.to_json()
    assert j["k"] == 0.5
