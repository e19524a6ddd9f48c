"""Elliptic layer: series coefficients against quadrature, AGM against scipy,
Landen evaluation against scipy.special.ellipj, poles, periods."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from elliptic_sl2 import elliptic
from elliptic_sl2.elliptic import (
    asn_series,
    complete_K,
    complete_Kprime,
    jacobi_numeric,
    periods,
    sn_cn_dn_coeffs,
    sn_cn_dn_series,
    sd_cd_nd_coeffs,
    sd_cd_nd_series,
    sn_quintic_crosscheck,
)
from elliptic_sl2.errors import DomainError, PoleError
from reference_landen import landen_scalar


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


K2_EXACT = [Fraction(9, 25), Fraction(1), Fraction(0)]


@pytest.mark.parametrize("k2", K2_EXACT)
def test_sn_cn_dn_within_1e14_of_the_exact_coefficients_at_order_161(k2):
    exact = sn_cn_dn_coeffs(k2, 161)
    worst = 0.0
    for e, got in zip(exact, sn_cn_dn_series(math.sqrt(k2), 161)):
        for ec, gc in zip(e, got.coeffs):
            if ec == 0:
                assert gc == 0
            else:
                worst = max(worst, abs(gc - float(ec)) / abs(float(ec)))
    assert worst <= 1e-14


def _times(a, b):
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(len(a))]


@pytest.mark.parametrize("k2", K2_EXACT)
def test_exact_sn_cn_dn_keep_both_quadratic_identities(k2):
    """sn^2 + cn^2 = 1 and k^2 sn^2 + dn^2 = 1, exactly in Fractions: the
    differential equations conserve both, so an index slip in the
    recurrence breaks them."""
    sn, cn, dn = sn_cn_dn_coeffs(k2, 41)
    one = [1] + [0] * 41
    sn2 = _times(sn, sn)
    assert [a + b for a, b in zip(sn2, _times(cn, cn))] == one
    assert [k2 * a + b for a, b in zip(sn2, _times(dn, dn))] == one


def test_exact_sn_cn_at_zero_modulus_are_sine_and_cosine():
    sn, cn, dn = sn_cn_dn_coeffs(Fraction(0), 161)
    for i in range(162):
        term = Fraction((-1) ** (i // 2), math.factorial(i))
        assert sn[i] == (term if i % 2 else 0)
        assert cn[i] == (0 if i % 2 else term)
    assert dn == [1] + [0] * 161


@pytest.mark.parametrize("k2", K2_EXACT)
def test_exact_sd_cd_nd_times_dn_are_sn_cn_and_one(k2):
    sn, cn, dn = sn_cn_dn_coeffs(k2, 41)
    sd, cd, nd = sd_cd_nd_coeffs(k2, 41)
    assert _times(sd, dn) == sn
    assert _times(cd, dn) == cn
    assert _times(nd, dn) == [1] + [0] * 41


@pytest.mark.parametrize("k2", K2_EXACT)
def test_sd_cd_nd_keep_their_digits_at_a_doubled_argument_to_order_161(k2):
    """Coefficient i of f(2u) is 2**i times that of f(u); the float series
    stay within 1e-15 of the exact ones there, relative to the largest."""
    twos = [2 ** i for i in range(162)]
    for e, got in zip(sd_cd_nd_coeffs(k2, 161), sd_cd_nd_series(math.sqrt(k2), 161)):
        exact = np.array([float(c * t) for c, t in zip(e, twos)])
        assert np.all(got.coeffs[exact == 0] == 0)
        gap = np.max(np.abs(got.coeffs * np.array(twos, dtype=float) - exact))
        assert gap <= 1e-15 * max(1.0, np.max(np.abs(exact)))


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


@pytest.mark.parametrize("k", [0.0, 0.08, 0.5, 0.9])
def test_array_kernel_matches_the_scalar_landen_loop(k):
    """Agreement on a grid of complex u that clears the lattice's zeros and
    poles, with heights on either side of K' and 2K' (at k = 0 there are no
    imaginary periods, and the heights are plain numbers).

    Each gap is bounded by 1e-14 |f| + 4 eps |u| |f'(u)|, with f' from
    sn' = cn dn, cn' = -sn dn and dn' = -k**2 sn cn on the reference.  The
    second term is what a change of the argument by 4 ulps moves f by: the
    two evaluations round the argument differently on its way down the
    Landen ladder (one product per step) and through sin and cos, and near a
    zero of f that alone is about 1e-14 of f (at k = 0.08 the worst point
    has |u f'/f| = 22).  Elsewhere it is a few eps of f, so a relative error
    of 1e-12 still fails."""
    K = complete_K(k)
    Kp = complete_Kprime(k) if k else 1.0
    x = np.linspace(-1.9 * K, 3.1 * K, 23)
    y = Kp * np.array([-2.05, -1.95, -1.05, -0.95, -0.5, 0.0, 0.3, 0.95, 1.05, 1.5, 1.95, 2.05])
    u = x[:, None] + 1j * y[None, :]
    got = jacobi_numeric(u, k)
    ref = np.array([landen_scalar(z, k) for z in u.ravel().tolist()]).T.reshape(3, *u.shape)
    sn, cn, dn = ref
    eps = np.finfo(float).eps
    for g, r, deriv in zip(got, ref, (cn * dn, -sn * dn, -(k * k) * sn * cn)):
        assert g.shape == u.shape and g.dtype == complex
        assert np.all(abs(g - r) <= 1e-14 * abs(r) + 4 * eps * abs(u) * abs(deriv))


def test_one_pole_point_fails_the_whole_array():
    k = 0.6
    Kp = complete_Kprime(k)
    with pytest.raises(PoleError):
        jacobi_numeric(np.array([0.3 + 0.1j, 1j * Kp, 0.5]), k)
    with pytest.raises(PoleError):
        jacobi_numeric(np.array([0.3, 1j * Kp * (1 + 1e-16)]), k)
    assert jacobi_numeric(np.array([0.3, 1j * Kp * (1 + 1e-3)]), k)[0].shape == (2,)


def test_scalar_call_returns_python_complex_numbers():
    for u in (0.3, 0.3 + 0.2j, np.complex128(0.3 + 0.2j), np.float64(0.7)):
        values = jacobi_numeric(u, 0.6)
        assert all(type(w) is complex for w in values)
        assert max(abs(a - b) for a, b in zip(values, landen_scalar(u, 0.6))) <= 1e-15


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


def _sweep_rows(k, n):
    """The six rows of points `autos.scalar_shift_identities` evaluates."""
    K, Kp = complete_K(k), complete_Kprime(k)
    x, y = np.random.default_rng(20260818).uniform((0.2, 0.1), (0.8, 0.4), size=(n, 2)).T
    u = x * K + 1j * (y * Kp)
    return np.stack([u, u + 1j * Kp, u + 2 * K + 1j * Kp, u + 4 * K, u + 2 * K, u - 1j * Kp])


@pytest.mark.parametrize("k", [0.002, 0.006, 0.02])
def test_small_moduli_keep_their_digits_above_the_real_axis(k):
    """Against mpmath at the elliptic sweep's points; the descent alone was
    1.4e-8 off at u + i K' for k = 0.002."""
    rows = _sweep_rows(k, 12)
    with mpmath.workdps(30):
        m = mpmath.mpf(k) ** 2
        for name, values in zip(("sn", "cn", "dn"), jacobi_numeric(rows, k)):
            for z, v in zip(rows.ravel().tolist(), values.ravel().tolist()):
                ref = complex(mpmath.ellipfun(name, mpmath.mpc(z.real, z.imag), m=m))
                assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref)), (name, z)


@pytest.mark.parametrize("k", [0.0, 0.05, 0.1, 0.5, 0.6, 0.9])
def test_the_descent_keeps_its_bits_outside_the_transformed_band(k):
    """From k = 0.1 on, and at every k within K'/2 of the real axis, each
    point takes the plain descent, bit for bit."""
    rows = _sweep_rows(k, 8) if k else np.linspace(0.1, 3.0, 8) * (1 + 0.5j)
    got = jacobi_numeric(rows, k)
    descent = elliptic._landen(rows, elliptic._modulus_ladder(k))
    near = np.ones(rows.shape, bool)
    if 0 < k < 0.1:
        near = np.abs(rows.imag) <= 0.5 * complete_Kprime(k)
    assert near.any()
    for g, d in zip(got, descent):
        assert np.array_equal(g[near], d[near])
        assert not np.array_equal(g[~near], d[~near]) or near.all()
