"""Truncated power series: arithmetic, composition, reversion, rational powers."""

import math
from fractions import Fraction

import numpy as np
import pytest

from elliptic_sl2.elliptic import asn_series, sn_cn_dn_series
from elliptic_sl2.errors import DomainError
from elliptic_sl2.series import TruncatedSeries, exp_series, pow_coeffs, power_table


def series(*coeffs):
    return TruncatedSeries(np.array(coeffs, dtype=complex))


def test_identity_and_constant():
    u = TruncatedSeries.identity(4)
    assert u.order == 4
    assert u.coeffs[1] == 1.0 and u.coeffs[0] == 0.0
    c = TruncatedSeries.constant(2.5, 3)
    assert c.coeffs[0] == 2.5
    assert np.all(c.coeffs[1:] == 0.0)


def test_mul_truncates_to_min_order():
    a = series(1, 1, 1)          # order 2
    b = series(1, -1, 0, 0, 0)   # order 4
    prod = a * b
    assert prod.order == 2
    # (1 + u + u^2)(1 - u) = 1 + 0 u + 0 u^2 - u^3 -> truncated
    assert np.allclose(prod.coeffs, [1, 0, 0])


def test_scalar_ops():
    a = series(0, 1, 2)
    assert np.allclose((2.0 * a).coeffs, [0, 2, 4])
    assert np.allclose((a - 1.0).coeffs, [-1, 1, 2])
    assert np.allclose((1.0 - a).coeffs, [1, -1, -2])


def test_compose_requires_zero_constant_inner():
    outer = series(1, 1, 1)
    with pytest.raises(DomainError):
        outer.compose(series(1, 1, 0))


def test_compose_matches_polynomial_identity():
    # (1 + v)^2 at v = u + u^2: 1 + 2u + 3u^2 + 2u^3 + u^4
    outer = series(1, 2, 1, 0, 0)
    inner = series(0, 1, 1, 0, 0)
    got = outer.compose(inner)
    assert np.allclose(got.coeffs, [1, 2, 3, 2, 1])


def horner_compose(outer, inner):
    """outer(inner) by Horner in inner, one truncated product per
    coefficient: the reference composition."""
    n = min(outer.order, inner.order)
    g = inner.truncated(n)
    acc = TruncatedSeries.constant(outer.coeffs[n], n)
    for i in range(n - 1, -1, -1):
        acc = acc * g + outer.coeffs[i]
    return acc


def _composition_pairs(n, rng):
    """(outer, inner) pairs at order n: exp at +-2 arctanh and sn at arcsn
    (the coassociativity identities), arctanh at sn (the pullback
    `hopf._x_from_factor_sn` makes), and random real and complex series."""
    yield exp_series(n), 2.0 * asn_series(1.0, n)
    yield exp_series(n), -2.0 * asn_series(1.0, n)
    yield sn_cn_dn_series(0.6, n)[0], asn_series(0.6, n)
    yield asn_series(1.0, n), sn_cn_dn_series(0.6, n)[0]
    for i in (0, 1j):       # real, then complex
        outer, inner = ((rng.standard_normal(n + 1) + i * rng.standard_normal(n + 1))
                        / np.arange(1, n + 2) for _ in range(2))
        inner[0] = 0.0
        yield TruncatedSeries(outer), TruncatedSeries(inner)


@pytest.mark.parametrize("n", [1, 2, 12, 40, 80, 201])
def test_power_table_composition_matches_horner(n):
    """Each coefficient of the power-table composition is within 1e-15 of
    Horner's, relative to max(1, the composition of the absolute values);
    n = 201 is the largest order `hopf verify` composes at (j = 100)."""
    from elliptic_sl2.hopf import _term_sizes

    rng = np.random.default_rng(n)
    for outer, inner in _composition_pairs(n, rng):
        got, ref = outer.compose(inner), horner_compose(outer, inner)
        assert got.order == ref.order == n
        gap = np.abs(got.coeffs - ref.coeffs) / np.maximum(1.0, _term_sizes(outer, inner))
        assert np.max(gap) <= 1e-15, (n, np.max(gap))


def test_the_pullback_has_no_digits_at_its_top_orders_by_either_route():
    """arctanh(sn(u, 0.6)) at n = 201: the absolute values compose to about
    9e12 at the top orders, where the coefficients are about 1e-4, so
    rounding alone leaves no digits there.  The two routes differ by at most
    3.1e-4 (at order 201, where Horner gives 1.5e-4); a 400-bit composition
    of the same inputs puts the power table 3.8e-4 and Horner 7.1e-5 from
    the exact coefficients.  The bound pins that loss."""
    outer, inner = asn_series(1.0, 201), sn_cn_dn_series(0.6, 201)[0]
    gap = np.abs(outer.compose(inner).coeffs - horner_compose(outer, inner).coeffs)
    assert np.max(gap) <= 4e-4


def test_power_table_rows_are_successive_products():
    """Row r is row r - 1 times the multiplication matrix, bit for bit, the
    kernel `liealg` takes one-factor powers from; the powers of -a are the
    rows times (-1)**r exactly; the table keeps a's dtype."""
    rng = np.random.default_rng(11)
    for a in (rng.standard_normal(9), rng.standard_normal(9) + 1j * rng.standard_normal(9)):
        a[0] = 0.0
        table = power_table(a)
        assert table.dtype == a.dtype and table.shape == (9, 9)
        times_a = np.array([[a[c - r] if c >= r else 0 for c in range(9)] for r in range(9)])
        expect = np.eye(9, dtype=a.dtype)[:1]
        for _ in range(8):
            expect = np.vstack([expect, expect[-1] @ times_a])
        assert np.array_equal(table, expect)
        assert np.array_equal(power_table(-a), table * (-1.0) ** np.arange(9)[:, None])
    assert np.array_equal(power_table(np.zeros(1)), [[1.0]])
    with pytest.raises(DomainError, match="zero constant term"):
        power_table(np.array([1e-300, 1.0]))


def test_revert_arcsin_gives_sin():
    n = 11
    u = TruncatedSeries.identity(n)
    integrand = (1.0 - u * u).pow_rational(-0.5)
    arcsin = np.zeros(n + 1, dtype=complex)
    arcsin[1:] = integrand.coeffs[:-1] / np.arange(1, n + 1)
    sin = TruncatedSeries(arcsin).revert()
    for i in range(n + 1):
        expect = 0.0
        if i % 2 == 1:
            expect = (-1) ** (i // 2) / math.factorial(i)
        assert abs(sin.coeffs[i] - expect) < 1e-15


def test_revert_roundtrip_random_series():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(3, 12))
        coeffs = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        coeffs[0] = 0.0
        coeffs[1] = 1.0 + abs(coeffs[1])  # keep the linear term well away from 0
        s = TruncatedSeries(coeffs)
        t = s.revert()
        back = s.compose(t)
        ident = TruncatedSeries.identity(n)
        assert np.max(np.abs(back.coeffs - ident.coeffs)) < 1e-12
        assert np.max(np.abs(t.revert().coeffs - s.coeffs)) < 1e-10


def test_revert_rejects_bad_series():
    with pytest.raises(DomainError):
        TruncatedSeries([0.0]).revert()
    with pytest.raises(DomainError):
        series(1, 1).revert()
    with pytest.raises(DomainError):
        series(0, 0, 1).revert()


def test_pow_rational_square_root_squares_back():
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(9)
    coeffs[0] = 1.0
    s = TruncatedSeries(coeffs.astype(complex))
    r = s.pow_rational(0.5)
    assert np.max(np.abs((r * r).coeffs - s.coeffs)) < 1e-12


def test_pow_rational_inverse():
    s = series(1, 3, -2, 1, 5)
    inv = s.pow_rational(-1)
    prod = s * inv
    assert abs(prod.coeffs[0] - 1.0) < 1e-15
    assert np.max(np.abs(prod.coeffs[1:])) < 1e-13


def _binomial(p, m):
    """C(p, m) for a Fraction p, exactly."""
    out = Fraction(1)
    for i in range(m):
        out = out * (p - i) / (i + 1)
    return out


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 4),
                               Fraction(-1, 4), Fraction(-1), Fraction(-2), Fraction(3)])
def test_miller_powers_match_the_exact_binomial_coefficients_at_order_81(p):
    order, c = 81, Fraction(-9, 25)
    a = [Fraction(1), c] + [Fraction(0)] * (order - 1)        # 1 + c u
    exact = [_binomial(p, m) * c ** m for m in range(order + 1)]
    assert pow_coeffs(a, p) == exact
    got = series(*map(float, a)).pow_rational(p).coeffs
    worst = max(abs(g - float(e)) / abs(float(e)) for g, e in zip(got, exact) if e)
    assert worst <= 1e-14
    assert all(g == 0 for g, e in zip(got, exact) if not e)


def test_miller_power_with_an_int_leading_one_stays_in_fractions():
    """An int a[0] beside Fractions: every coefficient, including those no
    term reaches, is an exact Fraction."""
    b = pow_coeffs([1, Fraction(0), Fraction(-1, 3)], Fraction(1, 4))
    assert all(type(c) is Fraction for c in b[1:]) and b == [1, 0, Fraction(-1, 12)]
    b = pow_coeffs([1] + [Fraction(0), Fraction(-9, 25)] * 4, Fraction(-1, 2))
    assert all(type(c) is Fraction for c in b[1:])
    assert b[1::2] == [0] * 4 and b[2] == Fraction(9, 50)


def test_miller_power_of_a_dense_series_is_exact_in_fractions():
    a = [Fraction(1), Fraction(2, 3), Fraction(-5, 7), Fraction(1, 11), Fraction(4), Fraction(-1, 2)]
    b = pow_coeffs(a, Fraction(-1, 2))                       # b**2 a = 1
    bb = [sum(b[i] * b[m - i] for i in range(m + 1)) for m in range(len(a))]
    bba = [sum(bb[i] * a[m - i] for i in range(m + 1)) for m in range(len(a))]
    assert bba == [1, 0, 0, 0, 0, 0]


def test_pow_rational_requires_unit_constant():
    with pytest.raises(DomainError):
        series(2, 1).pow_rational(0.5)


def test_deriv_and_eval():
    s = series(1, 0, 3, -4)  # 1 + 3u^2 - 4u^3
    d = s.deriv()
    assert np.allclose(d.coeffs, [0, 6, -12])
    z = 0.3 + 0.1j
    assert abs(s.eval(z) - (1 + 3 * z ** 2 - 4 * z ** 3)) < 1e-15


def test_parity_is_exact_under_products():
    # odd * odd -> even with odd slots exactly zero, no tolerance
    rng = np.random.default_rng(3)
    coeffs = np.zeros(13, dtype=complex)
    coeffs[1::2] = rng.standard_normal(6)
    odd = TruncatedSeries(coeffs)
    even = odd * odd
    assert np.all(even.coeffs[1::2] == 0.0)


def test_elementary_builders():
    n = 12
    e = exp_series(n)
    for i in range(n + 1):
        assert abs(e.coeffs[i] - 1.0 / math.factorial(i)) < 1e-16


# tanh and arctanh are sn and arcsn at k = 1.

def _tanh(n):
    return sn_cn_dn_series(1.0, n)[0]


@pytest.mark.parametrize("n", [1, 2, 9, 40, 161])
def test_arcsn_at_unit_modulus_is_the_arctanh_closed_form(n):
    c = asn_series(1.0, n).coeffs
    assert np.all(c[::2] == 0.0)
    assert all(c[i] == 1.0 / i for i in range(1, n + 1, 2))


def test_tanh_and_arctanh_are_mutually_inverse():
    n = 11
    t = _tanh(n)
    expect = [0, 1, 0, -1 / 3, 0, 2 / 15, 0, -17 / 315]
    assert np.max(np.abs(t.coeffs[: len(expect)] - expect)) < 1e-14
    comp = asn_series(1.0, n).compose(t)
    ident = TruncatedSeries.identity(n)
    assert np.max(np.abs(comp.coeffs - ident.coeffs)) < 1e-13


def _bernoulli(n):
    """Exact Bernoulli numbers B_0..B_n (B_1 = -1/2)."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, i) * b[i] for i in range(m)) / (m + 1))
    return b


def test_tanh_matches_the_exact_bernoulli_coefficients_at_order_81():
    order = 81
    b = _bernoulli(order + 1)
    t = _tanh(order).coeffs
    assert np.all(t[::2] == 0.0)
    worst = 0.0
    for n in range(1, (order + 1) // 2 + 1):
        exact = Fraction(2 ** (2 * n) * (2 ** (2 * n) - 1)) * b[2 * n] / math.factorial(2 * n)
        worst = max(worst, abs(t[2 * n - 1] - float(exact)) / abs(float(exact)))
    assert worst <= 2e-15


@pytest.mark.parametrize("n", [0, 1, 2, 3, 9, 21])
def test_tanh_recurrence_agrees_with_the_reverted_arctanh(n):
    if n == 0:  # neither series has an order-0 form
        for build in (sn_cn_dn_series, asn_series):
            with pytest.raises(DomainError):
                build(1.0, n)
        return
    t = _tanh(n)
    assert t.order == n
    ref = asn_series(1.0, n).revert()
    assert np.max(np.abs(t.coeffs - ref.coeffs)) <= 1e-15
