"""Jacobi elliptic functions on two independent rails.

Rail one is formal: truncated power series for sn, cn, dn and the inverse
function arcsn about the origin, valid for any complex modulus k since the
coefficients are polynomial in k**2.  arcsn integrates the Miller power
((1-t**2)(1-k**2 t**2))**(-1/2).  sn, cn and dn solve

    sn' = cn dn,   cn' = -sn dn,   dn' = -k**2 sn cn,

one coefficient at a time (Brent and Kung, J. ACM 25(4), 1978), in
O(N**2) work; sd, cd and nd solve a system of the same shape, and one loop
over plain coefficient lists makes both, so a Fraction k**2 gives the exact
coefficients.  No reversion is involved; reverting arcsn is the tests'
independent check of sn.  At k = 1, sn is tanh and arcsn is arctanh (its
coefficients exactly 1/(2i+1)), so the Jordanian algebra needs no series of
its own.

Rail two is numeric: complete integrals via the arithmetic-geometric mean
and point values via the descending Landen transformation,

    kappa' = sqrt(1 - kappa**2),  next = (1 - kappa')/(1 + kappa'),

iterated until the modulus drops below 1e-15, closed trigonometric forms at
the bottom, then the exact ascent

    sn = (1 + kappa) sn1 / (1 + kappa sn1**2)
    cn = cn1 dn1 / (1 + kappa sn1**2)
    dn = (1 - kappa sn1**2) / (1 + kappa sn1**2).

The ascent is rational, so complex arguments (needed near u = i K') pass
through unchanged, and every step acts elementwise, so one call evaluates
a whole array of arguments.  At small k that route loses digits with the
height |Im u| (1.4e-8 at u + i K', k = 0.002), so there the points far from
the real axis go through Jacobi's imaginary transformation (DLMF 22.6.12),

    sn(u, k) = i sc(-i u, k'),   cn(u, k) = nc(-i u, k'),   dn(u, k) = dc(-i u, k'),

which puts them near the real axis of the complementary modulus.  The two
rails never share code; tests play them against each other as mutual
oracles.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PoleError
from .series import TruncatedSeries, pow_coeffs

__all__ = [
    "asn_series",
    "sn_cn_dn_series",
    "sn_cn_dn_coeffs",
    "sd_cd_nd_series",
    "sd_cd_nd_coeffs",
    "complete_K",
    "complete_Kprime",
    "jacobi_numeric",
    "periods",
    "sn_quintic_crosscheck",
]

_LANDEN_FLOOR = 1e-15
_AGM_RTOL = 1e-15
# jacobi_numeric takes the imaginary transformation at 0 < k < _IMAGINARY_K
# for points with |Im u| > K'/2.  Against mpmath (30 digits, 12 points per
# band of 0.2 K' in height up to 2 K'), the descent's worst error grows with
# the height, 10**-10.4 at 0.9 K' and k = 0.005 and 10**-9.5 at 1.9 K' and
# k = 0.05, while the transformation's stays near 10**-14; from k = 0.1 on the
# descent is as good or better below 0.9 K', and at k = 0.6 the transformation
# is two digits worse everywhere.
_IMAGINARY_K = 0.1


def asn_series(k, order):
    """Series of arcsn(v, k) = integral_0^v ((1-t^2)(1-k^2 t^2))**(-1/2) dt."""
    if order < 1:
        raise DomainError("arcsn series needs order >= 1")
    k = complex(k)
    k2 = k * k
    radicand = ([1, 0, -1 - k2, 0, k2] + [0] * order)[:order]
    return TruncatedSeries(pow_coeffs(radicand, -0.5)).integral()


def _jacobi_system_coeffs(alpha, beta, order):
    """Coefficient lists to order N of the solution of

        x' = y z,   y' = -alpha x z,   z' = beta x y,   x(0) = 0,  y(0) = z(0) = 1,

    one coefficient at a time.  x is odd and y, z are even, so each sum runs
    over one parity and the other slots stay exactly zero.  Generic in the
    type of beta: a Fraction gives exact rational coefficients."""
    zero = type(beta)(0)
    x, y, z = ([zero] * (order + 1) for _ in range(3))
    y[0] = z[0] = zero + 1
    for n in range(order):
        if n % 2 == 0:
            x[n + 1] = sum((y[i] * z[n - i] for i in range(0, n + 1, 2)), zero) / (n + 1)
        else:
            y[n + 1] = -alpha * sum((x[i] * z[n - i] for i in range(1, n + 1, 2)), zero) / (n + 1)
            z[n + 1] = beta * sum((x[i] * y[n - i] for i in range(1, n + 1, 2)), zero) / (n + 1)
    return x, y, z


def sn_cn_dn_coeffs(k2, order):
    """Coefficient lists of sn, cn, dn to order N at modulus squared k2: the
    system sn' = cn dn, cn' = -sn dn, dn' = -k2 sn cn."""
    return _jacobi_system_coeffs(1, -k2, order)


def sn_cn_dn_series(k, order):
    """Series of sn, cn, dn about u = 0, from their differential equations."""
    if order < 1:
        raise DomainError("sn, cn, dn series need order >= 1")
    k = complex(k)
    return tuple(TruncatedSeries(c) for c in sn_cn_dn_coeffs(k * k, order))


def sd_cd_nd_coeffs(k2, order):
    """Coefficient lists of sd = sn/dn, cd = cn/dn and nd = 1/dn to order N:
    Glaisher's system sd' = cd nd, cd' = -(1 - k2) sd nd, nd' = k2 sd cd.

    Their nearest singularities are the zeros of dn at K + i K', at least
    2.62 from the origin for 0 <= k <= 1, where sn has a pole at i K' (pi/2
    at k = 1); 1/sn = nd/sd therefore keeps its digits at a doubled argument,
    where the reciprocal of sn's own coefficients does not."""
    return _jacobi_system_coeffs(1 - k2, k2, order)


def sd_cd_nd_series(k, order):
    """Series of sd, cd, nd about u = 0, from their differential equations."""
    if order < 1:
        raise DomainError("sd, cd, nd series need order >= 1")
    k = complex(k)
    return tuple(TruncatedSeries(c) for c in sd_cd_nd_coeffs(k * k, order))


def _agm(a, b):
    for _ in range(64):
        if abs(a - b) <= _AGM_RTOL * abs(a):
            return 0.5 * (a + b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def complete_K(k):
    """Complete integral K(k) = pi / (2 agm(1, k')), real 0 <= k < 1."""
    k = float(k)
    if not 0.0 <= k < 1.0:
        raise DomainError(f"K(k) needs 0 <= k < 1, got {k}")
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    return math.pi / (2.0 * _agm(1.0, kp))


def complete_Kprime(k):
    """Complementary integral K'(k) = K(sqrt(1-k^2)) = pi / (2 agm(1, k)),
    real 0 < k <= 1; the closed form never rounds k' up to 1."""
    k = float(k)
    if not 0.0 < k <= 1.0:
        raise DomainError(f"K'(k) needs 0 < k <= 1, got {k}")
    return math.pi / (2.0 * _agm(1.0, k))


def _modulus_ladder(k, kp=None):
    """The descending Landen moduli from k; kp, when given, is the
    complementary modulus of k, for a k near 1 whose sqrt(1 - k**2) would
    lose digits."""
    ladder = []
    kappa = float(k)
    if kp is None:
        kp = math.sqrt((1.0 - kappa) * (1.0 + kappa))
    for _ in range(64):
        if kappa < _LANDEN_FLOOR:
            break
        kappa = (1.0 - kp) / (1.0 + kp)
        ladder.append(kappa)
        kp = math.sqrt((1.0 - kappa) * (1.0 + kappa))
    return ladder


def _landen(z, ladder):
    """(sn, cn, dn) at the array z: descend the ladder, take the closed forms
    at the bottom, and ascend."""
    for kappa in ladder:
        z = z / (1.0 + kappa)
    sn, cn, dn = np.sin(z), np.cos(z), np.ones_like(z)
    for kappa in reversed(ladder):
        den = 1.0 + kappa * sn * sn
        sn, cn, dn = (
            (1.0 + kappa) * sn / den,
            cn * dn / den,
            (1.0 - kappa * sn * sn) / den,
        )
    return sn, cn, dn


def jacobi_numeric(u, k):
    """Point values (sn, cn, dn)(u, k) for complex u, real 0 <= k < 1.

    ``u`` is a complex scalar or an array of them; the ladder is built once
    and every step of the descent and ascent acts on the whole array.  A
    scalar gives three Python complex numbers, an array three complex
    arrays of its shape.  At 0 < k < 0.1, points with |Im u| > K'/2 take
    the imaginary transformation instead (see `_IMAGINARY_K`).

    Raises PoleError when any point lands on a pole (u = i K' modulo
    periods), overflows on the way there, or blows past 1e14 in magnitude
    (an argument within roughly 1e-14 of a lattice pole, where no accurate
    digits remain).  Large-but-accurate values near a pole are returned.
    """
    k = float(k)
    if not 0.0 <= k < 1.0:
        raise DomainError(f"jacobi_numeric needs 0 <= k < 1, got {k}")
    u = np.asarray(u, dtype=complex)
    flat = u.reshape(-1)
    # A division by zero or an overflow leaves a non-finite value, which
    # the pole check below rejects.
    with np.errstate(all="ignore"):
        sn, cn, dn = _landen(flat, _modulus_ladder(k))
        if 0.0 < k < _IMAGINARY_K:
            far = np.abs(flat.imag) > 0.5 * complete_Kprime(k)
            if far.any():
                kp = math.sqrt((1.0 - k) * (1.0 + k))
                s, c, d = _landen(-1j * flat[far], _modulus_ladder(kp, k))
                sn[far], cn[far], dn[far] = 1j * s / c, 1.0 / c, d / c
        sn, cn, dn = (a.reshape(u.shape) for a in (sn, cn, dn))
        size = np.maximum(np.maximum(abs(sn), abs(cn)), abs(dn))
    bad = np.flatnonzero(~(size <= 1e14))  # NaN compares false, so it counts as bad
    if bad.size:
        i = bad[0]
        what = "too close to" if np.isfinite(size.flat[i]) else "hit"
        raise PoleError(f"jacobi elliptic evaluation {what} a pole near u={complex(u.flat[i])}")
    if u.ndim == 0:
        return complex(sn), complex(cn), complex(dn)
    return sn, cn, dn


def periods(k):
    """Primitive period pairs of sn, cn, dn for real 0 < k < 1."""
    k = float(k)
    if not 0.0 < k < 1.0:
        raise DomainError(f"period lattice needs 0 < k < 1, got {k}")
    K = complete_K(k)
    Kp = complete_Kprime(k)
    return {
        "sn": (complex(4 * K), 2j * Kp),
        "cn": (complex(4 * K), 2 * complex(K, Kp)),
        "dn": (complex(2 * K), 4j * Kp),
    }


def sn_quintic_crosscheck(k):
    """Compare the derived u**5 coefficient of sn with two printed variants.

    The source text prints the quintic coefficient polynomial in two
    different forms in different places; the series solved from the
    differential equations is authoritative and this report records which
    printed form it reproduces.
    """
    k = complex(k)
    sn, _, _ = sn_cn_dn_coeffs(k * k, 5)
    derived = sn[5] * 120.0
    variant_a = 1.0 + 14.0 * k + k ** 4      # printed once with a bare k term
    variant_b = 1.0 + 14.0 * k ** 2 + k ** 4  # printed elsewhere with k**2
    return {
        "k": [k.real, k.imag],
        "derived_times_120": [derived.real, derived.imag],
        "variant_a_times_120": [variant_a.real, variant_a.imag],
        "variant_b_times_120": [variant_b.real, variant_b.imag],
        "matches_variant_a": bool(abs(derived - variant_a) <= 1e-12 * max(1.0, abs(derived))),
        "matches_variant_b": bool(abs(derived - variant_b) <= 1e-12 * max(1.0, abs(derived))),
    }
