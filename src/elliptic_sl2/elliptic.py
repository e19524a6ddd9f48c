"""Jacobi elliptic functions on two independent rails.

Rail one is formal: truncated power series for sn, cn, dn and the inverse
function arcsn about the origin, valid for any complex modulus k since the
coefficients are polynomial in k**2.  arcsn comes from integrating the
binomial expansion of ((1-t**2)(1-k**2 t**2))**(-1/2); sn is its reversion;
cn and dn are square roots of 1 - sn**2 and 1 - k**2 sn**2.

Rail two is numeric: complete integrals via the arithmetic-geometric mean
and point values via the descending Landen transformation,

    kappa' = sqrt(1 - kappa**2),  next = (1 - kappa')/(1 + kappa'),

iterated until the modulus drops below 1e-15, closed trigonometric forms at
the bottom, then the exact ascent

    sn = (1 + kappa) sn1 / (1 + kappa sn1**2)
    cn = cn1 dn1 / (1 + kappa sn1**2)
    dn = (1 - kappa sn1**2) / (1 + kappa sn1**2).

The ascent is rational, so complex arguments (needed near u = i K') pass
through unchanged.  The two rails never share code; tests play them against
each other as mutual oracles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, PoleError
from .series import TruncatedSeries

__all__ = [
    "asn_series",
    "sn_cn_dn_series",
    "complete_K",
    "complete_Kprime",
    "jacobi_numeric",
    "periods",
    "EllipticConstants",
    "elliptic_constants",
    "sn_quintic_crosscheck",
]

_LANDEN_FLOOR = 1e-15
_AGM_RTOL = 1e-15


def asn_series(k, order):
    """Series of arcsn(v, k) = integral_0^v ((1-t^2)(1-k^2 t^2))**(-1/2) dt."""
    if order < 1:
        raise DomainError("arcsn series needs order >= 1")
    k = complex(k)
    n = order - 1
    if n == 0:
        integrand = TruncatedSeries([1.0])
    else:
        u = TruncatedSeries.identity(n)
        one_minus_u2 = 1.0 - u * u
        one_minus_k2u2 = 1.0 - (u * u) * (k * k)
        integrand = one_minus_u2.pow_rational(-0.5) * one_minus_k2u2.pow_rational(-0.5)
    out = [0.0] * (order + 1)
    for i, c in enumerate(integrand.coeffs):
        out[i + 1] = c / (i + 1)
    return TruncatedSeries(out)


def sn_cn_dn_series(k, order):
    """Series of sn, cn, dn about u = 0: reversion of arcsn plus square roots."""
    sn = asn_series(k, order).revert()
    k = complex(k)
    sn2 = sn * sn
    cn = (1.0 - sn2).pow_rational(0.5)
    dn = (1.0 - sn2 * (k * k)).pow_rational(0.5)
    return sn, cn, dn


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


def _modulus_ladder(k):
    ladder = []
    kappa = float(k)
    for _ in range(64):
        if kappa < _LANDEN_FLOOR:
            break
        kp = math.sqrt((1.0 - kappa) * (1.0 + kappa))
        kappa = (1.0 - kp) / (1.0 + kp)
        ladder.append(kappa)
    return ladder


def jacobi_numeric(u, k):
    """Point values (sn, cn, dn)(u, k) for complex u, real 0 <= k < 1.

    Raises PoleError when the evaluation lands on a pole (u = i K' modulo
    periods), overflows on the way there, or blows past 1e14 in magnitude
    (an argument within roughly 1e-14 of a lattice pole, where no accurate
    digits remain).  Large-but-accurate values near a pole are returned.
    """
    k = float(k)
    if not 0.0 <= k < 1.0:
        raise DomainError(f"jacobi_numeric needs 0 <= k < 1, got {k}")
    u = complex(u)
    ladder = _modulus_ladder(k)
    z = u
    for kappa in ladder:
        z = z / (1.0 + kappa)
    try:
        sn, cn, dn = cmath.sin(z), cmath.cos(z), complex(1.0)
        for kappa in reversed(ladder):
            den = 1.0 + kappa * sn * sn
            sn, cn, dn = (
                (1.0 + kappa) * sn / den,
                cn * dn / den,
                (1.0 - kappa * sn * sn) / den,
            )
    except (ZeroDivisionError, OverflowError) as exc:
        raise PoleError(f"jacobi elliptic evaluation hit a pole near u={u}") from exc
    if not all(cmath.isfinite(w) for w in (sn, cn, dn)):
        raise PoleError(f"jacobi elliptic evaluation hit a pole near u={u}")
    if max(abs(sn), abs(cn), abs(dn)) > 1e14:
        raise PoleError(f"jacobi elliptic evaluation too close to a pole near u={u}")
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


@dataclass(frozen=True)
class EllipticConstants:
    """K, K' and the period lattice at one real modulus."""

    k: float
    K: float
    Kprime: float
    period_table: dict

    def to_json(self):
        return {
            "k": self.k,
            "K": self.K,
            "Kprime": self.Kprime,
            "periods": {
                name: [[p.real, p.imag] for p in pair]
                for name, pair in self.period_table.items()
            },
        }


def elliptic_constants(k):
    return EllipticConstants(k=float(k), K=complete_K(k), Kprime=complete_Kprime(k),
                             period_table=periods(k))


def sn_quintic_crosscheck(k):
    """Compare the reverted u**5 coefficient of sn with two printed variants.

    The source text prints the quintic coefficient polynomial in two
    different forms in different places; the reversion is authoritative and
    this report records which printed form it reproduces.
    """
    k = complex(k)
    sn = asn_series(k, 7).revert()
    derived = complex(sn.coeffs[5]) * 120.0
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
