"""Scalar references for the numeric elliptic rail: the descending Landen
recurrence one point at a time on cmath, with the package's choice of the
imaginary transformation at small k, and the period-shift gaps sampled one
point at a time through it.  The package evaluates whole arrays at once; the
tests hold it to these loops.  The descent divides by 1 + kappa as numpy
divides a complex array by a real number, through the reciprocal: near a
zero of dn on the transformed route the last-bit difference of a true
division grows to 1.9e-14 at k = 0.08, and both are within 1.5e-14 of
mpmath there."""

import cmath
import math

import numpy as np

from elliptic_sl2.elliptic import complete_K, complete_Kprime
from elliptic_sl2.errors import PoleError


def _ladder(k, kp=None):
    ladder = []
    kappa = float(k)
    if kp is None:
        kp = math.sqrt((1.0 - kappa) * (1.0 + kappa))
    for _ in range(64):
        if kappa < 1e-15:
            break
        kappa = (1.0 - kp) / (1.0 + kp)
        ladder.append(kappa)
        kp = math.sqrt((1.0 - kappa) * (1.0 + kappa))
    return ladder


def _descend(z, ladder):
    for kappa in ladder:
        z = z * (1.0 / (1.0 + kappa))   # numpy's complex-by-real division
    sn, cn, dn = cmath.sin(z), cmath.cos(z), complex(1.0)
    for kappa in reversed(ladder):
        den = 1.0 + kappa * sn * sn
        sn, cn, dn = (
            (1.0 + kappa) * sn / den,
            cn * dn / den,
            (1.0 - kappa * sn * sn) / den,
        )
    return sn, cn, dn


def landen_scalar(u, k):
    """(sn, cn, dn)(u, k) for one complex u, real 0 <= k < 1, by the scalar
    Landen loop; PoleError on a pole, an overflow or a value past 1e14.  At
    0 < k < 0.1 a point with |Im u| > K'/2 goes through Jacobi's imaginary
    transformation, sn(u, k) = i sc(-i u, k') and so on, as in the package."""
    u = complex(u)
    try:
        if 0.0 < k < 0.1 and abs(u.imag) > 0.5 * complete_Kprime(k):
            kp = math.sqrt((1.0 - k) * (1.0 + k))
            s, c, d = _descend(-1j * u, _ladder(kp, k))
            sn, cn, dn = 1j * s / c, 1.0 / c, d / c
        else:
            sn, cn, dn = _descend(u, _ladder(k))
    except (ZeroDivisionError, OverflowError) as exc:
        raise PoleError(f"pole near u={u}") from exc
    if not all(cmath.isfinite(w) for w in (sn, cn, dn)) or max(abs(sn), abs(cn), abs(dn)) > 1e14:
        raise PoleError(f"pole near u={u}")
    return sn, cn, dn


def shift_gaps_scalar(k, n_samples, seed):
    """The gaps of ``autos.scalar_shift_identities``, one sample and one
    Landen evaluation at a time, drawing the same points from the seed."""
    K = complete_K(k)
    Kp = complete_Kprime(k)
    rng = np.random.default_rng(seed)
    gaps = {name: 0.0 for name in (
        "sn_shift_iKp", "cn_shift_iKp", "dn_shift_iKp", "sn_shift_2K_iKp",
        "sn_period_4K", "sn_period_2iKp", "cn_period_4K", "cn_period_2K_2iKp",
        "dn_period_2K", "dn_period_4iKp",
    )}

    def upd(name, lhs, rhs):
        gaps[name] = max(gaps[name], abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))

    for _ in range(n_samples):
        u = complex(rng.uniform(0.2, 0.8) * K, rng.uniform(0.1, 0.4) * Kp)
        sn, cn, dn = landen_scalar(u, k)
        sn_s, cn_s, dn_s = landen_scalar(u + 1j * Kp, k)
        upd("sn_shift_iKp", sn_s, 1.0 / (k * sn))
        upd("cn_shift_iKp", cn_s, -1j * dn / (k * sn))
        upd("dn_shift_iKp", dn_s, -1j * cn / sn)
        sn_s2, cn_s2, _ = landen_scalar(u + 2 * K + 1j * Kp, k)
        upd("sn_shift_2K_iKp", sn_s2, -1.0 / (k * sn))
        sn_4K, cn_4K, _ = landen_scalar(u + 4 * K, k)
        upd("sn_period_4K", sn_4K, sn)
        upd("cn_period_4K", cn_4K, cn)
        upd("dn_period_2K", landen_scalar(u + 2 * K, k)[2], dn)
        sn_m, cn_m, dn_m = landen_scalar(u - 1j * Kp, k)
        upd("sn_period_2iKp", sn_s, sn_m)
        upd("cn_period_2K_2iKp", cn_s2, cn_m)
        upd("dn_period_4iKp", dn_s, -dn_m)
    return gaps
