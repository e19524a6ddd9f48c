"""
Truncated power series and functional calculus
==============================================

Everything downstream is built on one small kernel: power series in u
truncated at a fixed order.  This script exercises the moves the rest
of the package leans on -- arithmetic, rational powers, differentiation
and evaluation -- and the two the tests keep as independent references,
composition and reversion, and checks a few of them against closed forms.

tanh and arctanh have no series of their own: they are sn and arcsn at
modulus k = 1, the hyperbolic (Jordanian) point of the elliptic family, and
come from the same builders as every other modulus.
"""

import numpy as np

from elliptic_sl2 import TruncatedSeries, asn_series, sn_cn_dn_series
from elliptic_sl2.series import exp_series

np.set_printoptions(precision=6, suppress=True)

# A series is just its coefficient vector c[0..N].
u = TruncatedSeries.identity(8)          # the series "u" itself
s = 2.0 * u + u * u                      # 2u + u^2
print("2u + u^2 coefficients:", s.coeffs.real)

# Composition substitutes one series into another.  The inner constant
# term must vanish, otherwise the truncation order would be meaningless.
e = exp_series(8)
print("exp(u) coefficients  :", e.coeffs.real)
print("exp(2u + u^2)[0:4]   :", e.compose(s).coeffs[:4].real)

# At k = 1, arcsn is arctanh, with coefficients 1/(2i+1), and sn is tanh.
at = asn_series(1.0, 9)                  # arcsn(u, 1) = arctanh(u)
t = sn_cn_dn_series(1.0, 9)[0]           # sn(u, 1) = tanh(u)
print("arcsn(u, 1) coefficients:", at.coeffs.real)

# Reversion finds the compositional inverse.  arctanh reverts to tanh:
print("revert(arctanh) == tanh:", np.allclose(at.revert().coeffs, t.coeffs))

# ... and composing the pair gives back u to working precision.
roundtrip = at.compose(t)
print("arctanh(tanh(u)) coefficients:", roundtrip.coeffs.real)

# Rational powers need a constant term of exactly 1; Miller's recurrence
# builds them one coefficient at a time.
# (1 + u)^(1/2) * (1 + u)^(1/2) should reproduce 1 + u exactly enough.
one_plus_u = TruncatedSeries.constant(1.0, 8) + u
root = one_plus_u.pow_rational(0.5)
print("sqrt(1+u)^2 - (1+u) max:", np.abs((root * root - one_plus_u).coeffs).max())

# Differentiation and evaluation close the toolbox.
print("d/du tanh at order 5 :", t.deriv().coeffs[:6].real)
print("tanh(0.3) via series :", t.eval(0.3).real, " vs np.tanh:", np.tanh(0.3))
