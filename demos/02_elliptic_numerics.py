"""
Jacobian elliptic functions: series, quarter periods, lattice
=============================================================

Two independent routes to sn, cn, dn live side by side: formal series
around u = 0 (used for the matrix functional calculus) and a Landen
ladder for numeric evaluation anywhere in the complex plane short of a
pole.  This script shows both and their agreement, plus the quarter
periods that organize the period lattice.
"""

import numpy as np

from elliptic_sl2 import (
    PoleError,
    complete_K,
    complete_Kprime,
    jacobi_numeric,
    periods,
    sn_cn_dn_series,
)

k = 0.6

# The quarter periods K and K'.  At k = 1/sqrt(2) the two coincide.
K = complete_K(k)
Kp = complete_Kprime(k)
print(f"K({k})  = {K:.15f}")
print(f"K'({k}) = {Kp:.15f}")
print("K(1/sqrt 2) == K'(1/sqrt 2):",
      np.isclose(complete_K(2 ** -0.5), complete_Kprime(2 ** -0.5)))

# Series route vs numeric route at a modest real argument.
sn_s, cn_s, dn_s = sn_cn_dn_series(k, 16)
u = 0.7
sn_n, cn_n, dn_n = jacobi_numeric(u, k)
print("sn series vs numeric:", abs(sn_s.eval(u) - sn_n))
print("cn series vs numeric:", abs(cn_s.eval(u) - cn_n))
print("dn series vs numeric:", abs(dn_s.eval(u) - dn_n))

# The Pythagorean-style identities hold off the real line too.
z = 0.4 + 0.3j
sn, cn, dn = jacobi_numeric(z, k)
print("sn^2 + cn^2 - 1        :", abs(sn * sn + cn * cn - 1))
print("dn^2 + k^2 sn^2 - 1    :", abs(dn * dn + k * k * sn * sn - 1))

# Each function repeats on its own sublattice; periods() hands back the
# two primitive periods of each as complex numbers.
table = periods(k)
for idx, name in enumerate(("sn", "cn", "dn")):
    p1, p2 = table[name]
    before = jacobi_numeric(z, k)[idx]
    drift = max(abs(jacobi_numeric(z + p1, k)[idx] - before),
                abs(jacobi_numeric(z + p2, k)[idx] - before))
    print(f"{name} periods {p1:.4f}, {p2:.4f}: drift {drift:.2e}")

# A whole array of points goes through one call: the Landen ladder is
# built once and the recurrence runs on the array.  On the line
# Im u = K'/2, |sn| = 1/sqrt(k) at every point.
line = np.linspace(0.0, 2 * K, 9) + 0.5j * Kp
sn_line, _, _ = jacobi_numeric(line, k)
print("max | sqrt(k) |sn| - 1 | on Im u = K'/2:", np.max(abs(np.sqrt(k) * abs(sn_line) - 1)))

# Arguments at (or within float resolution of) a lattice pole refuse to
# return garbage: they raise instead.
try:
    jacobi_numeric(1j * Kp, k)
except PoleError as exc:
    print("pole at iK' detected:", exc)
