"""
Two coproducts on tensor products of spin modules
=================================================

The deformed generators carry two distinct Hopf-style coproducts.  The
first transports the primitive coproduct through the nonlinear map and
stays cocommutative.  The second lifts the twisted hyperbolic coproduct
(group-like exponentials flanking Y) and is genuinely non-cocommutative.
Both satisfy the same deformed relations on the tensor product.
Coassociativity is checked as the one-variable identity each coproduct
rests on: the transported primitive one is coassociative exactly when
the map inverts (sn(arcsn v) = v, and the dressing g(sn u) cancels
(cn dn)**(-1/2)(u)), and the twisted one, whose DX is primitive, exactly
when its twist factors (1 +- v)/(1 -+ v) are exp(+-2 arctanh v), that
is, group-like.
"""

import numpy as np

from elliptic_sl2 import (
    DeformParams,
    build_spin,
    coassociativity_uh,
    cocommutativity_gap,
    delta1,
    delta2,
    delta_uh,
    verify_coproduct,
)
from elliptic_sl2.hopf import coassociativity_delta1

params = DeformParams(h=0.8, k=0.6)
r1, r2 = build_spin(0.5), build_spin(1.0)

for name, ct in (("delta1 (transported primitive)", delta1(params, r1, r2)),
                 ("delta_uh (twisted hyperbolic)", delta_uh(0.8, r1, r2)),
                 ("delta2 (lift of the twist)", delta2(params, r1, r2))):
    report = verify_coproduct(ct)
    residuals = [v for k, v in report.items() if k != "cocommutativity_gap"]
    print(f"{name:31s} worst relation residual {max(residuals):.2e}, "
          f"cocommutativity gap {report['cocommutativity_gap']:.3f}")

# The gap is the honest distance |Delta - swap o Delta|; ~1e-16 means
# cocommutative, anything order one means visibly twisted.

# Coassociativity, (Delta x id) Delta == (id x Delta) Delta, through the
# identity it rests on, compared on series coefficients up to the highest
# power of S1 + S2 + S3 that survives on r1 x r2 x r3; no three-factor
# module is built.
r3 = build_spin(0.5)
print("\ncoassociativity, twisted family (group-like twist):",
      f"{coassociativity_uh(0.8, r1, r2, r3)['group_like']:.2e}")
gaps = coassociativity_delta1(params, r1, r2, r3)
print("coassociativity, primitive image (map inverts)   :",
      f"X {gaps['X']:.2e}, Y {gaps['Y']:.2e}")

# As h -> 0 both coproducts collapse onto the classical a x 1 + 1 x b.
small = DeformParams(h=1e-8, k=0.6)
ct = delta2(small, r1, r2)
classical = np.kron(r1.Jp, np.eye(r2.dim)) + np.kron(np.eye(r1.dim), r2.Jp)
print("\nh=1e-8: delta2(X) vs classical primitive:",
      f"{np.abs(ct.DX - classical).max():.2e}")
