"""Two-parameter elliptic deformation of sl(2).

Finite spin modules, truncated-series functional calculus, Jacobian
elliptic numerics, the deformed commutation relations and Casimir forms,
two induced coproducts, the discrete period-shift symmetries, and an exact
normal-ordering engine on the enveloping algebra localized at the raiser.
"""

from .deform import (
    DeformParams,
    DeformedTriplet,
    build_elliptic_triplet,
    build_jordanian_triplet,
    casimir,
    deform_generators,
    invert_map,
    lift_uh_to_elliptic,
    relation_residuals,
)
from .elliptic import (
    asn_series,
    complete_K,
    complete_Kprime,
    jacobi_numeric,
    periods,
    sn_cn_dn_series,
)
from .errors import DomainError, PoleError
from .hopf import (
    CoproductTriple,
    coassociativity_uh,
    cocommutativity_gap,
    delta1,
    delta2,
    delta_uh,
    verify_coproduct,
)
from .liealg import SpinRep, build_spin, commutator, frobenius
from .rewrite import (
    GeneratorMap,
    NCPoly,
    apply_map,
    inversion_map,
    nf,
    nf_word,
    parse_expression,
    sign_map,
    verify_automorphism,
    verify_involution,
)
from .autos import (
    ELL_2K_IKP,
    ELL_IKP,
    ShiftSpec,
    UH_HALF,
    half_period_shift_uh,
    inversion_symbolic_report,
    period_shift_elliptic,
    scalar_shift_identities,
    sign_involution,
)
from .series import TruncatedSeries
from .version import __version__

__all__ = [
    "__version__",
    "DomainError",
    "PoleError",
    "TruncatedSeries",
    "asn_series",
    "sn_cn_dn_series",
    "complete_K",
    "complete_Kprime",
    "jacobi_numeric",
    "periods",
    "SpinRep",
    "build_spin",
    "commutator",
    "frobenius",
    "DeformParams",
    "DeformedTriplet",
    "build_elliptic_triplet",
    "build_jordanian_triplet",
    "lift_uh_to_elliptic",
    "deform_generators",
    "invert_map",
    "relation_residuals",
    "casimir",
    "CoproductTriple",
    "delta1",
    "delta_uh",
    "delta2",
    "verify_coproduct",
    "cocommutativity_gap",
    "coassociativity_uh",
    "ShiftSpec",
    "UH_HALF",
    "ELL_IKP",
    "ELL_2K_IKP",
    "sign_involution",
    "half_period_shift_uh",
    "period_shift_elliptic",
    "scalar_shift_identities",
    "inversion_symbolic_report",
    "NCPoly",
    "GeneratorMap",
    "nf",
    "nf_word",
    "apply_map",
    "sign_map",
    "inversion_map",
    "verify_automorphism",
    "verify_involution",
    "parse_expression",
]
