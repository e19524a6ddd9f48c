"""Acceptance suite: thirteen criteria, one pass/fail line each under -v.

Each criterion pins the tolerance it must meet; a red here is a real defect,
never a tuning knob.  Runs in well under a minute.
"""

import math
import random

import numpy as np
import scipy.integrate

from elliptic_sl2.autos import (
    ELL_2K_IKP,
    ELL_IKP,
    half_period_shift_uh,
    highest_weight_shift_error,
    inversion_symbolic_report,
    period_shift_elliptic,
    scalar_shift_identities,
)
from elliptic_sl2.deform import (
    DeformParams,
    _series_gaps,
    build_elliptic_triplet,
    build_jordanian_triplet,
    casimir,
    deform_generators,
    invert_map,
    lift_uh_to_elliptic,
    relation_residuals,
    structure_matrices,
)
from elliptic_sl2.elliptic import (
    asn_series,
    complete_K,
    complete_Kprime,
    jacobi_numeric,
    periods,
    sn_cn_dn_series,
)
from elliptic_sl2.hopf import (
    coassociativity_delta1,
    coassociativity_uh,
    delta1,
    delta2,
    delta_uh,
    verify_coproduct,
)
from elliptic_sl2.liealg import build_spin, frobenius
from elliptic_sl2.rewrite import (
    LETTERS,
    NCPoly,
    eval_poly_on_spin,
    eval_word_on_spin,
    nf_word,
)
from elliptic_sl2.series import TruncatedSeries

K_GRID = (0.0, 0.4, 0.8, 1.0)
H_GRID = (0.3, 0.9, 1.5)
J_GRID = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


def worst_of(report, skip=("epsilon", "cocommutativity_gap")):
    return max(v for k, v in report.items()
               if k not in skip and isinstance(v, float))


def announce(tag, worst, tol):
    print(f"acceptance {tag}: worst={worst:.3e} tol={tol:.0e} "
          f"{'PASS' if worst <= tol else 'FAIL'}")


def test_c01_series_coefficient_formulas():
    tol, worst = 1e-13, 0.0
    for k in K_GRID:
        k2 = k * k
        a = asn_series(k, 6)
        sn, _, _ = sn_cn_dn_series(k, 6)
        worst = max(
            worst,
            abs(a.coeffs[1] - 1.0),
            abs(a.coeffs[3] - (1 + k2) / 6),
            abs(a.coeffs[5] - (9 + 6 * k2 + 9 * k2 * k2) / 120),
            abs(sn.coeffs[3] + (1 + k2) / 6),
            abs(sn.coeffs[5] - (1 + 14 * k2 + k2 * k2) / 120),
        )
    announce("C01 closed-form low-order coefficients", worst, tol)
    assert worst <= tol


def test_c02_reversion_roundtrip_order_25():
    tol, worst = 1e-12, 0.0
    ident = TruncatedSeries.identity(25)
    for k in K_GRID:
        a = asn_series(k, 25)
        sn = a.revert()
        back = a.compose(sn)
        worst = max(worst, float(np.max(np.abs(back.coeffs - ident.coeffs))))
        forth = sn.compose(a)
        worst = max(worst, float(np.max(np.abs(forth.coeffs - ident.coeffs))))
    announce("C02 order-25 reversion roundtrip", worst, tol)
    assert worst <= tol


def test_c03_series_match_numeric_evaluation():
    tol, worst = 1e-10, 0.0
    points = (0.05, 0.2, 0.3 + 0.1j)
    for k in (0.0, 0.4, 0.8):
        sn, cn, dn = sn_cn_dn_series(k, 21)
        for u in points:
            n_sn, n_cn, n_dn = jacobi_numeric(u, k)
            worst = max(worst, abs(sn.eval(u) - n_sn), abs(cn.eval(u) - n_cn),
                        abs(dn.eval(u) - n_dn))
    announce("C03 series vs numeric evaluation", worst, tol)
    assert worst <= tol


def test_c04_complete_integrals_and_periods():
    gap_pi = abs(complete_K(0.0) - math.pi / 2)
    assert gap_pi <= 1e-14
    k = 1 / math.sqrt(2)
    quad, quad_err = scipy.integrate.quad(
        lambda t: 1.0 / math.sqrt((1 - t * t) * (1 - k * k * t * t)), 0.0, 1.0)
    gap_quad = abs(complete_K(k) - quad)
    assert gap_quad <= 1e-9 + quad_err
    gap_dual = max(abs(complete_Kprime(kk) - complete_K(math.sqrt(1 - kk * kk)))
                   for kk in (0.2, 0.5, 0.8))
    assert gap_dual <= 1e-12
    kk = 0.6
    table = periods(kk)
    u = 0.41 + 0.17j
    base = jacobi_numeric(u, kk)
    gap_per = 0.0
    for i, name in enumerate(("sn", "cn", "dn")):
        for period in table[name]:
            gap_per = max(gap_per, abs(jacobi_numeric(u + period, kk)[i] - base[i]))
    assert gap_per <= 1e-9
    announce("C04 complete integrals and period lattice",
             max(gap_pi, gap_quad, gap_dual, gap_per), 1e-9)


def test_c05_deformed_relations_on_the_grid():
    tol, worst = 1e-10, 0.0
    for j in J_GRID:
        rep = build_spin(j)
        for h in H_GRID:
            for k in K_GRID:
                t = build_elliptic_triplet(rep, DeformParams(h=h, k=k))
                worst = max(worst, worst_of(relation_residuals(t)))
    announce("C05 deformed relations on the (j, h, k) grid", worst, tol)
    assert worst <= tol


def test_c06_hyperbolic_reduction_relations():
    tol, worst = 1e-12, 0.0
    for j in (0.5, 1.5, 3.0):
        rep = build_spin(j)
        for h in H_GRID:
            t = build_jordanian_triplet(rep, h)
            worst = max(worst, worst_of(relation_residuals(t)))
    announce("C06 hyperbolic-reduction relations", worst, tol)
    assert worst <= tol


def test_c07_inverse_map_and_lift_two_path():
    tol, worst = 1e-11, 0.0
    for j, h, k in ((0.5, 0.3, 0.2), (1.5, 0.9, 0.6), (2.5, 1.2, 0.85)):
        rep = build_spin(j)
        t = build_elliptic_triplet(rep, DeformParams(h=h, k=k))
        jp, jm = invert_map(t)
        scale = max(1.0, frobenius(rep.Jp))
        worst = max(worst, frobenius(jp - rep.Jp) / scale,
                    frobenius(jm - rep.Jm) / scale)
    rep = build_spin(2.5)
    for h, k in ((0.8, 0.45), (0.4, 0.9)):
        lifted = lift_uh_to_elliptic(build_jordanian_triplet(rep, h), k)
        direct = build_elliptic_triplet(rep, DeformParams(h=h, k=k))
        scale = max(1.0, frobenius(direct.Xhat), frobenius(direct.Yhat))
        worst = max(worst, frobenius(lifted.Xhat - direct.Xhat) / scale,
                    frobenius(lifted.Yhat - direct.Yhat) / scale)
    announce("C07 inverse roundtrip and lift two-path", worst, tol)
    assert worst <= tol


def test_c08_casimir_three_forms():
    tol, worst = 1e-10, 0.0
    for j in (0.5, 1.0, 2.0, 3.0):
        rep = build_spin(j)
        target = j * (j + 1) * np.eye(rep.dim)
        for h, k in ((0.3, 0.2), (0.8, 0.55), (1.5, 0.95)):
            t = build_elliptic_triplet(rep, DeformParams(h=h, k=k))
            for form in ("classical", "jordanian", "elliptic"):
                c = casimir(t, form)
                worst = max(worst, frobenius(c - target) / max(1.0, frobenius(c)))
    announce("C08 Casimir forms are the spin scalar", worst, tol)
    assert worst <= tol


def test_c09_structure_function_identities():
    worst_dg = max(_series_gaps(k, 11)["f_vs_dG"] for k in (0.0, 0.5, 1.0))
    assert worst_dg <= 1e-13
    worst_forms = 0.0
    t = build_elliptic_triplet(build_spin(2.5), DeformParams(h=0.9, k=0.7))
    fm = structure_matrices(t)[1]
    scale = max(1.0, frobenius(fm["primary"]))
    worst_forms = max(_series_gaps(t.params.k, t.rep.dim)["f_eq15_vs_eq16"],
                      frobenius(fm["primary"] - fm["algebraic"]) / scale)
    assert worst_forms <= 1e-12
    announce("C09 structure-function identities", max(worst_dg, worst_forms), 1e-12)


def test_c10_coproducts():
    tol = 1e-10
    worst = 0.0
    pairs = ((0.5, 0.5), (0.5, 1.0), (1.0, 1.0))
    params = DeformParams(h=0.8, k=0.5)
    gap2 = None
    for j1, j2 in pairs:
        r1, r2 = build_spin(j1), build_spin(j2)
        rep1 = verify_coproduct(delta1(params, r1, r2))
        repu = verify_coproduct(delta_uh(0.8, r1, r2))
        rep2 = verify_coproduct(delta2(params, r1, r2))
        worst = max(worst, worst_of(rep1), worst_of(repu), worst_of(rep2))
        worst = max(worst, rep1["cocommutativity_gap"])  # this one must vanish
        gap2 = rep2["cocommutativity_gap"]
    assert worst <= tol
    r = build_spin(0.5)
    coassoc = max(coassociativity_uh(0.8, r, r, r)["max"],
                  coassociativity_delta1(params, r, r, r)["max"])
    assert coassoc <= 1e-11
    assert gap2 > 0.1  # the lifted coproduct is genuinely non-cocommutative
    announce("C10 coproducts: relations, re-expression, coassociativity",
             max(worst, coassoc), tol)


def test_c11_period_shift_symmetries():
    t_uh = build_jordanian_triplet(build_spin(2.0), 0.9)
    shifted = half_period_shift_uh(t_uh)
    hw = highest_weight_shift_error(shifted)
    assert hw <= 1e-12
    worst = worst_of(relation_residuals(shifted))
    t = build_elliptic_triplet(build_spin(1.5), DeformParams(h=0.7, k=0.6))
    for spec in (ELL_IKP, ELL_2K_IKP):
        _, report = period_shift_elliptic(t, spec)
        worst = max(worst, worst_of(report))
    assert worst <= 1e-10
    scal = max(max(scalar_shift_identities(k, n_samples=40)["max_gaps"].values())
               for k in (0.3, 0.6, 0.9))
    assert scal <= 1e-9
    for eps in (+1, -1):
        report = inversion_symbolic_report(0.7, 0.6, eps)
        assert len(report["samples"]) >= 3
        assert report["all_zero"] is True
    announce("C11 discrete shift symmetries", max(hw, worst, scal), 1e-9)


def test_c12_normal_ordering_engine():
    tol, worst = 1e-12, 0.0
    rng = random.Random(20260818)
    reps = [build_spin(j) for j in (0.5, 1.0, 1.5, 2.0)]
    for _ in range(100):
        word = tuple(rng.choice(("Jm", "J0", "Jp")) for _ in range(rng.randint(1, 7)))
        poly = nf_word(word)
        for rep in reps:
            direct = eval_word_on_spin(word, rep)
            ordered = eval_poly_on_spin(poly, rep)
            scale = max(1.0, float(np.max(np.abs(direct))))
            worst = max(worst, float(np.max(np.abs(direct - ordered))) / scale)
    assert worst <= tol
    for _ in range(200):
        word = tuple(rng.choice(LETTERS) for _ in range(rng.randint(1, 8)))
        assert nf_word(word, "leftmost") == nf_word(word, "rightmost")
    jp, jpinv = NCPoly.generator("Jp"), NCPoly.generator("Jpinv")
    for _ in range(50):
        word = tuple(rng.choice(("Jm", "J0", "Jp")) for _ in range(rng.randint(1, 6)))
        base = nf_word(word)
        assert jp * (jpinv * base) == base
    announce("C12 normal ordering vs matrices, order independence, localization",
             worst, tol)


def test_c13_truncation_sufficiency_at_spin_five_half():
    rep = build_spin(2.5)
    p = DeformParams(h=0.6, k=0.8)
    x_full, y_full = deform_generators(rep.Jp, rep.Jm, p, rep.dim)
    x_big, y_big = deform_generators(rep.Jp, rep.Jm, p, 12)
    assert np.array_equal(x_full, x_big)
    assert np.array_equal(y_full, y_big)
    # the dim-6 module sees the odd map only through order 5 and the even
    # dressing only through order 4, whatever their higher coefficients are
    from elliptic_sl2.deform import _asn, _at_half_h, _g_of_v

    x_trunc, g_trunc = _at_half_h(rep.Jp, p.h, (_asn(p.k, 12).truncated(5), 1),
                                  (_g_of_v(p.k, 12).truncated(4), 0))
    y_trunc = g_trunc @ rep.Jm @ g_trunc
    assert np.array_equal(x_trunc, x_full)
    assert np.array_equal(y_trunc, y_full)
    announce("C13 truncation sufficiency on the six-dimensional module", 0.0, 1e-15)
