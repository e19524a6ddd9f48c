"""The nonlinear map: spot values by hand, relations on a parameter grid,
Casimir forms, the hyperbolic reduction and its lift, structure functions."""

from fractions import Fraction

import numpy as np
import pytest

from elliptic_sl2 import autos
from elliptic_sl2.deform import (
    DeformParams,
    _F_doubled_series,
    _F_series,
    _G_series,
    _asn,
    _at_half_h,
    _at_nilpotent_part,
    _at_raising,
    _g_inv_of_u,
    _g_of_v,
    _half_h_powers,
    _jordanian_factors,
    _relation_norms,
    _relative,
    _series_gaps,
    _sncndn,
    _x_nilpotent,
    build_elliptic_triplet,
    build_jordanian_triplet,
    casimir,
    deform_generators,
    dressing_quartic_crosscheck,
    invert_map,
    lift_series,
    lift_uh_to_elliptic,
    relation_residuals,
    structure_matrices,
)
from elliptic_sl2.elliptic import sd_cd_nd_series, sn_cn_dn_coeffs
from elliptic_sl2.errors import DomainError
from elliptic_sl2.liealg import RaisingPoly, build_spin, frobenius, mat_apply_series
from elliptic_sl2.series import TruncatedSeries, exp_series, pow_coeffs


def residual_ok(report, tol, skip=("epsilon",)):
    vals = [v for k, v in report.items()
            if k not in skip and isinstance(v, float)]
    return max(vals) <= tol


def test_spin_half_is_fixed_by_the_map():
    # J+^2 = 0 kills every nonlinear term, so the triplet is the classical one
    r = build_spin(0.5)
    t = build_elliptic_triplet(r, DeformParams(h=0.9, k=0.7))
    assert np.array_equal(t.Xhat, r.Jp)
    assert np.array_equal(t.Yhat, r.Jm)


def test_spin_one_dressed_lowering_by_hand():
    # g(v) = 1 - (1+k^2)/4 v^2 + O(v^4); at dim 3 only that term survives:
    # Yhat = (I - c V^2) Jm (I - c V^2), V = (h/2) J+
    h, k = 0.8, 0.6
    r = build_spin(1.0)
    t = build_elliptic_triplet(r, DeformParams(h=h, k=k))
    c = (1 + k * k) / 4
    v2 = ((h / 2) ** 2) * (r.Jp @ r.Jp)
    dress = np.eye(3) - c * v2
    expect = dress @ r.Jm @ dress
    assert np.max(np.abs(t.Yhat - expect)) < 1e-15


def test_spin_three_half_raising_by_hand():
    # only the cubic term of the inverse sine amplitude survives at dim 4
    h, k = 0.7, 0.5
    r = build_spin(1.5)
    t = build_elliptic_triplet(r, DeformParams(h=h, k=k))
    jp3 = np.linalg.matrix_power(r.Jp, 3)
    expect = r.Jp + ((1 + k * k) / 6) * (h / 2) ** 2 * jp3
    assert np.max(np.abs(t.Xhat - expect)) < 1e-14


def test_spin_five_half_raising_quintic_by_hand():
    h, k = 0.6, 0.8
    r = build_spin(2.5)
    t = build_elliptic_triplet(r, DeformParams(h=h, k=k))
    k2 = k * k
    jp3 = np.linalg.matrix_power(r.Jp, 3)
    jp5 = np.linalg.matrix_power(r.Jp, 5)
    expect = (r.Jp
              + ((1 + k2) / 6) * (h / 2) ** 2 * jp3
              + ((9 + 6 * k2 + 9 * k2 * k2) / 120) * (h / 2) ** 4 * jp5)
    assert np.max(np.abs(t.Xhat - expect)) < 1e-13


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("h", [0.3, 1.5])
@pytest.mark.parametrize("k", [0.0, 0.4, 0.8, 1.0])
def test_relations_on_grid(j, h, k):
    t = build_elliptic_triplet(build_spin(j), DeformParams(h=h, k=k))
    assert residual_ok(relation_residuals(t), 1e-10)


def test_relations_with_complex_parameters():
    t = build_elliptic_triplet(build_spin(1.5), DeformParams(h=0.4 + 0.2j, k=0.3 + 0.1j))
    assert residual_ok(relation_residuals(t), 1e-10)


def test_h_zero_is_the_classical_point():
    r = build_spin(2.0)
    t = build_elliptic_triplet(r, DeformParams(h=0.0, k=0.6))
    assert np.array_equal(t.Xhat, r.Jp)
    assert np.array_equal(t.Yhat, r.Jm)


@pytest.mark.parametrize("j", [0.5, 1.5, 3.0])
def test_jordanian_reduction(j):
    t = build_jordanian_triplet(build_spin(j), 0.9)
    report = relation_residuals(t)
    assert residual_ok(report, 1e-12)
    # labels switch to the hyperbolic family
    assert "eq22" in report and "eq12" not in report


def test_jordanian_matches_elliptic_at_unit_modulus():
    for j in (0.5, 2.0, 8.0):
        r = build_spin(j)
        for h in (0.7, 0.3 - 0.2j):
            tj = build_jordanian_triplet(r, h)
            te = build_elliptic_triplet(r, DeformParams(h=h, k=1.0))
            assert tj.provenance == "uh"
            for a, b in ((tj.Xhat, te.Xhat), (tj.Yhat, te.Yhat), (tj.J0, te.J0)):
                assert np.array_equal(a, b), (j, h)


def test_lift_agrees_with_direct_construction():
    r = build_spin(2.5)
    h, k = 0.8, 0.45
    tj = build_jordanian_triplet(r, h)
    lifted = lift_uh_to_elliptic(tj, k)
    direct = build_elliptic_triplet(r, DeformParams(h=h, k=k))
    scale = max(1.0, frobenius(direct.Xhat), frobenius(direct.Yhat))
    assert frobenius(lifted.Xhat - direct.Xhat) / scale < 1e-11
    assert frobenius(lifted.Yhat - direct.Yhat) / scale < 1e-11
    assert lifted.provenance == "lifted"


def test_lift_rejects_wrong_provenance():
    t = build_elliptic_triplet(build_spin(1.0), DeformParams(h=0.5, k=0.5))
    with pytest.raises(DomainError):
        lift_uh_to_elliptic(t, 0.3)


@pytest.mark.parametrize("j,h,k", [(0.5, 0.3, 0.2), (1.5, 0.9, 0.6), (3.0, 1.2, 0.9)])
def test_inverse_map_roundtrip(j, h, k):
    r = build_spin(j)
    t = build_elliptic_triplet(r, DeformParams(h=h, k=k))
    jp, jm = invert_map(t)
    assert frobenius(jp - r.Jp) / max(1.0, frobenius(r.Jp)) < 1e-11
    assert frobenius(jm - r.Jm) / max(1.0, frobenius(r.Jm)) < 1e-11


@pytest.mark.parametrize("form", ["classical", "jordanian", "elliptic"])
@pytest.mark.parametrize("j", [0.5, 1.0, 2.0, 3.0])
def test_casimir_forms_are_scalar(form, j):
    t = build_elliptic_triplet(build_spin(j), DeformParams(h=0.8, k=0.55))
    c = casimir(t, form)
    target = j * (j + 1) * np.eye(t.rep.dim)
    assert frobenius(c - target) / max(1.0, frobenius(c)) < 1e-10


def test_casimir_rejects_unknown_form_and_shifted_input():
    t = build_jordanian_triplet(build_spin(1.0), 0.6)
    with pytest.raises(DomainError):
        casimir(t, "nope")
    shifted = autos.half_period_shift_uh(t)
    with pytest.raises(DomainError):
        casimir(shifted, "classical")


@pytest.mark.parametrize("k", [0.0, 0.5, 1.0])
def test_anticommutator_function_is_derivative_of_commutator_function(k):
    assert _series_gaps(k, 11)["f_vs_dG"] < 1e-13


def test_three_routes_to_the_anticommutator_function_agree():
    t = build_elliptic_triplet(build_spin(2.5), DeformParams(h=0.9, k=0.7))
    fm = structure_matrices(t)[1]
    scale = max(1.0, frobenius(fm["primary"]))
    # the doubled form is a series identity, checked on coefficients
    assert _series_gaps(t.params.k, t.rep.dim)["f_eq15_vs_eq16"] < 1e-12
    assert frobenius(fm["primary"] - fm["algebraic"]) / scale < 1e-12


@pytest.mark.parametrize("k", [0.0, 0.6, 0.99, 1.0, 0.3 + 0.2j])
def test_series_identities_hold_on_coefficients_at_every_dimension(k):
    """Both gaps for every spin-module dimension up to j = 80.  At k near 1
    the coefficients of sn(2u) grow like (4/pi)**i, so the doubled form
    holds only on a route that never divides by them."""
    for dim in range(1, 162):
        gaps = _series_gaps(k, dim)
        assert gaps["f_vs_dG"] <= 1e-14, dim
        assert gaps["f_eq15_vs_eq16"] <= 1e-14, dim


@pytest.mark.parametrize("j", [2.5, 8.0])
def test_series_gaps_depend_on_k_and_dim_alone(j):
    rep = build_spin(j)
    expected = _series_gaps(0.6, rep.dim)
    for h in (0.0, 0.1, 0.8, 4.0, 100.0, 1e5, 1e8):
        t = build_elliptic_triplet(rep, DeformParams(h=h, k=0.6))
        images = [t, autos.sign_involution(t)]
        if h:  # the period shifts degenerate at h = 0
            images += [autos.period_shift_elliptic(t, spec)[0]
                       for spec in (autos.ELL_IKP, autos.ELL_2K_IKP)]
        for image in images:
            report = relation_residuals(image)
            assert {key: report[key] for key in expected} == expected, (h, image.provenance)


def test_doubled_form_keeps_its_digits_at_large_spin():
    # the former matrix evaluation read 1.6e-9 here
    t = build_elliptic_triplet(build_spin(40.0), DeformParams(h=0.8, k=0.6))
    assert relation_residuals(t)["f_eq15_vs_eq16"] <= 1e-14


def test_doubled_form_check_reads_every_order_a_matrix_sees(monkeypatch):
    from elliptic_sl2 import deform

    def fresh():   # a triplet memoises its gaps, so each perturbation gets its own
        return build_elliptic_triplet(build_spin(2.5), DeformParams(h=0.8, k=0.6))

    dim = fresh().rep.dim
    before = relation_residuals(fresh())["f_eq15_vs_eq16"]
    real = deform._F_doubled_series
    for order in (dim - 1, dim):
        def nudged(k, n, order=order):
            c = real(k, n).coeffs.copy()
            c[order] += 1e-12
            return TruncatedSeries(c)

        monkeypatch.setattr(deform, "_F_doubled_series", nudged)
        after = relation_residuals(fresh())["f_eq15_vs_eq16"]
        if order < dim:   # J+**(dim-1) is the last nonzero power
            assert after > 1e-13
        else:
            assert after == before


def test_relation_residuals_evaluate_one_batch_at_xhat(calculus_calls):
    t = build_elliptic_triplet(build_spin(2.5), DeformParams(h=0.7, k=0.6))
    calculus_calls.clear()
    # G, F, sn and (cn dn)**(-1/2) at Xhat in one batch; F at J+ came with the
    # build's gather, and the series gaps use no matrix
    relation_residuals(t)
    assert calculus_calls.counts() == (1, 0, 4)
    assert calculus_calls.relations() == 1
    calculus_calls.clear()
    invert_map(t)   # sn and (cn dn)**(-1/2) from that batch
    relation_residuals(t)   # the relation norms, and no product
    assert calculus_calls.counts() == (0, 0, 0)
    assert calculus_calls.relations() == 0


def test_a_modulus_whose_square_overflows_is_refused_by_name():
    for k in (1e155, -1e200, 1e200j, complex("nan")):
        with pytest.raises(DomainError, match="modulus k"):
            DeformParams(h=0.8, k=k)
    DeformParams(h=0.8, k=1e154)   # k**2 is about 1e308, still finite


def test_generator_map_is_order_stable():
    # asking for more series order than the module can see changes nothing
    r = build_spin(1.5)
    p = DeformParams(h=0.7, k=0.5)
    x4, y4 = deform_generators(r.Jp, r.Jm, p, 4)
    x12, y12 = deform_generators(r.Jp, r.Jm, p, 12)
    assert np.array_equal(x4, x12)
    assert np.array_equal(y4, y12)


def test_dressing_quartic_crosscheck_reports():
    mid = dressing_quartic_crosscheck(0.5)
    assert mid["matches_printed"] is False
    assert abs(mid["derived_times_minus32"][0] - (3 - 2 * 0.25 + 3 * 0.0625)) < 1e-12
    for k in (0.0, 1.0):
        assert dressing_quartic_crosscheck(k)["matches_printed"] is True


def test_invert_map_rejects_elliptic_shifted_triplets():
    from elliptic_sl2.autos import ELL_IKP, period_shift_elliptic

    t = build_elliptic_triplet(build_spin(1.0), DeformParams(h=0.7, k=0.6))
    image, _ = period_shift_elliptic(t, ELL_IKP)
    with pytest.raises(DomainError):
        invert_map(image)


def _images(j, k):
    t = build_elliptic_triplet(build_spin(j), DeformParams(h=0.8, k=k))
    out = [t, autos.sign_involution(t)]
    if k < 1:
        out += [autos.period_shift_elliptic(t, spec)[0]
                for spec in (autos.ELL_IKP, autos.ELL_2K_IKP)]
    return out


@pytest.mark.parametrize("k", [0.6, 1.0])
@pytest.mark.parametrize("j", [1.0, 2.5, 6.0, 8.0])
def test_each_identity_is_computed_once_with_the_same_bits(j, k):
    for t in _images(j, k):
        # the relations take G and the primary f-matrix times the parity, at
        # the nilpotent part of Xhat, over the image's own |Xhat|
        g, fm, sign = structure_matrices(t)
        norms = _relation_norms(_x_nilpotent(t), t.Yhat, t.J0, sign * g, sign * fm["primary"])
        direct = _relative(norms, frobenius(t.Xhat), k == 1)
        report = relation_residuals(t)
        assert {key: report[key] for key in direct} == direct
    t = _images(j, k)[0]
    # the elliptic Casimir form is J- J+ + J0**2 + J0 through the inverse map
    h, dim = t.params.h, t.rep.dim
    sn_resc, m = _at_half_h(t.Xhat, h, (_sncndn(t.params.k, dim)[0], 1),
                            (_g_inv_of_u(t.params.k, dim), 0))
    expected = m @ t.Yhat @ m @ sn_resc + (t.J0 @ t.J0 + t.J0)
    assert np.array_equal(casimir(t, "elliptic"), expected)


def test_half_h_powers_keep_their_bits_and_refuse_overflow():
    for h in (0.0, 0.7, 0.8 - 0.3j, 1e-200):
        half = complex(h) / 2.0
        assert np.array_equal(_half_h_powers(h, 6), [half ** i for i in range(7)])
    assert _half_h_powers(1e150, 2)[2] == (5e149) ** 2
    for h, n in ((1e150, 3), (1e200 + 1e200j, 2)):  # OverflowError, then NaN parts
        with pytest.raises(DomainError, match="overflows"):
            _half_h_powers(h, n)
    with pytest.raises(DomainError, match="overflows"):
        build_elliptic_triplet(build_spin(1.5), DeformParams(h=1e150, k=0.6))


@pytest.mark.parametrize("k", [0.0, 0.6, 1.0, 0.3 + 0.2j])
def test_doubled_argument_by_scaling_equals_the_composed_reference(k):
    """sd(2u) and nd(2u) are sd and nd with coefficient i scaled by 2**i;
    composing with 2u is the reference, and both give the doubled form with
    the same bits."""
    order = 11
    sd, _, nd = sd_cd_nd_series(k, order + 1)
    two_u = TruncatedSeries.identity(order + 1) * 2.0
    sd2u, nd2u = sd.compose(two_u), nd.compose(two_u)
    S_over_u = TruncatedSeries(_G_series(k, order + 1).coeffs[1:])
    ref = (S_over_u * nd2u.truncated(order)
           * TruncatedSeries(sd2u.coeffs[1:] * 0.5).pow_rational(-1))
    assert np.array_equal(_F_doubled_series(k, order).coeffs, ref.coeffs)


@pytest.mark.parametrize("k", [0.0, 0.7, 1.0, 0.3 + 0.2j])
def test_lift_series_is_arcsn_of_tanh(k):
    order = 21
    through, q = lift_series(k, order)
    ref = _asn(k, order).compose(_sncndn(1.0, order)[0])   # tanh is sn at k = 1
    assert through.order == order == q.order
    assert np.max(np.abs(through.coeffs - ref.coeffs)) <= 1e-15
    with pytest.raises(DomainError, match="order"):
        lift_series(k, 0)
    if k == 1.0:  # arcsn(t, 1) = arctanh(t), and the dressing is 1, exactly
        assert np.array_equal(through.coeffs, TruncatedSeries.identity(order).coeffs)
        assert np.array_equal(q.coeffs, TruncatedSeries.constant(1.0, order).coeffs)


def _exact_product(a, b):
    return [sum((a[i] * b[m - i] for i in range(m + 1)), Fraction(0)) for m in range(len(a))]


def test_lift_series_matches_exact_coefficients():
    """Against the lift's series in Fractions at k**2 = 9/25, from exact tanh
    by the former route: q = (1 - k^2 t^2)**(1/4) (1 - t^2)**(-1/4) and the
    map the integral of q**-2.  Every nonzero coefficient agrees to 1e-13
    relative, and every zero one is exactly zero."""
    order, k2 = 49, Fraction(9, 25)
    t = sn_cn_dn_coeffs(Fraction(1), order)[0]
    t2 = _exact_product(t, t)
    q = _exact_product(pow_coeffs([Fraction(1)] + [-k2 * c for c in t2[1:]], Fraction(1, 4)),
                       pow_coeffs([Fraction(1)] + [-c for c in t2[1:]], Fraction(-1, 4)))
    q_minus_2 = pow_coeffs(q[:order], Fraction(-2))
    through = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(q_minus_2)]
    for got, exact in zip(lift_series(0.6, order), (through, q)):
        assert got.order == order
        for c, e in zip(got.coeffs, exact):
            assert (c == 0) if e == 0 else abs(c - float(e)) <= 1e-13 * abs(float(e))


@pytest.mark.parametrize("h", [0.0, 0.45, 0.8 - 0.3j])
@pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 5.0, 8.0])
def test_coefficient_scaling_matches_matrix_scaling(j, h):
    """F((h/2) M) from scaled coefficients against F evaluated at the scaled
    matrix, the former route, for the plain series of the map."""
    r = build_spin(j)
    p = DeformParams(h=h, k=0.6)
    t = build_elliptic_triplet(r, p)
    uh = build_jordanian_triplet(r, h)
    cases = [(_g_of_v(p.k, r.dim), r.Jp), (_g_inv_of_u(p.k, r.dim), t.Xhat),
             (_F_series(p.k, r.dim), t.Xhat), (exp_series(r.dim), uh.Xhat),
             (_g_of_v(p.k, 2 * r.dim - 1), r.raising.tensor_sum(r.raising))]
    for s, m in cases:
        got, = _at_half_h(m, h, (s, 0))
        if isinstance(m, RaisingPoly):
            got = got.dense()
            expect = mat_apply_series(s, RaisingPoly(complex(h) / 2.0 * m.coeffs, m.w)).dense()
        else:
            expect = mat_apply_series(s, (complex(h) / 2.0) * m)
        assert frobenius(got - expect) <= 1e-14 * frobenius(expect)


def test_one_power_stack_per_argument(calculus_calls):
    r = build_spin(2.5)
    p = DeformParams(h=0.7, k=0.6)
    deform_generators(r.Jp, r.Jm, p, r.dim)
    assert [m.shape for m in calculus_calls.stacks()] == [(6, 6)]
    t = build_elliptic_triplet(r, p)
    calculus_calls.clear()
    relation_residuals(t)           # the batch at Xhat; F at J+ came with the build
    assert [m.shape for m in calculus_calls.stacks()] == [(6, 6)]
    calculus_calls.clear()
    relation_residuals(autos.period_shift_elliptic(t, autos.ELL_IKP)[0])   # shares it
    invert_map(t)                   # so does the inverse map
    assert calculus_calls.counts() == (0, 0, 0)
    uh = build_jordanian_triplet(r, 0.7)
    calculus_calls.clear()
    casimir(uh, "jordanian")        # cosh and sinh of arctanh came with the build
    assert calculus_calls.counts() == (0, 0, 0)
    lifted = lift_uh_to_elliptic(uh, 0.6)
    calculus_calls.clear()
    relation_residuals(lifted)      # its map is no series of J+: one gather on first use
    casimir(lifted, "jordanian")
    assert calculus_calls.counts() == (1, 1, 4)


def _spin_verify_sequence(t):
    """Every check the spin-verify benchmark runs on one triplet."""
    relation_residuals(t)
    for form in ("classical", "jordanian", "elliptic"):
        casimir(t, form)
    invert_map(t)
    relation_residuals(autos.sign_involution(t))
    if t.params.k != 1:
        for spec in (autos.ELL_IKP, autos.ELL_2K_IKP):
            autos.period_shift_elliptic(t, spec)
    else:
        half = autos.half_period_shift_uh(t)
        relation_residuals(half)
        invert_map(autos.half_period_shift_uh(half))


@pytest.mark.parametrize("k", [0.6, 1.0])
def test_spin_verify_sequence_makes_one_gather_and_one_power_stack(k, calculus_calls,
                                                                   monkeypatch):
    """The build's gather at J+ gives the map and every other function of J+
    (F, and cosh, dressing and sinh of the Jordanian Casimir form), one
    batch at Xhat gives G, F, sn and (cn dn)**(-1/2), and the relation
    products are formed once; the sign and shift images share all three.
    Two (h/2)**i tables, one per argument."""
    from elliptic_sl2 import deform

    tables = []
    real = deform._half_h_powers
    monkeypatch.setattr(deform, "_half_h_powers", lambda h, n: tables.append(n) or real(h, n))
    _spin_verify_sequence(build_elliptic_triplet(build_spin(8.0), DeformParams(h=0.45, k=k)))
    assert [m.shape for m in calculus_calls.stacks()] == [(17, 17)]
    assert calculus_calls.counts() == (1, 1, 4)
    assert calculus_calls.relations() == 1
    assert len(tables) == 2


@pytest.mark.parametrize("k", [0.6, 1.0, 0.3 + 0.2j])
@pytest.mark.parametrize("h", [0.45, 0.8 - 0.3j, 2.0])
def test_sign_image_reads_the_bits_of_an_evaluation_at_minus_xhat(h, k):
    """G and sn negated, F and (cn dn)**(-1/2) as they are: parity, and
    negation exact in every power, block and Horner step."""
    for j in (0.5, 1.0, 2.5, 4.5, 8.0, 12.5, 20.0, 40.0):
        t = build_elliptic_triplet(build_spin(j), DeformParams(h=h, k=k))
        dim = t.rep.dim
        fresh = _at_half_h(-t.Xhat, h, (_G_series(k, dim), 1), (_F_series(k, dim), 0),
                           (_sncndn(k, dim)[0], 1), (_g_inv_of_u(k, dim), 0))
        for got, expect in zip(_at_nilpotent_part(autos.sign_involution(t)), fresh):
            assert np.array_equal(got, expect), (j, h, k)


def test_sign_image_shares_one_stack_in_either_order(calculus_calls):
    def checks(t):
        return relation_residuals(t), invert_map(t), casimir(t, "elliptic")

    results = []
    for sign_first in (False, True):
        t = build_elliptic_triplet(build_spin(4.5), DeformParams(h=0.45, k=0.6))
        calculus_calls.clear()
        if sign_first:
            image = autos.sign_involution(t)
            image_checks, base_checks = checks(image), checks(t)
        else:
            base_checks = checks(t)
            image = autos.sign_involution(t)
            image_checks = checks(image)
        assert calculus_calls.counts() == (1, 0, 4), sign_first
        assert calculus_calls.relations() == 1, sign_first
        results.append((base_checks, image_checks))
    (base_a, image_a), (base_b, image_b) = results
    for a, b in ((base_a, base_b), (image_a, image_b)):
        assert a[0] == b[0]
        assert all(np.array_equal(x, y) for x, y in zip((*a[1], a[2]), (*b[1], b[2])))
    # the sign image's inverse map is (-J+, -J-), and its relations hold
    assert all(np.array_equal(x, -y) for x, y in zip(image_a[1], base_a[1]))
    assert residual_ok(image_a[0], 1e-12)


def _casimir_gap(t, form):
    j = t.rep.j
    c = casimir(t, form)
    return frobenius(c - j * (j + 1) * np.eye(t.rep.dim)) / max(1.0, frobenius(c))


def test_jordanian_casimir_catches_a_wrong_dressing(monkeypatch):
    """The Jordanian form takes its dressing from g at k = 1, the Miller
    power ((1 - v**2)(1 - k**2 v**2))**(1/4), so a wrong exponent there shows
    in it."""
    from elliptic_sl2 import deform

    rep, p = build_spin(2.5), DeformParams(h=0.8, k=0.55)
    builds = (lambda: build_elliptic_triplet(rep, p), lambda: build_jordanian_triplet(rep, p.h))
    assert all(_casimir_gap(build(), "jordanian") < 1e-12 for build in builds)
    real = deform.pow_coeffs
    _g_of_v.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(deform, "pow_coeffs",
                          lambda a, power: real(a, power + 1e-6 if power == 0.25 else power))
            assert all(_casimir_gap(build(), "jordanian") > 1e-9 for build in builds)
    finally:
        _g_of_v.cache_clear()


@pytest.mark.parametrize("k", [1.0, 0.6])
def test_the_jordanian_dressing_is_the_map_dressing_at_k_1(k):
    """The Jordanian dressing is g at k = 1, one series.  At order 81 a
    separate Miller power (1 - v**2)**(1/2) differs from g in its last bits."""
    rep, h = build_spin(40.0), 0.45
    t = build_elliptic_triplet(rep, DeformParams(h=h, k=k))
    assert _jordanian_factors(rep.dim)[1] is _g_of_v(1.0, rep.dim)
    dress = _at_raising(t)[2]
    assert np.array_equal(dress, _at_half_h(rep.raising, h, (_g_of_v(1.0, rep.dim), 0))[0].dense())
    if k == 1.0:   # Yhat is dressed by the same matrix
        assert np.array_equal(t.Yhat, dress @ rep.Jm @ dress)


@pytest.mark.parametrize("a", [0.5, -0.5, 0.25, -1.0])
def test_binomial_powers_match_the_miller_recurrence(a):
    """(1 - v**2)**a by Miller's recurrence against its binomial form: the
    coefficient of v**(2n) is prod_{m=1..n} (m - 1 - a)/m."""
    order = 17
    u = TruncatedSeries.identity(order)
    binomial = np.zeros(order + 1)
    binomial[0] = term = 1.0
    for m in range(1, order // 2 + 1):
        term *= (m - 1 - a) / m
        binomial[2 * m] = term
    miller = pow_coeffs((1.0 - u * u).coeffs.tolist(), a)
    assert np.max(np.abs(np.array(miller) - binomial)) <= 1e-16
    cosh, dress, sinh = _jordanian_factors(order)
    # cosh and sinh of arctanh v, and cosh * dress = 1
    assert np.max(np.abs(sinh.coeffs - (u * cosh).coeffs)) == 0
    assert np.max(np.abs((cosh * dress).coeffs - TruncatedSeries.constant(1.0, order).coeffs)) <= 1e-16
