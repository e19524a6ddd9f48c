"""Discrete symmetries: sign involution, half and full period shifts,
scalar half-period identities, the exact induced maps."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from elliptic_sl2.autos import (
    ELL_2K_IKP,
    ELL_IKP,
    UH_HALF,
    half_period_shift_uh,
    highest_weight_shift_error,
    inversion_symbolic_report,
    period_shift_elliptic,
    scalar_shift_identities,
    sign_involution,
)
from elliptic_sl2.deform import (
    DeformedTriplet,
    DeformParams,
    build_elliptic_triplet,
    build_jordanian_triplet,
    invert_map,
    relation_residuals,
    structure_matrices,
)
from elliptic_sl2.errors import DomainError
from elliptic_sl2.liealg import RaisingPoly, build_spin, frobenius
from reference_landen import shift_gaps_scalar


def worst_residual(report):
    return max(v for k, v in report.items()
               if isinstance(v, float) and k not in ("epsilon",))


def test_sign_involution_preserves_relations_and_squares_to_id():
    t = build_elliptic_triplet(build_spin(1.5), DeformParams(h=0.7, k=0.6))
    s = sign_involution(t)
    assert worst_residual(relation_residuals(s)) < 1e-12
    ss = sign_involution(s)
    assert np.array_equal(ss.Xhat, t.Xhat)
    assert np.array_equal(ss.Yhat, t.Yhat)
    assert np.array_equal(ss.J0, t.J0)


def test_half_period_shift_hyperbolic():
    h = 0.9
    t = build_jordanian_triplet(build_spin(1.5), h)
    s = half_period_shift_uh(t)
    assert (s.shift_a, s.shift_b) == (0, 1)   # i pi/h = (2/h) i K' at k = 1
    assert worst_residual(relation_residuals(s)) < 1e-12
    # the highest-weight vector sees exactly the offset eigenvalue
    assert highest_weight_shift_error(s) == 0.0
    assert s.Xhat[0, 0] == 1j * math.pi / h


def test_highest_weight_sees_the_offset_of_every_shift_exactly():
    t = build_elliptic_triplet(build_spin(1.5), DeformParams(h=0.7, k=0.6))
    images = [period_shift_elliptic(t, spec)[0] for spec in (ELL_IKP, ELL_2K_IKP)]
    images.append(period_shift_elliptic(images[0], ELL_2K_IKP)[0])
    assert (images[-1].shift_a, images[-1].shift_b) == (2, 2)
    for image in images:
        assert highest_weight_shift_error(image) == 0.0
    # three half shifts at a complex scale: the offset is never accumulated
    # in floating point, so the nilpotent part stays strictly upper-triangular
    s = build_jordanian_triplet(build_spin(2.0), 0.3 - 0.2j)
    for _ in range(3):
        s = half_period_shift_uh(s)
    assert highest_weight_shift_error(s) == 0.0
    assert worst_residual(relation_residuals(s)) < 1e-12


def test_two_half_shifts_make_a_full_period():
    h = 0.7
    r = build_spin(2.0)
    t = build_jordanian_triplet(r, h)
    s2 = half_period_shift_uh(half_period_shift_uh(t))
    assert (s2.shift_a, s2.shift_b) == (0, 2)
    jp, jm = invert_map(s2)
    assert frobenius(jp - r.Jp) < 1e-12
    assert frobenius(jm - r.Jm) < 1e-12


def test_half_shift_guards():
    t_ell = build_elliptic_triplet(build_spin(1.0), DeformParams(h=0.7, k=0.5))
    with pytest.raises(DomainError):
        half_period_shift_uh(t_ell)
    t_uh = build_jordanian_triplet(build_spin(1.0), 0.7)
    s = half_period_shift_uh(t_uh)
    with pytest.raises(DomainError):
        invert_map(s)  # odd number of half shifts has no inverse image
    with pytest.raises(DomainError):
        sign_involution(s)


def test_sign_involution_refuses_a_shifted_triplet_before_any_evaluation(calculus_calls):
    shifted = half_period_shift_uh(build_jordanian_triplet(build_spin(2.0), 0.7))
    calculus_calls.clear()
    with pytest.raises(DomainError, match="unshifted"):
        sign_involution(shifted)
    assert calculus_calls.counts() == (0, 0)


def test_half_shift_at_minus_one_is_the_half_shift_at_one():
    """K' depends on k**2 alone, so k = -1 takes the same i K' = i pi/2 step."""
    h, rep = 0.9, build_spin(2.0)
    images = [half_period_shift_uh(build_elliptic_triplet(rep, DeformParams(h=h, k=k)))
              for k in (1.0, -1.0)]
    for s in images:
        assert s.Xhat[0, 0] == 1j * math.pi / h
        assert highest_weight_shift_error(s) == 0.0
        assert worst_residual(relation_residuals(s)) < 1e-12
    assert np.array_equal(images[0].Xhat, images[1].Xhat)
    jp, jm = invert_map(half_period_shift_uh(images[1]))
    assert frobenius(jp - rep.Jp) < 1e-12 and frobenius(jm - rep.Jm) < 1e-12


@pytest.mark.parametrize("spec", [ELL_IKP, ELL_2K_IKP])
def test_a_shift_by_a_period_of_sn_inverts(spec):
    """Twice i K' is 2 i K', and twice 2K + i K' is 4K + 2 i K': both are
    periods of sn and of cn dn, so the inverse map gives back (J+, J-)."""
    rep = build_spin(2.5)
    t = build_elliptic_triplet(rep, DeformParams(h=0.7, k=0.6))
    twice, _ = period_shift_elliptic(period_shift_elliptic(t, spec)[0], spec)
    jp, jm = invert_map(twice)
    assert frobenius(jp - rep.Jp) <= 1e-12
    assert frobenius(jm - rep.Jm) <= 1e-12


def test_a_shift_by_no_period_of_sn_has_no_inverse():
    t = build_elliptic_triplet(build_spin(2.5), DeformParams(h=0.7, k=0.6))
    once, _ = period_shift_elliptic(t, ELL_IKP)
    mixed, _ = period_shift_elliptic(once, ELL_2K_IKP)   # 2K + 2 i K': a = 2
    assert (mixed.shift_a, mixed.shift_b) == (2, 2)
    thrice, _ = period_shift_elliptic(mixed, ELL_IKP)     # b odd
    for image in (once, mixed, thrice):
        with pytest.raises(DomainError):
            invert_map(image)


@pytest.mark.parametrize("spec", [ELL_IKP, ELL_2K_IKP])
def test_elliptic_period_shifts(spec):
    t = build_elliptic_triplet(build_spin(1.5), DeformParams(h=0.7, k=0.6))
    image, report = period_shift_elliptic(t, spec)
    assert report["kind"] == spec.kind
    assert report["epsilon"] == spec.epsilon
    assert worst_residual(report) < 1e-10
    assert image.shift_b == 1
    assert image.shift_a == spec.du_a


def test_elliptic_shift_twice_restores_parity():
    t = build_elliptic_triplet(build_spin(1.0), DeformParams(h=0.7, k=0.6))
    once, _ = period_shift_elliptic(t, ELL_IKP)
    twice, report = period_shift_elliptic(once, ELL_IKP)
    assert twice.shift_b == 2
    assert np.array_equal(twice.Yhat, t.Yhat)
    assert worst_residual(report) < 1e-10


def test_elliptic_shift_guards():
    t_uh = build_jordanian_triplet(build_spin(1.0), 0.7)
    with pytest.raises(DomainError):
        period_shift_elliptic(t_uh, ELL_IKP)  # k**2 = 1 has no real period pair
    t = build_elliptic_triplet(build_spin(1.0), DeformParams(h=0.7, k=0.6))
    s = half_period_shift_uh(build_jordanian_triplet(build_spin(1.0), 0.7))
    with pytest.raises(DomainError):
        period_shift_elliptic(s, ELL_IKP)
    with pytest.raises(DomainError):
        period_shift_elliptic(t, UH_HALF)


@pytest.mark.parametrize("k", [0.3, 0.6, 0.9])
def test_scalar_half_period_identities(k):
    report = scalar_shift_identities(k, n_samples=40)
    assert max(report["max_gaps"].values()) < 1e-9
    assert report["epsilon_branches"] == {"ell-iKp": +1, "ell-2KiKp": -1}


def test_scalar_identities_are_seed_deterministic():
    a = scalar_shift_identities(0.5, n_samples=10, seed=123)
    b = scalar_shift_identities(0.5, n_samples=10, seed=123)
    assert a == b


def test_scalar_identities_make_one_kernel_call(monkeypatch):
    from elliptic_sl2 import autos

    calls = []
    real = autos.jacobi_numeric

    def counted(u, k):
        calls.append(np.shape(u))
        return real(u, k)

    monkeypatch.setattr(autos, "jacobi_numeric", counted)
    scalar_shift_identities(0.6, n_samples=25)
    assert calls == [(6, 25)]


def test_dn_imaginary_period_holds_at_small_moduli():
    """dn(u + iK') = -dn(u - iK') is checked on two points near height K',
    which keep their digits as k goes to 0; points at u +- 2iK' lost up to
    7.5e-7 on this scan.  Away from small k every gap is at rounding level."""
    small = [scalar_shift_identities(0.002 * i, n_samples=25)["max_gaps"]["dn_period_4iKp"]
             for i in range(1, 101)]
    assert max(small) <= 1e-9
    wide = [max(scalar_shift_identities(0.5 + 0.01 * i, n_samples=25)["max_gaps"].values())
            for i in range(41)]
    assert max(wide) <= 5e-14


@pytest.mark.parametrize("k", [0.08, 0.3, 0.6, 0.9])
def test_scalar_identities_match_the_scalar_loop(k):
    report = scalar_shift_identities(k, n_samples=25, seed=71)
    reference = shift_gaps_scalar(k, n_samples=25, seed=71)
    assert list(report["max_gaps"]) == list(reference)
    for name, gap in report["max_gaps"].items():
        assert type(gap) is float
        assert abs(gap - reference[name]) <= 1e-14, name


@pytest.mark.parametrize("eps", [+1, -1])
def test_induced_inversion_map_is_exact(eps):
    report = inversion_symbolic_report(0.7, 0.6, eps)
    assert report["all_zero"] is True
    assert len(report["samples"]) >= 3
    for row in report["samples"]:
        assert row["automorphism"] is True
        assert row["involution"] is True


def test_induced_inversion_samples_round_to_small_denominators_but_never_to_zero():
    row = inversion_symbolic_report(0.7, 0.6, 1)["samples"][0]
    assert (row["h"], row["k"]) == ("7/10", "3/5")
    row = inversion_symbolic_report(0.7, 4e-13, 1)["samples"][0]
    assert row["k"] == str(Fraction(4e-13)) and row["automorphism"] and row["involution"]
    with pytest.raises(DomainError, match="nonzero"):
        inversion_symbolic_report(0.7, 0.0, 1)


def _by_hand(t):
    """A triplet holding t's arrays, built with an empty memo."""
    return DeformedTriplet(Xhat=t.Xhat, Yhat=t.Yhat, J0=t.J0, params=t.params, rep=t.rep,
                           provenance=t.provenance, x=t.x, shift_a=t.shift_a, shift_b=t.shift_b)


@pytest.mark.parametrize("j", [1.0, 2.5, 8.0, 12.5])
def test_images_share_only_values_equal_to_their_own(j):
    for h in (0.8, 0.8 - 0.3j):
        rep = build_spin(j)
        t = build_elliptic_triplet(rep, DeformParams(h=h, k=0.6))
        uh = build_jordanian_triplet(rep, h)
        for base in (t, uh):   # the images find their base's values computed
            relation_residuals(base)
        sign = sign_involution(t)
        shifts = [period_shift_elliptic(t, spec) for spec in (ELL_IKP, ELL_2K_IKP)]
        half = half_period_shift_uh(uh)
        full = half_period_shift_uh(half)
        for image, report in [(sign, None), *shifts, (half, None), (full, None)]:
            fresh = relation_residuals(_by_hand(image))
            assert relation_residuals(image) == fresh, h
            if report is not None:
                assert {key: report[key] for key in fresh} == fresh
        # the shifts take G and the primary F of their base; the sign image
        # only F at J+
        base_g, base_f, _ = structure_matrices(t)
        for image, _ in shifts:
            g, f, _ = structure_matrices(image)
            assert g is base_g and f["primary"] is base_f["primary"]
        g, f, _ = structure_matrices(sign)
        assert g is not base_g and f["algebraic"] is base_f["algebraic"]
        assert structure_matrices(full)[0] is structure_matrices(uh)[0]
        for a, b in zip(invert_map(full), invert_map(_by_hand(full))):
            assert np.array_equal(a, b)


def _evaluate(t):
    """Every check that reads the memo: relations, structure functions and,
    where t admits it, the inverse map."""
    relation_residuals(t)
    structure_matrices(t)
    if not (t.shift_a % 4 or t.shift_b % 2):
        invert_map(t)


@pytest.mark.parametrize("base_first", [True, False])
@pytest.mark.parametrize("h", [0.45, 0.8 - 0.3j])
@pytest.mark.parametrize("j", [0.5, 2.5, 8.0])
def test_images_of_the_sign_image_read_the_bits_of_their_own_evaluation(j, h, base_first,
                                                                        calculus_calls):
    """Both elliptic shifts and the sign involution of a sign image, and the
    uh half and full shifts of one (sign -1 with odd and with even i K'
    count), read what a fresh evaluation of each gives, bit for bit,
    whether the base is evaluated before its images or after them.  Each
    build makes one power table and one gather at x and forms the relation
    products once."""
    rep = build_spin(j)
    t, uh = build_elliptic_triplet(rep, DeformParams(h=h, k=0.6)), build_jordanian_triplet(rep, h)
    calculus_calls.clear()
    if base_first:
        for base in (t, uh):
            _evaluate(base)
    made = len(calculus_calls.log)
    s, su = sign_involution(t), sign_involution(uh)
    assert len(calculus_calls.log) == made   # making a sign image evaluates nothing
    images = [s, *(period_shift_elliptic(s, spec)[0] for spec in (ELL_IKP, ELL_2K_IKP)),
              sign_involution(s), su, half_period_shift_uh(su)]
    images.append(half_period_shift_uh(images[-1]))
    assert [(i.sign, i.shift_b) for i in images] == [(-1, 0), (-1, 1), (-1, 1), (1, 0),
                                                      (-1, 0), (-1, 1), (-1, 2)]
    for image in images:
        _evaluate(image)
    if not base_first:
        for base in (t, uh):
            _evaluate(base)
    at_x = [b.x.coeffs for b in (t, uh) if rep.dim > 2]   # at j = 1/2, x is J+: no table
    tables = calculus_calls.tables()
    assert len(tables) == len(at_x) and all(map(np.array_equal, tables, at_x))
    assert calculus_calls.counts() == (len(at_x), 2) and calculus_calls.relations() == 2
    for image in images:
        fresh = _by_hand(image)
        assert relation_residuals(image) == relation_residuals(fresh)
        assert np.array_equal(structure_matrices(image)[0], structure_matrices(fresh)[0])
    for a, b in zip(invert_map(images[-1]), invert_map(uh)):
        assert np.array_equal(a, -b)


def _shift_images(j):
    """A base whose relations are computed, and its three shift images."""
    rep = build_spin(j)
    t = build_elliptic_triplet(rep, DeformParams(h=0.8, k=0.6))
    uh = build_jordanian_triplet(rep, 0.8)
    for base in (t, uh):
        relation_residuals(base)
    return [period_shift_elliptic(t, spec)[0] for spec in (ELL_IKP, ELL_2K_IKP)] + [
        half_period_shift_uh(uh)]


@pytest.mark.parametrize("j", [0.5, 2.5, 8.0])
def test_a_shift_image_with_yhat_or_j0_unflipped_fails_its_relations(j):
    """Sharing holds only under the sign table: a triplet that holds a shift
    image's Xhat and shift counts but its base's Yhat or J0 computes its own
    relations, and they fail."""
    for image in _shift_images(j):
        base_y, base_j0 = -image.Yhat, -image.J0
        for changes in ({"Yhat": base_y}, {"J0": base_j0}):
            wrong = _by_hand(replace(image, **changes))
            assert worst_residual(relation_residuals(wrong)) > 1e-9, (image.shift_a, changes)
        assert worst_residual(relation_residuals(_by_hand(image))) < 1e-9


def test_a_replaced_image_never_reads_the_shared_norms(calculus_calls):
    t = build_elliptic_triplet(build_spin(2.5), DeformParams(h=0.8, k=0.6))
    relation_residuals(t)
    for image in [sign_involution(t), *_shift_images(2.5)]:
        before = relation_residuals(image)
        changed = replace(image, Yhat=3.0 * image.Yhat)
        calculus_calls.clear()
        report = relation_residuals(changed)
        assert calculus_calls.relations() == 1
        assert report == relation_residuals(_by_hand(changed))
        assert worst_residual(report) > 1e-9 > worst_residual(before)


def _doubled(t):
    """t with Xhat and its element x both doubled."""
    return replace(t, Xhat=2.0 * t.Xhat, x=RaisingPoly(2.0 * t.x.coeffs, t.x.w))


def test_replaced_arrays_never_meet_a_stale_value():
    t = build_elliptic_triplet(build_spin(2.5), DeformParams(h=0.8, k=0.6))
    relation_residuals(t)
    invert_map(t)
    for changed in (_doubled(t), replace(t, Yhat=3.0 * t.Yhat)):
        assert relation_residuals(changed) == relation_residuals(_by_hand(changed))
        for a, b in zip(invert_map(changed), invert_map(_by_hand(changed))):
            assert np.array_equal(a, b)
    assert not np.array_equal(invert_map(replace(t, Yhat=3.0 * t.Yhat))[1], invert_map(t)[1])
    assert not np.array_equal(structure_matrices(_doubled(t))[0], structure_matrices(t)[0])


def test_memoised_arrays_are_read_only():
    t = build_elliptic_triplet(build_spin(1.5), DeformParams(h=0.8, k=0.6))
    g, f, _ = structure_matrices(t)
    for a in (g, f["primary"], f["algebraic"], *invert_map(t)):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    assert t.Xhat.flags.writeable   # the triplet's own arrays are untouched
