"""The dtype rule: float64 at real h and k, complex128 where an input is
complex, and a demotion that never drops an imaginary part."""

import math

import numpy as np
import pytest

from elliptic_sl2 import autos, hopf
from elliptic_sl2.deform import (
    DeformParams,
    _half_h_powers,
    build_elliptic_triplet,
    build_jordanian_triplet,
    invert_map,
    relations_on_generators,
    structure_matrices,
)
from elliptic_sl2.liealg import (
    RaisingPoly,
    build_spin,
    commutator,
    densify,
    frobenius,
    mat_apply_series,
    real_if_exact,
    worst,
)
from elliptic_sl2.series import TruncatedSeries
from reference_complex import complex_calculus

F64, C128 = np.dtype(np.float64), np.dtype(np.complex128)


def _signed(rng, shape, kind):
    """Random entries with exact zeros of both signs mixed in."""
    a = rng.standard_normal(shape)
    if kind == "complex":
        a = a + 1j * rng.standard_normal(shape)
    mask = rng.random(shape)
    a[mask < 0.1] = 0.0
    a[mask > 0.9] = -0.0
    return a


@pytest.mark.parametrize("kinds", [("real", "real"), ("complex", "complex"),
                                   ("real", "complex"), ("complex", "real")])
@pytest.mark.parametrize("d1,d2", [(5, 5), (9, 9), (9, 11), (11, 11), (25, 5)])
def test_kron_is_np_kron_bit_for_bit(d1, d2, kinds):
    """Every Kronecker-order matrix of the raising algebra comes from the one
    gather: each monomial S1**a1 S2**a2 on two factors with random signed
    superdiagonals, real or complex, is np.kron of the factors' S**a, in
    dtype and in value bit for bit."""
    rng = np.random.default_rng(d1 * 100 + d2)
    w1, w2 = _signed(rng, d1 - 1, kinds[0]), _signed(rng, d2 - 1, kinds[1])
    s1 = densify([RaisingPoly(c, (w1,)) for c in np.eye(d1)])
    s2 = densify([RaisingPoly(c, (w2,)) for c in np.eye(d2)])
    monomials = densify([RaisingPoly(c, (w1, w2)) for c in np.eye(d1 * d2).reshape(-1, d1, d2)])
    for (a1, a2), got in zip(np.ndindex(d1, d2), monomials):
        expect = np.kron(s1[a1], s2[a2])
        assert got.dtype == expect.dtype and np.array_equal(got, expect), (a1, a2)


def test_real_if_exact_keeps_every_nonzero_imaginary_part():
    for tiny in (1e-300, 5e-324, -1e-300, math.nan, math.inf, -math.inf):
        a = np.array([[1.0, 2.0], [3.0, complex(4.0, tiny)]])
        got = real_if_exact(a)
        assert got.dtype == C128
        assert got.tobytes() == a.tobytes()
    a = np.array([complex(1.0, 0.0), complex(-2.0, -0.0), complex(math.nan, 0.0)])
    got = real_if_exact(a)
    assert got.dtype == F64 and got.flags.c_contiguous
    assert got.tobytes() == a.real.copy().tobytes()
    assert real_if_exact([1, 2]).dtype == F64
    assert real_if_exact(np.eye(2, dtype=np.complex64) * 1j).dtype == C128


def test_a_tiny_or_nan_imaginary_part_reaches_the_result():
    r = build_spin(2.0)
    s = TruncatedSeries(np.ones(5, dtype=complex))
    m = r.Jp.astype(complex)
    m[0, 1] += 1e-300j
    got = mat_apply_series(s, m)
    assert got.dtype == C128 and got.imag.any()
    tiny = RaisingPoly(r.raising.coeffs, (np.diagonal(m, 1),))
    assert mat_apply_series(s, tiny.tensor_sum(r.raising)).dense().imag.any()
    assert commutator(m, r.J0).imag.any()
    c = np.ones(5, dtype=complex)
    c[3] = complex(1.0, 1e-300)
    assert mat_apply_series(TruncatedSeries(c), r.Jp).imag.any()
    # a NaN imaginary part is not dropped, and its residual fails the verdict
    t = build_elliptic_triplet(r, DeformParams(h=0.8, k=0.6))
    g, fm, sign = structure_matrices(t)
    y = t.Yhat.astype(complex)
    y[1, 0] += complex(0.0, math.nan)
    report = relations_on_generators(t.Xhat, y, t.J0, sign * g, sign * fm["primary"], False)
    assert not worst([1e-17, *report.values()]) <= 1e-9
    m[0, 1] = complex(1.0, math.nan)
    assert math.isnan(frobenius(mat_apply_series(s, m)))


def test_real_h_and_k_give_float64_throughout():
    p = DeformParams(h=0.8, k=0.6)
    r1, r2 = build_spin(1.5), build_spin(2.0)
    assert all(m.dtype == F64 for m in (r1.Jp, r1.Jm, r1.J0))
    t = build_elliptic_triplet(r1, p)
    assert all(m.dtype == F64 for m in (t.Xhat, t.Yhat, t.J0, *invert_map(t)))
    for ct in (hopf.delta1(p, r1, r2), hopf.delta_uh(0.8, r1, r2), hopf.delta2(p, r1, r2)):
        assert all(m.dtype == F64 for m in (ct.DX, ct.DY, ct.DJ0)), ct.source
    s = TruncatedSeries(np.arange(1.0, 9.0).astype(complex))
    assert mat_apply_series(s, r1.Jp).dtype == F64
    assert mat_apply_series(s, r1.raising.tensor_sum(r2.raising)).dense().dtype == F64
    assert _half_h_powers(0.8, 6).dtype == F64


def test_complex_inputs_give_complex128():
    r = build_spin(1.5)
    for p in (DeformParams(h=0.8 + 0.2j, k=0.6), DeformParams(h=0.8, k=0.6 + 0.1j)):
        t = build_elliptic_triplet(r, p)
        assert t.Xhat.dtype == C128 and t.Yhat.dtype == C128
        ct = hopf.delta2(p, r, r)
        assert ct.DX.dtype == C128 and ct.DY.dtype == C128
    assert _half_h_powers(0.8 + 0.2j, 6).dtype == C128
    t = build_elliptic_triplet(r, DeformParams(h=0.8, k=0.6))
    for spec in (autos.ELL_IKP, autos.ELL_2K_IKP):
        image, _ = autos.period_shift_elliptic(t, spec)
        assert image.Xhat.dtype == C128 and image.Xhat.imag.any()
    half = autos.half_period_shift_uh(build_jordanian_triplet(r, 0.8))
    assert half.Xhat.dtype == C128 and half.Xhat.imag.any()


def _rel_gap(got, ref):
    return frobenius(got - ref) / frobenius(ref)


def _singles(h, k):
    for j in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        t = build_elliptic_triplet(build_spin(j), DeformParams(h=h, k=k))
        g, fm, _ = structure_matrices(t)
        yield (j,), (t.Xhat, t.Yhat, *invert_map(t), g, fm["primary"])


def _coproducts(h, k):
    p = DeformParams(h=h, k=k)
    js = (0.5, 1.0, 1.5, 2.0)
    for j1 in js:
        for j2 in js:
            r1, r2 = build_spin(j1), build_spin(j2)
            for ct in (hopf.delta1(p, r1, r2), hopf.delta_uh(h, r1, r2), hopf.delta2(p, r1, r2)):
                yield (ct.source, j1, j2), (ct.DX, ct.DY, ct.DJ0)


@pytest.mark.parametrize("build", [_singles, _coproducts])
def test_float64_matches_a_complex_horner_on_the_acceptance_grid(build, monkeypatch):
    grid = [(h, k) for h in (0.3, 0.9, 1.5) for k in (0.0, 0.4, 0.8, 1.0)]
    real = {(h, k) + key: mats for h, k in grid for key, mats in build(h, k)}
    with complex_calculus(monkeypatch):
        ref = {(h, k) + key: mats for h, k in grid for key, mats in build(h, k)}
    assert real.keys() == ref.keys()
    top = 0.0
    for key, mats in real.items():
        assert all(m.dtype == F64 for m in mats), key
        top = max(top, *(_rel_gap(m, r) for m, r in zip(mats, ref[key])))
    assert top <= 1e-14


def test_a_real_coproduct_check_builds_no_complex_power_stack(calculus_calls, monkeypatch):
    """Every function a coproduct check evaluates is taken in the raising
    algebra, so no dense power stack is built; at real h and k every element
    and every multiplication matrix is float64, and a complex h or k makes
    them complex128."""
    from elliptic_sl2 import liealg

    r1, r2 = build_spin(1.0), build_spin(1.5)
    seen = []
    real = liealg._poly_apply
    # the element route's entry, which receives the coefficient table
    monkeypatch.setattr(liealg, "_poly_apply",
                        lambda table, x: seen.append(x.coeffs.dtype) or real(table, x))
    for p, dtype in ((DeformParams(h=0.8, k=0.6), F64), (DeformParams(h=0.8 + 0.2j, k=0.6), C128),
                     (DeformParams(h=0.8, k=0.3 + 0.2j), C128)):
        seen.clear(), calculus_calls.clear()
        report = hopf.verify_coproduct(hopf.delta2(p, r1, r2))
        assert calculus_calls.stacks() == [] and seen
        assert all(type(v) is float for v in report.values())
        if dtype == F64:
            assert set(seen) == {F64}
        else:   # the factors' raising generators stay real; the images do not
            assert C128 in seen
