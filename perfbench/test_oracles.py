"""The benchmark's checks must reject corrupted results.

    python3 -m pytest perfbench -q

Each test runs one real operation, confirms that its check accepts the
result, then corrupts one piece (a matrix entry by 1e-6, a normal-form
coefficient, an emitted float) and expects the check to raise.
"""

import dataclasses
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402


def op_of(workload, kind):
    return next(op for op in workload.ops if op.kind == kind)


def fresh(workload, op):
    workload.before_op()
    return op.run()


def rejects(op, result):
    with pytest.raises(O.CheckError):
        op.check(result)


def nudge(mat, nth=0, by=1e-6):
    """A copy of mat with its nth nonzero entry moved by ``by``."""
    out = mat.copy()
    i, j = np.argwhere(out != 0)[nth]
    out[i, j] += by
    return out


# -- the oracles themselves ---------------------------------------------------


def test_own_spin_matrices_satisfy_sl2_relations():
    jp, jm, j0 = O.spin_matrices(3.5)
    assert O.rel_gap(jp @ jm - jm @ jp, 2 * j0) < 1e-14
    assert O.rel_gap(j0 @ jp - jp @ j0, jp) < 1e-14
    assert O.rel_gap(jm @ jp + j0 @ j0 + j0, O.casimir_target(3.5)) < 1e-14


def test_swap_is_the_factor_flip():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 3)), rng.normal(size=(4, 4))
    assert np.array_equal(O.swap(np.kron(a, b), 3, 4), np.kron(b, a))


def test_exact_modules_satisfy_the_relations_and_catch_a_wrong_map():
    for modules in (O.LAURENT, (O.SpinModule(5),)):
        jp, jm, j0 = (lambda v, m, g=g: O.apply_letter(g, v, m) for g in ("Jp", "Jm", "J0"))
        assert O.automorphism_gap(jp, jm, j0, modules) == 0.0
        assert O.automorphism_gap(jm, jp, j0, modules) == 1.0


# -- spin-verify --------------------------------------------------------------


@pytest.fixture(scope="module")
def spin():
    return W.spin_verify(random.Random(3))


def with_pair(outs, i, **changes):
    """The per-pair results of a spin operation with pair i's entries replaced."""
    return outs[:i] + [dict(outs[i], **changes)] + outs[i + 1:]


def test_spin_check_rejects_perturbed_inverse_and_casimir(spin):
    op = op_of(spin, "j6")
    outs = fresh(spin, op)
    assert op.check(outs)
    for i in (0, len(outs) - 1):  # an elliptic pair and the k = 1 pair
        inverse = outs[i]["inverse"]
        rejects(op, with_pair(outs, i, inverse=(nudge(inverse[0]), inverse[1])))
        casimir = outs[i]["casimir"]
        rejects(op, with_pair(outs, i, casimir=dict(casimir, elliptic=nudge(casimir["elliptic"]))))


def test_spin_check_rejects_a_wrong_period_shift(spin):
    op = op_of(spin, "j4.5")
    outs = fresh(spin, op)
    spec, image, report = outs[0]["shifts"][0]
    moved = dataclasses.replace(image, Xhat=nudge(image.Xhat))
    rejects(op, with_pair(outs, 0, shifts=[(spec, moved, report), outs[0]["shifts"][1]]))
    half, report = outs[-1]["half"]
    rejects(op, with_pair(outs, len(outs) - 1, half=(dataclasses.replace(half, Xhat=nudge(half.Xhat)), report)))


# -- tensor-coproduct ---------------------------------------------------------


@pytest.fixture(scope="module")
def tensor():
    return W.tensor_coproduct(random.Random(3))


def test_delta1_cocommutativity_check_rejects_one_entry(tensor):
    op = op_of(tensor, "delta1-4x5")
    ct, flipped, report = fresh(tensor, op)
    assert op.check((ct, flipped, report))
    rejects(op, (dataclasses.replace(ct, DX=nudge(ct.DX, 3)), flipped, report))


def test_delta2_gap_check_rejects_a_cocommutative_stand_in(tensor):
    op = op_of(tensor, "delta2-5x5")
    ct, report = fresh(tensor, op)
    assert op.check((ct, report))
    sym = {name: getattr(ct, name) + O.swap(getattr(ct, name), 11, 11) for name in ("DX", "DY", "DJ0")}
    rejects(op, (dataclasses.replace(ct, **sym), report))


def test_coassociativity_and_relation_checks_reject_one_entry(tensor):
    op = op_of(tensor, "coassoc-2x2x2")
    out = fresh(tensor, op)
    assert op.check(out)
    rejects(op, dict(out, d12=dataclasses.replace(out["d12"], DY=nudge(out["d12"].DY))))

    op = op_of(tensor, "delta_uh-4x4")
    ct, report = fresh(tensor, op)
    assert op.check((ct, report))
    rejects(op, (dataclasses.replace(ct, DX=nudge(ct.DX)), report))


# -- exact-rewrite ------------------------------------------------------------


@pytest.fixture(scope="module")
def exact():
    return W.exact_rewrite(random.Random(3))


@pytest.mark.parametrize("kind", ["power", "commutator", "inverse-power"])
def test_normal_form_check_rejects_one_changed_coefficient(exact, kind):
    op = op_of(exact, kind)
    terms = fresh(exact, op)
    assert op.check(terms)
    for key in sorted(terms)[:: max(1, len(terms) // 7)]:
        rejects(op, terms | {key: terms[key] + Fraction(1, 1000)})


def test_strategy_check_rejects_disagreement_and_a_shared_error(exact):
    op = op_of(exact, "strategies")
    left, right = fresh(exact, op)
    assert op.check((left, right))
    key = sorted(right)[0]
    rejects(op, (left, right | {key: right[key] * 2}))
    rejects(op, (left | {key: left[key] * 2}, right | {key: right[key] * 2}))


def test_inversion_check_rejects_a_wrong_image(exact):
    op = op_of(exact, "inversion")
    out = fresh(exact, op)
    assert op.check(out)
    eps, report, m = out[0]
    key = sorted(m.jm.terms)[0]
    jm = type(m.jm)(m.jm.terms | {key: m.jm.terms[key] * 2})
    rejects(op, [(eps, report, dataclasses.replace(m, jm=jm)), out[1]])


# -- cli-reports --------------------------------------------------------------


@pytest.fixture()
def cli(tmp_path):
    return W.cli_reports(random.Random(3), str(tmp_path))


def line_starting(text, prefix):
    return next(line for line in text.splitlines() if line.startswith(prefix))


def test_periods_check_rejects_an_altered_period(cli):
    op = op_of(cli, "elliptic-periods")
    code, text = fresh(cli, op)
    assert op.check((code, text))
    line = line_starting(text, "periods.dn[0],")
    value = float(line.split(",")[1].removesuffix("+0i"))
    rejects(op, (code, text.replace(line, f"periods.dn[0],{value * (1 + 1e-9)!r}+0i")))


def test_matrix_roundtrip_rejects_one_altered_float(cli):
    op = op_of(cli, "deform-build")
    code, text = fresh(cli, op)
    assert op.check((code, text))
    obj = json.loads(text)
    entry = obj["Yhat"]["entries"][13]
    entry[0] = float(np.nextafter(entry[0], np.inf))
    rejects(op, (code, json.dumps(obj) + "\n"))

    op = op_of(cli, "hopf-delta")
    code, text = fresh(cli, op)
    assert op.check((code, text))
    line = line_starting(text, "DY.entries[7][0],")
    rejects(op, (code, text.replace(line, "DY.entries[7][0],0.5")))


def test_strict_parsers_reject_nan_reordered_rows_and_ragged_csv(cli):
    op = op_of(cli, "sweep")
    code, text = fresh(cli, op)
    assert op.check((code, text))
    rejects(op, (code, text.replace('"worst": ', '"nan_cell": NaN, "worst": ', 1)))
    obj = json.loads(text)
    obj["rows"].reverse()
    rejects(op, (code, json.dumps(obj) + "\n"))

    op = op_of(cli, "deform-verify")
    code, text = fresh(cli, op)
    assert op.check((code, text))
    rejects(op, (code, text.replace("\nworst,", "\nworst,1,", 1)))


def test_deform_verify_check_rejects_a_misreported_worst(cli):
    op = op_of(cli, "deform-verify")
    code, text = fresh(cli, op)
    rejects(op, (code, text.replace(line_starting(text, "worst,"), "worst,1e-30")))
    # a nonzero exit is the program's own failing verdict: a failed operation
    with pytest.raises(W.ProgramFailure):
        op.check((1, text))
