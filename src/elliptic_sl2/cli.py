"""Command-line front end.

Verbs:

    rep build          spin-module matrices
    elliptic K         complete integrals at a modulus
    elliptic eval      sn, cn, dn at a complex argument
    elliptic periods   primitive period table
    deform build       deformed triplet matrices
    deform verify      defining relations, Casimir forms, inverse roundtrip
    hopf delta         one of the coproducts on a tensor product
    hopf verify        coproduct residual report
    auto shift         one discrete symmetry, with its residual report
    rewrite nf         normal-order an expression exactly
    verify-all         the composite residual bundle
    sweep              grid of residual reports (optionally in parallel)

Exit codes: 0 all residuals within tolerance, 1 a residual check failed,
2 usage error, 3 domain error.  A flag value that does not parse to a finite
number, or an empty sweep list, is a usage error; it and every domain error
are reported as structured JSON on stderr.  An --out file that cannot be
opened or written is a domain error.  A stdout that its reader closes early
ends the output quietly, and the exit code is still the verdict's.

Output is deterministic.  JSON is one line from the standard library's
encoder, where a float is the shortest text that reads back to the same
double; a CSV float has 17 significant digits, which read back to the same
double too; a complex number is [re, im] in JSON and re+imi in CSV; NaN and the infinities are the strings "NaN", "Infinity" and
"-Infinity", so every document is RFC 8259 JSON.  A NaN residual is the worst
residual and always fails.  Row order in sweeps follows the cartesian product
of the parameter lists, and sampled checks are seeded.  A config file
(key=value lines, # comments) can provide defaults; explicit flags always win.
The environment variable ELLIPTIC_SL2_FORMAT picks the default output format
only.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import itertools
import json
import math
import os
import sys

import numpy as np

from . import autos, hopf
from .deform import (
    DeformParams,
    build_elliptic_triplet,
    build_jordanian_triplet,
    casimir,
    invert_map,
    relation_residuals,
)
from .elliptic import complete_K, complete_Kprime, jacobi_numeric, periods
from .errors import DomainError
from .liealg import build_spin, frobenius, worst
from .rewrite import parse_expression
from .version import __version__

DEFAULT_TOL = 1e-9
# The strings written for NaN and the infinities, keyed by Python's text for them.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class UsageError(ValueError):
    """A flag value that does not parse (exit code 2)."""


# -- deterministic emitters ----------------------------------------------------


def _json_float(x):
    """A finite float as itself, NaN and the infinities as strings."""
    x = float(x)
    return x if math.isfinite(x) else _NONFINITE[repr(x)]


def _jsonable(obj):
    """The payload in plain JSON values: complex numbers become [re, im] and
    a matrix {"dim": d, "entries": [[re, im], ...]}, entries in row-major
    order."""
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, complex):
        return [_json_float(obj.real), _json_float(obj.imag)]
    if isinstance(obj, np.ndarray):
        mat = np.asarray(obj, dtype=complex)
        out = {"dim": mat.shape[0],
               "entries": np.stack((mat.real, mat.imag), axis=-1).reshape(-1, 2).tolist()}
        return out if np.isfinite(obj).all() else _jsonable(out)
    return obj


def _json_text(obj):
    return json.dumps(_jsonable(obj), allow_nan=False) + "\n"


def _csv_floats(values):
    """The cells of some floats: 17 significant digits, which read back to
    the same double, and NaN and the infinities as in JSON."""
    texts = list(map(format, values, itertools.repeat(".17g")))
    return list(map(_NONFINITE.get, texts, texts))


def _csv_float(x):
    return _csv_floats((float(x),))[0]


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, complex):
        return f"{_csv_float(v.real)}{'+' if v.imag >= 0 else '-'}{_csv_float(abs(v.imag))}i"
    if isinstance(v, float):
        return _csv_float(v)
    return str(v)


def _matrix_csv(prefix, mat):
    """The entry rows of a matrix's JSON layout (see `_jsonable`) as one text
    block.  Only the entries that are nonzero or -0.0 are formatted; every
    other cell is "0".  The key prefix is quoted once, as ``csv.writer``
    quotes a whole key: the index part adds no character that needs quoting."""
    values = np.ascontiguousarray(mat, dtype=complex).view(float).reshape(-1)  # re, im, ...
    cells = np.full(values.size, "0", dtype=object)
    shown = (values != 0) | np.signbit(values)  # NaN != 0 too
    cells[shown] = _csv_floats(values[shown].tolist())
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((f"{prefix}.entries[", ""))
    head = buf.getvalue()[:-2]  # the key field, without its ",\n"
    head, close = (head[:-1], '"') if head.startswith('"') else (head, "")
    mid0, mid1 = f"][0]{close},", f"][1]{close},"
    return "".join([f"{head}{i}{mid0}{re}\n{head}{i}{mid1}{im}\n"
                    for i, re, im in zip(range(values.size // 2),
                                         cells[0::2].tolist(), cells[1::2].tolist())])


def _emit_rows(prefix, obj, writer, out):
    """The (key, cell) rows of a payload tree, in order; a matrix is its dim
    row and then its entry rows as one block."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            _emit_rows(f"{prefix}.{key}" if prefix else str(key), val, writer, out)
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            _emit_rows(f"{prefix}[{i}]", val, writer, out)
    elif isinstance(obj, np.ndarray):
        writer.writerow((f"{prefix}.dim", obj.shape[0]))
        out.write(_matrix_csv(prefix, obj))
    else:
        writer.writerow((prefix, _csv_cell(obj)))


def _emit_csv(payload, out):
    writer = csv.writer(out, lineterminator="\n")
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if isinstance(rows, list) and rows and all(isinstance(r, dict) for r in rows):
        header = []
        for row in rows:
            for key in row:
                if key not in header:
                    header.append(key)
        writer.writerow(header)
        for row in rows:
            writer.writerow(_csv_cell(row.get(k)) for k in header)
        return
    writer.writerow(("key", "value"))
    _emit_rows("", payload, writer, out)


def _emit(payload, fmt, out):
    """Write the document of a payload in one of the two formats to a text
    stream."""
    if fmt == "json":
        out.write(_json_text(payload))
    else:
        _emit_csv(payload, out)


def _write_payload(payload, fmt, out_path):
    """Stream the document to ``out_path``, or to stdout without one.  A
    file that cannot be opened or written is a domain error."""
    if not out_path:
        _emit(payload, fmt, sys.stdout)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            _emit(payload, fmt, fh)
    except OSError as exc:
        raise DomainError(f"cannot write output file {out_path}: {exc}") from exc


# -- argument plumbing ---------------------------------------------------------


def _parse(convert, name, text):
    """A flag's value through ``convert``; a value that does not parse, or
    that parses to a number that is not finite, is a usage error."""
    try:
        return convert(text)
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(f"cannot parse --{name.replace('_', '-')} value {text!r} "
                         f"as a finite number") from exc


def _finite(x):
    if not cmath.isfinite(x):
        raise ValueError(f"{x} is not finite")
    return x


def _float(text):
    return _finite(float(text))


def _complex(text):
    return _finite(complex(text.replace("i", "j").replace(" ", "")))


def _float_list(text):
    return [_float(v) for v in text.split(",") if v != ""]


def _tolerance(text):
    tol = _float(text)
    if tol < 0:  # every report would fail, which claims that a residual failed
        raise UsageError(f"--tol must be at least 0, got {text!r}")
    return tol


def _worker_count(text):
    n = int(text)
    if n < 1:
        raise UsageError(f"--workers must be at least 1, got {text!r}")
    return n


def _load_config(path):
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DomainError(f"{path}:{lineno}: expected key=value")
                key, val = line.split("=", 1)
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    return values


def _apply_config(args, config):
    for key, raw in config.items():
        if not hasattr(args, key):
            continue
        if getattr(args, key) is not None:
            continue  # explicit flag wins
        setattr(args, key, raw)


def _resolve_format(args):
    fmt = getattr(args, "format", None) or os.environ.get("ELLIPTIC_SL2_FORMAT") or "json"
    fmt = str(fmt).lower()
    if fmt not in ("json", "csv"):
        raise DomainError(f"unknown output format {fmt!r}")
    return fmt


def _need(args, name, convert=_float, default=None):
    """A flag's value through ``convert`` (see `_parse`); a missing one takes
    ``default`` or, without one, is a domain error."""
    val = getattr(args, name, None)
    if val is None:
        if default is None:
            raise DomainError(f"missing required value --{name.replace('_', '-')}")
        return default
    return _parse(convert, name, val)


_NOT_RESIDUALS = frozenset({
    "cocommutativity_gap",  # informational, except for delta1 (see _coproduct_values)
    "epsilon",              # branch label, not a residual
})


def _residual_values(report):
    for key, val in report.items():
        if key in _NOT_RESIDUALS:
            continue
        if isinstance(val, (int, float)) and not isinstance(val, bool):
            yield float(val)


def _judge(payload, values, tol, ok=True):
    """Append the worst residual and the verdict to a report; returns the
    exit code.  ``ok`` is a verdict from outside the residuals."""
    payload["worst"] = worst(values)
    payload["pass"] = ok and payload["worst"] <= tol
    return 0 if payload["pass"] else 1


def _coproduct_values(source, report):
    """Residuals of a coproduct report.  delta1 must be cocommutative, so its
    gap counts; delta_uh and delta2 are non-cocommutative by design."""
    yield from _residual_values(report)
    if source == "delta1":
        yield float(report["cocommutativity_gap"])


# -- verbs ---------------------------------------------------------------------


def _cmd_rep_build(args):
    rep = build_spin(_need(args, "j"))
    return 0, {
        "j": rep.j,
        "dim": rep.dim,
        "Jp": rep.Jp,
        "Jm": rep.Jm,
        "J0": rep.J0,
    }


def _cmd_elliptic_K(args):
    k = _need(args, "k")
    payload = {"k": k, "K": None if k == 1 else complete_K(k)}
    payload["Kprime"] = complete_Kprime(k) if k > 0 else None
    return 0, payload


def _cmd_elliptic_eval(args):
    k = _need(args, "k")
    u = _need(args, "u", _complex)
    sn, cn, dn = jacobi_numeric(u, k)
    return 0, {"u": u, "k": k, "sn": sn, "cn": cn, "dn": dn}


def _cmd_elliptic_periods(args):
    k = _need(args, "k")
    table = periods(k)
    return 0, {"k": k, "periods": {name: list(pair) for name, pair in table.items()}}


def _build_triplet(args):
    j = _need(args, "j")
    h = _need(args, "h")
    rep = build_spin(j)
    if getattr(args, "jordanian", False):
        return build_jordanian_triplet(rep, h)
    k = _need(args, "k")
    return build_elliptic_triplet(rep, DeformParams(h=h, k=k))


def _cmd_deform_build(args):
    t = _build_triplet(args)
    return 0, {
        "j": t.rep.j,
        "h": t.params.h,
        "k": t.params.k,
        "provenance": t.provenance,
        "Xhat": t.Xhat,
        "Yhat": t.Yhat,
        "J0": t.J0,
    }


def _triplet_checks(t):
    """The relation residuals of a triplet and, as casimir_<form>, the
    relative Frobenius gap of each Casimir form from j(j+1) I."""
    j = t.rep.j
    target = j * (j + 1) * np.eye(t.rep.dim, dtype=complex)
    checks = dict(relation_residuals(t))
    for form in ("classical", "jordanian", "elliptic"):
        c = casimir(t, form)
        checks[f"casimir_{form}"] = frobenius(c - target) / max(1.0, frobenius(c))
    return checks


def _cmd_deform_verify(args):
    t = _build_triplet(args)
    tol = _need(args, "tol", _tolerance, DEFAULT_TOL)
    checks = _triplet_checks(t)
    jp, jm = invert_map(t)
    roundtrip = worst((
        frobenius(jp - t.rep.Jp) / max(1.0, frobenius(t.rep.Jp)),
        frobenius(jm - t.rep.Jm) / max(1.0, frobenius(t.rep.Jm)),
    ))
    residuals = {key: v for key, v in checks.items() if not key.startswith("casimir_")}
    payload = {
        "j": t.rep.j, "h": t.params.h, "k": t.params.k,
        "provenance": t.provenance, "tol": tol,
        "residuals": residuals,
        "casimir": {key.removeprefix("casimir_"): v for key, v in checks.items()
                    if key not in residuals},
        "roundtrip": roundtrip,
    }
    checks["roundtrip"] = roundtrip
    return _judge(payload, _residual_values(checks), tol), payload


# --which of the hopf verbs, as the coproduct source it names
_COPRODUCTS = {"1": "delta1", "uh": "delta_uh", "2": "delta2"}


def _hopf_build(args):
    source = _COPRODUCTS.get(args.which, args.which)
    j1 = _need(args, "j1")
    j2 = _need(args, "j2")
    h = _need(args, "h")
    r1, r2 = build_spin(j1), build_spin(j2)
    k = 1.0 if source == "delta_uh" else _need(args, "k")
    return hopf.coproduct(source, DeformParams(h=h, k=k), r1, r2)


def _cmd_hopf_delta(args):
    ct = _hopf_build(args)
    return 0, {
        "which": args.which,
        "j1": ct.r1.j, "j2": ct.r2.j,
        "h": ct.params.h, "k": ct.params.k,
        "DX": ct.DX,
        "DY": ct.DY,
        "DJ0": ct.DJ0,
    }


def _cmd_hopf_verify(args):
    ct = _hopf_build(args)
    tol = _need(args, "tol", _tolerance, DEFAULT_TOL)
    report = hopf.verify_coproduct(ct)
    payload = {
        "which": args.which,
        "j1": ct.r1.j, "j2": ct.r2.j,
        "h": ct.params.h, "k": ct.params.k,
        "tol": tol,
        "report": report,
    }
    return _judge(payload, _coproduct_values(ct.source, report), tol), payload


def _cmd_auto_shift(args):
    which = args.which
    tol = _need(args, "tol", _tolerance, DEFAULT_TOL)
    exact = True
    j = _need(args, "j")
    h = _need(args, "h")
    rep = build_spin(j)
    if which == "sign":
        t = build_elliptic_triplet(rep, DeformParams(h=h, k=_need(args, "k")))
        image = autos.sign_involution(t)
        report = relation_residuals(image)
        payload = {"which": which, "j": j, "h": h, "k": t.params.k, "report": report}
    elif which == "uh-half":
        t = build_jordanian_triplet(rep, h)
        image = autos.half_period_shift_uh(t)
        report = relation_residuals(image)
        report["highest_weight_gap"] = autos.highest_weight_shift_error(image)
        payload = {"which": which, "j": j, "h": h, "report": report}
    elif which in ("ell-iKp", "ell-2KiKp"):
        k = _need(args, "k")
        t = build_elliptic_triplet(rep, DeformParams(h=h, k=k))
        spec = autos.ELL_IKP if which == "ell-iKp" else autos.ELL_2K_IKP
        image, report = autos.period_shift_elliptic(t, spec)
        symbolic = autos.inversion_symbolic_report(h, k, spec.epsilon)
        exact = report["induced_map_exact"] = symbolic["all_zero"]
        payload = {"which": which, "j": j, "h": h, "k": k,
                   "epsilon": spec.epsilon, "report": report}
    else:
        raise DomainError(f"unknown shift {which!r}")
    return _judge(payload, _residual_values(payload["report"]), tol, exact), payload


def _cmd_rewrite_nf(args):
    if args.expr is None:
        raise DomainError("missing required value --expr")
    poly = parse_expression(args.expr)
    return 0, {"expr": args.expr, "terms": poly.to_terms()}


def _cmd_verify_all(args):
    tol = _need(args, "tol", _tolerance, DEFAULT_TOL)
    h = _need(args, "h", default=0.7)
    k = _need(args, "k", default=0.6)
    sections = {}

    for j in (0.5, 1.0, 1.5):
        rep = build_spin(j)
        t = build_elliptic_triplet(rep, DeformParams(h=h, k=k))
        sections[f"deform_j{j}"] = _triplet_checks(t)
    tj = build_jordanian_triplet(build_spin(1.0), h)
    sections["jordanian_j1.0"] = relation_residuals(tj)

    r_half = build_spin(0.5)
    params = DeformParams(h=h, k=k)
    sections["hopf_delta1"] = hopf.verify_coproduct(hopf.delta1(params, r_half, r_half))
    sections["hopf_delta2"] = hopf.verify_coproduct(hopf.delta2(params, r_half, r_half))
    sections["hopf_coassoc_uh"] = hopf.coassociativity_uh(h, r_half, r_half, r_half)

    t1 = build_elliptic_triplet(build_spin(1.0), params)
    _, rep_i = autos.period_shift_elliptic(t1, autos.ELL_IKP)
    _, rep_ii = autos.period_shift_elliptic(t1, autos.ELL_2K_IKP)
    sections["auto_ell_iKp"] = rep_i
    sections["auto_ell_2KiKp"] = rep_ii
    symbolic_ok = True
    for eps in (+1, -1):
        symbolic_ok = symbolic_ok and autos.inversion_symbolic_report(h, k, eps)["all_zero"]

    values = (v for name, report in sections.items()
              for v in _coproduct_values("delta1" if name == "hopf_delta1" else None, report))
    payload = {
        "h": h, "k": k, "tol": tol,
        "sections": sections,
        "induced_maps_exact": symbolic_ok,
    }
    return _judge(payload, values, tol, symbolic_ok), payload


# -- sweep ---------------------------------------------------------------------


def _sweep_checks(cell):
    """Residual checks of one sweep cell, or the DomainError message."""
    family, j, h, k = cell
    try:
        if family == "deform":
            checks = _triplet_checks(build_elliptic_triplet(build_spin(j), DeformParams(h=h, k=k)))
        else:
            checks = dict(autos.scalar_shift_identities(k, n_samples=25)["max_gaps"])
    except DomainError as exc:
        return str(exc)
    return checks


def _sweep_key(cell):
    """The cell's inputs that its checks depend on: the elliptic family is a
    function of k alone."""
    family, _, _, k = cell
    return cell if family == "deform" else (family, None, None, k)


def _sweep_row(cell, tol, checks):
    family, j, h, k = cell
    row = {"family": family, "j": j, "h": h, "k": k, "status": "ok"}
    if isinstance(checks, str):
        row.update({"status": "error", "error": checks, "pass": False})
        return row
    row.update({key: val for key, val in checks.items()
                if isinstance(val, (int, float)) and not isinstance(val, bool)})
    _judge(row, _residual_values(checks), tol)
    return row


def _cmd_sweep(args):
    tol = _need(args, "tol", _tolerance, DEFAULT_TOL)
    families = [f.strip() for f in (args.families if args.families is not None else "deform")
                .split(",") if f.strip()]
    for fam in families:
        if fam not in ("deform", "elliptic"):
            raise DomainError(f"unknown sweep family {fam!r}")
    js = _parse(_float_list, "j", args.j) if args.j is not None else [0.5, 1.0]
    hs = _parse(_float_list, "h", args.h) if args.h is not None else [0.7]
    ks = _parse(_float_list, "k", args.k) if args.k is not None else [0.4, 0.8]
    for name, axis in (("families", families), ("j", js), ("h", hs), ("k", ks)):
        if not axis:  # an empty axis would verify nothing
            raise UsageError(f"--{name} needs at least one value")
    workers = _need(args, "workers", _worker_count, 1)
    cells = list(itertools.product(families, js, hs, ks))
    keys = list(dict.fromkeys(_sweep_key(c) for c in cells))
    # The pool forks all its workers on the first submit: never more than
    # there are distinct cells or CPUs.
    workers = min(workers, len(keys), os.cpu_count() or 1)
    if workers > 1:
        # imported here: the pool pulls in multiprocessing and logging
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_checks, keys))
    else:
        results = [_sweep_checks(key) for key in keys]
    by_key = dict(zip(keys, results))
    rows = [_sweep_row(c, tol, by_key[_sweep_key(c)]) for c in cells]
    ok = all(r.get("pass") for r in rows)
    payload = {"tol": tol, "families": families, "rows": rows, "pass": ok}
    return (0 if ok else 1), payload


# -- wiring --------------------------------------------------------------------


def _add_common(sub, *names):
    if "j" in names:
        sub.add_argument("--j", help="spin label (non-negative half-integer)")
    if "h" in names:
        sub.add_argument("--h", help="deformation scale")
    if "k" in names:
        sub.add_argument("--k", help="elliptic modulus")
    sub.add_argument("--tol", help=f"residual tolerance (default {DEFAULT_TOL})")
    sub.add_argument("--format", choices=("json", "csv"), help="output format")
    sub.add_argument("--out", help="write output to a file instead of stdout")
    sub.add_argument("--config", help="key=value defaults file")


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process: parsing leaves it as it
    was, since every call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="elliptic-sl2",
        description="Elliptic two-parameter deformation of sl(2): build, verify, sweep.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    top = parser.add_subparsers(dest="verb", required=True)

    rep = top.add_parser("rep", help="spin modules").add_subparsers(dest="sub", required=True)
    p = rep.add_parser("build", help="matrices of one spin module")
    _add_common(p, "j")
    p.set_defaults(fn=_cmd_rep_build)

    ell = top.add_parser("elliptic", help="elliptic numerics").add_subparsers(dest="sub", required=True)
    p = ell.add_parser("K", help="complete integrals")
    _add_common(p, "k")
    p.set_defaults(fn=_cmd_elliptic_K)
    p = ell.add_parser("eval", help="sn, cn, dn at a complex point")
    _add_common(p, "k")
    p.add_argument("--u", help="complex argument, e.g. 0.3+0.2i")
    p.set_defaults(fn=_cmd_elliptic_eval)
    p = ell.add_parser("periods", help="primitive period table")
    _add_common(p, "k")
    p.set_defaults(fn=_cmd_elliptic_periods)

    deform = top.add_parser("deform", help="deformed triplets").add_subparsers(dest="sub", required=True)
    p = deform.add_parser("build", help="deformed generator matrices")
    _add_common(p, "j", "h", "k")
    p.add_argument("--jordanian", action="store_true", help="use the k**2 = 1 reduction")
    p.set_defaults(fn=_cmd_deform_build)
    p = deform.add_parser("verify", help="relations, Casimir forms, roundtrip")
    _add_common(p, "j", "h", "k")
    p.add_argument("--jordanian", action="store_true", help="use the k**2 = 1 reduction")
    p.set_defaults(fn=_cmd_deform_verify)

    hp = top.add_parser("hopf", help="coproducts").add_subparsers(dest="sub", required=True)
    for name, fn in (("delta", _cmd_hopf_delta), ("verify", _cmd_hopf_verify)):
        p = hp.add_parser(name, help=f"{name} on a tensor product")
        p.add_argument("--which", required=True, choices=("1", "uh", "2"),
                       help="coproduct family")
        p.add_argument("--j1", help="first spin label")
        p.add_argument("--j2", help="second spin label")
        _add_common(p, "h", "k")
        p.set_defaults(fn=fn)

    auto = top.add_parser("auto", help="discrete symmetries").add_subparsers(dest="sub", required=True)
    p = auto.add_parser("shift", help="apply one symmetry and verify")
    p.add_argument("--which", required=True,
                   choices=("sign", "uh-half", "ell-iKp", "ell-2KiKp"))
    _add_common(p, "j", "h", "k")
    p.set_defaults(fn=_cmd_auto_shift)

    rw = top.add_parser("rewrite", help="exact normal ordering").add_subparsers(dest="sub", required=True)
    p = rw.add_parser("nf", help="normal form of an expression")
    p.add_argument("--expr", help="expression over Jp, Jm, J0, Jpinv")
    _add_common(p)
    p.set_defaults(fn=_cmd_rewrite_nf)

    p = top.add_parser("verify-all", help="composite residual bundle")
    _add_common(p, "h", "k")
    p.set_defaults(fn=_cmd_verify_all)

    p = top.add_parser("sweep", help="grid of residual reports")
    p.add_argument("--families", help="comma list: deform,elliptic")
    p.add_argument("--workers", help="parallel worker processes")
    _add_common(p, "j", "h", "k")
    p.set_defaults(fn=_cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _apply_config(args, _load_config(args.config))
        fmt = _resolve_format(args)
        # No floating-point warnings on stderr: a non-finite value shows in
        # the report, where it fails the verdict.
        with np.errstate(all="ignore"):
            code, payload = args.fn(args)
        try:
            _write_payload(payload, fmt, getattr(args, "out", None))
        except BrokenPipeError:
            # The reader closed stdout early (`| head`): the rest of the
            # document goes to the null device, with no traceback on exit.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (DomainError, UsageError) as exc:
        sys.stderr.write(_json_text({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2 if isinstance(exc, UsageError) else 3


if __name__ == "__main__":
    sys.exit(main())
