"""Independent checks for the benchmark's operations.

Nothing here calls into ``elliptic_sl2``.  Each check compares a program
result with a computation made apart from the program (spin matrices built
here, a swap permutation built here, exact rational matrices, an exact
realization of the localized algebra on Laurent polynomials, complete
elliptic integrals from mpmath) or with a property the method must have.
A check returns the residuals it measured; a residual above ``TOL`` is a
wrong result.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

TOL = 1e-9          # the program's default verdict tolerance
K_TOL = 1e-12       # complete integrals: the AGM converges to ~1e-16 relative
FLOOR = 2.0 ** -53  # residuals are floored here, so exact results read 15.95 digits


class CheckError(AssertionError):
    """A program result disagrees with an independent check."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


def gaps_within(gaps, tol=TOL):
    """Raise unless every residual is a finite number at most ``tol``."""
    for name, value in gaps.items():
        require(math.isfinite(value) and value <= tol,
                f"{name} = {value!r} exceeds {tol:g}")
    return gaps


# -- floating-point matrices --------------------------------------------------


def rel_gap(a, b):
    """Relative Frobenius distance of ``a`` from the reference ``b``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    require(a.shape == b.shape, f"shape {a.shape} differs from reference {b.shape}")
    return float(np.linalg.norm(a - b)) / max(1.0, float(np.linalg.norm(b)))


def spin_matrices(j):
    """(J+, J-, J0) on the spin-j module, basis m = j, j-1, ..., -j,
    with J+ e_m = sqrt((j-m)(j+m+1)) e_{m+1}."""
    dim = round(2 * j) + 1
    m = [j - i for i in range(dim)]
    jp = np.zeros((dim, dim), dtype=complex)
    for col in range(1, dim):
        jp[col - 1, col] = math.sqrt((j - m[col]) * (j + m[col] + 1))
    return jp, jp.T.copy(), np.diag(np.array(m, dtype=complex))


def casimir_target(j):
    dim = round(2 * j) + 1
    return j * (j + 1) * np.eye(dim, dtype=complex)


def swap(a, d1, d2):
    """tau a tau^-1 for the flip tau: V1 (x) V2 -> V2 (x) V1, dims d1, d2."""
    idx = np.arange(d1 * d2).reshape(d1, d2).T.reshape(-1)
    return np.asarray(a)[np.ix_(idx, idx)]


def kron_sum(a, b):
    """a (x) 1 + 1 (x) b."""
    return (np.kron(a, np.eye(b.shape[0], dtype=complex))
            + np.kron(np.eye(a.shape[0], dtype=complex), b))


def exp_nilpotent(mat):
    """exp(mat) for a nilpotent matrix, summed until the powers vanish."""
    mat = np.asarray(mat, dtype=complex)
    dim = mat.shape[0]
    acc = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for n in range(1, dim + 1):
        term = term @ mat / n
        if not term.any():
            return acc
        acc = acc + term
    raise CheckError("matrix is not nilpotent")


def jordanian_relation_gaps(x, y, j0, h):
    """Residuals of the k**2 = 1 relations
    [X, Y] = 2 J0,  [J0, X] = sinh(hX)/h,  [J0, Y] = -(cosh(hX) Y + Y cosh(hX))/2,
    with the hyperbolic functions taken from exp_nilpotent."""
    ep = exp_nilpotent(h * x)
    em = exp_nilpotent(-h * x)
    sinh_h = (ep - em) / (2 * h)
    cosh = (ep + em) / 2
    return {
        "comm_xy": rel_gap(x @ y - y @ x, 2 * j0),
        "comm_j0x": rel_gap(j0 @ x - x @ j0, sinh_h),
        "comm_j0y": rel_gap(j0 @ y - y @ j0, -0.5 * (cosh @ y + y @ cosh)),
    }


def twisted_coassociativity_gaps(h, x, y, j0, d12, d23):
    """(Delta (x) id) Delta - (id (x) Delta) Delta for the twisted coproduct
    DX = X (x) 1 + 1 (x) X,  DY = Y (x) e^{hX} + e^{-hX} (x) Y,  DJ0 likewise,
    given the single-factor generators (x, y, j0: lists of three) and the
    program's two-factor coproducts d12 and d23 (triples DX, DY, DJ0)."""
    eye = [np.eye(m.shape[0], dtype=complex) for m in x]
    ep3 = exp_nilpotent(h * x[2])
    em12 = exp_nilpotent(-h * d12[0])
    ep23 = exp_nilpotent(h * d23[0])
    em1 = exp_nilpotent(-h * x[0])
    i12 = np.kron(eye[0], eye[1])
    i23 = np.kron(eye[1], eye[2])
    left = (np.kron(d12[0], eye[2]) + np.kron(i12, x[2]),
            np.kron(d12[1], ep3) + np.kron(em12, y[2]),
            np.kron(d12[2], ep3) + np.kron(em12, j0[2]))
    right = (np.kron(x[0], i23) + np.kron(eye[0], d23[0]),
             np.kron(y[0], ep23) + np.kron(em1, d23[1]),
             np.kron(j0[0], ep23) + np.kron(em1, d23[2]))
    return {f"coassoc_{n}": rel_gap(l, r) for n, l, r in zip(("X", "Y", "J0"), left, right)}


# -- exact arithmetic ---------------------------------------------------------
#
# Expressions are small trees built by the workloads:
#   ("gen", name) | ("num", Fraction) | ("sum", [e, ...]) | ("prod", [e, ...])
#   | ("pow", e, n) | ("comm", a, b)
# ``expr_text`` renders one for parse_expression; ``apply_expr`` computes its
# action on an exact module without the program.


def expr_text(e):
    kind = e[0]
    if kind == "gen":
        return e[1]
    if kind == "num":
        return str(e[1])
    if kind == "sum":
        return "(" + " + ".join(expr_text(t) for t in e[1]) + ")"
    if kind == "prod":
        return " ".join(expr_text(f) for f in e[1])
    if kind == "pow":
        return f"({expr_text(e[1])})^{e[2]}"
    if kind == "comm":
        return f"[{expr_text(e[1])}, {expr_text(e[2])}]"
    raise ValueError(f"unknown expression node {kind!r}")


def uses_inverse(e):
    kind = e[0]
    if kind == "gen":
        return e[1] == "Jpinv"
    if kind == "num":
        return False
    if kind in ("sum", "prod"):
        return any(uses_inverse(t) for t in e[1])
    if kind == "pow":
        return uses_inverse(e[1])
    return uses_inverse(e[1]) or uses_inverse(e[2])


class SpinModule:
    """The spin-j module over the rationals, in the integer basis e_s
    (s = 0..2j, weight j - s):

        J+ e_s = e_{s-1},  J- e_s = (s+1)(2j-s) e_{s+1},  J0 e_s = (j-s) e_s.

    These matrices satisfy [J0, J+-] = +-J+-, [J+, J-] = 2 J0.  The probes are
    the basis vectors, so two operators agree on every probe exactly when
    their exact matrices are equal."""

    def __init__(self, two_j):
        self.two_j = two_j

    def probes(self):
        return [{s: Fraction(1)} for s in range(self.two_j + 1)]

    def act(self, name, s):
        if name == "Jp":
            return s - 1, Fraction(1 if s >= 1 else 0)
        if name == "Jm":
            return s + 1, Fraction((s + 1) * (self.two_j - s))
        if name == "J0":
            return s, Fraction(self.two_j - 2 * s, 2)
        raise CheckError(f"letter {name!r} has no matrix on a spin module")


class LaurentModule:
    """The localized algebra on Laurent polynomials in x, at a rational weight:

        Jp = x,  Jpinv = 1/x,  J0 = x d/dx + lam,  Jm = -x d^2/dx^2 - 2 lam d/dx,

    i.e. J0 x^n = (n + lam) x^n and Jm x^n = -n (n - 1 + 2 lam) x^(n-1).  These
    satisfy the defining relations with Jpinv a two-sided inverse of Jp.  The
    probes are x^-4 .. x^4."""

    def __init__(self, lam):
        self.lam = Fraction(lam)

    def probes(self):
        return [{n: Fraction(1)} for n in range(-4, 5)]

    def act(self, name, n):
        if name == "Jp":
            return n + 1, Fraction(1)
        if name == "Jpinv":
            return n - 1, Fraction(1)
        if name == "J0":
            return n, n + self.lam
        if name == "Jm":
            return n - 1, -n * (n - 1 + 2 * self.lam)
        raise CheckError(f"unknown letter {name!r}")


LAURENT = (LaurentModule(Fraction(1, 3)), LaurentModule(Fraction(-2, 7)))


def _vadd(a, b, scale=1):
    out = dict(a)
    for key, q in b.items():
        out[key] = out.get(key, 0) + scale * q
    return {key: q for key, q in out.items() if q}


def apply_letter(name, vec, module):
    out = {}
    for key, q in vec.items():
        new, coeff = module.act(name, key)
        if coeff:
            out[new] = out.get(new, 0) + coeff * q
    return {key: q for key, q in out.items() if q}


def apply_word(word, vec, module):
    for name in reversed(word):
        vec = apply_letter(name, vec, module)
    return vec


def apply_expr(e, vec, module):
    """Apply an expression to a vector, one letter at a time."""
    kind = e[0]
    if kind == "gen":
        return apply_letter(e[1], vec, module)
    if kind == "num":
        return _vadd({}, vec, e[1])
    if kind == "sum":
        acc = {}
        for t in e[1]:
            acc = _vadd(acc, apply_expr(t, vec, module))
        return acc
    if kind == "prod":
        for f in reversed(e[1]):
            vec = apply_expr(f, vec, module)
        return vec
    if kind == "pow":
        for _ in range(e[2]):
            vec = apply_expr(e[1], vec, module)
        return vec
    ab = apply_expr(e[1], apply_expr(e[2], vec, module), module)
    ba = apply_expr(e[2], apply_expr(e[1], vec, module), module)
    return _vadd(ab, ba, -1)


def apply_terms(terms, vec, module):
    """Apply a normal form {(a, b, c): coeff} = sum coeff Jm^a J0^b Jp^c."""
    acc = {}
    for (a, b, c), coeff in terms.items():
        word = ("Jm",) * a + ("J0",) * b + (("Jp",) * c if c >= 0 else ("Jpinv",) * -c)
        acc = _vadd(acc, apply_word(word, vec, module), coeff)
    return acc


def operator_gap(left, right, modules):
    """0.0 when two operators (callables vec, module -> vec) agree exactly on
    every probe of every module, else 1.0."""
    for module in modules:
        for vec in module.probes():
            if left(vec, module) != right(vec, module):
                return 1.0
    return 0.0


def automorphism_gap(jp, jm, j0, modules):
    """0.0 when operator images of (J+, J-, J0) satisfy [J0, J+] = J+,
    [J0, J-] = -J-, [J+, J-] = 2 J0 exactly on every probe, else 1.0."""
    def comm(a, b):
        return lambda v, m: _vadd(a(b(v, m), m), b(a(v, m), m), -1)

    def times(a, q):
        return lambda v, m: _vadd({}, a(v, m), q)

    return max(operator_gap(lhs, rhs, modules)
               for lhs, rhs in ((comm(j0, jp), jp), (comm(j0, jm), times(jm, -1)),
                                (comm(jp, jm), times(j0, 2))))


# -- report parsing -----------------------------------------------------------


def _reject_constant(name):
    raise CheckError(f"non-standard JSON constant {name}")


def strict_json(text):
    """Parse RFC 8259 JSON: NaN and Infinity are refused, the top level is an
    object, and the document ends with one newline."""
    require(text.endswith("\n") and not text.endswith("\n\n"), "JSON output is not newline-terminated")
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from exc
    require(isinstance(obj, dict), "JSON output is not an object")
    return obj


def strict_csv(text):
    """Parse CSV with a header row; every row has the header's width and no
    cell holds a non-finite number."""
    require(text.endswith("\n"), "CSV output is not newline-terminated")
    try:
        rows = list(csv.reader(io.StringIO(text), strict=True))
    except csv.Error as exc:
        raise CheckError(f"invalid CSV: {exc}") from exc
    require(len(rows) >= 2, "CSV output has no data rows")
    header = rows[0]
    require(len(set(header)) == len(header), "CSV header repeats a column")
    for row in rows[1:]:
        require(len(row) == len(header), f"CSV row width {len(row)} != {len(header)}")
        for cell in row:
            require(cell.lower() not in ("nan", "inf", "-inf", "infinity"),
                    f"non-finite CSV cell {cell!r}")
    return header, rows[1:]


def parse_complex_cell(text):
    """A CSV complex cell such as 0.5+0i or 3.5-2.25i."""
    try:
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise CheckError(f"bad complex cell {text!r}") from exc


def matrix_from_entries(dim, entries):
    require(len(entries) == dim * dim, "matrix entry count disagrees with dim")
    return np.array([complex(re, im) for re, im in entries]).reshape(dim, dim)


def matrix_from_flat(flat, prefix):
    """Rebuild a matrix from key,value CSV rows named prefix.dim and
    prefix.entries[i][0|1]."""
    dim = int(flat[f"{prefix}.dim"])
    entries = [(float(flat[f"{prefix}.entries[{i}][0]"]),
                float(flat[f"{prefix}.entries[{i}][1]"])) for i in range(dim * dim)]
    return matrix_from_entries(dim, entries)


def exact_equal_gap(got, ref):
    """0.0 when an emitted matrix round-trips bit for bit, else the relative gap
    (at least 1.0 so a drift of any size fails)."""
    got = np.asarray(got)
    ref = np.asarray(ref)
    require(got.shape == ref.shape, f"shape {got.shape} differs from reference {ref.shape}")
    if np.array_equal(got, ref):
        return 0.0
    return max(1.0, rel_gap(got, ref))


def complete_K_reference(k):
    """K(k) and K'(k) from mpmath's ellipk (parameter m = k**2)."""
    import mpmath

    m = mpmath.mpf(k) ** 2
    return float(mpmath.ellipk(m)), float(mpmath.ellipk(1 - m))


def period_gaps(table, K, Kp):
    """Relative gaps of an emitted period table against K, K' references:
    sn (4K, 2iK'), cn (4K, 2K + 2iK'), dn (2K, 4iK')."""
    want = {
        "sn": (complex(4 * K), complex(0, 2 * Kp)),
        "cn": (complex(4 * K), complex(2 * K, 2 * Kp)),
        "dn": (complex(2 * K), complex(0, 4 * Kp)),
    }
    gaps = {}
    for name, pair in want.items():
        for i, ref in enumerate(pair):
            got = table[name][i]
            gaps[f"period_{name}{i}"] = abs(got - ref) / abs(ref)
    return gaps
