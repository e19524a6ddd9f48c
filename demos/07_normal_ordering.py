"""
Exact normal ordering in the localized enveloping algebra
=========================================================

Polynomials in J-, J0, J+ and the formal inverse of J+ live in the normal
order Jm^a J0^b Jp^c (or Jp^{-c}) with exact rational coefficients.
Products are computed in closed form; a small rewrite engine, independent
of rewrite strategy, is the reference they are checked against.  Both
agree with matrix arithmetic on every spin module, and support an exact
check that the inversion symmetry respects the relations.
"""

from fractions import Fraction

import numpy as np

from elliptic_sl2 import (
    build_spin,
    inversion_map,
    nf_word,
    parse_expression,
    verify_automorphism,
    verify_involution,
)
from elliptic_sl2.rewrite import eval_poly_on_spin

# Words normalize with the commutators folded in.  J+ J- becomes
# J- J+ + 2 J0:
print("Jp Jm        ->", nf_word(("Jp", "Jm")))
print("Jp Jp Jm     ->", nf_word(("Jp", "Jp", "Jm")))
print("Jpinv Jm     ->", nf_word(("Jpinv", "Jm")))

# The parser accepts rational coefficients, powers, negative powers on
# the raiser, and commutator brackets.
p = parse_expression("[Jp, Jm] - 2 J0")
print("\n[Jp, Jm] - 2 J0 ->", p, " (zero:", p.is_zero(), ")")
q = parse_expression("3/4 Jm^2 J0 - (2 Jp)^-1")
print("3/4 Jm^2 J0 - (2 Jp)^-1 ->", q)

# The parser multiplies in closed form; the rule-based reference agrees.
print("closed form == rewrite rules:",
      parse_expression("Jpinv Jm J0 Jp Jm") == nf_word(("Jpinv", "Jm", "J0", "Jp", "Jm")))

# Strategy independence: leftmost-first and rightmost-first rewriting
# land on the same normal form (confluence on this rule set).
word = ("Jp", "Jm", "Jp", "J0", "Jm")
print("\nleftmost == rightmost:",
      nf_word(word, "leftmost") == nf_word(word, "rightmost"))

# Every normal form is certified against honest matrix arithmetic.
rep = build_spin(1.5)
sym = eval_poly_on_spin(nf_word(word), rep)
mats = {"Jp": rep.Jp, "Jm": rep.Jm, "J0": rep.J0}
direct = np.eye(rep.dim, dtype=complex)
for letter in word:
    direct = direct @ mats[letter]
print("matrix cross-check gap:", np.abs(sym - direct).max())

# The inversion symmetry J+ -> eps (1/k)(2/h)^2 Jp^{-1}, with J- sent to
# a sandwiched cubic and J0 negated, is an automorphism and involution
# -- verified with exact rationals, so the residuals are identically 0.
m = inversion_map(Fraction(4, 5), Fraction(1, 2), eps=+1)
print("\ninversion map images:")
print("  Jp ->", m.jp)
print("  Jm ->", m.jm)
print("  J0 ->", m.j0)
auto = verify_automorphism(m)
invo = verify_involution(m)
print("relations preserved exactly:", auto["all_zero"],
      " involution exactly:", invo["all_zero"])
