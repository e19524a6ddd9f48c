"""Truncated formal power series over complex coefficients.

A series of order N stores coefficients c[0]..c[N] of sum c[i] u**i and
discards everything above u**N.  All binary operations close at the smaller
of the two orders; nothing tracks convergence, the truncation order is the
caller's contract.  Coefficients are double-precision complex; parameters
such as an elliptic modulus enter numerically when a series is built.

The deformation maps are built from products, integrals and rational
powers, all O(N**2) coefficient recurrences.  A rational power uses
J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7) as a plain loop over
a coefficient list (`pow_coeffs`), so exact `Fraction` coefficients run
through the same code as complex ones.  Composition and reversion are kept
as independent references: the tests check the recurrences against them,
and composition gives `hopf._x_from_factor_sn`'s separate per-factor route
and the identities the coproducts' coassociativity rests on.  Preconditions
(an inner series with zero constant term, a power of a series with constant
term 1) are enforced exactly, not to a tolerance.  exp is the one elementary
series here; tanh and arctanh are sn and arcsn at k = 1, from `elliptic`.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "TruncatedSeries",
    "pow_coeffs",
    "exp_series",
]


class TruncatedSeries:
    """Coefficient vector c[0..N] of a power series truncated at order N."""

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise DomainError("series needs a one-dimensional, nonempty coefficient vector")
        self.coeffs = c

    @property
    def order(self):
        return self.coeffs.size - 1

    @classmethod
    def constant(cls, value, order):
        c = np.zeros(order + 1, dtype=complex)
        c[0] = value
        return cls(c)

    @classmethod
    def identity(cls, order):
        """The series u itself."""
        if order < 1:
            raise DomainError("identity series needs order >= 1")
        c = np.zeros(order + 1, dtype=complex)
        c[1] = 1.0
        return cls(c)

    def truncated(self, order):
        if order >= self.order:
            return TruncatedSeries(self.coeffs.copy())
        return TruncatedSeries(self.coeffs[: order + 1].copy())

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            c = self.coeffs.copy()
            c[0] += other
            return TruncatedSeries(c)
        n = min(self.order, other.order)
        return TruncatedSeries(self.coeffs[: n + 1] + other.coeffs[: n + 1])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.coeffs * complex(other))
        n = min(self.order, other.order)
        full = np.convolve(self.coeffs[: n + 1], other.coeffs[: n + 1])
        return TruncatedSeries(full[: n + 1])

    __rmul__ = __mul__

    # -- structural operations ----------------------------------------------

    def compose(self, inner):
        """self(inner(u)); inner must have exactly zero constant term."""
        if inner.coeffs[0] != 0:
            raise DomainError("composition needs an inner series with zero constant term")
        n = min(self.order, inner.order)
        g = inner.truncated(n)
        acc = TruncatedSeries.constant(self.coeffs[n], n)
        for i in range(n - 1, -1, -1):
            acc = acc * g + self.coeffs[i]
        return acc

    def revert(self):
        """Compositional inverse t with self(t(u)) = u + O(u**(N+1))."""
        if self.order < 1:
            raise DomainError("reversion needs order >= 1")
        if self.coeffs[0] != 0:
            raise DomainError("reversion needs zero constant term")
        c1 = self.coeffs[1]
        if c1 == 0:
            raise DomainError("reversion needs a nonzero linear coefficient")
        n = self.order
        ident = TruncatedSeries.identity(n)
        t = ident * (1.0 / c1)
        # Each pass pushes the lowest erroneous order up by at least one.
        for _ in range(n + 1):
            err = self.compose(t) - ident
            if np.max(np.abs(err.coeffs)) == 0.0:
                break
            t = t - err * (1.0 / c1)
        return t

    def pow_rational(self, p):
        """self**p for rational p by Miller's recurrence; needs c[0] == 1."""
        if self.coeffs[0] != 1:
            raise DomainError("rational power needs constant term exactly 1")
        return TruncatedSeries(pow_coeffs(self.coeffs.tolist(), float(p)))

    def integral(self):
        """The antiderivative with zero constant term, one order higher."""
        c = np.zeros(self.order + 2, dtype=complex)
        c[1:] = self.coeffs / np.arange(1, self.order + 2)
        return TruncatedSeries(c)

    def deriv(self):
        """Termwise derivative; an order-0 series differentiates to zero."""
        if self.order == 0:
            return TruncatedSeries([0.0])
        n = self.order
        return TruncatedSeries(self.coeffs[1:] * np.arange(1, n + 1))

    def eval(self, u):
        """Horner evaluation at a complex point."""
        u = complex(u)
        acc = complex(self.coeffs[self.order])
        for i in range(self.order - 1, -1, -1):
            acc = acc * u + complex(self.coeffs[i])
        return acc

    def __repr__(self):
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[: min(4, self.coeffs.size)])
        tail = ", ..." if self.coeffs.size > 4 else ""
        return f"TruncatedSeries(order={self.order}, [{head}{tail}])"


def pow_coeffs(a, p):
    """Coefficients b of a**p for a coefficient list a with a[0] == 1, from

        m b[m] = sum_{i=1..m} ((p + 1) i - m) a[i] b[m-i],   b[0] = 1,

    which is the equation a b' = p a' b of b = a**p, read one coefficient
    at a time.  Only the nonzero a[i] enter the loop, so a polynomial such
    as 1 - k**2 u**2 costs O(N).  Exact for Fraction a and p: the zero the
    sums start from is the coefficients' own, so an int a[0] beside
    Fractions gives Fractions throughout."""
    nonzero = [i for i in range(1, len(a)) if a[i]]
    zero = sum((a[i] * 0 for i in nonzero), a[0] * 0)
    b = [a[0]] + [zero] * (len(a) - 1)
    for m in range(1, len(a)):
        acc = zero
        for i in nonzero:
            if i > m:
                break
            acc += ((p + 1) * i - m) * a[i] * b[m - i]
        b[m] = acc / m
    return b


def exp_series(order):
    c = np.empty(order + 1, dtype=complex)
    c[0] = 1.0
    for i in range(1, order + 1):
        c[i] = c[i - 1] / i
    return TruncatedSeries(c)
