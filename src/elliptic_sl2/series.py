"""Truncated formal power series over complex coefficients.

A series of order N stores coefficients c[0]..c[N] of sum c[i] u**i and
discards everything above u**N.  All binary operations close at the smaller
of the two orders; nothing tracks convergence, the truncation order is the
caller's contract.  Coefficients are double-precision complex; parameters
such as an elliptic modulus enter numerically when a series is built.

Composition, reversion and rational powers are the workhorses for the
deformation maps: they only ever meet series whose inner constant term
vanishes (composition, reversion) or whose constant term is 1 (powers),
and those preconditions are enforced exactly, not to a tolerance.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import DomainError

__all__ = [
    "TruncatedSeries",
    "exp_series",
    "sinh_series",
    "cosh_series",
    "arctanh_series",
    "tanh_series",
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
        """self**p for rational p, via the binomial series; needs c[0] == 1."""
        if self.coeffs[0] != 1:
            raise DomainError("rational power needs constant term exactly 1")
        p = float(Fraction(p)) if isinstance(p, Fraction) else float(p)
        n = self.order
        binom = np.zeros(n + 1, dtype=complex)
        binom[0] = 1.0
        for i in range(1, n + 1):
            binom[i] = binom[i - 1] * (p - (i - 1)) / i
        return TruncatedSeries(binom).compose(self - 1.0)

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

    # -- serialization --------------------------------------------------------

    def to_json(self):
        return {
            "order": self.order,
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj):
        coeffs = [complex(re, im) for re, im in obj["coeffs"]]
        if len(coeffs) != obj["order"] + 1:
            raise DomainError("series JSON order disagrees with coefficient count")
        return cls(coeffs)

    def __repr__(self):
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[: min(4, self.coeffs.size)])
        tail = ", ..." if self.coeffs.size > 4 else ""
        return f"TruncatedSeries(order={self.order}, [{head}{tail}])"


def exp_series(order):
    c = np.empty(order + 1, dtype=complex)
    c[0] = 1.0
    for i in range(1, order + 1):
        c[i] = c[i - 1] / i
    return TruncatedSeries(c)


def sinh_series(order):
    c = exp_series(order).coeffs.copy()
    c[::2] = 0.0
    return TruncatedSeries(c)


def cosh_series(order):
    c = exp_series(order).coeffs.copy()
    c[1::2] = 0.0
    return TruncatedSeries(c)


def arctanh_series(order):
    c = np.zeros(order + 1, dtype=complex)
    c[1::2] = 1.0 / np.arange(1, order + 1, 2)
    return TruncatedSeries(c)


def tanh_series(order):
    """tanh from its equation t' = 1 - t**2, t(0) = 0, one coefficient at a
    time: (i+1) t[i+1] = [i == 0] - sum_{r=1..i-1} t[r] t[i-r]."""
    c = np.zeros(order + 1, dtype=complex)
    if order >= 1:
        c[1] = 1.0
    for i in range(2, order):
        c[i + 1] = -np.dot(c[1:i], c[i - 1:0:-1]) / (i + 1)
    return TruncatedSeries(c)
