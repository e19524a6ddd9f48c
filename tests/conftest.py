"""Shared fixtures."""

import pytest

from elliptic_sl2 import liealg


class CalculusCalls:
    """The work of the functional calculus, one entry per call in call order:
    ("stack", M) for each power stack of a matrix M, ("horner", None) for
    each blocked Horner run over one, and ("gather", None) for each call on
    a weighted shift."""

    def __init__(self):
        self.log = []

    def clear(self):
        self.log.clear()

    def stacks(self):
        """The argument of every power stack, in call order."""
        return [m for kind, m in self.log if kind == "stack"]

    def counts(self):
        """(stacks, gathers, Horner runs)."""
        kinds = [kind for kind, _ in self.log]
        return kinds.count("stack"), kinds.count("gather"), kinds.count("horner")


@pytest.fixture
def calculus_calls(monkeypatch):
    """A CalculusCalls that records from now until the test ends."""
    calls = CalculusCalls()
    for name, kind in (("_power_stack", "stack"), ("_blocked_horner", "horner"),
                       ("_shift_apply", "gather")):
        real = getattr(liealg, name)

        def counted(*args, real=real, kind=kind):
            calls.log.append((kind, args[0] if kind == "stack" else None))
            return real(*args)

        monkeypatch.setattr(liealg, name, counted)
    return calls
