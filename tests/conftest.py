"""Shared fixtures."""

import pytest

from elliptic_sl2 import deform, hopf, liealg


class CalculusCalls:
    """The work of the functional calculus, one entry per call in call order:
    ("stack", M) for each power stack of a matrix M, ("horner", None) for
    each blocked Horner run over one, ("gather", None) for each gather that
    makes matrices of elements of the raising algebra (`liealg.densify`),
    ("images", None) for each gather of coproduct images from their normal
    forms (`hopf._gather`), and ("relations", None) for each time the
    products of the three defining relations are formed."""

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

    def relations(self):
        """How many times the relation products were formed."""
        return [kind for kind, _ in self.log].count("relations")


@pytest.fixture
def calculus_calls(monkeypatch):
    """A CalculusCalls that records from now until the test ends."""
    calls = CalculusCalls()
    for module, name, kind in ((liealg, "_power_stack", "stack"),
                               (liealg, "_blocked_horner", "horner"),
                               (liealg, "densify", "gather"),
                               (deform, "densify", "gather"),
                               (hopf, "densify", "gather"),
                               (hopf, "_gather", "images"),
                               (deform, "_relation_norms", "relations")):
        real = getattr(module, name)

        def counted(*args, real=real, kind=kind):
            calls.log.append((kind, args[0] if kind == "stack" else None))
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls
