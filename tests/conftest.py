"""Shared fixtures."""

import pytest

from elliptic_sl2 import deform, hopf, liealg


class CalculusCalls:
    """The work of the functional calculus, one entry per call in call order:
    ("table", a) for each power table the calculus builds of a one-factor
    part a (`liealg.power_table`), ("gather", None) for each gather that
    makes matrices of elements of the raising algebra (`liealg.densify`),
    ("images", None) for each gather of coproduct images from their normal
    forms (`hopf._gather`, one per coproduct build), and ("relations", None)
    for each time the products of the three defining relations are formed."""

    def __init__(self):
        self.log = []

    def clear(self):
        self.log.clear()

    def tables(self):
        """The part of every power table, in call order."""
        return [a for kind, a in self.log if kind == "table"]

    def counts(self):
        """(power tables, gathers)."""
        kinds = [kind for kind, _ in self.log]
        return kinds.count("table"), kinds.count("gather")

    def relations(self):
        """How many times the relation products were formed."""
        return [kind for kind, _ in self.log].count("relations")


@pytest.fixture
def calculus_calls(monkeypatch):
    """A CalculusCalls that records from now until the test ends."""
    calls = CalculusCalls()
    for module, name, kind in ((liealg, "power_table", "table"),
                               (liealg, "densify", "gather"),
                               (deform, "densify", "gather"),
                               (hopf, "_gather", "images"),
                               (deform, "_relation_norms", "relations")):
        real = getattr(module, name)

        def counted(*args, real=real, kind=kind):
            calls.log.append((kind, args[0] if kind == "table" else None))
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls
