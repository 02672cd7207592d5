"""Lazy-primitive positive fixture: what the derived checks still catch.

Analyzed with a synthetic contract set declaring ``SharedCache`` shared,
``get`` / ``total`` / ``reset`` read roots, and no registered build
methods.  Four violations are seeded: a slot counting ``ghost_builds``,
which no stats dict declares (RL002); a slot whose counter is not a
literal the analyzer can check (RL002); a hand-written ``self._memo`` in
the build ``get`` hands its slot by reference (RL001); and a read-path
``clear`` of a slot (RL001).
"""

from repro.obs.lazy import Lazy
from repro.obs.metrics import StatsView


class SharedCache:
    def __init__(self, lock):
        self.stats = StatsView({"builds": 0})
        self._value = Lazy(lock, self.stats, counter="builds")
        self._total = Lazy(lock, self.stats, counter="ghost_builds")
        counter = "builds"
        self._named = Lazy(lock, self.stats, counter=counter)
        self._memo = None

    def get(self):
        return self._value.get(self._compute)

    def total(self):
        return self._total.get(lambda: 2 * self.get())

    def reset(self):
        self._value.clear()

    def _compute(self):
        if self._memo is None:
            self._memo = 42
        return self._memo
