"""Lazy-primitive negative fixture: slots need no registry entry.

Under the same synthetic contracts as ``lazy_bad.py`` this is clean:
every counter a slot names is declared, every read-path build goes
through a slot's ``get``, and the only ``set`` runs in a constructor.
"""

from repro.obs.lazy import Lazy
from repro.obs.metrics import StatsView


class SharedCache:
    def __init__(self, lock):
        self.stats = StatsView({"builds": 0, "hits": 0})
        self._value = Lazy(lock, self.stats, counter="builds", hits="hits")
        self._total = Lazy(lock, self.stats, counter="builds")
        self._keyed = Lazy(lock)
        self._keyed.set(0, key=0)

    def get(self):
        return self._value.get(self._compute)

    def total(self):
        return self._total.get(lambda: 2 * self.get())

    def reset(self, key):
        return self._keyed.get(lambda: key * 2, key)

    def _compute(self):
        return 42
