"""The one lazy-build primitive behind every shared cache.

The per-model influence artifacts, the Hessian solver's factorizations,
the predicate alphabets and their packed views, the session's fairness
contexts, and the estimators' per-query memos all make the same
decision: build on first use, exactly once even when cold readers race,
count the build, and record the hit or miss on the current trace span.
:class:`Lazy` is that decision, written once.

A slot is bound at construction to its owner's existing lock and,
optionally, to the owner's ``stats`` view and the counter one build
bumps.  ``tools/reprolint`` reads the ``counter=`` / ``hits=`` literals
off the constructor call and checks that a stats dict declares them, so
a cache built on :class:`Lazy` needs no entry in the analyzer's
registry.  The build itself is handed to each call — a method of the
owner or a closure — so a slot holds no reference back to its owner.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from typing import Any

import numpy as np

from repro.obs import trace

_UNSET = object()


class Lazy:
    """A lazily built value, or one value per key.

    ``get(build, key)`` returns the value cached under ``key``.  On a miss
    it takes ``lock``, checks again, calls ``build()`` and caches the
    result — ``None`` included.  A build that raises caches nothing, so
    the next call retries.  Every built entry bumps ``stats[counter]`` by
    one and every hit bumps ``stats[hits]`` when those are given;
    ``cache_misses`` / ``cache_hits`` land on the innermost open trace
    span either way.

    ``set`` / ``clear`` let an edit patch or reset entries without a build
    and without touching the counters.  :func:`repro.utils.freeze.iter_arrays`
    walks a slot through :meth:`values`, so the write sanitizer freezes
    every cached array.
    """

    def __init__(
        self,
        lock,
        stats=None,
        *,
        counter: str | None = None,
        hits: str | None = None,
    ) -> None:
        self._lock = lock
        self._stats = stats
        self._counter = counter
        self._hits = hits
        self._values: dict[Hashable, Any] = {}

    def get(self, build: Callable[[], Any], key: Hashable = None) -> Any:
        """The value under ``key``, built by ``build()`` on first use."""
        value = self._values.get(key, _UNSET)
        if value is _UNSET:
            with self._lock:
                value = self._values.get(key, _UNSET)
                if value is _UNSET:
                    trace.add("cache_misses")
                    value = build()
                    self._values[key] = value
                    self._count(self._counter, 1)
                    return value
        trace.add("cache_hits")
        self._count(self._hits, 1)
        return value

    def get_many(self, keys: Sequence[Hashable], build: Callable[[Any], np.ndarray]) -> np.ndarray:
        """Stacked rows for a batch of keys, building only the novel ones.

        ``build(rows)`` gets the batch positions of each novel key's first
        occurrence — ``slice(None)`` when every key is novel — and returns
        one row per position, in order.  A repeat within the batch counts
        as a hit.  Cached rows are private copies, so the returned array
        is the caller's to mutate.
        """
        with self._lock:
            values = self._values
            novel: dict[Hashable, int] = {}
            for i, key in enumerate(keys):
                if key not in values and key not in novel:
                    novel[key] = i
            misses = len(novel)
            hits = len(keys) - misses
            self._count(self._hits, hits)
            self._count(self._counter, misses)
            trace.add("cache_hits", hits)
            trace.add("cache_misses", misses)
            if misses == len(keys):
                computed = build(slice(None))
                for key, row in zip(keys, computed):
                    values[key] = row.copy()
                return computed
            if novel:
                computed = build(np.fromiter(novel.values(), dtype=np.intp, count=misses))
                for key, row in zip(novel, computed):
                    values[key] = row.copy()
            return np.array([values[key] for key in keys])

    def _count(self, counter: str | None, n: int) -> None:
        if counter is not None:
            self._stats.inc(counter, n)

    def peek(self, key: Hashable = None) -> Any:
        """The value built under ``key``, or ``None`` when there is none — never builds."""
        return self._values.get(key)

    def set(self, value: Any, key: Hashable = None) -> None:
        """Store ``value`` under ``key`` without building or counting."""
        self._values[key] = value

    def clear(self) -> None:
        """Drop every entry; the next ``get`` builds afresh."""
        self._values.clear()

    def items(self) -> list[tuple[Hashable, Any]]:
        return list(self._values.items())

    def values(self) -> list[Any]:
        return list(self._values.values())

    def __len__(self) -> int:
        return len(self._values)
