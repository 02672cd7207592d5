"""Tests for repro.obs.lazy: the build-once slot behind every shared cache."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.obs import trace
from repro.obs.lazy import Lazy
from repro.obs.metrics import StatsView
from repro.obs.trace import Tracer


@pytest.fixture(autouse=True)
def _restore_tracer():
    yield
    trace.disable()


def _slot(**counters) -> tuple[Lazy, StatsView]:
    stats = StatsView({"builds": 0, "hits": 0})
    return Lazy(threading.RLock(), stats, **counters), stats


class Builder:
    """A build callable that counts its calls."""

    def __init__(self, value=None, delay: float = 0.0) -> None:
        self.value = value
        self.delay = delay
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        return self.value


class TestGet:
    def test_cold_hammer_builds_exactly_once(self):
        slot, stats = _slot(counter="builds")
        build = Builder(value=np.arange(3.0), delay=0.01)
        workers = 8
        barrier = threading.Barrier(workers)
        results: list = []

        def read():
            barrier.wait(timeout=10)
            results.append(slot.get(build))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == workers
        assert build.calls == 1
        assert stats["builds"] == 1
        assert all(result is results[0] for result in results)

    def test_raising_build_caches_nothing_and_retries(self):
        slot, stats = _slot(counter="builds")

        def fail():
            raise ValueError("no factors")

        with pytest.raises(ValueError, match="no factors"):
            slot.get(fail)
        assert len(slot) == 0
        assert stats["builds"] == 0
        build = Builder(value=7)
        assert slot.get(build) == 7
        assert build.calls == 1
        assert stats["builds"] == 1

    def test_keyed_entries_build_separately(self):
        slot, stats = _slot(counter="builds")
        first, second = Builder(value="a"), Builder(value="b")
        assert slot.get(first, 0.0) == "a"
        assert slot.get(second, 1e-3) == "b"
        assert slot.get(second, 0.0) == "a"  # a hit never calls the build
        assert (first.calls, second.calls) == (1, 1)
        assert stats["builds"] == 2
        assert slot.peek(1e-3) == "b"
        assert slot.peek(2.0) is None

    def test_none_result_is_cached(self):
        slot, stats = _slot(counter="builds")
        build = Builder(value=None)
        assert slot.get(build) is None
        assert slot.get(build) is None
        assert build.calls == 1
        assert stats["builds"] == 1

    def test_hits_and_misses_land_on_the_innermost_span(self):
        slot, stats = _slot(counter="builds", hits="hits")
        tracer = Tracer()
        with trace.tracing(tracer):
            with trace.span("outer"):
                with trace.span("inner"):
                    slot.get(Builder(value=1))
                    slot.get(Builder(value=2))
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert inner.attrs["cache_misses"] == 1
        assert inner.attrs["cache_hits"] == 1
        assert "cache_misses" not in outer.attrs and "cache_hits" not in outer.attrs
        assert (stats["builds"], stats["hits"]) == (1, 1)

    def test_set_and_clear_neither_build_nor_count(self):
        slot, stats = _slot(counter="builds")
        slot.set(3)
        build = Builder(value=4)
        assert slot.get(build) == 3
        slot.clear()
        assert slot.peek() is None
        assert slot.get(build) == 4
        assert build.calls == 1
        assert stats["builds"] == 1


class TestGetMany:
    def test_builds_each_novel_key_once_and_counts_repeats_as_hits(self):
        slot, stats = _slot(counter="builds", hits="hits")
        seen: list = []

        def build(rows):
            seen.append(rows)
            return np.arange(6.0).reshape(3, 2)[rows]

        out = slot.get_many([b"a", b"b", b"c"], build)
        assert seen[0] == slice(None)  # every key novel: no gather
        np.testing.assert_array_equal(out, np.arange(6.0).reshape(3, 2))

        out = slot.get_many([b"c", b"d", b"a", b"d"], lambda rows: np.full((len(rows), 2), 9.0))
        np.testing.assert_array_equal(out, [[4.0, 5.0], [9.0, 9.0], [0.0, 1.0], [9.0, 9.0]])
        assert (stats["builds"], stats["hits"]) == (4, 3)
        assert len(slot) == 4

    def test_novel_rows_are_first_occurrence_positions(self):
        slot, _ = _slot(counter="builds")
        slot.get_many(["x"], lambda rows: np.zeros((1, 1)))
        positions: list = []

        def build(rows):
            positions.append(rows.tolist())
            return np.ones((len(rows), 1))

        slot.get_many(["x", "y", "y", "z"], build)
        assert positions == [[1, 3]]

    def test_returned_rows_are_private(self):
        slot, _ = _slot(counter="builds")
        first = slot.get_many(["k"], lambda rows: np.ones((1, 2)))
        first[0, 0] = -1.0
        again = slot.get_many(["k", "k"], lambda rows: pytest.fail("no novel keys"))
        np.testing.assert_array_equal(again, np.ones((2, 2)))
