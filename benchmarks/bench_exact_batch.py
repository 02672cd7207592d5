"""Stacked exact second-order influence vs the per-subset loop.

The ``exact`` variant solves a *different* reduced matrix ``n·H − m·H_S``
per subset, so a per-subset query pays a fresh subset-Hessian build plus
an O(p³) factorization.  The batch path gathers the subsets' curvature
rows into size-bucketed padded blocks, forms a bucket's reduced matrices
with one batched matmul and factors and solves them with one stacked
Cholesky, for every subset size (see ``repro.influence.second_order``).

Three claims:

1. **Query throughput** — m ``bias_change`` calls in a loop vs one
   ``bias_change_batch`` over the same subsets, for growing batch sizes
   on German/logistic.  Asserted ≥5× at m ≥ 256 (relaxed to 2.5× under
   ``--smoke`` for shared CI runners).
2. **Routing accounting** — a mixed batch straddling |S| = p is reported
   with its ``exact_batch_stats`` split: every subset, on either side of
   p, must route ``stacked`` (asserted: no subset rerouted or dropped).
3. **End-to-end parity** — the full lattice search under
   ``estimator="exact"`` with the per-subset reference loop
   (``tests/oracles/scalar_loop.py``) vs the batched search must produce
   identical top-k explanations
   (patterns and scores to 1e-10; also pinned by
   ``tests/integration/test_exact_golden.py``).

``--smoke`` shrinks the dataset and batch list for CI and keeps every
assertion (parity and routing are structural, not tuning outcomes).
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import build_pipeline, emit, render_table, subset_mask_matrix
from repro.influence import make_estimator
from repro.patterns import select_top_k
from repro.patterns.lattice import compute_candidates
from repro.utils.rng import ensure_rng
from tests.oracles.scalar_loop import ScalarLoopEstimator

TOP_K = 5


def _build(rows: int):
    bundle = build_pipeline("german", "logistic_regression", n_rows=rows, seed=1)
    estimator = make_estimator(
        "exact", bundle.model, bundle.X_train, bundle.train.labels,
        bundle.metric, bundle.test_ctx, evaluation="smooth",
    )
    return bundle, estimator


def _random_subsets(num_train: int, num_params: int, count: int, seed: int = 5):
    """Random subsets sized between 10 and p."""
    rng = ensure_rng(seed)
    hi = max(num_params - 5, 12)
    sizes = rng.integers(10, hi, size=count)
    return [np.sort(rng.choice(num_train, size=int(s), replace=False)) for s in sizes]


def _best_of_pair(fn_a, fn_b, repeats: int = 5) -> tuple[float, float]:
    """Best wall time of each callable, with the repeats interleaved so CPU
    frequency / contention drift hits both sides equally."""
    best_a = best_b = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def _throughput_rows(estimator, batch_sizes):
    rows, speedups = [], {}
    estimator.bias_change_batch([np.arange(10)])  # warm every cache
    for batch_size in batch_sizes:
        subsets = _random_subsets(
            estimator.num_train, estimator.model.num_params, batch_size
        )
        masks = subset_mask_matrix(subsets, estimator.num_train)
        loop_s, batch_s = _best_of_pair(
            lambda: [estimator.bias_change(s) for s in subsets],
            lambda: estimator.bias_change_batch(masks),
        )
        loop = np.array([estimator.bias_change(s) for s in subsets])
        batch = estimator.bias_change_batch(masks)
        max_err = float(np.abs(batch - loop).max())
        assert max_err < 1e-8, f"batched exact diverged from the loop: {max_err:.2e}"
        speedup = loop_s / batch_s
        speedups[batch_size] = speedup
        rows.append(
            [
                batch_size,
                f"{batch_size / loop_s:,.0f}",
                f"{batch_size / batch_s:,.0f}",
                f"{speedup:.1f}x",
                f"{max_err:.1e}",
            ]
        )
    return rows, speedups


def _routing_row(estimator):
    """A batch straddling |S| = p: report how subsets were routed."""
    n, p = estimator.num_train, estimator.model.num_params
    rng = ensure_rng(9)
    small = [np.sort(rng.choice(n, size=int(s), replace=False))
             for s in rng.integers(5, p - 1, size=96)]
    large = [np.sort(rng.choice(n, size=int(s), replace=False))
             for s in rng.integers(p, min(3 * p, n - 1), size=32)]
    masks = subset_mask_matrix(small + large, n)
    before = dict(estimator.exact_batch_stats)
    batch = estimator.bias_change_batch(masks)
    loop = np.array([estimator.bias_change(s) for s in small + large])
    assert float(np.abs(batch - loop).max()) < 1e-8
    after = estimator.exact_batch_stats
    stacked = after["stacked"] - before["stacked"]
    fallback = sum(after[k] - before[k] for k in after if k.startswith("fallback"))
    assert stacked == len(small) + len(large), "every subset must route stacked"
    assert fallback == 0, "no subset may take a per-subset route"
    return [[len(small) + len(large), stacked, fallback, f"p = {p}"]]


def _parity_rows(bundle, estimator, max_predicates):
    rows = []
    start = time.perf_counter()
    loop = compute_candidates(
        bundle.train.table, ScalarLoopEstimator(estimator), 0.05, max_predicates
    )
    loop_s = time.perf_counter() - start
    start = time.perf_counter()
    batched = compute_candidates(
        bundle.train.table, estimator, 0.05, max_predicates
    )
    batch_s = time.perf_counter() - start
    top_loop, _ = select_top_k(loop.candidates, TOP_K, containment_threshold=0.5)
    top_batch, _ = select_top_k(batched.candidates, TOP_K, containment_threshold=0.5)
    assert [s.pattern for s in top_loop] == [s.pattern for s in top_batch], (
        "batched exact lattice search changed the top-k explanations"
    )
    for a, b in zip(top_loop, top_batch):
        assert abs(a.responsibility - b.responsibility) < 1e-10
        assert abs(a.bias_change - b.bias_change) < 1e-10
    rows.append(
        [
            f"exact (smooth), {max_predicates} levels",
            loop.num_candidates,
            f"{loop_s:.2f}",
            f"{batch_s:.2f}",
            f"{loop_s / batch_s:.1f}x",
            "yes",
        ]
    )
    return rows


def test_exact_batch_throughput(benchmark, smoke):
    rows_count = 400 if smoke else 1000
    batch_sizes = [64, 256] if smoke else [64, 256, 512]
    bar = 2.5 if smoke else 5.0
    bundle, estimator = _build(rows_count)

    def run():
        throughput, speedups = _throughput_rows(estimator, batch_sizes)
        routing = _routing_row(estimator)
        parity = _parity_rows(bundle, estimator, 2 if smoke else 3)
        return throughput, speedups, routing, parity

    throughput, speedups, routing, parity = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        render_table(
            f"Stacked exact influence (German {rows_count}, loop vs one batch call)",
            ["batch", "loop subsets/s", "batch subsets/s", "speedup", "max |Δ|"],
            throughput,
            note="subset sizes between 10 and p; masks pre-built outside the timer",
        ),
        filename="exact_batch_throughput.txt",
    )
    emit(
        render_table(
            "Routing (mixed batch)",
            ["subsets", "stacked", "per-subset fallback", "p"],
            routing,
            note="exact_batch_stats split for a batch straddling |S| = p",
        ),
        filename="exact_batch_routing.txt",
    )
    emit(
        render_table(
            f"Exact-estimator lattice search end-to-end (German {rows_count})",
            ["estimator", "candidates", "loop (s)", "batch (s)", "speedup", "identical top-k"],
            parity,
            note=f"identical = same top-{TOP_K} patterns and scores from both paths",
        ),
        filename="exact_batch_lattice.txt",
    )
    # The acceptance bar: >=5x on batched exact queries at m >= 256.
    for batch_size in batch_sizes:
        if batch_size < 256:
            continue
        assert speedups[batch_size] >= bar, (
            f"exact batch speedup at m={batch_size} fell below {bar}x: "
            f"{speedups[batch_size]:.1f}x"
        )
