"""Closed-pattern mining engine vs the lattice search (the PR-3 bars).

Three claims, measured with the series second-order estimator (smooth
evaluation) — the configuration the engines' parity is pinned for, not
the paper's default exact variant (on German with ``first_order`` the
top-k diverge; see ``test_engines_diverge_on_german_first_order``):

1. **Candidate-space reduction** — the miner scores one candidate per
   distinct *extent* (closed patterns only), so it issues strictly fewer
   influence evaluations than the lattice's per-pattern search
   (``num_evaluated`` on both engines; asserted on every workload).
2. **Peak-memory reduction** — the miner's working set is packed
   tidlists: ``O(depth · n/8)`` per search path plus a packed
   ``batch_size × n/8`` evaluation buffer, streamed through the packed
   influence fast path in fixed-size unpack chunks.  The lattice holds
   every level's boolean masks, stacks an (m, n) bool mask matrix per
   batched call, and pays the estimator's float intermediates at full
   batch width.  Peak traced allocations (``tracemalloc``) during the
   search are asserted strictly lower for the miner, and the miner's
   peak is additionally asserted below a *chunk-scale* bound
   (``8 · _PACKED_CHUNK · n`` float64 cells) that is independent of how
   many candidates the search visits — the operational form of "never
   materializes an (m, n) matrix over the frontier": the lattice's peak
   grows with level width, the miner's only with n.
3. **End-to-end parity** — both engines feed ``select_top_k`` and must
   return identical top-k explanations (patterns, supports, and
   responsibilities to 1e-10) on German and Adult.

``--smoke`` shrinks the workloads for CI and keeps the closed-count <
lattice-count assertion — the candidate-space reduction is a structural
property, not a tuning outcome, so it must hold at smoke scale too.
"""

from __future__ import annotations

import time
import tracemalloc

from repro.bench import build_pipeline, emit, render_table
from repro.influence import make_estimator
from repro.influence.estimators import _PACKED_CHUNK
from repro.mining import make_engine
from repro.patterns import select_top_k

TOP_K = 5
SEARCH = dict(support_threshold=0.05, max_predicates=3)


def _workloads(smoke: bool):
    # The (german, 800 rows, depth 3, seed 11) row is the regression anchor
    # for the miner's descent-bar cache: with the one-sided DFS-parent bars
    # it *over*-evaluated the lattice at depth 3 on exactly this workload;
    # the sub-extent bar lookup must keep it at or below the lattice.
    if smoke:
        return [("german", 600, 2, 1), ("adult", 1500, 2, 1), ("german", 800, 3, 11)]
    return [("german", 1000, 3, 1), ("adult", 4000, 3, 1), ("german", 800, 3, 11)]


def _build(dataset: str, rows: int, seed: int = 1):
    bundle = build_pipeline(dataset, "logistic_regression", n_rows=rows, seed=seed)
    estimator = make_estimator(
        "second_order", bundle.model, bundle.X_train, bundle.train.labels,
        bundle.metric, bundle.test_ctx, variant="series", evaluation="smooth",
    )
    return bundle, estimator


def _traced_generate(engine_name: str, table, estimator, max_predicates: int):
    """Run one engine under tracemalloc; returns (result, seconds, peak_bytes)."""
    engine = make_engine(engine_name)
    tracemalloc.start()
    start = time.perf_counter()
    result = engine.generate(
        table, estimator,
        support_threshold=SEARCH["support_threshold"],
        max_predicates=max_predicates,
    )
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, seconds, peak


def _assert_identical_top_k(name, lattice, mined, k=TOP_K):
    top_lattice, _ = select_top_k(lattice.candidates, k, containment_threshold=0.5)
    top_mined, _ = select_top_k(mined.candidates, k, containment_threshold=0.5)
    assert [s.pattern for s in top_lattice] == [s.pattern for s in top_mined], (
        f"{name}: top-{k} patterns diverged between engines:\n"
        f"  lattice: {[str(s.pattern) for s in top_lattice]}\n"
        f"  mining:  {[str(s.pattern) for s in top_mined]}"
    )
    for a, b in zip(top_lattice, top_mined):
        assert abs(a.responsibility - b.responsibility) < 1e-10, (
            f"{name}: responsibility diverged for {a.pattern}: "
            f"{a.responsibility} vs {b.responsibility}"
        )
        assert abs(a.support - b.support) < 1e-12


def _run(smoke: bool):
    rows = []
    for name, n_rows, max_predicates, seed in _workloads(smoke):
        bundle, estimator = _build(name, n_rows, seed)
        table = bundle.train.table
        n_train = table.num_rows
        # Warm every estimator cache (per-sample grads, factorization) so
        # tracemalloc sees the search, not the shared start-up state.
        estimator.bias_change_batch([[0, 1, 2]])
        lattice, lattice_s, lattice_peak = _traced_generate(
            "lattice", table, estimator, max_predicates
        )
        mined, mined_s, mined_peak = _traced_generate(
            "mining", table, estimator, max_predicates
        )

        # Claim 1 — closed-only candidate space: strictly fewer influence
        # evaluations (this is the CI smoke assertion).  This holds on the
        # seed-11 depth-3 anchor only since the descent-bar cache; keep it
        # strict so a pruning regression re-opening the over-evaluation
        # fails loudly.
        assert mined.num_evaluated < lattice.num_evaluated, (
            f"{name}: mining evaluated {mined.num_evaluated} candidates, "
            f"lattice {lattice.num_evaluated} — no reduction"
        )
        # Claim 2 — packed working set: strictly lower traced peak, and
        # bounded by the fixed unpack chunk rather than the frontier width.
        assert mined_peak < lattice_peak, (
            f"{name}: mining peak {mined_peak / 1e6:.1f}MB not below "
            f"lattice peak {lattice_peak / 1e6:.1f}MB"
        )
        chunk_bound = 8 * _PACKED_CHUNK * n_train * 8  # 8 chunk-wide float64 buffers
        assert mined_peak < chunk_bound, (
            f"{name}: mining peak {mined_peak / 1e6:.1f}MB exceeds the "
            f"chunk-scale bound ({chunk_bound / 1e6:.1f}MB) — an (m, n) "
            f"frontier-sized matrix is leaking into the search"
        )
        # Claim 3 — end-to-end parity of the explanations.
        _assert_identical_top_k(name, lattice, mined)

        rows.append(
            [
                f"{name} (n={n_train}, L={max_predicates}, seed={seed})",
                lattice.num_evaluated,
                mined.num_evaluated,
                f"{1.0 - mined.num_evaluated / lattice.num_evaluated:.1%}",
                f"{lattice_peak / 1e6:.2f}",
                f"{mined_peak / 1e6:.2f}",
                f"{lattice_peak / max(mined_peak, 1):.1f}x",
                f"{lattice_s:.2f}",
                f"{mined_s:.2f}",
                "yes",
            ]
        )
    return rows


def test_candidate_mining(benchmark, smoke):
    rows = benchmark.pedantic(_run, args=(smoke,), rounds=1, iterations=1)
    emit(
        render_table(
            "Closed-pattern mining vs lattice search "
            + ("(smoke)" if smoke else "(second-order series, smooth)"),
            [
                "workload", "lattice evals", "mining evals", "fewer by",
                "lattice peak MB", "mining peak MB", "mem ratio",
                "lattice s", "mining s", "top-k identical",
            ],
            rows,
            note="evals = influence evaluations issued during the search; "
            "peak = tracemalloc during candidate generation (start-up caches "
            "pre-warmed); top-k compared at k=5, scores to 1e-10",
        ),
        filename="candidate_mining.txt",
    )
