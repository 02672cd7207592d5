"""Turn a run's repetitions into the named metrics the benchmark prints.

End to end (untraced runs): ``setup_s`` is ``AuditSession.fit`` plus
``warm``; ``audit_s`` the whole grid on the freshly warmed session;
``session_s`` one repetition from set-up to the last answer (on the
write-path workload that includes every ``delta_audit`` and the update
search); ``peak_rss_mb`` the process's peak resident memory.  Failed
operations are the result line's ``failed`` out of ``attempted``.

Per layer (traced runs), with the end-to-end metric each should move:

* ``datasets.encode_s``, ``models.fit_s``, ``mining.alphabet_s``:
  ``setup_s`` on scale_mining; ``influence.build_s``: ``setup_s``.
* ``influence.batch_s`` with ``.batch_calls``, ``.subsets`` and
  ``.subsets_per_s``: ``audit_s`` on german_exact and adult_mining.
* ``influence.exact_dense_frac``, ``.extent_hit_ratio`` and
  ``.extent_misses``: ``audit_s`` on german_exact.
* ``influence.hessian_factorizations``: must stay 1.
* ``mining.search_s`` with ``.evaluated``, ``.candidates``,
  ``.kept_ratio`` and ``.projection_builds``: ``audit_s`` on scale_mining
  and adult_mining; zero on german_exact, projection only on scale_mining.
* ``patterns.lattice_s`` with ``.evaluated``, ``.candidates`` and
  ``.kept_ratio``: ``audit_s`` on german_exact.
* ``patterns.topk_s``, ``core.first_query_s`` (it pays the extent-cache
  misses) and ``core.rest_query_s``: ``audit_s``.
* ``influence.edit_s``, ``mining.edit_s``, ``core.replay_s`` and
  ``core.certified_ratio``: ``delta_s`` on adult_edit_repair.
* ``fairness.eval_s``: ``repair_s`` and ``audit_s`` on adult_edit_repair.
* ``updates.search_s``: ``repair_s``.

``delta_s`` (median ``delta_audit`` call) and ``repair_s`` (update search
over the grid) are the write path's own latencies; ``fidelity_sign`` and
``fidelity_err`` compare the top-k estimates with warm-started retrains,
outside every timed section.  ``bench.trace_overhead`` is traced over
untraced ``audit_s`` minus 1, and ``bench.uncovered_frac`` the share of
traced wall time that no layer span covers.  A metric of a phase a
workload does not run reads 0.
"""

from __future__ import annotations

import resource
import statistics

from perfbench.layers import SpanRecorder
from perfbench.loop import Rep, median

#: Span names whose self time is reported as ``<name>_s``.
LAYER_TIMES = [
    "datasets.encode",
    "models.fit",
    "influence.build",
    "influence.batch",
    "influence.edit",
    "fairness.eval",
    "mining.alphabet",
    "mining.search",
    "mining.edit",
    "patterns.lattice",
    "patterns.topk",
    "core.replay",
    "updates.search",
]


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(reps: list[Rep], setups: list[float]) -> dict[str, dict]:
    timed = [r for r in reps if not r.traced]
    return {
        "setup_s": metric(median(setups), "s"),
        "audit_s": metric(median(r.audit_s for r in timed), "s"),
        "session_s": metric(
            median(r.session_s for r in timed if r.audit_s is not None), "s"
        ),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def write_path(reps: list[Rep]) -> dict[str, dict]:
    """Median ``delta_audit`` call and median update search over the grid."""
    return {
        "delta_s": metric(median(d for r in reps for d in r.delta_s), "s"),
        "repair_s": metric(median(r.repair_s for r in reps), "s"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(engine: str, reps: list[Rep], recorder: SpanRecorder) -> dict[str, dict]:
    """Per-layer metrics of a traced run (times are per traced repetition)."""
    traced = [r for r in reps if r.traced]
    # The process's first repetition pays one-off costs; leave it out of
    # the tracing-overhead baseline.
    plain = [r for r in reps[1:] if not r.traced]
    n = max(len(traced), 1)
    out: dict[str, dict] = {}
    for name in LAYER_TIMES:
        out[f"{name}_s"] = metric(recorder.self_seconds.get(name, 0.0) / n, "s")

    batch_s = recorder.self_seconds.get("influence.batch", 0.0)
    out["influence.batch_calls"] = metric(recorder.batch_calls / n, "count")
    out["influence.subsets"] = metric(recorder.batch_subsets / n, "count")
    out["influence.subsets_per_s"] = metric(_ratio(recorder.batch_subsets, batch_s), "1/s")
    out["influence.exact_dense_frac"] = metric(
        _ratio(recorder.exact_dense, recorder.exact_routed), "ratio"
    )

    counters = traced[0].counters if traced else {}
    hits, misses = counters.get("extent_hits", 0), counters.get("extent_misses", 0)
    out["influence.extent_hit_ratio"] = metric(_ratio(hits, hits + misses), "ratio")
    out["influence.extent_misses"] = metric(misses, "count")
    out["influence.hessian_factorizations"] = metric(
        counters.get("hessian_factorizations", 0), "count"
    )
    out["mining.projection_builds"] = metric(counters.get("projection_builds", 0), "count")
    # Evaluated/candidates belong to whichever candidate engine ran.
    for layer, name in (("mining", "mining"), ("patterns", "lattice")):
        ran = engine == name
        evaluated = counters.get("evaluated", 0) if ran else 0
        candidates = counters.get("candidates", 0) if ran else 0
        out[f"{layer}.evaluated"] = metric(evaluated, "count")
        out[f"{layer}.candidates"] = metric(candidates, "count")
        out[f"{layer}.kept_ratio"] = metric(_ratio(candidates, evaluated), "ratio")

    first = [r.query_s[0] for r in traced if r.query_s]
    rest = [statistics.fmean(r.query_s[1:]) for r in traced if len(r.query_s) > 1]
    out["core.first_query_s"] = metric(median(first), "s")
    out["core.rest_query_s"] = metric(median(rest), "s")
    certified = sum(r.certified for r in reps)
    replayed = sum(r.replayed for r in reps)
    out["core.certified_ratio"] = metric(_ratio(certified, replayed), "ratio")

    out.update(write_path([r for r in reps if not r.traced]))

    pairs = [pair for r in reps for pair in r.fidelity]
    signs = [(est > 0) == (truth > 0) for est, truth in pairs]
    errors = [abs(est - truth) / abs(truth) for est, truth in pairs if truth]
    out["fidelity_sign"] = metric(_ratio(sum(signs), len(signs)), "ratio")
    out["fidelity_err"] = metric(median(errors), "ratio")

    traced_audit = median(r.audit_s for r in traced)
    plain_audit = median(r.audit_s for r in plain)
    out["bench.trace_overhead"] = metric(_ratio(traced_audit, plain_audit) - 1.0, "ratio")
    wall = sum(r.session_s for r in traced)
    out["bench.uncovered_frac"] = metric(1.0 - _ratio(recorder.covered, wall), "ratio")
    return out
