"""One run of a workload: a closed loop of repetitions and its metrics.

A repetition is what one user of the library does, each step starting
when the previous one returns: set up a session (``fit`` + ``warm``),
audit the whole grid, then, on a write-path workload, push each edit
through ``delta_audit`` and search for update explanations over the
grid.  A run repeats this for the time it is given, on one set of inputs
made before the clock starts, and reports medians.

Checks, the fidelity probe and the oracles run between or after the timed
sections, never inside them.
"""

from __future__ import annotations

import statistics
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from perfbench import answers
from perfbench.layers import SpanRecorder, clock, patched
from perfbench.workloads import K, METRICS, Inputs, Workload
from repro.core import AuditSession
from repro.fairness.metrics import get_metric
from repro.influence.retrain import RetrainInfluence
from repro.models import LogisticRegression

#: Repetitions per run at least; more run while the run's time lasts.
MIN_REPS = 2
#: Extra set-ups (timed, then dropped) run until a run has this many
#: set-up samples or has spent SETUP_SECONDS setting up.
MIN_SETUPS = 15
SETUP_SECONDS = 3.0


@dataclass
class Rep:
    """What one repetition measured and answered."""

    setup_s: float | None = None
    audit_s: float | None = None
    delta_s: list[float] = field(default_factory=list)
    repair_s: float | None = None
    query_s: list[float] = field(default_factory=list)
    answers: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    certified: int = 0
    replayed: int = 0
    #: Operations that raised, by kind.
    raised: dict[str, int] = field(default_factory=lambda: {"queries": 0, "edits": 0, "repairs": 0})
    #: Oracle mismatches by kind: {operation index: why}.
    oracle: dict[str, dict[int, str]] = field(
        default_factory=lambda: {"queries": {}, "edits": {}, "repairs": {}}
    )
    fidelity: list[tuple[float, float]] = field(default_factory=list)
    traced: bool = False

    @property
    def session_s(self) -> float:
        return (
            (self.setup_s or 0.0)
            + (self.audit_s or 0.0)
            + sum(self.delta_s)
            + (self.repair_s or 0.0)
        )


def ops_per_rep(workload: Workload) -> dict[str, int]:
    return {
        "queries": len(METRICS),
        "edits": workload.edits,
        "repairs": len(METRICS) if workload.edits else 0,
    }


def setup(workload: Workload, inputs: Inputs) -> AuditSession:
    session = AuditSession(
        LogisticRegression(l2_reg=1e-3), retrain_jobs=1, **workload.config
    )
    session.fit(inputs.train, inputs.test)
    session.warm(skeleton=workload.edits > 0)
    return session


def _counters(session, result) -> dict[str, int]:
    stats = session.stats
    evaluated = sum(q.explanations.lattice.num_evaluated for q in result)
    candidates = sum(q.explanations.lattice.num_candidates for q in result)
    return {
        "evaluated": int(evaluated),
        "candidates": int(candidates),
        "extent_hits": int(stats["influence.param_change_cache_hits"]),
        "extent_misses": int(
            stats["influence.param_change_cache_misses"]
            + stats["influence.gradient_sum_cache_misses"]
        ),
        "hessian_factorizations": int(stats["influence.hessian_factorizations"]),
        "projection_builds": int(stats["mining.projection_builds"]),
    }


def fidelity_probe(workload: Workload, session, result) -> list[tuple[float, float]]:
    """(estimated Δbias, warm-started retrain Δbias) per probed explanation."""
    picked = sorted(
        (rank, index) for index, q in enumerate(result) for rank in range(len(q.explanations))
    )[: workload.probe]
    pairs = []
    for index, query in enumerate(result):
        chosen = [query.explanations.explanations[r] for r, i in picked if i == index]
        if not chosen:
            continue
        masks = np.stack([e.pattern.mask(session.train_data.table) for e in chosen])
        retrain = RetrainInfluence(
            session.model,
            session.X_train,
            session.train_data.labels,
            get_metric(query.metric),
            session.context_for(query.group),
            n_jobs=1,
        )
        truth = retrain.bias_change_batch(masks)
        pairs.extend((e.est_bias_change, float(t)) for e, t in zip(chosen, truth))
    return pairs


def _report(kind: str, exc: BaseException) -> None:
    print(f"perfbench: {kind} raised {exc!r}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def run_rep(
    workload: Workload,
    inputs: Inputs,
    *,
    check: bool = False,
    probe: bool = False,
) -> Rep:
    """One repetition.  ``check`` adds the oracles, ``probe`` the fidelity probe."""
    rep = Rep()
    ops = ops_per_rep(workload)
    try:
        start = clock()
        session = setup(workload, inputs)
        rep.setup_s = clock() - start
        start = clock()
        result = session.audit(metrics=METRICS, k=K)
        rep.audit_s = clock() - start
    except Exception as exc:  # the run must go on and count the failure
        _report("set-up or audit", exc)
        for kind, count in ops.items():
            rep.raised[kind] = count
        return rep
    rep.query_s = [q.seconds for q in result]
    rep.answers["audit"] = answers.audit_answers(result)
    rep.counters = _counters(session, result)
    if check:
        rep.oracle["queries"] = answers.oracle_estimates(session, result)
    if probe:
        rep.fidelity = fidelity_probe(workload, session, result)

    cells = [(q.metric, q.explanations) for q in result]
    delta = None
    rep.answers["edits"] = []
    for j, edit in enumerate(inputs.edits):
        try:
            start = clock()
            delta = session.delta_audit(edit, metrics=METRICS, k=K)
            rep.delta_s.append(clock() - start)
        except Exception as exc:
            _report(f"edit {j}", exc)
            rep.raised["edits"] = ops["edits"] - j
            rep.raised["repairs"] = ops["repairs"]
            return rep
        rep.answers["edits"].append(answers.edit_answers(delta))
        rep.certified += delta.num_certified
        rep.replayed += len(delta.queries)
        cells = [(q.metric, q.after) for q in delta]

    if workload.edits:
        rep.answers["updates"] = []
        try:
            start = clock()
            for metric, explanations in cells:
                view = session.explainer(metric=metric)
                updates = view.explain_updates(explanations, verify=False)
                rep.answers["updates"].append(answers.update_answers(updates))
            rep.repair_s = clock() - start
        except Exception as exc:
            _report("repair", exc)
            rep.raised["repairs"] = ops["repairs"] - len(rep.answers["updates"])
            return rep

    if check and delta is not None:
        why = answers.oracle_replay(session, delta, K)
        if why:
            rep.oracle["edits"][len(inputs.edits) - 1] = why
    return rep


def run(
    workload: Workload,
    inputs: Inputs,
    seconds: float,
    trace: bool,
) -> tuple[list[Rep], list[float], SpanRecorder]:
    """Repeat until ``seconds`` have passed (at least ``MIN_REPS`` times).

    With ``trace``, repetitions alternate untraced / traced, starting
    untraced, and run at least three times, so the run also measures what
    tracing costs against an untraced repetition that is not the process's
    first.  Returns the repetitions, every set-up time measured and the
    span recorder.
    """
    recorder = SpanRecorder()
    reps: list[Rep] = []
    min_reps = 3 if trace else MIN_REPS
    start = clock()
    while len(reps) < min_reps or clock() - start < seconds:
        first = not reps
        traced = trace and len(reps) % 2 == 1
        if traced:
            with patched(recorder):
                rep = run_rep(workload, inputs)
            rep.traced = True
        else:
            rep = run_rep(workload, inputs, check=first, probe=first and trace)
        reps.append(rep)
    setups = [r.setup_s for r in reps if r.setup_s is not None]
    while len(setups) < MIN_SETUPS and sum(setups) < SETUP_SECONDS:
        start = clock()
        setup(workload, inputs)
        setups.append(clock() - start)
    return reps, setups, recorder


def median(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0
