"""What a run answered, and the checks that decide whether it was right.

Answers are reduced to plain JSON: per audit query the top-k patterns
with their estimated responsibilities and Δbias, per edit the certificate
flags and the post-edit top-k, per repaired query the update explanations.
Three checks use them:

* the stored reference of the seed (``reference/<workload>.json``), when
  the seed has one;
* every repetition of a run against the run's first repetition;
* oracles that need no stored data: each top-k estimate recomputed by a
  bare estimator without the session's caches, and the last delta replay
  against a fresh engine search on the patched session.

Every check works per operation (one audit query, one edit, one repaired
query), so a mismatch fails exactly the operations it touches.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.fairness.metrics import get_metric
from repro.influence.estimators import make_estimator

#: Absolute tolerance on responsibilities and Δbias estimates.
TOL = 1e-8
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def top_k(explanations) -> list[list]:
    return [
        [str(e.pattern), float(e.est_responsibility), float(e.est_bias_change)]
        for e in explanations
    ]


def audit_answers(result) -> list[dict]:
    return [{"metric": q.metric, "top": top_k(q.explanations)} for q in result]


def edit_answers(delta) -> dict:
    return {
        "certified": [bool(q.certified) for q in delta],
        "top": [top_k(q.after) for q in delta],
    }


def update_answers(updates) -> list[list]:
    return [
        [
            str(u.pattern),
            sorted([k, list(v)] for k, v in u.changed_features.items()),
            float(u.est_bias_change),
        ]
        for u in updates
    ]


def _top_k_diff(got: list, want: list) -> str:
    if [row[0] for row in got] != [row[0] for row in want]:
        return f"patterns {[r[0] for r in got]} != {[r[0] for r in want]}"
    for g, w in zip(got, want):
        if abs(g[1] - w[1]) > TOL or abs(g[2] - w[2]) > TOL:
            return f"{g[0]}: estimate {g[1:]} != {w[1:]}"
    return ""


def compare(got: dict, want: dict) -> dict[str, dict[int, str]]:
    """Mismatched operations by kind: ``{"queries"|"edits"|"repairs": {index: why}}``.

    Operations missing from either side are not compared.
    """
    out: dict[str, dict[int, str]] = {"queries": {}, "edits": {}, "repairs": {}}
    for i, (g, w) in enumerate(zip(got.get("audit", []), want.get("audit", []))):
        diff = "metric order" if g["metric"] != w["metric"] else _top_k_diff(g["top"], w["top"])
        if diff:
            out["queries"][i] = f"query {i} ({g['metric']}): {diff}"
    for j, (g, w) in enumerate(zip(got.get("edits", []), want.get("edits", []))):
        if g["certified"] != w["certified"]:
            out["edits"][j] = f"edit {j}: certified {g['certified']} != {w['certified']}"
            continue
        for gq, wq in zip(g["top"], w["top"]):
            diff = _top_k_diff(gq, wq)
            if diff:
                out["edits"][j] = f"edit {j}: {diff}"
                break
    for i, (g, w) in enumerate(zip(got.get("updates", []), want.get("updates", []))):
        same = len(g) == len(w) and all(
            a[0] == b[0] and a[1] == b[1] and abs(a[2] - b[2]) <= TOL for a, b in zip(g, w)
        )
        if not same:
            out["repairs"][i] = f"repair {i}: update explanations differ"
    return out


def oracle_estimates(session, result) -> dict[int, str]:
    """Recompute each top-k Δbias with a bare estimator (no session caches).

    Returns the audit queries whose session estimates disagree.
    """
    cfg = session.config
    failures = {}
    for i, query in enumerate(result):
        patterns = [e.pattern for e in query.explanations]
        if not patterns:
            continue
        masks = np.stack([p.mask(session.train_data.table) for p in patterns])
        bare = make_estimator(
            cfg.estimator,
            session.model,
            session.X_train,
            session.train_data.labels,
            get_metric(query.metric),
            session.context_for(query.group),
            **cfg.estimator_kwargs,
        )
        fresh = bare.bias_change_batch(masks)
        cached = np.array([e.est_bias_change for e in query.explanations])
        if not np.allclose(fresh, cached, rtol=0.0, atol=TOL):
            failures[i] = (
                f"query {i} ({query.metric}): bare estimator {fresh.tolist()} "
                f"!= session {cached.tolist()}"
            )
    return failures


def oracle_replay(session, delta, k: int) -> str:
    """The last delta replay against a fresh engine search of the patched session.

    Returns why they disagree, or "" when they agree.
    """
    fresh = session.audit(metrics=[q.metric for q in delta], k=k)
    for replayed, searched in zip(delta, fresh):
        diff = _top_k_diff(top_k(replayed.after), top_k(searched.explanations))
        if diff:
            return f"last edit, {replayed.metric}: replay != fresh search: {diff}"
    return ""


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def save_reference(workload: str, entries: dict) -> Path:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    data = load_reference(workload)
    data.update({str(seed): entry for seed, entry in entries.items()})
    ordered = {key: data[key] for key in sorted(data, key=int)}
    path.write_text(json.dumps(ordered, indent=None, separators=(",", ":")) + "\n")
    return path
