"""Per-layer spans recorded from outside the program.

The traced run wraps the public entry point of each layer in a span of the
benchmark's own recorder, patching each name where the caller looks it up
(a class attribute, or a module global such as
``repro.core.explainer.select_top_k``).  Nothing under ``src/`` changes
and nothing is patched while tracing is off.

A span's self time is its duration minus the time of the spans it
encloses, so nested entry points of different layers split the wall time
between them without counting any of it twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

clock = time.perf_counter

#: (module, attribute path, span name).  A class method is patched on the
#: class that defines it; a function where its caller looks it up.
ENTRY_POINTS: list[tuple[str, str, str]] = [
    ("repro.datasets.encoding", "TabularEncoder.fit", "datasets.encode"),
    ("repro.datasets.encoding", "TabularEncoder.transform", "datasets.encode"),
    ("repro.models.logistic_regression", "LogisticRegression.fit", "models.fit"),
    ("repro.influence.artifacts", "ModelArtifacts.warm", "influence.build"),
    ("repro.influence.artifacts", "ModelArtifacts.apply_edit", "influence.edit"),
    ("repro.influence.estimators", "InfluenceEstimator.param_change_batch", "influence.batch"),
    ("repro.influence.estimators", "InfluenceEstimator.bias_change_batch", "influence.batch"),
    ("repro.influence.estimators", "InfluenceEstimator.responsibility_batch", "influence.batch"),
    ("repro.influence.first_order", "FirstOrderInfluence.bias_change_batch", "influence.batch"),
    ("repro.fairness.metrics", "FairnessMetric.value_batch", "fairness.eval"),
    ("repro.fairness.metrics", "FairnessMetric.surrogate_batch", "fairness.eval"),
    ("repro.fairness.metrics", "PredictiveParity.value_batch", "fairness.eval"),
    ("repro.fairness.metrics", "PredictiveParity.surrogate_batch", "fairness.eval"),
    ("repro.mining.alphabet", "AlphabetCache.get", "mining.alphabet"),
    ("repro.mining.alphabet", "PredicateAlphabet.warm", "mining.alphabet"),
    ("repro.mining.alphabet", "AlphabetCache.apply_edit", "mining.edit"),
    ("repro.mining.engine", "ClosedMiningEngine.generate", "mining.search"),
    ("repro.mining.engine", "LatticeEngine.generate", "patterns.lattice"),
    ("repro.core.explainer", "select_top_k", "patterns.topk"),
    ("repro.core.delta", "select_top_k", "patterns.topk"),
    ("repro.core.session", "replay_search", "core.replay"),
    ("repro.updates.projected_gd", "find_update_explanations", "updates.search"),
]


class SpanRecorder:
    """Self time and call counts per span name, plus top-level coverage."""

    def __init__(self) -> None:
        self.self_seconds: dict[str, float] = defaultdict(float)
        #: Time covered by spans with no enclosing span.
        self.covered = 0.0
        #: Outermost ``influence.batch`` calls and the subsets they scored.
        self.batch_calls = 0
        self.batch_subsets = 0
        #: Subsets the exact estimators sent down the dense per-subset
        #: path, and all subsets they routed.
        self.exact_dense = 0
        self.exact_routed = 0
        #: Estimators seen in batch calls while patched (their routing
        #: counters are per instance).
        self._estimators: dict[int, object] = {}
        self._stack: list[list] = []  # [name, child seconds]

    def wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_batch = name == "influence.batch" and not any(
                frame[0] == name for frame in recorder._stack
            )
            if outer_batch:
                estimator = args[0]
                subsets = args[1] if len(args) > 1 else kwargs["subsets"]
                recorder.batch_calls += 1
                recorder.batch_subsets += (
                    subsets.shape[0] if hasattr(subsets, "shape") else len(subsets)
                )
                recorder._estimators[id(estimator)] = estimator
            frame = [name, 0.0]
            recorder._stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                recorder._stack.pop()
                recorder.self_seconds[name] += elapsed - frame[1]
                if recorder._stack:
                    recorder._stack[-1][1] += elapsed
                else:
                    recorder.covered += elapsed

        return wrapper

    def _collect_routing(self) -> None:
        """Add up the exact estimators' routing counters, then let them go."""
        for estimator in self._estimators.values():
            stats = getattr(estimator, "exact_batch_stats", None)
            if stats is None:
                continue
            counts = dict(stats)
            fallbacks = sum(v for k, v in counts.items() if k.startswith("fallback"))
            self.exact_dense += fallbacks
            self.exact_routed += fallbacks + counts.get("woodbury", 0)
        self._estimators.clear()


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def patched(recorder: SpanRecorder):
    """Install the recorder on every entry point; restore them on exit."""
    saved = []
    try:
        for module_name, path, name in ENTRY_POINTS:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        recorder._collect_routing()
