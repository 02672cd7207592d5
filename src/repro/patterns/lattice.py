"""Algorithm 1 — lattice-based candidate generation with pruning.

The search climbs the pattern lattice level by level: level ``i`` patterns
(i predicates) are built by merging two level ``i−1`` patterns that differ in
exactly one predicate, exactly as in frequent-itemset mining.  Two heuristics
prune the exponential space (paper §4.2):

1. **support** — candidates at or below the threshold τ are dropped, and
   anti-monotonicity means the whole sub-lattice above them dies with them;
2. **responsibility** — a merged pattern survives only if its (estimated)
   causal responsibility strictly exceeds its parents', which guarantees its
   interestingness also exceeds theirs and keeps longer patterns only when
   the extra predicate pays for itself.  A parent only constrains the merge
   when it is itself a plausible *root cause* (Definition 3.1: removal
   reduces the bias without overshooting it past zero, 0 < R ≤ cap) —
   influence estimates for very large subsets routinely overshoot far past
   R = 1, and letting such junk estimates veto every refinement would cut
   off exactly the coherent subgroups the search exists to find.

Pair enumeration is done by bucketing each level-(i−1) pattern under all of
its (i−2)-predicate subsets; two patterns share a bucket iff they differ in
exactly one predicate, so the enumeration is complete without the quadratic
all-pairs scan.  A candidate reachable through several parent pairs is
evaluated once, against the first pair that produces it (pair order is
deterministic, so the search is reproducible).

Influence queries are *batched*: each level first gathers every merge that
survives the structural checks (dedup, satisfiability, support), then asks
the estimator for all bias changes in one ``bias_change_batch`` call per
``batch_size`` chunk — one BLAS-level pass per lattice level instead of
thousands of tiny per-candidate queries (see the cost model in
``repro.influence.estimators``).  Each chunk is packed once into an
:class:`~repro.mining.bitset.Extents`, whose row bytes also key the shared
extent caches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.influence.estimators import InfluenceEstimator
from repro.mining.bitset import Extents
from repro.obs import trace
from repro.patterns.candidates import generate_single_predicates
from repro.patterns.pattern import Pattern
from repro.tabular import Table

# Candidates with a lower responsibility are kept out of a search's result
# (they still merge upward).  Shared by both engines and the delta replay,
# so all three filter the same pool; not a config knob.
MIN_RESPONSIBILITY = 0.0


@dataclass
class PatternStats:
    """A candidate explanation with its search-time statistics."""

    pattern: Pattern
    support: float
    size: int
    responsibility: float
    bias_change: float
    _packed_mask: np.ndarray = field(repr=False)
    _num_rows: int = field(repr=False)

    @property
    def interestingness(self) -> float:
        """U(φ) = R(φ) / Sup(φ) (Def. 3.5)."""
        return self.responsibility / self.support if self.support > 0 else 0.0

    def mask(self) -> np.ndarray:
        """The boolean row mask of D(φ) (unpacked on demand)."""
        return np.unpackbits(self._packed_mask, count=self._num_rows).astype(bool)

    def describe(self) -> str:
        return (
            f"{self.pattern}  [sup={self.support:.2%}, "
            f"R={self.responsibility:.2%}, U={self.interestingness:.3f}]"
        )


@dataclass
class LatticeLevelStats:
    """Per-level accounting reported in the paper's Table 7."""

    level: int
    num_candidates: int
    num_merges_tried: int
    seconds: float


@dataclass
class LatticeRecord:
    """Replay state of a depth-≤2 search, for incremental re-audits.

    When the search runs over a shared alphabet with ``max_predicates <= 2``
    its candidate space is a pure function of the level-1 entry list: the
    level-2 pair enumeration, dedup, and satisfiability checks never look at
    the data, only the support filter and the scores do.  Recording, per
    evaluated level-2 merge, the entry indices of its parents plus its
    extent size, score, and filter outcome therefore captures everything an
    incremental re-certification (:meth:`repro.core.AuditSession.delta_audit`)
    needs to replay the search against patched masks without re-running the
    merge loop.  All ``pair_*`` arrays are parallel, in the search's
    deterministic enumeration order.

    ``pair_known`` mirrors the parent-reuse short-circuit (0 = evaluated,
    1/2 = extent collapsed onto the left/right parent, whose evaluation was
    reused verbatim); ``pair_in_result`` marks merges that survived the
    responsibility bar and the :data:`MIN_RESPONSIBILITY` filter into
    ``candidates``.  Searches deeper than two levels do not record — their
    level-3+ frontier depends on scores and cannot be replayed structurally.
    """

    num_entries: int
    level1_responsibilities: np.ndarray
    level1_bias_changes: np.ndarray
    pair_left: np.ndarray
    pair_right: np.ndarray
    pair_sizes: np.ndarray
    pair_known: np.ndarray
    pair_responsibilities: np.ndarray
    pair_bias_changes: np.ndarray
    pair_in_result: np.ndarray


@dataclass
class CandidateResult:
    """Everything Algorithm 1 returns, whichever engine ran it.

    ``num_evaluated`` counts the influence evaluations actually issued:
    the lattice reuses a parent's evaluation for collapsed row sets, the
    closed miner issues one per distinct extent.  ``levels`` has the
    shape of the paper's Table 7.  ``engine`` is ``"lattice"``,
    ``"mining"`` or ``"delta"`` (an incremental replay); ``record`` is
    the lattice's depth-2 replay state, when it kept one.
    """

    candidates: list[PatternStats]
    levels: list[LatticeLevelStats]
    num_evaluated: int = 0
    record: LatticeRecord | None = None
    engine: str = "lattice"

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)


def compute_candidates(
    table: Table,
    estimator: InfluenceEstimator,
    support_threshold: float = 0.05,
    max_predicates: int = 3,
    num_bins: int = 4,
    exclude_features: set[str] | None = None,
    prune_by_responsibility: bool = True,
    max_responsibility: float = 1.25,
    batch_size: int = 1024,
    alphabet=None,
) -> CandidateResult:
    """Run Algorithm 1 over ``table`` and return all surviving candidates.

    Parameters
    ----------
    table:
        The *training* feature table the patterns quantify over.
    estimator:
        Influence estimator bound to the model trained on this table; its
        ``responsibility`` drives both pruning and ranking.
    support_threshold:
        τ — patterns must cover strictly more than this fraction of rows;
        a candidate whose support equals τ exactly is dropped, at every
        level of the lattice.
    max_predicates:
        Lattice depth cap (the "level" axis of Table 7).
    num_bins:
        Quantile bins per numeric feature for level-1 thresholds.
    exclude_features:
        Features never used in predicates (e.g. identifiers).
    prune_by_responsibility:
        Toggle for heuristic 2 — exposed so the ablation bench can measure
        how much of the space it removes.
    max_responsibility:
        Root-cause cap for the pruning comparison: parents whose estimated
        responsibility falls outside (0, max_responsibility] do not veto
        their children (see the module docstring).
    batch_size:
        Maximum candidates per batched influence call; bounds the (m, n)
        mask matrix packed for the estimator.
    alphabet:
        A pre-built level-1 :class:`repro.mining.alphabet.PredicateAlphabet`
        for *this* table and *these* generation parameters, letting many
        searches (different metrics, groups, estimators) share one
        predicate/mask build.  ``None`` generates the level-1 candidates
        locally, exactly as before.
    """
    if max_predicates < 1:
        raise ValueError(f"max_predicates must be >= 1, got {max_predicates}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    num_rows = table.num_rows
    if num_rows != estimator.num_train:
        raise ValueError(
            f"table rows ({num_rows}) must match estimator training rows "
            f"({estimator.num_train}); patterns quantify over the training data"
        )

    levels: list[LatticeLevelStats] = []
    all_stats: list[PatternStats] = []

    # --- level 1 ---------------------------------------------------------
    start = time.perf_counter()
    with trace.span("lattice.level", level=1) as level_span:
        if alphabet is not None:
            if getattr(alphabet, "packed", False):
                raise ValueError(
                    "the lattice engine consumes boolean level-1 masks and cannot "
                    "run on a packed (out-of-core) alphabet; use engine='mining' "
                    "for tables this large"
                )
            # Shared pre-built alphabet: full-coverage predicates (which would
            # "remove the entire data") are already filtered out of entries.
            entries = alphabet.entries
            num_singles = alphabet.num_generated
        else:
            singles = generate_single_predicates(
                table, support_threshold, num_bins, exclude_features
            )
            num_singles = len(singles)
            # A full-coverage pattern would "remove the entire data" — the
            # paper notes such patterns have no explanatory value, and no
            # model can be retrained without any training rows.
            entries = [(predicate, mask) for predicate, mask in singles if not mask.all()]
        survivors: list[tuple[Pattern, np.ndarray]] = [
            (Pattern([predicate]), mask) for predicate, mask in entries
        ]
        responsibilities, bias_changes = _evaluate_all(
            estimator, _pack_batches([mask for _, mask in survivors], batch_size)
        )
        num_evaluated = len(survivors)
        current: list[tuple[Pattern, np.ndarray, int, float, float]] = []
        for (pattern, mask), resp, dbias in zip(survivors, responsibilities, bias_changes):
            current.append((pattern, mask, int(mask.sum()), resp, dbias))
            if resp >= MIN_RESPONSIBILITY:
                all_stats.append(_stats(pattern, mask, resp, dbias, num_rows))
        levels.append(
            LatticeLevelStats(1, len(current), num_singles, time.perf_counter() - start)
        )
        level_span.set(candidates=len(current), evaluated=len(survivors))

    # Depth-2 searches are structurally replayable under data edits; record
    # the per-merge state the incremental re-audit needs (see LatticeRecord).
    recording = max_predicates <= 2
    responsibilities_level1, bias_changes_level1 = responsibilities, bias_changes
    rec_pairs: list[tuple[int, int, int, int, float, float, bool]] = []

    # --- levels 2..max ----------------------------------------------------
    level = 2
    while current and level <= max_predicates:
        start = time.perf_counter()
        with trace.span("lattice.level", level=level) as level_span:
            merges_tried = 0
            seen: set[Pattern] = set()
            # Gather phase: structural pruning only (dedup, satisfiability,
            # support).  Influence is deferred so the whole level is one batch.
            # A merge whose row set collapses onto one parent's (a redundant
            # predicate) has *exactly* that parent's responsibility, so the
            # parent's evaluation is reused — the influence query would only
            # reproduce it up to floating-point noise, and the strict pruning
            # comparison must not hinge on that noise.
            merged_survivors: list[
                tuple[Pattern, np.ndarray, int, float, tuple[float, float] | None, int, int, int]
            ] = []
            with trace.span("lattice.gather"):
                for i_a, i_b in _mergeable_pairs(current):
                    pattern_a, mask_a, size_a, resp_a, dbias_a = current[i_a]
                    pattern_b, mask_b, size_b, resp_b, dbias_b = current[i_b]
                    merges_tried += 1
                    merged = pattern_a.merge(pattern_b)
                    if len(merged) != level or merged in seen:
                        continue
                    seen.add(merged)
                    if not merged.is_satisfiable():
                        continue
                    mask = mask_a & mask_b
                    size = int(mask.sum())
                    support = size / num_rows
                    if support <= support_threshold:
                        continue
                    if size == size_a:  # mask ⊆ mask_a, so equal sizes ⇒ equal sets
                        known, known_code = (resp_a, dbias_a), 1
                    elif size == size_b:
                        known, known_code = (resp_b, dbias_b), 2
                    else:
                        known, known_code = None, 0
                    merged_survivors.append(
                        (
                            merged,
                            mask,
                            size,
                            _parent_bar(resp_a, resp_b, max_responsibility),
                            known,
                            i_a,
                            i_b,
                            known_code,
                        )
                    )
                # The level's influence batch: every merge without a reused
                # parent evaluation, packed once.
                batches = _pack_batches(
                    [row[1] for row in merged_survivors if row[4] is None], batch_size
                )
                num_batched = sum(len(extents) for extents in batches)

            # Evaluate phase: one batched influence query per chunk.
            responsibilities, bias_changes = _evaluate_all(estimator, batches)
            num_evaluated += num_batched

            # Prune phase: heuristic 2 against the recorded parent bars.
            next_level = []
            evaluated = iter(zip(responsibilities, bias_changes))
            with trace.span("lattice.prune"):
                for merged, mask, size, bar, known, i_a, i_b, known_code in merged_survivors:
                    resp, dbias = known if known is not None else next(evaluated)
                    in_result = False
                    if not (prune_by_responsibility and resp <= bar):
                        next_level.append((merged, mask, size, resp, dbias))
                        if resp >= MIN_RESPONSIBILITY:
                            all_stats.append(_stats(merged, mask, resp, dbias, num_rows))
                            in_result = True
                    if recording and level == 2:
                        rec_pairs.append(
                            (i_a, i_b, size, known_code, float(resp), float(dbias), in_result)
                        )

            levels.append(
                LatticeLevelStats(
                    level, len(next_level), merges_tried, time.perf_counter() - start
                )
            )
            level_span.set(
                candidates=len(next_level), merges=merges_tried, evaluated=num_batched
            )
        current = next_level
        level += 1

    record = None
    if recording:
        record = LatticeRecord(
            num_entries=len(entries),
            level1_responsibilities=np.asarray(responsibilities_level1, dtype=np.float64),
            level1_bias_changes=np.asarray(bias_changes_level1, dtype=np.float64),
            pair_left=np.array([r[0] for r in rec_pairs], dtype=np.int64),
            pair_right=np.array([r[1] for r in rec_pairs], dtype=np.int64),
            pair_sizes=np.array([r[2] for r in rec_pairs], dtype=np.int64),
            pair_known=np.array([r[3] for r in rec_pairs], dtype=np.int8),
            pair_responsibilities=np.array([r[4] for r in rec_pairs], dtype=np.float64),
            pair_bias_changes=np.array([r[5] for r in rec_pairs], dtype=np.float64),
            pair_in_result=np.array([r[6] for r in rec_pairs], dtype=bool),
        )
    return CandidateResult(
        candidates=all_stats, levels=levels, num_evaluated=num_evaluated, record=record
    )


# ----------------------------------------------------------------------
def _parent_bar(resp_a: float, resp_b: float, cap: float) -> float:
    """The responsibility a merged child must strictly exceed.

    Only parents inside the root-cause window (0, cap] count; children of
    two out-of-window parents face no responsibility bar (support pruning
    still applies).
    """
    valid = [r for r in (resp_a, resp_b) if 0.0 < r <= cap]
    return max(valid) if valid else -np.inf


def _mergeable_pairs(patterns: list[tuple]):
    """Yield index pairs of patterns differing in exactly one predicate.

    ``patterns`` is a list of tuples whose first element is the
    :class:`Pattern`; the remaining elements (masks, statistics) are
    ignored here.  Each pattern is filed under every (size−1)-subset of its
    predicates; two patterns land in the same bucket iff they share that
    subset, i.e. differ in exactly one predicate.  For level 1 every pair
    qualifies (the shared subset is empty).
    """
    if not patterns:
        return
    size = len(patterns[0][0])
    if size == 1:
        for i in range(len(patterns)):
            for j in range(i + 1, len(patterns)):
                yield i, j
        return
    buckets: dict[tuple, list[int]] = {}
    for idx, entry in enumerate(patterns):
        preds = entry[0].predicates
        for drop in range(len(preds)):
            key = tuple(
                p.sort_key() for k, p in enumerate(preds) if k != drop
            )
            buckets.setdefault(key, []).append(idx)
    emitted: set[tuple[int, int]] = set()
    for members in buckets.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                pair = (members[a], members[b])
                if pair not in emitted:
                    emitted.add(pair)
                    yield pair


def _pack_batches(masks: list[np.ndarray], batch_size: int) -> list[Extents]:
    """``masks`` packed into :class:`Extents` of at most ``batch_size`` rows."""
    return [
        Extents.from_masks(np.stack(masks[start : start + batch_size]))
        for start in range(0, len(masks), batch_size)
    ]


def _evaluate_all(
    estimator: InfluenceEstimator, batches: list[Extents]
) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities and bias changes of a level's packed candidate
    batches — one ``score_batch`` per batch, aligned with their rows."""
    if not batches:
        return np.zeros(0), np.zeros(0)
    responsibilities, bias_changes = zip(*(estimator.score_batch(b) for b in batches))
    return np.concatenate(responsibilities), np.concatenate(bias_changes)


def _stats(
    pattern: Pattern, mask: np.ndarray, resp: float, dbias: float, num_rows: int
) -> PatternStats:
    return PatternStats(
        pattern=pattern,
        support=float(mask.sum() / num_rows),
        size=int(mask.sum()),
        responsibility=resp,
        bias_change=dbias,
        _packed_mask=np.packbits(mask),
        _num_rows=num_rows,
    )
