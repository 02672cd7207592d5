"""Pluggable candidate-generation backends for the Gopher pipeline.

Algorithm 1's job — produce scored candidate explanations for Algorithm 2
to rank — has two implementations behind :func:`make_engine`:

* :class:`LatticeEngine` — the level-wise lattice search of
  :func:`repro.patterns.lattice.compute_candidates` (the paper's layout);
* :class:`ClosedMiningEngine` — the packed-bitset closed-pattern miner of
  :mod:`repro.mining.closed`, which evaluates one candidate per distinct
  extent and streams influence scoring off packed masks.

Both take the same search parameters and return a :class:`CandidateResult`
(defined next to the lattice, re-exported here), whose ``candidates``
:func:`repro.patterns.select_top_k` ranks.  The engines differ in how many
candidates they evaluate (``num_evaluated``), in peak memory (the miner
never holds an (m, n) boolean mask matrix), and in the search path
heuristic 2 is applied along (see the pruning notes in
:mod:`repro.mining.closed`) — so their top-k agree only where tests pin
it: the ``series`` estimator on German and on the planted-bias synthetic
set (``tests/mining/test_engine_equivalence.py``).  On German with
``first_order`` they diverge; ``test_engines_diverge_on_german_first_order``
records that as a strict expected failure.
"""

from __future__ import annotations

from repro.influence.estimators import InfluenceEstimator
from repro.mining.alphabet import AlphabetCache, resolve_alphabet
from repro.patterns.lattice import CandidateResult, compute_candidates
from repro.tabular import Table


class _Engine:
    """The search parameters both engines take, in one signature."""

    def _run(
        self,
        search,
        table: Table,
        estimator: InfluenceEstimator,
        *,
        support_threshold: float = 0.05,
        max_predicates: int = 3,
        num_bins: int = 4,
        exclude_features: set[str] | None = None,
        prune_by_responsibility: bool = True,
        max_responsibility: float = 1.25,
        batch_size: int = 1024,
        alphabet_cache: AlphabetCache | None = None,
    ) -> CandidateResult:
        """Run ``search`` — an Algorithm 1 implementation — over ``table``.

        ``alphabet_cache`` shares the level-1 predicate alphabet (and, for
        the miner, its packed tidlists) across repeated searches over the
        same table — the per-dataset half of the audit-session cost split.
        """
        return search(
            table,
            estimator,
            support_threshold=support_threshold,
            max_predicates=max_predicates,
            num_bins=num_bins,
            exclude_features=exclude_features,
            prune_by_responsibility=prune_by_responsibility,
            max_responsibility=max_responsibility,
            batch_size=batch_size,
            alphabet=resolve_alphabet(
                table, alphabet_cache, support_threshold, num_bins, exclude_features
            ),
        )


class LatticeEngine(_Engine):
    """Algorithm 1 as published: level-wise merge search over patterns."""

    name = "lattice"

    def generate(self, table: Table, estimator: InfluenceEstimator, **params) -> CandidateResult:
        """:func:`~repro.patterns.lattice.compute_candidates`; ``params`` as
        in :meth:`_Engine._run`."""
        return self._run(compute_candidates, table, estimator, **params)


class ClosedMiningEngine(_Engine):
    """Closed-pattern mining over packed bitsets (one node per extent).

    :func:`repro.mining.closed.mine_closed_candidates` selects projection
    by row count: from ``_AUTO_DIGEST_MIN_ROWS`` table rows on it projects
    shrunken branches into local coordinate spaces so deep nodes pay
    proportional to their parent extent; below it runs the flat
    full-width traversal.  Tests force either mode through
    ``tests/oracles/projection.py``; all modes emit identical candidates.
    """

    name = "mining"

    def generate(self, table: Table, estimator: InfluenceEstimator, **params) -> CandidateResult:
        """:func:`~repro.mining.closed.mine_closed_candidates`; ``params``
        as in :meth:`_Engine._run`."""
        from repro.mining.closed import mine_closed_candidates

        return self._run(mine_closed_candidates, table, estimator, **params)


_ENGINES = {
    "lattice": LatticeEngine,
    "mining": ClosedMiningEngine,
}


def list_engines() -> list[str]:
    """Names accepted by :func:`make_engine` (and ``GopherConfig.engine``)."""
    return sorted(_ENGINES)


def make_engine(name: str) -> LatticeEngine | ClosedMiningEngine:
    """Factory over the candidate-generation backends."""
    try:
        cls = _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown candidate engine {name!r}; available: {list_engines()}"
        ) from None
    return cls()
