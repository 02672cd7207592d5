"""Engine equivalence: closed mining == lattice search, where it holds.

What is pinned: with the ``series`` second-order estimator (smooth
evaluation) the miner produces *identical* top-k explanations to the
lattice — same pattern sets, scores equal to 1e-10 — on German and on the
synthetic planted-bias dataset, while evaluating strictly fewer candidates
(one per distinct extent).  That is not the paper's default estimator
(the exact second-order variant), and the equivalence is not general:
the engines apply heuristic 2 along different search paths, and on German
with ``first_order`` their top-5 differ —
``test_engines_diverge_on_german_first_order`` records that as a strict
expected failure (ROADMAP open item 1).
"""

import pytest

from repro.bench.workloads import build_pipeline
from repro.core import GopherConfig, GopherExplainer
from repro.influence import make_estimator
from repro.mining import (
    CandidateResult,
    ClosedMiningEngine,
    LatticeEngine,
    list_engines,
    make_engine,
)
from repro.models import LogisticRegression
from repro.patterns import compute_candidates, select_top_k
from tests.oracles.projection import forced_projection


def top_k_pairs(result, k):
    selected, _ = select_top_k(result.candidates, k, containment_threshold=0.5)
    return [(s.pattern, s.responsibility, s.support, s.bias_change) for s in selected]


def assert_identical_top_k(lattice, mined, k):
    a, b = top_k_pairs(lattice, k), top_k_pairs(mined, k)
    assert [p for p, *_ in a] == [p for p, *_ in b], (
        f"top-{k} patterns diverge:\n  lattice: {[str(p) for p, *_ in a]}\n"
        f"  mining:  {[str(p) for p, *_ in b]}"
    )
    for (_, resp_a, sup_a, bias_a), (_, resp_b, sup_b, bias_b) in zip(a, b):
        assert resp_a == pytest.approx(resp_b, abs=1e-10)
        assert sup_a == pytest.approx(sup_b, abs=1e-12)
        assert bias_a == pytest.approx(bias_b, abs=1e-10)


class TestGermanEquivalence:
    @pytest.fixture(scope="class", params=[2, 3], ids=["mp2", "mp3"])
    def engine_pair(self, request, german_train, german_series_estimator):
        opts = dict(support_threshold=0.05, max_predicates=request.param)
        lattice = make_engine("lattice").generate(
            german_train.table, german_series_estimator, **opts
        )
        mined = make_engine("mining").generate(
            german_train.table, german_series_estimator, **opts
        )
        return lattice, mined

    @pytest.mark.parametrize("k", [1, 3, 5, 10])
    def test_identical_top_k(self, engine_pair, k):
        lattice, mined = engine_pair
        assert_identical_top_k(lattice, mined, k)

    def test_mining_candidates_no_more_than_lattice(self, engine_pair):
        lattice, mined = engine_pair
        # One candidate per distinct extent: never more than the lattice's
        # per-pattern candidate list.
        assert mined.num_candidates <= lattice.num_candidates
        assert mined.num_candidates > 0

    def test_prune_off_equivalence(self, german_train, german_series_estimator):
        opts = dict(
            support_threshold=0.05, max_predicates=2, prune_by_responsibility=False
        )
        lattice = make_engine("lattice").generate(
            german_train.table, german_series_estimator, **opts
        )
        mined = make_engine("mining").generate(
            german_train.table, german_series_estimator, **opts
        )
        assert_identical_top_k(lattice, mined, 5)
        assert mined.num_evaluated < lattice.num_evaluated

    def test_fewer_candidates_evaluated(self, german_train, german_series_estimator):
        opts = dict(support_threshold=0.05, max_predicates=2)
        lattice = make_engine("lattice").generate(
            german_train.table, german_series_estimator, **opts
        )
        mined = make_engine("mining").generate(
            german_train.table, german_series_estimator, **opts
        )
        assert mined.num_evaluated < lattice.num_evaluated

    @pytest.mark.parametrize("mp", [2, 3])
    def test_never_over_evaluates_the_lattice(
        self, mp, german_train, german_series_estimator
    ):
        """Regression for the seed-11 depth-3 over-evaluation.

        With the one-sided DFS-parent descent bars the miner *extended*
        depth-2 survivors the lattice could no longer pair-merge, so on
        this exact fixture (German, seed 11) the depth-3 frontier issued
        more influence evaluations than the lattice.  The sub-extent
        descent-bar cache reconstructs the lattice's merge-pair bars and
        formability, closing the gap — pinned here at both depths.
        """
        opts = dict(support_threshold=0.05, max_predicates=mp)
        lattice = make_engine("lattice").generate(
            german_train.table, german_series_estimator, **opts
        )
        mined = make_engine("mining").generate(
            german_train.table, german_series_estimator, **opts
        )
        assert mined.num_evaluated <= lattice.num_evaluated


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP open item 1 (one Algorithm 1): the engines apply heuristic 2 "
    "along different search paths, and on German with first_order their "
    "top-5 first differs at rank 2",
)
def test_engines_diverge_on_german_first_order():
    bundle = build_pipeline("german")
    estimator = make_estimator(
        "first_order", bundle.model, bundle.X_train, bundle.train.labels,
        bundle.metric, bundle.test_ctx,
    )
    opts = dict(support_threshold=0.05, max_predicates=3)
    lattice = make_engine("lattice").generate(bundle.train.table, estimator, **opts)
    mined = make_engine("mining").generate(bundle.train.table, estimator, **opts)
    assert_identical_top_k(lattice, mined, 5)


class TestSyntheticEquivalence:
    @pytest.fixture(scope="class", params=[2, 3], ids=["mp2", "mp3"])
    def engine_pair(self, request, synth_setup):
        table, estimator = synth_setup
        opts = dict(support_threshold=0.05, max_predicates=request.param)
        lattice = make_engine("lattice").generate(table, estimator, **opts)
        mined = make_engine("mining").generate(table, estimator, **opts)
        return lattice, mined

    @pytest.mark.parametrize("k", [1, 3, 5, 10])
    def test_identical_top_k(self, engine_pair, k):
        lattice, mined = engine_pair
        assert_identical_top_k(lattice, mined, k)

    def test_fewer_candidates_evaluated(self, engine_pair):
        lattice, mined = engine_pair
        assert 0 < mined.num_evaluated < lattice.num_evaluated


class TestProjectedEngineEquivalence:
    """The projected miner must match the *lattice* too, not just the flat
    miner — the engine acceptance contract is projection-independent."""

    @pytest.mark.parametrize("projection", ["always", "auto"])
    def test_projected_mining_matches_lattice(
        self, projection, german_train, german_series_estimator
    ):
        opts = dict(support_threshold=0.05, max_predicates=3)
        lattice = make_engine("lattice").generate(
            german_train.table, german_series_estimator, **opts
        )
        with forced_projection(projection):
            mined = make_engine("mining").generate(
                german_train.table, german_series_estimator, **opts
            )
        assert_identical_top_k(lattice, mined, 5)
        assert mined.num_evaluated <= lattice.num_evaluated

    def test_projected_mining_matches_lattice_synthetic(self, synth_setup):
        table, estimator = synth_setup
        opts = dict(support_threshold=0.05, max_predicates=3)
        lattice = make_engine("lattice").generate(table, estimator, **opts)
        with forced_projection("always"):
            mined = make_engine("mining").generate(table, estimator, **opts)
        assert_identical_top_k(lattice, mined, 5)


class TestEngineProtocol:
    def test_list_engines(self):
        assert list_engines() == ["lattice", "mining"]

    def test_make_engine_unknown(self):
        with pytest.raises(ValueError, match="unknown candidate engine"):
            make_engine("apriori")

    def test_lattice_engine_wraps_compute_candidates(
        self, german_train, german_series_estimator
    ):
        direct = compute_candidates(
            german_train.table, german_series_estimator,
            support_threshold=0.05, max_predicates=2,
        )
        wrapped = LatticeEngine().generate(
            german_train.table, german_series_estimator,
            support_threshold=0.05, max_predicates=2,
        )
        assert wrapped.engine == "lattice"
        assert wrapped.num_evaluated == direct.num_evaluated
        assert [s.pattern for s in wrapped.candidates] == [
            s.pattern for s in direct.candidates
        ]

    def test_both_engines_return_one_result_type(
        self, german_train, german_series_estimator
    ):
        opts = dict(support_threshold=0.05, max_predicates=1)
        for engine in (LatticeEngine(), ClosedMiningEngine()):
            result = engine.generate(german_train.table, german_series_estimator, **opts)
            assert isinstance(result, CandidateResult)
            assert result.engine == engine.name
            selected, _ = select_top_k(result.candidates, 2, containment_threshold=0.99)
            assert 1 <= len(selected) <= 2


class TestExplainerIntegration:
    @pytest.fixture(scope="class")
    def explanations(self, german_train, german_test):
        out = {}
        for engine in ("lattice", "mining"):
            gopher = GopherExplainer(
                LogisticRegression(l2_reg=1e-3),
                metric="statistical_parity",
                estimator="second_order",
                estimator_kwargs={"variant": "series", "evaluation": "smooth"},
                engine=engine,
                max_predicates=2,
                support_threshold=0.05,
            )
            gopher.fit(german_train, german_test)
            out[engine] = gopher.explain(k=3, verify=False)
        return out

    def test_identical_explanations(self, explanations):
        lattice, mined = explanations["lattice"], explanations["mining"]
        assert lattice.patterns() == mined.patterns()
        for a, b in zip(lattice, mined):
            assert a.est_responsibility == pytest.approx(b.est_responsibility, abs=1e-10)
            assert a.support == pytest.approx(b.support, abs=1e-12)

    def test_mining_result_carries_engine_accounting(self, explanations):
        result = explanations["mining"].lattice
        assert isinstance(result, CandidateResult)
        assert result.engine == "mining"
        assert result.num_evaluated > 0
        assert result.num_candidates > 0

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            GopherConfig(engine="bogus")

    def test_config_rejects_bad_batch_size(self):
        with pytest.raises(ValueError, match="search_batch_size"):
            GopherConfig(search_batch_size=0)
