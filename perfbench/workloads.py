"""The benchmark's workloads and the seeded inputs each one runs on.

Every workload audits one dataset with ``LogisticRegression(l2_reg=1e-3)``,
``retrain_jobs=1``, all four fairness metrics, k=5 and the dataset's
declared protected group.  What differs is the dataset, its size and the
Gopher configuration, chosen so that each workload is dominated by a
different layer of the pipeline.

Inputs are a pure function of the seed.  The *population* of a workload is
fixed (its generator at population seed 0, split 80/20 with split seed 0);
the run's seed shuffles the row order of both splits and draws the edit
log.  Holding the population fixed keeps the amount of work in a run the
same from seed to seed (on a 2-core x86-64 machine, fresh German draws
moved the exact-estimator audit between 6.7 and 11.9 s), so run-to-run
spread measures the program and the machine, not the luck of the draw.
Row order still changes the bytes the program sees and, through the
optimizer's summation order, the fitted parameters in their last digits,
so answers are stored per seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.datasets import (
    load_adult,
    load_german,
    load_synth_scale,
    random_edit,
    train_test_split,
)
from repro.datasets.base import Dataset
from repro.datasets.edits import DataEdit
from repro.tabular.columns import CategoricalColumn

METRICS = ["average_odds", "equal_opportunity", "predictive_parity", "statistical_parity"]
K = 5
TEST_FRACTION = 0.2
POPULATION_SEED = 0
#: Edit kinds of the write-path log, in order (two rounds).
EDIT_KINDS = ("remove", "relabel", "add")

LOADERS = {"german": load_german, "adult": load_adult, "synth_scale": load_synth_scale}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Layers that dominate the workload's wall time (from traced runs).
    dominant: tuple[str, ...]
    dataset: str
    rows: int
    #: Rows in the self-test's small-size mode.
    small_rows: int
    config: dict
    #: Edits in the write-path log.  A write-path workload also builds the
    #: merge skeleton in ``warm`` (delta replay needs it) and searches for
    #: update explanations over the grid after the edits; 0 = read only.
    edits: int = 0
    #: Explanations the retrain fidelity probe checks (traced runs only),
    #: taken rank by rank across the grid: every query's top-1 first.
    probe: int = K * len(METRICS)

    @property
    def summary(self) -> str:
        """The one-line ``why`` recorded in ``BENCHMARK.json``."""
        return f"{self.why}; dominant layers: {', '.join(self.dominant)}"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="german_exact",
            why=(
                "paper default: German, exact second order, lattice, tau 5%, 3 predicates; "
                "the workload an exact-estimator change must move"
            ),
            dominant=("influence", "patterns"),
            dataset="german",
            rows=1000,
            small_rows=300,
            config=dict(
                estimator="second_order",
                estimator_kwargs={"variant": "exact"},
                engine="lattice",
                support_threshold=0.05,
                max_predicates=3,
            ),
        ),
        Workload(
            name="adult_mining",
            why=(
                "Adult 40k rows, first order, miner, tau 1%, 4 predicates; "
                "flat search below the projection gate"
            ),
            dominant=("influence", "mining", "models"),
            dataset="adult",
            rows=40_000,
            small_rows=2_000,
            config=dict(
                estimator="first_order",
                engine="mining",
                support_threshold=0.01,
                max_predicates=4,
            ),
            probe=8,
        ),
        Workload(
            name="scale_mining",
            why=(
                "synth_scale 200k rows, first order, miner, tau 0.3%, 3 predicates; "
                "above the projection gate, blind to the exact estimator"
            ),
            dominant=("models", "mining"),
            dataset="synth_scale",
            rows=200_000,
            small_rows=5_000,
            config=dict(
                estimator="first_order",
                engine="mining",
                support_threshold=0.003,
                max_predicates=3,
            ),
            probe=2,
        ),
        Workload(
            name="adult_edit_repair",
            why=(
                "Adult 20k rows, smooth series, lattice, 2 predicates; audit, 6 edits "
                "through delta_audit, update search: the write path"
            ),
            dominant=("updates", "influence", "fairness"),
            dataset="adult",
            rows=20_000,
            small_rows=2_000,
            config=dict(
                estimator="series",
                estimator_kwargs={"evaluation": "smooth"},
                engine="lattice",
                support_threshold=0.05,
                max_predicates=2,
            ),
            edits=6,
            probe=8,
        ),
    )
}


@dataclass
class Inputs:
    """One run's generated inputs: both splits and the edit log."""

    train: Dataset
    test: Dataset
    edits: list[DataEdit]


def _sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([int(seed), *path]).generate_state(1)[0])


def make_inputs(workload: Workload, seed: int, small: bool = False) -> Inputs:
    """The train/test splits and edit log of ``workload`` for ``seed``."""
    rows = workload.small_rows if small else workload.rows
    population = LOADERS[workload.dataset](rows, seed=POPULATION_SEED)
    train, test = train_test_split(population, TEST_FRACTION, seed=POPULATION_SEED)
    rng = np.random.default_rng(_sub_seed(seed, 0))
    train = train.subset(rng.permutation(train.num_rows))
    test = test.subset(rng.permutation(test.num_rows))
    edits = []
    current = train
    for i in range(workload.edits):
        kind = EDIT_KINDS[i % len(EDIT_KINDS)]
        count = max(1, current.num_rows // 100)
        edit = random_edit(current, kind, count, seed=_sub_seed(seed, 1, i))
        edits.append(edit)
        current = current.apply_edit(edit)
    return Inputs(train=train, test=test, edits=edits)


def _hash_rows(h, table, labels) -> None:
    for name in table.column_names:
        column = table.column(name)
        h.update(name.encode())
        if isinstance(column, CategoricalColumn):
            h.update("\x1f".join(column.categories).encode())
            h.update(np.ascontiguousarray(column.codes).tobytes())
        else:
            h.update(np.ascontiguousarray(column.values).tobytes())
    h.update(np.ascontiguousarray(labels).tobytes())


def fingerprint(inputs: Inputs) -> dict[str, str]:
    """SHA-256 of the dataset bytes and of the edit log, separately."""
    data = hashlib.sha256()
    for split in (inputs.train, inputs.test):
        _hash_rows(data, split.table, split.labels)
    log = hashlib.sha256()
    for edit in inputs.edits:
        for part in (edit.remove_indices, edit.relabel_indices, edit.relabel_labels):
            log.update(np.asarray(part, dtype=np.int64).tobytes())
            log.update(b"|")
        if edit.num_added:
            _hash_rows(log, edit.add_table, edit.add_labels)
        log.update(b"#")
    return {"data": data.hexdigest(), "edits": log.hexdigest()}
