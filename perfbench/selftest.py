"""The benchmark's self-test, at small sizes (``run.py --self-test``).

Asserts that

* workload inputs are a pure function of the seed: the same seed gives
  identical dataset bytes and edit log, another seed changes both;
* every entry point the traced run patches resolves, and is restored
  afterwards;
* answers and deterministic counters repeat exactly across two
  repetitions, one of them traced, and every oracle agrees;
* a run prints exactly the metrics ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
from pathlib import Path

from perfbench import answers, report
from perfbench.layers import ENTRY_POINTS, SpanRecorder, _resolve, patched
from perfbench.loop import run, run_rep
from perfbench.workloads import WORKLOADS, fingerprint, make_inputs

ROOT = Path(__file__).resolve().parent.parent


def _check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def self_test() -> int:
    failures: list[str] = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"] for m in spec["end_to_end"]}
    declared_layer = {m["name"] for m in spec["per_layer"]}
    _check(
        {w["name"]: w["why"] for w in spec["workloads"]}
        == {w.name: w.summary for w in WORKLOADS.values()},
        "BENCHMARK.json records every workload and its why",
        failures,
    )

    def entry_points():
        owners = [_resolve(module, path) for module, path, _ in ENTRY_POINTS]
        return [owner.__dict__[attr] for owner, attr in owners]

    originals = entry_points()
    with patched(SpanRecorder()):
        pass
    restored = entry_points()
    _check(
        all(a is b for a, b in zip(originals, restored)),
        f"{len(ENTRY_POINTS)} entry points patch and restore",
        failures,
    )

    for workload in WORKLOADS.values():
        name = workload.name
        a = fingerprint(make_inputs(workload, 3, small=True))
        b = fingerprint(make_inputs(workload, 3, small=True))
        c = fingerprint(make_inputs(workload, 4, small=True))
        _check(a == b, f"{name}: same seed, same dataset bytes and edit log", failures)
        _check(a["data"] != c["data"], f"{name}: another seed changes the dataset", failures)
        if workload.edits:
            _check(a["edits"] != c["edits"], f"{name}: another seed changes the edit log", failures)

        inputs = make_inputs(workload, 3, small=True)
        first = run_rep(workload, inputs, check=True)
        _check(
            not any(first.raised.values()) and not any(first.oracle.values()),
            f"{name}: no operation raises and every oracle agrees",
            failures,
        )
        reps, setups, recorder = run(workload, inputs, 0.0, trace=True)
        second = next(r for r in reps if r.traced)
        _check(first.counters == second.counters, f"{name}: counters repeat exactly", failures)
        _check(
            not any(answers.compare(second.answers, first.answers).values()),
            f"{name}: answers repeat exactly (the second one traced)",
            failures,
        )
        layer = report.per_layer(workload.config["engine"], reps, recorder)
        e2e = report.end_to_end(reps, setups)
        _check(set(layer) == declared_layer, f"{name}: per-layer metrics as declared", failures)
        _check(set(e2e) == declared_e2e, f"{name}: end-to-end metrics as declared", failures)
        _check(
            all(m["value"] > 0 for m in e2e.values()),
            f"{name}: every end-to-end metric is positive",
            failures,
        )

    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0
