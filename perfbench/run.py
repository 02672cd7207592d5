"""The repository benchmark: Gopher audits timed end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload german_exact --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload german_exact --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --workload german_exact --write-reference 0-31

Each run makes its inputs from ``--seed`` before any clock starts, then
repeats the workload as a closed loop (one caller; each operation starts
when the previous one returns) for ``--seconds`` seconds, at least
twice, and checks every answer.  ``--trace 0`` prints the
end-to-end metrics, measured with no tracing; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the inputs' digests and the check results.

BLAS runs with one thread, pinned through the environment before NumPy
loads, and retraining with one worker, so the process never asks for more
threads than ``nproc``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        metavar="SEEDS",
        help="record the answers of one repetition per seed (e.g. 0-31) as the reference",
    )
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    return args


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "retrain_jobs": 1,
        "git_rev": git_rev(),
        "machine": platform.machine(),
    }


def seed_list(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def failures(workload, reps, reference: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every repetition of a run."""
    from perfbench import answers
    from perfbench.loop import ops_per_rep

    ops = ops_per_rep(workload)
    attempted = failed = 0
    reasons: list[str] = []
    baseline = reps[0].answers
    for index, rep in enumerate(reps):
        checks = [rep.oracle]
        if reference is not None:
            checks.append(answers.compare(rep.answers, reference))
        if index:
            checks.append(answers.compare(rep.answers, baseline))
        for kind, count in ops.items():
            bad: dict[int, str] = {}
            for check in checks:
                for op, why in check[kind].items():
                    bad.setdefault(op, why)
            attempted += count
            failed += min(count, rep.raised[kind] + len(bad))
            reasons.extend(f"rep {index}: {why}" for why in bad.values())
            if rep.raised[kind]:
                reasons.append(f"rep {index}: {rep.raised[kind]} {kind} raised")
    return attempted, failed, reasons


def run_workload(args) -> int:
    from perfbench import answers, report
    from perfbench.loop import run
    from perfbench.workloads import WORKLOADS, fingerprint, make_inputs

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = make_inputs(workload, args.seed)
    reference = answers.load_reference(workload.name).get(str(args.seed))
    reps, setups, recorder = run(workload, inputs, args.seconds, bool(args.trace))
    attempted, failed, reasons = failures(
        workload, reps, None if reference is None else reference["answers"]
    )
    if args.trace:
        metrics = report.per_layer(workload.config["engine"], reps, recorder)
    else:
        metrics = report.end_to_end(reps, setups)
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "environment": environment(),
        "inputs": fingerprint(inputs),
        "samples": {
            "setup_s": setups,
            "audit_s": [r.audit_s for r in reps],
            "session_s": [r.session_s for r in reps],
            "traced": [r.traced for r in reps],
        },
        "write_path": report.write_path(reps) if workload.edits else None,
        "reference": "stored" if reference is not None else "none for this seed",
        "counters": reps[0].counters,
        "counters_match_reference": (
            None if reference is None else reps[0].counters == reference["counters"]
        ),
        "failed_frac": failed / attempted,
        "failures": reasons[:20],
    }
    for reason in reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def write_reference(args) -> int:
    from perfbench import answers
    from perfbench.loop import run_rep
    from perfbench.workloads import WORKLOADS, make_inputs

    workload = WORKLOADS[args.workload]
    entries = {}
    for seed in seed_list(args.write_reference):
        rep = run_rep(workload, make_inputs(workload, seed), check=True)
        bad = {kind: why for kind, why in rep.oracle.items() if why}
        if bad or any(rep.raised.values()):
            print(f"seed {seed}: not recorded: {bad or rep.raised}", file=sys.stderr)
            return 1
        entries[seed] = {"answers": rep.answers, "counters": rep.counters}
        print(f"seed {seed}: recorded", flush=True)
    print(answers.save_reference(workload.name, entries))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    # Replace the script's own directory: the benchmark is imported as the
    # ``perfbench`` package, the program from ``src``.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported {repro.__file__}, not the checkout's program", file=sys.stderr)
        return 2
    if args.self_test:
        from perfbench.selftest import self_test

        return self_test()
    if args.write_reference:
        return write_reference(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
