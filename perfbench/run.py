"""Benchmark of the SNAcc reproduction: host time to finish fixed simulated
work, end to end and per package.

    python3 perfbench/run.py --workload seq_write --seed 1 --seconds 20 \\
        --trace 0

Workloads: seq_write, rand_read, case_study, fleet (see perfbench/README.md).

``--trace 0`` runs the workload in ``PROCESSES`` fresh processes, one after
the other, each given an equal share of the ``--seconds`` left, and reports
the end-to-end metrics: ``wall_over_ref`` (median over all timed
repetitions of the repetition's host time in units of the fixed reference
of reference.py, timed beside every cell), ``setup_s`` (median over the
processes of the time from process start to the first timed repetition)
and ``peak_rss_mb`` (median over the processes of their peak resident set).
The plain median host time of a repetition is printed beside them.

``--trace 1`` runs one process that times plain repetitions for half of
``--seconds`` and traced ones for the other half, reports the per-layer
metrics and writes them, with the process's spans, to
``perfbench/results/<workload>.trace.json``.

Every cell of every repetition is checked (paper band, dropped frames, NVMe
errors, a simulated-output digest equal to the cell's first run, equal
digests across the processes). ``failed`` counts the cells that missed a
check, ``attempted`` the cells run. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 0 whenever that line is printed, and 1 when a process could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"

#: workloads.WORKLOADS, repeated because run.py never imports the program
WORKLOADS = ("seq_write", "rand_read", "case_study", "fleet")

#: fresh processes per untraced run; setup_s is the median of their set-ups
PROCESSES = 3

#: a worker still running this long after run.py started is killed, so
#: one run ends within three minutes whatever the program does
DEADLINE_S = 170.0

#: the benchmark's load is one thread in one process
_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    """A benchmark process exited without a report."""


def spawn(workload: str, seed: Optional[int], seconds: float,
          traced: bool, deadline: float) -> Dict[str, Any]:
    """Run one worker process to completion; its report plus ``setup_s``.

    *deadline* is a ``time.monotonic()`` stamp; the worker is killed there.
    """
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seconds", repr(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env={**os.environ, **_ENV},
                              timeout=max(deadline - started, 0.0),
                              check=False)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload}: no report after {exc.timeout:.0f} s"
                           ) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload}: worker exited {proc.returncode}")
    try:
        report: Dict[str, Any] = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise WorkerFailed(f"{workload}: worker printed no report") from None
    # CLOCK_MONOTONIC is system-wide, so the worker's stamp compares to ours
    report["setup_s"] = report["first_rep_at"] - started
    return report


def _cross_process_misses(reports: List[Dict[str, Any]]) -> int:
    """Cells whose digest differs from the same cell in the first process."""
    first = reports[0]["digests"]
    return sum(digest != first.get(cell)
               for report in reports[1:]
               for cell, digest in report["digests"].items())


def end_to_end(workload: str, seed: Optional[int], seconds: float,
               deadline: float) -> Dict[str, Any]:
    """The ``--trace 0`` result."""
    reports: List[Dict[str, Any]] = []
    for k in range(PROCESSES):
        # each process gets an equal share of what the others left over
        left = seconds - sum(r["timed_s"] for r in reports)
        reports.append(spawn(workload, seed, max(left, 0.0) / (PROCESSES - k),
                             False, deadline))
    reps = [t for r in reports for t in r["plain_s"]]
    rels = [x for r in reports for x in r["rel"]]
    refs = [t for r in reports for t in r["ref_s"]]
    setups = [r["setup_s"] for r in reports]
    metrics = {
        "wall_over_ref": (statistics.median(rels), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] / 1024
                                          for r in reports), "MB"),
    }
    notes = {"wall_over_ref": f"median of {len(rels)} repetitions in "
                              f"{len(reports)} processes; wall_s median "
                              f"{statistics.median(reps):.4f} s, reference "
                              f"median {statistics.median(refs):.4f} s",
             "setup_s": f"median of {len(setups)} processes",
             "peak_rss_mb": f"median of {len(reports)} processes"}
    return _result(workload, reports, metrics, notes)


def per_layer(workload: str, seed: Optional[int], seconds: float,
              deadline: float) -> Dict[str, Any]:
    """The ``--trace 1`` result; also writes the trace artifact."""
    report = spawn(workload, seed, seconds, True, deadline)
    metrics = {name: tuple(value) for name, value in report["metrics"].items()}
    notes = {"trace.overhead":
             f"median of {len(report['traced_s'])} traced / "
             f"{len(report['plain_s'])} plain repetitions"}
    result = _result(workload, [report], metrics, notes)
    RESULTS.mkdir(exist_ok=True)
    artifact = {key: result[key] for key in
                ("workload", "seed", "digest", "attempted", "failed",
                 "problems")}
    artifact.update(metrics=report["metrics"], cells=report["cells"],
                    plain_s=report["plain_s"], traced_s=report["traced_s"],
                    spans_columns=["id", "parent", "name", "start_s",
                                   "end_s"],
                    spans=report["spans"])
    path = RESULTS / f"{workload}.trace.json"
    path.write_text(json.dumps(artifact, indent=1) + "\n")
    result["artifact"] = os.path.relpath(path)
    return result


def _result(workload: str, reports: List[Dict[str, Any]],
            metrics: Dict[str, Any], notes: Dict[str, str]
            ) -> Dict[str, Any]:
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports) + _cross_process_misses(reports)
    digests = reports[0]["digests"]
    return {
        "workload": workload, "seed": reports[0]["seed"],
        "digest": ",".join(f"{c}={d}" for c, d in sorted(digests.items())),
        "attempted": attempted, "failed": failed,
        "problems": [p for r in reports for p in r["problems"]],
        "metrics": metrics, "notes": notes,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed; default: the reproduction's own")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="host seconds of timed repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    measure = per_layer if args.trace else end_to_end
    deadline = time.monotonic() + DEADLINE_S
    try:
        result = measure(args.workload, args.seed, args.seconds, deadline)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"digest {result['digest']}")
    for name, (value, unit) in result["metrics"].items():
        note = result["notes"].get(name)
        print(f"  {name:<24} {value!r} {unit}"
              + (f"  ({note})" if note else ""))
    print(f"  failed_frac              {result['failed']}/"
          f"{result['attempted']} = "
          f"{result['failed'] / result['attempted']!r} ratio")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    if "artifact" in result:
        print(f"  trace written to {result['artifact']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
