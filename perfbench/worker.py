"""One benchmark process: set a workload up, time its repetitions, report.

run.py starts this script in a fresh process, one process at a time:

    python3 perfbench/worker.py --workload seq_write --seed 1 --seconds 6
    python3 perfbench/worker.py --workload seq_write --seed 1 --seconds 6 \\
        --traced

Set-up is the imports plus one untimed warm-up repetition. A repetition
runs every cell of the workload, and every cell builds its systems from
scratch (system build and NVMe admin init included), exactly as one
reproduction cell does. Repetitions are then timed until ``--seconds`` are
used up, with the fixed reference of ``reference.py`` timed before the
first cell and after every cell, so that each plain repetition also has a
host-speed-free ratio: the sum over its cells of the cell's host time over
the mean of the two reference runs beside it. With ``--traced``
the first half of that time times plain repetitions and the second half
runs traced ones: cProfile around the repetition and an event-counting
``Simulator.trace_hook`` per simulator.

The last line of standard output is one JSON document, read by run.py.
"""

from __future__ import annotations

import time

T0 = time.monotonic()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from reference import prepare as prepare_reference  # noqa: E402
from reference import timed as time_reference  # noqa: E402
from layers import (CELL_COUNTERS, MAX_COUNTERS, PACKAGES,  # noqa: E402
                    Probe, counter_unit, package_times)
from repro.sim.core import drain_freelists  # noqa: E402
from workloads import DEFAULT_SEEDS, build_cells  # noqa: E402

IMPORTED = time.monotonic()

#: at least this many timed repetitions of each kind run, whatever the time
MIN_PLAIN_REPS = 1
MIN_TRACED_REPS = 2


class Spans:
    """In-memory spans ``[id, parent, name, start_s, end_s]`` of a process."""

    def __init__(self) -> None:
        self.rows: List[List[Any]] = [[0, None, "import", 0.0, IMPORTED - T0]]

    def open(self, name: str, parent: Optional[int] = None) -> int:
        self.rows.append([len(self.rows), parent, name,
                          time.monotonic() - T0, None])
        return len(self.rows) - 1

    def close(self, span: int) -> None:
        self.rows[span][4] = time.monotonic() - T0


def digest(doc: Any) -> str:
    """Short stable hash of a JSON-able document (floats by repr)."""
    text = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Worker:
    """Runs the repetitions of one workload and checks every cell."""

    def __init__(self, workload: str, seed: Optional[int], size: str) -> None:
        self.spans = Spans()
        self.seed = DEFAULT_SEEDS[workload] if seed is None else seed
        self.cells = build_cells(workload, self.seed, size)
        #: digest of each cell's first run; every later run must match it
        self.reference: Dict[str, str] = {}
        #: the first run's record of each cell
        self.first: Dict[str, Dict[str, Any]] = {}
        #: reference host times, one before the first gauged cell and one
        #: after each, and the ratio of each gauged repetition
        self.ref_s: List[float] = []
        self.rel: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, cell: str, problem: str) -> None:
        """Count one failed cell run and keep its reason (the first 20)."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{cell}: {problem}")

    def _run_cell(self, cell: Any, traced: bool, parent: int
                  ) -> Dict[str, Any]:
        span = self.spans.open(f"cell:{cell.name}", parent)
        self.attempted += 1
        probe = Probe(count_events=traced)
        try:
            with probe:
                result = cell.run()
        except Exception:  # a raising cell is a failed cell, not a crash
            traceback.print_exc(file=sys.stderr)
            self.spans.close(span)
            self.fail(cell.name, "raised "
                       + traceback.format_exc().strip().splitlines()[-1])
            return {"name": cell.name, "ok": False}
        self.spans.close(span)
        counters = probe.counters()
        counters.update(dict.fromkeys(CELL_COUNTERS, 0))
        counters.update(result.layer)
        record = {"name": cell.name, "ok": True,
                  "outputs": result.outputs, "nbytes": result.nbytes,
                  "elapsed_ns": result.elapsed_ns, "counters": counters,
                  "segments": probe.segments(),
                  "events": probe.events if traced else None}
        record["digest"] = digest({k: record[k] for k in
                                   ("outputs", "counters", "segments")})
        for problem in result.problems:
            self.fail(cell.name, problem)
        if counters["net.dropped_frames"]:
            self.fail(cell.name, "a MAC dropped frames")
        if counters["nvme.errors"]:
            self.fail(cell.name, "NVMe commands completed with errors")
        ref = self.reference.setdefault(cell.name, record["digest"])
        self.first.setdefault(cell.name, record)
        if record["digest"] != ref:
            self.fail(cell.name, f"digest {record['digest']} != {ref} of "
                       "its first run")
        return record

    def gauge(self) -> float:
        """Host seconds of one run of the reference."""
        span = self.spans.open("reference")
        seconds = time_reference()
        self.spans.close(span)
        return seconds

    def repetition(self, name: str, traced: bool, gauged: bool = False
                   ) -> Tuple[float, List[Dict[str, Any]], Any]:
        """Run every cell once; returns (host s, cell records, profile).

        The host time is the sum of the cells' times. A *gauged* repetition
        times the reference after every cell, and before the first one if
        no repetition has done so yet, into ``ref_s``, and appends its
        ratio to ``rel``.
        """
        span = self.spans.open(name)
        profile = None
        if traced:
            # Exact call counts need every traced repetition to start from
            # the same state and to leave garbage collection out: when the
            # collector finalizes a dead generator, its close() is a call,
            # and when it runs depends on the heap the process built up.
            # Traced repetitions never refill the kernel freelists either,
            # so each one starts with them empty.
            gc.collect()
            gc.disable()
            drain_freelists()
            profile = cProfile.Profile()
            profile.enable()
        if gauged and not self.ref_s:
            self.ref_s.append(self.gauge())
        seconds = rel = 0.0
        records: List[Dict[str, Any]] = []
        try:
            for cell in self.cells:
                start = time.perf_counter()
                records.append(self._run_cell(cell, traced, span))
                cell_s = time.perf_counter() - start
                seconds += cell_s
                if gauged:
                    self.ref_s.append(self.gauge())
                    rel += cell_s / ((self.ref_s[-2] + self.ref_s[-1]) / 2)
        finally:
            if profile is not None:
                profile.disable()
                gc.enable()
        if gauged:
            self.rel.append(rel)
        self.spans.close(span)
        return seconds, records, profile

    def timed(self, name: str, seconds: float, min_reps: int, traced: bool,
              each: Callable[[List[Dict[str, Any]], Any], None],
              gauged: bool = False) -> List[float]:
        """Repeat while another repetition ends nearer *seconds* than not."""
        times: List[float] = []
        start = time.perf_counter()
        while len(times) < min_reps or (
                time.perf_counter() - start + statistics.median(times) / 2
                < seconds):
            rep_s, records, profile = self.repetition(name, traced, gauged)
            times.append(rep_s)
            each(records, profile)
        return times


def _layer_counts(records: List[Dict[str, Any]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for record in records:
        if not record["ok"]:
            continue
        for key, value in record["counters"].items():
            if key in MAX_COUNTERS:
                out[key] = max(out.get(key, value), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def run(workload: str, seed: Optional[int], seconds: float, traced: bool,
        size: str = "bench") -> Dict[str, Any]:
    """Set up, warm up and time *workload*; the child's JSON report."""
    worker = Worker(workload, seed, size)
    worker.repetition("warmup", traced=False)
    first_rep_at = time.monotonic()
    prepare_reference()
    plain = worker.timed("rep", seconds / 2 if traced else seconds,
                         MIN_PLAIN_REPS, False, lambda _r, _p: None,
                         gauged=True)
    report: Dict[str, Any] = {
        "seed": worker.seed, "first_rep_at": first_rep_at,
        "setup_in_process_s": first_rep_at - T0,
        "plain_s": plain, "ref_s": worker.ref_s, "rel": worker.rel,
        "timed_s": time.monotonic() - first_rep_at,
        "digests": dict(sorted(worker.reference.items())),
        "cells": worker.first,
    }
    if traced:
        self_s: Dict[str, List[float]] = {}
        calls: List[Dict[str, int]] = []
        events: List[int] = []

        def each(records: List[Dict[str, Any]], profile: Any) -> None:
            per_pkg = package_times(pstats.Stats(profile))
            for pkg, (s, _c) in per_pkg.items():
                self_s.setdefault(pkg, []).append(s)
            calls.append({pkg: c for pkg, (_s, c) in per_pkg.items()})
            events.append(sum(r["events"] for r in records if r["ok"]))
            if calls[-1] != calls[0] or events[-1] != events[0]:
                for record in records:
                    worker.fail(record["name"], "call or event counts "
                                 "differ between traced repetitions")

        traced_s = worker.timed("traced_rep", seconds / 2, MIN_TRACED_REPS,
                                True, each)
        wall = statistics.median(plain)
        metrics: Dict[str, Tuple[float, str]] = {}
        for pkg in PACKAGES + ("other",):
            metrics[f"{pkg}.self_s"] = (statistics.median(self_s[pkg]), "s")
            metrics[f"{pkg}.calls"] = (calls[0][pkg], "count")
        metrics["sim.events"] = (events[0], "count")
        metrics["sim.host_ns_per_event"] = (
            wall * 1e9 / events[0] if events[0] else 0.0, "ns")
        metrics["trace.overhead"] = (statistics.median(traced_s) / wall,
                                     "ratio")
        ok = [r for r in worker.first.values() if r["ok"]]
        elapsed = sum(r["elapsed_ns"] for r in ok)
        metrics["sim.elapsed_ns"] = (elapsed, "ns")
        metrics["sim.gbps"] = (
            sum(r["nbytes"] for r in ok) / elapsed if elapsed else 0.0,
            "GB/s")
        for key, value in _layer_counts(ok).items():
            metrics[key] = (value, counter_unit(key))
        report["traced_s"] = traced_s
        report["metrics"] = metrics
    report.update(attempted=worker.attempted, failed=worker.failed,
                  problems=worker.problems, spans=worker.spans.rows,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    report = run(args.workload, args.seed, args.seconds, args.traced)
    print(json.dumps(report, default=repr))
    return 0


if __name__ == "__main__":
    sys.exit(main())
