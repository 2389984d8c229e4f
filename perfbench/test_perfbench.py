"""Self-tests of the benchmark, at the tiny input size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from repro.bench.experiments.fig4 import fig4a_point, fig4b_point  # noqa: E402
from workloads import SIZES, WORKLOADS, build_cells  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _in_process(workload: str, seed: Any, seconds: float, traced: bool,
                deadline: float) -> Dict[str, Any]:
    report = worker.run(workload, seed, seconds, traced, size="tiny")
    report["setup_s"] = report["setup_in_process_s"]
    return report


def test_workload_names_agree():
    assert run.WORKLOADS == WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.fixture(scope="module")
def traced() -> Dict[str, Dict[str, Any]]:
    """One traced tiny run of the workloads the layer map contrasts."""
    return {w: worker.run(w, None, 0.0, True, size="tiny")
            for w in ("seq_write", "fleet")}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_printed_metrics_are_exactly_the_declared_ones(
        monkeypatch, tmp_path, trace, section):
    monkeypatch.setattr(run, "spawn", _in_process)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in ("seq_write", "fleet"):
        measure = run.per_layer if trace else run.end_to_end
        result = measure(workload, None, 0.0, float("inf"))
        printed = {name: unit for name, (_v, unit)
                   in result["metrics"].items()}
        assert all(NAME.match(name) for name in printed)
        assert printed == declared


def test_every_plain_repetition_has_a_reference_ratio():
    assert reference.run() == reference.CHECKSUM
    report = worker.run("seq_write", None, 0.0, False, size="tiny")
    cells = len(report["digests"])
    assert len(report["ref_s"]) == cells * len(report["plain_s"]) + 1
    assert len(report["rel"]) == len(report["plain_s"])
    assert all(x > 0 for x in report["rel"])


def test_cells_reproduce_the_fig4_rows():
    tiny = SIZES["tiny"]
    (seq,) = build_cells("seq_write", 0, "tiny")
    row = fig4a_point("seq_write", "uram", tiny["seq_bytes"],
                      repetitions=1)[0]
    assert seq.run().outputs["gbps"] == row.measured
    # fig4b_point draws its addresses with the reproduction's seed 1
    for cell in build_cells("rand_read", 1, "tiny"):
        row = fig4b_point("rand_read", cell.name, tiny["rand_bytes"])[0]
        assert cell.run().outputs["gbps"] == row.measured


def test_bypass_workloads_never_enter_the_bypassed_layers(traced):
    seq = traced["seq_write"]["metrics"]
    fleet = traced["fleet"]["metrics"]
    assert seq["net.calls"][0] == seq["fleet.calls"][0] == 0
    assert fleet["nvme.calls"][0] == fleet["pcie.calls"][0] == 0
    assert seq["nvme.calls"][0] > 0 and fleet["net.calls"][0] > 0


def test_traced_and_plain_repetitions_agree(traced):
    for report in traced.values():
        assert report["attempted"] == 4 * len(report["digests"])
        # tiny transfers are too short for the paper bands; every other
        # check, digest and count equality included, must pass
        assert all("outside paper band" in p for p in report["problems"]), \
            report["problems"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "seq_write",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
