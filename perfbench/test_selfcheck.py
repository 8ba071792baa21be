"""Fast self-check of the benchmark (about two minutes).

Run from the repository root:

    python3 -m pytest perfbench -q

Each workload runs on a small input through the same code paths as a
full run; every metric named in ``BENCHMARK.json`` must come out with
its unit, and a deliberately flipped expected verdict must be caught
as a failure.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pec  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
import svc  # noqa: E402

#: Quick pec-hard instances (tens of milliseconds each).
QUICK_HARD = ("comp-0", "c432-1")


def _flip(item: suite.Item) -> None:
    item.expected = suite.UNSAT if item.expected == suite.SAT else suite.SAT


def _check_line(line, trace: int) -> None:
    specs = run.metric_specs(trace)
    assert set(line["metrics"]) == set(specs)
    for name, unit in specs.items():
        assert line["metrics"][name]["unit"] == unit
        assert isinstance(line["metrics"][name]["value"], float)
    assert line["attempted"] >= 1
    json.dumps(line)


def _pec_items(workload: str):
    items = pec.setup(workload, seed=1)
    if workload == "pec-hard":
        return [item for item in items if item.rid in QUICK_HARD]
    return items[:12]


@pytest.mark.parametrize("workload", ["pec-easy", "pec-hard"])
def test_pec_emits_every_metric(workload):
    items = _pec_items(workload)
    result = pec.measure(items, passes=2)
    result["metrics"]["setup_s"] = 0.1
    line = run.assemble(result, run.metric_specs(0), 0)
    _check_line(line, 0)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == 2 * len(items)
    assert line["metrics"]["solved"]["value"] == len(items)

    traced = pec.traced(items)
    line = run.assemble(traced, run.metric_specs(1), 1)
    _check_line(line, 1)
    assert 0.0 < line["metrics"]["trace.coverage"]["value"] <= 1.0
    assert line["metrics"]["formula.parse_calls"]["value"] == len(items)


def test_pec_flipped_verdict_fails():
    items = _pec_items("pec-easy")[:3]
    _flip(items[0])
    result = pec.measure(items, passes=1)
    result["metrics"]["setup_s"] = 0.1
    line = run.assemble(result, run.metric_specs(0), 0)
    assert not line["correct"]
    assert line["failed"] == 1


def test_tail_rank():
    tail = suite.tail([float(v) for v in range(1, 101)])
    assert tail == {"value": 90.0, "percentile": 90.0, "samples": 100}
    assert suite.tail([3.0, 1.0])["value"] == 3.0


def test_reencode_keeps_fingerprint():
    from repro.core.checkpoint import formula_fingerprint
    from repro.formula.dqdimacs import parse_dqdimacs, write_dqdimacs
    from repro.pec.families import generate_family

    text = write_dqdimacs(generate_family("adder", 1, seed=suite.SUITE_SEED)[0].formula)
    other = suite.reencode(text, random.Random(7))
    assert other != text
    assert formula_fingerprint(parse_dqdimacs(other)) == formula_fingerprint(
        parse_dqdimacs(text))


@pytest.mark.parametrize("trace", [0, 1])
def test_svc_emits_every_metric(trace):
    result = svc.run(ROOT, seed=1, seconds=3.0, traced=bool(trace))
    line = run.assemble(result, run.metric_specs(trace), trace)
    _check_line(line, trace)
    assert line["correct"] and line["failed"] == 0
    assert result["log_errors"] == 0
    if trace:
        assert line["metrics"]["cache.stores"]["value"] >= 1
        assert line["metrics"]["service.parse_s"]["value"] > 0


def test_svc_flipped_verdict_fails(monkeypatch):
    make = svc.make_schedule

    def flipped(seed, seconds):
        warmup, schedule = make(seed, seconds)
        _flip(schedule[0][1])
        return warmup, schedule

    monkeypatch.setattr(svc, "make_schedule", flipped)
    result = svc.run(ROOT, seed=1, seconds=3.0, traced=False)
    line = run.assemble(result, run.metric_specs(0), 0)
    assert not line["correct"]
    assert line["failed"] >= 1


def test_refuses_without_program():
    bare = os.path.join(ROOT, ".bench_build", "perfbench", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pec-easy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_command_prints_result_line_last():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "svc-mixed", "--seed", "3",
         "--seconds", "3", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    _check_line(line, 0)
    assert line["correct"]
