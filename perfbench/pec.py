"""``pec-easy`` and ``pec-hard``: parse and solve a PEC suite serially.

Each instance is parsed from its DQDIMACS text and solved by a default
``HqsSolver`` in this process, one after the other.  A run solves the
whole suite ``passes`` times, a number fixed by ``--seconds`` and the
workload's nominal pass time, so the sample count (and with it the
tail percentile) is the same on every run and every commit; a faster
program finishes sooner.

The traced run solves the suite once untraced and once with span
recorders around the layer calls; the difference of the two pass times
is the tracing overhead.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import nullcontext
from typing import Dict, List, Sequence, Tuple

import spans
import suite

WORKLOADS = {
    # Many ~20 ms solves: parse and preprocessing are a large share.
    "pec-easy": {
        "families": ("adder", "bitcell", "lookahead", "pec_xor", "z4"),
        "per_family": 40, "scale": 1.0, "pass_s": 6.5,
    },
    # The QBF back-end takes most of the wall clock.  Two instances per
    # family (a ~0.7 s comp and a ~2 s c432 solve, each with a trivial
    # partner) let a run solve each one 11 times, so the per-instance
    # medians behind solve_p50_ms and solve_tail_ms rest on 11 samples
    # spread over the run.  Four per family would add comp-3 and c432-2,
    # 3-5 s solves; a run then holds only three passes, too few samples
    # for steady medians on a shared host.
    "pec-hard": {
        "families": ("comp", "c432"),
        "per_family": 2, "scale": 1.5, "pass_s": 2.7,
    },
}

#: Names ``repro.core.hqs`` imports from its layers -> span name.
HQS_CALLS = (
    ("preprocess", "preprocess"),
    ("cnf_to_aig", "aig.build"),
    ("select_elimination_set", "selection"),
    ("greedy_elimination_set", "selection"),
    ("is_acyclic", "depgraph.acyclic"),
    ("linearize", "depgraph.linearize"),
    ("eliminable_existentials", "elim.existential_candidates"),
    ("eliminate_existential", "elim.existential"),
    ("eliminate_universal", "elim.universal"),
    ("apply_unit_pure", "unitpure"),
    ("solve_aig_qbf", "qbf"),
    ("is_satisfiable", "sat.endgame"),
)

Record = Tuple[suite.Item, object, float]


def setup(name: str, seed: int) -> List[suite.Item]:
    """The workload's suite, re-encoded and put in solve order by ``seed``."""
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    items = suite.build_suite(spec["families"], spec["per_family"], spec["scale"], rng)
    rng.shuffle(items)
    return items


def solve_pass(items: Sequence[suite.Item], recorder=None) -> Tuple[List[Record], float]:
    """Parse and solve every item once; returns records and pass wall time.

    Each solve is charged for collecting its own garbage: every solve
    then starts from the same heap, and peak RSS is that of the largest
    solve rather than depending on when the collector last ran.  The
    caller freezes the objects that exist before the first pass, so a
    collection visits only the solve's garbage.
    """
    from repro.core.hqs import HqsSolver
    from repro.core.result import Limits
    from repro.formula import dqdimacs

    records: List[Record] = []
    started = time.perf_counter()
    for item in items:
        scope = recorder.root("instance", item.rid) if recorder else nullcontext()
        tick = time.perf_counter()
        with scope:
            formula = dqdimacs.parse_dqdimacs(item.text)
            result = HqsSolver().solve(
                formula, Limits(time_limit=suite.TIME_LIMIT, node_limit=suite.NODE_LIMIT)
            )
        gc.collect()
        records.append((item, result, time.perf_counter() - tick))
    return records, time.perf_counter() - started


def outcomes(records: Sequence[Record]) -> List[str]:
    return [
        suite.outcome(item.expected, result.status,
                      result.failure.as_dict() if result.failure else None,
                      result.stats)
        for item, result, _ in records
    ]


def passes_for(name: str, seconds: float) -> int:
    return max(1, round(seconds / WORKLOADS[name]["pass_s"]))


def measure(items: Sequence[suite.Item], passes: int) -> Dict[str, object]:
    """End-to-end metrics over ``passes`` untraced passes.

    Each instance's solve time is its median over the passes;
    ``solve_p50_ms`` and ``solve_tail_ms`` are taken over instances.
    """
    gc.freeze()
    walls, par2s, solved, kinds, records = [], [], [], [], []
    by_instance: Dict[str, List[float]] = {}
    for _ in range(passes):
        batch, wall = solve_pass(items)
        kind = outcomes(batch)
        walls.append(wall)
        solved.append(sum(k == "solved" for k in kind))
        par2s.append(sum(
            seconds if k == "solved" else 2 * suite.TIME_LIMIT
            for (_, _, seconds), k in zip(batch, kind)
        ))
        for item, _, seconds in batch:
            by_instance.setdefault(item.rid, []).append(seconds)
        kinds.extend(kind)
        records.extend(batch)
    per_instance = [suite.median(values) for values in by_instance.values()]
    tail = suite.tail(per_instance)
    return {
        "metrics": {
            "wall_s": sum(walls),
            "solved": suite.median(solved),
            "par2_s": sum(par2s) / passes,
            "solve_p50_ms": 1000 * suite.median(per_instance),
            "solve_tail_ms": 1000 * tail["value"],
            "peak_rss_mb": suite.peak_rss_mb(),
            "within_limit_share": kinds.count("solved") / len(kinds),
        },
        "outcomes": kinds,
        "records": records,
        "notes": {"solve_tail_percentile": tail["percentile"], "samples": tail["samples"],
                  "passes": passes, "instances": len(items)},
    }


def traced(items: Sequence[suite.Item]) -> Dict[str, object]:
    """Per-layer metrics from one traced pass, against one untraced pass."""
    from repro.aig.fraig import FraigEngine
    from repro.core import hqs
    from repro.formula import dqdimacs

    gc.freeze()
    _, plain_wall = solve_pass(items)
    recorder = spans.SpanRecorder()
    targets = [(hqs, attribute, name) for attribute, name in HQS_CALLS]
    targets += [(FraigEngine, "sweep", "fraig.sweep"),
                (dqdimacs, "parse_dqdimacs", "formula.parse")]

    def decided(_span, _args, _kwargs, result) -> None:
        if result.status is not None:
            recorder.count("preprocess.decided")

    with recorder.patched(targets, {"preprocess": decided}):
        records, wall = solve_pass(items, recorder)
    table = spans.by_name(recorder.spans)
    root = table.pop("instance")

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> float:
        return float(table.get(name, {}).get("calls", 0))

    kinds = outcomes(records)
    layers = suite.solver_layers([result.stats for _, result, _ in records], kinds)
    layers.update({
        "formula.parse_s": self_s("formula.parse"),
        "formula.parse_calls": calls("formula.parse"),
        "preprocess.self_s": self_s("preprocess"),
        "preprocess.calls": calls("preprocess"),
        "preprocess.decided": recorder.counts.get("preprocess.decided", 0)
        / max(1.0, calls("preprocess")),
        "aig.build_s": self_s("aig.build"),
        "selection.self_s": self_s("selection"),
        "selection.calls": calls("selection"),
        "depgraph.acyclic_s": self_s("depgraph.acyclic"),
        "depgraph.acyclic_calls": calls("depgraph.acyclic"),
        "depgraph.linearize_s": self_s("depgraph.linearize"),
        "elim.universal_s": self_s("elim.universal"),
        "elim.universal_calls": calls("elim.universal"),
        "elim.existential_s": self_s("elim.existential")
        + self_s("elim.existential_candidates"),
        "elim.existential_calls": calls("elim.existential"),
        "unitpure.self_s": self_s("unitpure"),
        "unitpure.calls": calls("unitpure"),
        "qbf.self_s": self_s("qbf"),
        "qbf.calls": calls("qbf"),
        "qbf.share": self_s("qbf") / root["total_s"],
        "sat.endgame_s": self_s("sat.endgame"),
        "fraig.sweep_s": self_s("fraig.sweep"),
        "trace.coverage": 1.0 - root["self_s"] / root["total_s"],
        "trace.uncovered_s": root["self_s"],
        "trace.overhead_s": wall - plain_wall,
    })
    report = [
        f"trace: {len(recorder.spans)} spans over {len(items)} instances, "
        f"traced pass {wall:.3f} s, untraced pass {plain_wall:.3f} s",
        "layers ranked by self time:",
        *spans.ranking(table),
        f"  {'(uncovered remainder)':<28} self {root['self_s']:9.4f} s",
        f"coverage {layers['trace.coverage']:.4f} of {root['total_s']:.3f} s "
        f"in instance spans; overhead {layers['trace.overhead_s']:+.3f} s",
    ]
    return {"metrics": layers, "outcomes": kinds, "records": records,
            "report": report, "spans": recorder}
