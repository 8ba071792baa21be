"""Incremental SAT service benchmark: persistent session vs fresh solvers.

HQS issues a stream of closely related SAT queries — FRAIG miters,
constant probes, implication checks — over one slowly changing matrix
AIG.  The :class:`~repro.sat.incremental.AigSatSession` answers them
from a single long-lived CDCL solver: each cone is Tseitin-encoded at
most once and clauses learned refuting one merge keep pruning the next.
The fresh-per-query baseline (``persistent=False``) rebuilds the solver
and re-encodes the cone on every query, which is what the code did
before the service existed.

This benchmark replays the HQS inner loop (universal elimination rounds
interleaved with FRAIG sweeps and constant probes) on the PEC generator
families under both modes and asserts the headline claim: **at least a
2x reduction in total SAT conflicts, or 3x in clauses encoded, on at
least two families**.  The per-family numbers are written to
``BENCH_satsweep.json``.

Run under pytest (`pytest benchmarks/bench_satsweep.py`) or standalone:

    PYTHONPATH=src python benchmarks/bench_satsweep.py

``REPRO_BENCH_SATSWEEP_QUICK=1`` shrinks the instances for CI smoke runs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List

from repro.core.elimination import eliminate_universal
from repro.core.hqs import HqsSolver
from repro.core.preprocess import preprocess
from repro.core.state import AigDqbf
from repro.core.unitpure import UnitPureStats, apply_unit_pure
from repro.aig.fraig import FraigEngine, FraigOptions
from repro.pec.families import make_adder, make_bitcell, make_comp, make_pec_xor
from repro.sat.incremental import AigSatSession

QUICK = os.environ.get("REPRO_BENCH_SATSWEEP_QUICK", "") not in ("", "0")
MAX_ROUNDS = 4 if QUICK else 5
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_satsweep.json"


def family_instances():
    """Representative generator-family instances (smaller in quick mode)."""
    if QUICK:
        return [
            ("adder", make_adder(3, 2, False, seed=5)),
            ("pec_xor", make_pec_xor(6, 2, False, seed=1)),
            ("bitcell", make_bitcell(3, 2, False, seed=3)),
        ]
    return [
        ("adder", make_adder(4, 2, False, seed=5)),
        ("pec_xor", make_pec_xor(8, 2, False, seed=1)),
        ("bitcell", make_bitcell(4, 2, False, seed=3)),
        ("comp", make_comp(3, 2, False, seed=7)),
    ]


def _build_state(formula) -> AigDqbf:
    """The solver's own preprocessing + AIG construction, sans main loop."""
    solver = HqsSolver()
    pre = preprocess(formula.copy(), detect_gates=True)
    state = solver._build_state(pre.formula, pre.gates)
    state.prune_prefix()
    return state


def run_workload(formula, persistent: bool) -> Dict[str, float]:
    """Replay the HQS inner loop and return the SAT-service counters.

    Each round mirrors one fraig interval of the solver: a constant
    probe on the current root, a FRAIG sweep, one universal elimination
    (Theorem 1) and a unit/pure pass.  The same :class:`AigSatSession`
    serves every query; ``persistent`` switches between the long-lived
    solver and the fresh-solver-per-query baseline.
    """
    state = _build_state(formula)
    session = AigSatSession(state.aig, persistent=persistent)
    engine = FraigEngine(FraigOptions(num_patterns=16))
    apply_unit_pure(state, UnitPureStats())
    rounds = 0
    while rounds < MAX_ROUNDS and state.prefix.universals and state.root > 1:
        session.rebind(state.aig)
        # constant probes, as the solver's endgame / SAT-probe path issues
        session.is_satisfiable(state.root)
        session.is_tautology(state.root)
        # FRAIG sweep into a fresh manager, as HqsSolver._fraig does
        fresh, root = engine.sweep(state.aig, state.root, session=session)
        fresh.counters = state.aig.counters
        fresh.cache_generation = state.aig.cache_generation + 1
        state.aig = fresh
        state.root = root
        session.rebind(state.aig)
        if state.root <= 1 or not state.prefix.universals:
            break
        x = sorted(state.prefix.universals)[0]
        eliminate_universal(state, x)
        state.prune_prefix()
        apply_unit_pure(state, UnitPureStats())
        rounds += 1
    if state.root > 1:
        session.rebind(state.aig)
        session.is_satisfiable(state.root)
    counters = session.stats.as_dict()
    counters["rounds"] = rounds
    return counters


def run_report() -> List[Dict[str, float]]:
    rows = []
    for name, instance in family_instances():
        session_stats = run_workload(instance.formula, persistent=True)
        fresh_stats = run_workload(instance.formula, persistent=False)
        rows.append(
            {
                "family": name,
                "queries": session_stats["queries"],
                "session_conflicts": session_stats["conflicts"],
                "fresh_conflicts": fresh_stats["conflicts"],
                "conflicts_ratio": fresh_stats["conflicts"]
                / max(session_stats["conflicts"], 1),
                "session_clauses_encoded": session_stats["clauses_encoded"],
                "fresh_clauses_encoded": fresh_stats["clauses_encoded"],
                "clauses_ratio": fresh_stats["clauses_encoded"]
                / max(session_stats["clauses_encoded"], 1),
                "session_cache_hits": session_stats["encode_cache_hits"],
                "session_learnts_reused": session_stats["learnts_reused"],
                "counterexamples": session_stats["counterexamples"],
                "rounds": session_stats["rounds"],
            }
        )
    return rows


def write_json(rows) -> None:
    OUTPUT.write_text(json.dumps({"rows": rows}, indent=2) + "\n")


def print_report(rows) -> None:
    print("\nincremental SAT service (persistent session vs fresh per query)")
    header = (
        f"  {'family':<10} {'queries':>8} {'cfl sess':>9} {'cfl fresh':>9} "
        f"{'ratio':>6} {'cls sess':>9} {'cls fresh':>9} {'ratio':>6}"
    )
    print(header)
    for row in rows:
        print(
            f"  {row['family']:<10} {row['queries']:>8} "
            f"{row['session_conflicts']:>9} {row['fresh_conflicts']:>9} "
            f"{row['conflicts_ratio']:>6.2f} "
            f"{row['session_clauses_encoded']:>9} "
            f"{row['fresh_clauses_encoded']:>9} {row['clauses_ratio']:>6.2f}"
        )


def _row_passes(row) -> bool:
    return row["conflicts_ratio"] >= 2.0 or row["clauses_ratio"] >= 3.0


def test_session_reduces_sat_work():
    """Acceptance: >= 2x fewer conflicts or >= 3x fewer clauses encoded
    on at least two families, recorded in BENCH_satsweep.json."""
    rows = run_report()
    print_report(rows)
    write_json(rows)
    passing = [row["family"] for row in rows if _row_passes(row)]
    assert len(passing) >= 2, (
        f"session mode beat fresh mode on only {passing} "
        f"(need >= 2 families at >= 2x conflicts or >= 3x clauses); "
        f"rows: {rows}"
    )


def test_workload_exercises_the_service():
    """Sanity: the replayed loop actually issues queries and reuses state."""
    name, instance = family_instances()[0]
    stats = run_workload(instance.formula, persistent=True)
    assert stats["queries"] > 0
    assert stats["encode_cache_hits"] > 0
    assert stats["solver_resets"] == 0


def main() -> None:
    rows = run_report()
    print_report(rows)
    write_json(rows)
    worst = sorted(rows, key=lambda r: max(r["conflicts_ratio"], r["clauses_ratio"]))
    print(f"\nwritten {OUTPUT.name}; families passing acceptance: "
          f"{[r['family'] for r in rows if _row_passes(r)]}")
    if worst:
        row = worst[0]
        print(
            f"weakest family: {row['family']} "
            f"(conflicts {row['conflicts_ratio']:.2f}x, "
            f"clauses {row['clauses_ratio']:.2f}x)"
        )


if __name__ == "__main__":
    main()
