"""Workload inputs, the verdict oracle and the statistics helpers.

Every workload draws on a fixed PEC suite made by the program's own
generator (``repro.pec.families.generate_family``, generator seed
``SUITE_SEED``), whose construction-time ``expected`` answer is the
oracle.  On the pec workloads the run's ``--seed`` re-encodes each
formula (it shuffles the clause order and the literal order inside
every clause) and orders the solves.  A re-encoded formula has the same
models and the same fingerprint, but the solver sees different text and
breaks its ties differently.  Fresh instances per seed would make the
suite itself the dominant source of run-to-run spread: on
``comp``/``c432`` one instance can take 100x another, and a run has
room for only a few dozen solves.
"""

from __future__ import annotations

import os
import platform
import random
import resource
import statistics
import subprocess
import time
from typing import Dict, List, Optional, Sequence

#: Generator seed of the instance suite (the repository's default).
SUITE_SEED = 2015

#: The repository's default AIG node budget: the binding, load-independent
#: limit on every solve.
NODE_LIMIT = 200_000

#: Wall-clock limit per solve, a safety net only.  The slowest solve seen
#: while writing the benchmark took about 5 s; a run in which this net
#: fires is rejected as unsteady.  Unsolved instances count 2x this in PAR-2.
TIME_LIMIT = 60.0

SAT, UNSAT = "SAT", "UNSAT"


class Item:
    """One formula as the program receives it, with its known answer."""

    __slots__ = ("rid", "family", "text", "expected")

    def __init__(self, rid: str, family: str, text: str, expected: str):
        self.rid = rid
        self.family = family
        self.text = text
        self.expected = expected


def reencode(text: str, rng: random.Random) -> str:
    """Shuffle clause order and literal order; the prefix is kept as is."""
    prefix, clauses = [], []
    for line in text.splitlines():
        if line[:1] in ("p", "a", "e", "d", "c"):
            prefix.append(line)
        else:
            literals = line.split()[:-1]
            rng.shuffle(literals)
            clauses.append(" ".join(literals) + " 0")
    rng.shuffle(clauses)
    return "\n".join(prefix + clauses) + "\n"


def build_suite(families: Sequence[str], per_family: int, scale: float,
                rng: Optional[random.Random]) -> List[Item]:
    """The fixed suite, re-encoded by ``rng`` (as written when ``None``).

    Items come in generator order, interleaved across families.
    """
    from repro.formula.dqdimacs import write_dqdimacs
    from repro.pec.families import generate_family

    columns = []
    for family in families:
        column = []
        for index, inst in enumerate(
            generate_family(family, per_family, scale=scale, seed=SUITE_SEED)
        ):
            if inst.expected is None:
                raise ValueError(f"{inst.name}: generator gave no expected answer")
            text = write_dqdimacs(inst.formula)
            column.append(Item(
                f"{family}-{index}", family,
                text if rng is None else reencode(text, rng),
                SAT if inst.expected else UNSAT,
            ))
        columns.append(column)
    return [item for row in zip(*columns) for item in row]


def median(values: Sequence[float]) -> float:
    """The median, 0 for no samples (a layer the workload skips)."""
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it.

    Nearest rank ``n - 10`` of ``n`` sorted samples, so the percentile
    depends only on the sample count, which each workload fixes.  With
    fewer than 11 samples the maximum is reported.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"value": 0.0, "percentile": 0.0, "samples": 0}
    rank = n - 10 if n > 10 else n
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / n, "samples": n}


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def calibration_score(iterations: int = 200_000) -> float:
    """Iterations/s of a fixed pure-Python integer loop (best of 5).

    The same workload as ``benchmarks/bench_kernel.py``: a result divided
    by it cancels most of the raw interpreter speed of the machine.
    """
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(iterations):
            acc = (acc * 1103515245 + i) & 0xFFFFFFFFFFFF
        best = min(best, time.perf_counter() - start)
    return iterations / best


def git_commit(root: str) -> str:
    """HEAD of the checkout, or ``"unknown"`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, timeout=10,
            capture_output=True, text=True, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: str, backend_numpy: Optional[int]) -> Dict[str, object]:
    """The stamp printed with every result."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel_backend_numpy": backend_numpy,
        "calibration_iters_per_s": round(calibration_score()),
        "git_commit": git_commit(root),
    }


def outcome(expected: str, status: str, failure: Optional[Dict[str, object]],
            stats: Dict[str, float]) -> str:
    """Classify one answer against the generator's known verdict.

    ``solved`` (right verdict), ``budget`` (UNKNOWN on the deterministic
    node or conflict budget: unsolved, not a failure), or a failure:
    ``wrong``, ``timeout`` (the wall-clock safety net fired) or
    ``error``.
    """
    if status == expected:
        return "solved"
    if status in (SAT, UNSAT):
        return "wrong"
    resource_name = (failure or {}).get("resource")
    if status == "TIMEOUT" or resource_name == "time" or stats.get("hard_timeout"):
        return "timeout"
    if resource_name in ("nodes", "conflicts"):
        return "budget"
    return "error"


FAILED = ("wrong", "timeout", "error", "lost")


def solver_layers(stats_list: Sequence[Dict[str, float]],
                  outcomes: Sequence[str]) -> Dict[str, float]:
    """Per-layer counts summed from ``SolveResult.stats`` of the solves."""

    def total(key: str) -> float:
        return float(sum(s.get(key, 0) for s in stats_list))

    lookups = total("kernel_strash_lookups")
    return {
        "selection.maxsat_conflicts": total("maxsat_conflicts"),
        "selection.degraded": total("degrade_maxsat"),
        "unitpure.eliminated": total("units_eliminated") + total("pures_eliminated"),
        "kernel.nodes_visited": total("kernel_nodes_visited"),
        "kernel.nodes_shared": total("kernel_nodes_shared"),
        "kernel.strash_lookups": lookups,
        "kernel.strash_hit_rate": total("kernel_strash_hits") / lookups if lookups else 0.0,
        "sat.queries": total("sat_queries"),
        "sat.conflicts": total("sat_conflicts"),
        "sat.encode_cache_hits": total("sat_encode_cache_hits"),
        "sat.counterexamples": total("sat_counterexamples"),
        "fraig.sweeps": total("sat_fraig_sweeps"),
        "budget.node_outs": float(sum(o == "budget" for o in outcomes)),
        "budget.timeouts": float(sum(o == "timeout" for o in outcomes)),
        "degrade.count": total("degrade_maxsat") + total("degrade_fraig") + total("degrade_qbf"),
        "failed_share": sum(o in FAILED for o in outcomes) / max(1, len(outcomes)),
    }
