"""End-to-end benchmark of the HQS solver and its service, with per-layer attribution.

Usage (from the repository root):

    python3 perfbench/run.py --workload pec-easy --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for the one-line reasons):

* ``pec-easy`` / ``pec-hard`` -- a PEC suite parsed and solved serially
  in this process (:mod:`pec`);
* ``svc-mixed`` -- open-loop requests against a separate ``hqs-serve``
  process (:mod:`svc`).

``--trace 0`` measures and prints every end-to-end metric of
``BENCHMARK.json``; ``--trace 1`` makes a separate traced run and prints
every per-layer metric.  Every answer is checked against the
generator's known verdict.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it give the environment stamp, the sample counts and
tail percentiles and, when traced, the layers ranked by self time.
The full result (with the spans of a traced run) is written under
``.bench_build/perfbench/``.

The benchmark builds nothing; it runs the program from ``src/`` of the
checkout it sits in and exits with code 2 when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import suite

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("pec-easy", "pec-hard", "svc-mixed")

#: A pec run sets up at least this often and for at least this long;
#: the median is reported as ``setup_s``.
PEC_SETUP_REPEATS = 5
PEC_SETUP_SECONDS = 2.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_specs(trace: int):
    """``{name: unit}`` of the metrics this run must print."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_pec(name: str, seed: int, seconds: float, trace: int):
    import pec

    if trace:
        return pec.traced(pec.setup(name, seed))
    times = []
    while len(times) < PEC_SETUP_REPEATS or sum(times) < PEC_SETUP_SECONDS:
        started = time.perf_counter()
        items = pec.setup(name, seed)
        times.append(time.perf_counter() - started)
    result = pec.measure(items, pec.passes_for(name, seconds))
    result["metrics"]["setup_s"] = suite.median(times)
    return result


def backend_of(result) -> int:
    """``kernel_backend_numpy`` as the solves reported it, else the default."""
    flags = [r.stats.get("kernel_backend_numpy") for _, r, _ in result.get("records", ())]
    flags = [int(f) for f in flags if f is not None]
    if flags:
        return max(flags)
    from repro.aig import backend

    return int(backend.DEFAULT_BACKEND == "numpy")


def assemble(result, specs, trace: int):
    """The result line: verdict counts and every metric of ``specs``.

    A per-layer metric that does not apply to the workload reads 0; an
    end-to-end metric must have been measured.
    """
    outcomes = result["outcomes"]
    failed = sum(kind in suite.FAILED for kind in outcomes) + result.get("log_errors", 0)
    values = result["metrics"]
    missing = sorted(set(specs) - set(values))
    if missing and not trace:
        raise KeyError(f"end-to-end metrics not measured: {missing}")
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in specs.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    specs = metric_specs(args.trace)
    if args.workload == "svc-mixed":
        import svc

        result = svc.run(ROOT, args.seed, args.seconds, bool(args.trace))
    else:
        import pec  # noqa: F401

        # Imports are program start-up, not set-up: load them untimed.
        import repro.core.hqs  # noqa: F401
        import repro.pec.families  # noqa: F401

        result = run_pec(args.workload, args.seed, args.seconds, args.trace)

    result_line = assemble(result, specs, args.trace)
    outcomes = result["outcomes"]
    env = suite.environment(ROOT, backend_of(result))
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "notes": result.get("notes", {}),
        "outcomes": {kind: outcomes.count(kind) for kind in sorted(set(outcomes))},
        "metrics": result_line["metrics"],
    }
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    if "spans" in result:
        result["spans"].dump(stem + "-spans.json")

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"notes: {json.dumps(summary['notes'], sort_keys=True)}")
    print(f"outcomes: {json.dumps(summary['outcomes'], sort_keys=True)}")
    for report_line in result.get("report", ()):
        print(report_line)
    print(json.dumps(result_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
