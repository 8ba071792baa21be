"""Golden determinism: fixed PEC instances must reproduce recorded stats.

The AIG kernels promise "same traversal, same numbering": node ids,
``KernelCounters`` and Tseitin numbering depend only on the input, so a
kernel rewrite that keeps the DFS visiting order leaves every work
counter of a solve unchanged.  ``golden_stats.json`` records, per AIG
backend, the status and the non-timing counters (``kernel_*``,
``sat_*``, ``qbf_*``, the CNF preprocessing ``pre_*`` counters and the
elimination / unit / pure counts) of a small generated PEC set.  The ``kernel_support_cache_*`` counters are
not recorded: they count how often the frozenset support cache is
consulted, which is a classification detail of each backend rather than
traversal work (see ``repro.aig.graph``).

Regenerate (only when a change is *meant* to alter the counters)::

    PYTHONPATH=src python tests/test_golden_stats.py --regenerate
"""

import json
import os
import sys

import pytest

from repro.aig import backend as aig_backend
from repro.aig.backend import numpy_available
from repro.core.hqs import HqsSolver
from repro.pec.families import generate_family

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_stats.json")

#: (family, index into ``generate_family(family, 4, 1.0)``): solves of
#: 10-400 ms that reach Theorem-1 elimination, compaction, unit/pure
#: detection and the QBF back-end's ``cofactor2`` loop.
INSTANCES = (
    ("adder", 0),
    ("adder", 2),
    ("bitcell", 1),
    ("lookahead", 0),
    ("pec_xor", 0),
    ("pec_xor", 2),
    ("z4", 1),
    ("comp", 0),
    ("comp", 2),
    ("c432", 0),
    ("c432", 2),
)

_COUNT_KEYS = (
    "units_eliminated",
    "pures_eliminated",
    "universal_eliminations",
    "existential_eliminations",
)

BACKENDS = ("python", pytest.param("numpy", marks=pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed")))


def _recorded(stats):
    keep = {}
    for key, value in stats.items():
        if key.startswith("kernel_support_cache_"):
            continue
        if key.startswith(("kernel_", "sat_", "qbf_", "pre_")) or key in _COUNT_KEYS:
            keep[key] = value
    return keep


def solve_set(backend):
    """``{instance name: recorded stats}`` for every golden instance."""
    saved = aig_backend.DEFAULT_BACKEND
    aig_backend.DEFAULT_BACKEND = backend
    try:
        out = {}
        for family, index in INSTANCES:
            inst = generate_family(family, 4, 1.0)[index]
            result = HqsSolver().solve(inst.formula)
            out[f"{family}-{index}"] = dict(
                _recorded(result.stats), status=result.status
            )
        return out
    finally:
        aig_backend.DEFAULT_BACKEND = saved


@pytest.mark.parametrize("backend", BACKENDS)
def test_stats_match_golden(backend):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)[backend]
    actual = solve_set(backend)
    assert sorted(actual) == sorted(golden)
    for name in golden:
        assert actual[name] == golden[name], name


if __name__ == "__main__":
    if "--regenerate" not in sys.argv[1:]:
        sys.exit("usage: test_golden_stats.py --regenerate")
    data = {backend: solve_set(backend) for backend in ("python", "numpy")}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
