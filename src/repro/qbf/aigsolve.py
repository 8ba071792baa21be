"""An AIG-based elimination QBF solver (the AIGSolve stand-in).

HQS hands over to this solver once the DQBF's dependency graph is
acyclic: the linearized prefix plus the *same* matrix AIG come in
directly — no CNF round trip (Section III-C: "we can feed the remaining
AIG directly into this solver").

The algorithm quantifies the innermost block variable by variable
(``exists`` = OR of cofactors, ``forall`` = AND of cofactors),
interleaved with syntactic unit/pure elimination (the Theorem-5
fixpoint shared with HQS's main loop,
:func:`repro.core.unitpure.unit_pure_fixpoint`), and short-circuits to
a single SAT call when only one quantifier block remains.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..aig.cnf_bridge import is_satisfiable, is_tautology
from ..aig.graph import FALSE, TRUE, Aig
from ..core.guard import ResourceGuard
from ..core.unitpure import UnitPureStats, unit_pure_fixpoint
from ..formula.prefix import EXISTS, BlockedPrefix
from ..formula.qbf import Qbf
from ..sat.incremental import AigSatSession


class QbfSolverStats:
    """Counters for one AIGSolve run."""

    def __init__(self) -> None:
        self.quantifier_eliminations = 0
        self.unit_pure = UnitPureStats()
        self.sat_endgames = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "quantifier_eliminations": self.quantifier_eliminations,
            "unit_eliminations": self.unit_pure.units_eliminated,
            "pure_eliminations": self.unit_pure.pures_eliminated,
            "sat_endgames": self.sat_endgames,
        }


def solve_aig_qbf(
    aig: Aig,
    root: int,
    prefix: BlockedPrefix,
    limits=None,
    use_unit_pure: bool = True,
    stats: Optional[QbfSolverStats] = None,
    compact_ratio: int = 4,
    sat_session: Optional[AigSatSession] = None,
) -> bool:
    """Decide the QBF given by ``prefix`` over the function at ``root``.

    ``prefix`` is consumed (mutated); pass a copy if it must survive.
    ``limits`` accepts a :class:`~repro.core.result.Limits` *or* a
    :class:`~repro.core.guard.ResourceGuard` — HQS hands down a guard
    slice so this back-end shares the solve's clock instead of starting
    its own; exhaustion raises the guard's
    :class:`~repro.errors.ResourceExhausted` subclass.

    ``sat_session`` routes the SAT endgames through a persistent
    incremental solver (HQS hands down the session it used during
    elimination, so clauses learned there keep working here); without
    one each endgame builds a throwaway solver.
    """
    guard = ResourceGuard.ensure(limits)
    guard.enter_stage("qbf-backend")
    stats = stats if stats is not None else QbfSolverStats()

    while True:
        guard.check()
        if root == TRUE:
            return True
        if root == FALSE:
            return False

        # Compact when the manager carries too much garbage, then check
        # the node budget against live size (compaction copies the cone
        # node for node, so ``live`` stays exact).
        live = aig.cone_size(root)
        if aig.num_nodes > compact_ratio * max(live, 64):
            fresh, (root,) = aig.extract([root])
            aig = fresh
            if sat_session is not None:
                sat_session.rebind(aig)
        guard.check_nodes(live)
        guard.note(qbf_quantifier_eliminations=float(stats.quantifier_eliminations))

        support = aig.support_of(root)
        for var in prefix.variables():
            if var not in support:
                prefix.remove_variable(var)

        if use_unit_pure:
            outcome, root = unit_pure_fixpoint(aig, root, prefix, stats.unit_pure, guard)
            if outcome is not None:
                return outcome
            if root in (TRUE, FALSE):
                continue

        blocks = prefix.blocks
        if not blocks:
            # No quantified variables left but non-constant matrix cannot
            # happen for closed formulas; treat defensively via SAT.
            return is_satisfiable(aig, root, guard.deadline(), sat_session)
        if len(blocks) == 1:
            quantifier, _variables = blocks[0]
            stats.sat_endgames += 1
            if quantifier == EXISTS:
                return is_satisfiable(aig, root, guard.deadline(), sat_session)
            return is_tautology(aig, root, guard.deadline(), sat_session)

        quantifier, variables = prefix.innermost_block()
        var = _cheapest_variable(aig, root, variables)
        cof0, cof1 = aig.cofactor2(root, var)
        root = aig.lor(cof0, cof1) if quantifier == EXISTS else aig.land(cof0, cof1)
        prefix.remove_variable(var)
        stats.quantifier_eliminations += 1


def solve_qbf(formula: Qbf, limits=None, **kwargs) -> bool:
    """Convenience entry point from a CNF-based :class:`Qbf`."""
    from ..aig.cnf_bridge import cnf_to_aig

    formula.validate()
    aig, root = cnf_to_aig(formula.matrix.clauses)
    prefix = BlockedPrefix(formula.prefix.blocks)
    return solve_aig_qbf(aig, root, prefix, limits, **kwargs)


def _cheapest_variable(aig: Aig, root: int, variables) -> int:
    """Pick the block variable with the fewest direct fanouts in the cone.

    Low fanout correlates with small cofactor divergence, which keeps
    the OR/AND of cofactors small — the classic AIGSolve scheduling
    heuristic, reduced to its cheapest useful form.
    """
    if len(variables) == 1:
        return variables[0]
    fanout = aig.input_fanout_counts(root, variables)
    return min(variables, key=lambda v: (fanout.get(v, 0), v))

