"""Application of Theorem 5: eliminate unit and pure variables.

Detection is the syntactic AIG pass of Theorem 6
(:mod:`repro.aig.unitpure`); this module applies the elimination rules:

* existential unit  -> substitute the forced value;
* universal unit    -> the DQBF is UNSAT;
* existential pure  -> substitute the preferred value;
* universal pure    -> substitute the *adverse* value (positive pure
  universals are set to 0, negative pure ones to 1).

These eliminations are particularly attractive for DQBF because they
never duplicate variables (Section III-B).  :func:`unit_pure_fixpoint`
is the one loop that applies them: every substitution can expose new
unit/pure variables, so it runs to a fixpoint.  HQS's main loop reaches
it through :func:`apply_unit_pure`; the QBF back-end
(:mod:`repro.qbf.aigsolve`) calls it directly on its blocked prefix.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from ..aig.graph import FALSE, TRUE, Aig
from ..aig.unitpure import detect_unit_pure
from ..formula.prefix import EXISTS, FORALL, BlockedPrefix, DependencyPrefix
from .guard import ResourceGuard
from .state import AigDqbf


class UnitPureStats:
    """Counters reported in the experiments (unit/pure hits and rounds)."""

    def __init__(self) -> None:
        self.units_eliminated = 0
        self.pures_eliminated = 0
        self.rounds = 0

    def __repr__(self) -> str:
        return (
            f"UnitPureStats(units={self.units_eliminated}, "
            f"pures={self.pures_eliminated}, rounds={self.rounds})"
        )


def unit_pure_fixpoint(
    aig: Aig,
    root: int,
    prefix: Union[DependencyPrefix, BlockedPrefix],
    stats: UnitPureStats,
    guard: Optional[ResourceGuard] = None,
) -> Tuple[Optional[bool], int]:
    """Eliminate unit/pure variables of ``root`` until fixpoint.

    Works on either prefix shape: quantifiers are read through
    ``prefix.quantifier_of`` and eliminated variables dropped with
    ``prefix.remove_variable`` (``prefix`` is mutated).  Returns
    ``(decided, root)``: ``decided`` is ``False`` when a universal unit
    proves the formula false and ``None`` otherwise; ``root`` is the
    reduced matrix, possibly a constant.

    Every substitution of a detection round is collected into one
    constant assignment and applied by a single
    :meth:`~repro.aig.graph.Aig.restrict` pass; substituting constants
    for distinct variables commutes.  ``guard`` threads the caller's
    budget through the rounds; ``None`` gets an unlimited guard.
    """
    guard = ResourceGuard.ensure(guard)
    while True:
        guard.check()
        if root in (TRUE, FALSE):
            return None, root
        info = detect_unit_pure(aig, root)
        if not info:
            return None, root
        stats.rounds += 1
        for var in info.units:
            if prefix.quantifier_of(var) == FORALL:
                # Theorem 5: a unit universal variable falsifies the formula.
                return False, root
        assignment: Dict[int, bool] = {}
        for var, forced in info.units.items():
            if prefix.quantifier_of(var) is None:
                continue
            assignment[var] = forced
            stats.units_eliminated += 1
        for var, polarity in info.pures.items():
            quantifier = prefix.quantifier_of(var)
            if quantifier is None:
                continue
            # Universal pure: substitute the adverse polarity.
            assignment[var] = polarity if quantifier == EXISTS else not polarity
            stats.pures_eliminated += 1
        if not assignment:
            return None, root
        root = aig.restrict(root, assignment)
        for var in assignment:
            prefix.remove_variable(var)


def apply_unit_pure(
    state: AigDqbf,
    stats: Optional[UnitPureStats] = None,
    guard: Optional[ResourceGuard] = None,
) -> Optional[bool]:
    """:func:`unit_pure_fixpoint` on an :class:`AigDqbf` (updated in place).

    Returns ``False`` when a universal unit proves the formula UNSAT,
    ``True``/``False`` when the matrix collapses to a constant, and
    ``None`` otherwise.
    """
    stats = stats if stats is not None else UnitPureStats()
    decided, root = unit_pure_fixpoint(state.aig, state.root, state.prefix, stats, guard)
    if root != state.root:  # assigning drops the memoized matrix size
        state.root = root
    return decided if decided is not None else state.is_constant()
