"""Quantifier prefixes for DQBF and QBF.

A DQBF prefix (Definition 1 of the paper) consists of a set of universal
variables and, for every existential variable, an explicit *dependency
set*: the subset of universal variables its Skolem function may read.

A QBF prefix (Definition 3) is a linearly ordered sequence of quantifier
blocks.  Every QBF prefix embeds into a DQBF prefix by giving each
existential variable the union of all universal blocks to its left.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

EXISTS = "e"
FORALL = "a"


class DependencyPrefix:
    """A DQBF quantifier prefix: universals plus per-existential dependency sets."""

    def __init__(self) -> None:
        self._universals: List[int] = []
        self._universal_set: Set[int] = set()
        self._deps: Dict[int, FrozenSet[int]] = {}
        self._exist_order: List[int] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_universal(self, var: int) -> None:
        if var in self._universal_set or var in self._deps:
            raise ValueError(f"variable {var} already quantified")
        self._universals.append(var)
        self._universal_set.add(var)

    def add_existential(self, var: int, deps: Iterable[int]) -> None:
        if var in self._universal_set or var in self._deps:
            raise ValueError(f"variable {var} already quantified")
        dep_set = frozenset(deps)
        unknown = dep_set - self._universal_set
        if unknown:
            raise ValueError(
                f"dependency set of {var} mentions non-universal variables {sorted(unknown)}"
            )
        self._deps[var] = dep_set
        self._exist_order.append(var)

    def copy(self) -> "DependencyPrefix":
        other = DependencyPrefix()
        other._universals = list(self._universals)
        other._universal_set = set(self._universal_set)
        other._deps = dict(self._deps)
        other._exist_order = list(self._exist_order)
        return other

    # ------------------------------------------------------------------
    # mutation used by elimination rules
    # ------------------------------------------------------------------
    def remove_universal(self, var: int) -> None:
        """Drop a universal variable and remove it from every dependency set."""
        if var not in self._universal_set:
            raise KeyError(var)
        self._universals.remove(var)
        self._universal_set.remove(var)
        for y, deps in list(self._deps.items()):
            if var in deps:
                self._deps[y] = deps - {var}

    def remove_existential(self, var: int) -> None:
        if var not in self._deps:
            raise KeyError(var)
        del self._deps[var]
        self._exist_order.remove(var)

    def remove_variable(self, var: int) -> None:
        """Drop ``var`` whichever kind of quantifier it carries."""
        if var in self._universal_set:
            self.remove_universal(var)
        else:
            self.remove_existential(var)

    def restrict_to(self, support: Set[int]) -> List[int]:
        """Drop all quantified variables outside ``support``.

        Variables that no longer occur in the matrix can always be removed
        from the prefix (last paragraph of Section III-C).  Returns the
        list of removed variables.
        """
        removed = [v for v in self._universals if v not in support]
        removed += [v for v in self._exist_order if v not in support]
        for var in removed:
            self.remove_variable(var)
        return removed

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def universals(self) -> List[int]:
        """Universal variables in declaration order."""
        return list(self._universals)

    @property
    def existentials(self) -> List[int]:
        """Existential variables in declaration order."""
        return list(self._exist_order)

    def is_universal(self, var: int) -> bool:
        return var in self._universal_set

    def is_existential(self, var: int) -> bool:
        return var in self._deps

    def quantifies(self, var: int) -> bool:
        return var in self._universal_set or var in self._deps

    def quantifier_of(self, var: int) -> Optional[str]:
        """``FORALL``/``EXISTS`` for a quantified ``var``, ``None`` otherwise."""
        if var in self._universal_set:
            return FORALL
        if var in self._deps:
            return EXISTS
        return None

    def dependencies(self, var: int) -> FrozenSet[int]:
        """Dependency set ``D_y`` of an existential variable."""
        return self._deps[var]

    def set_dependencies(self, var: int, deps: Iterable[int]) -> None:
        if var not in self._deps:
            raise KeyError(var)
        dep_set = frozenset(deps)
        unknown = dep_set - self._universal_set
        if unknown:
            raise ValueError(
                f"dependency set of {var} mentions non-universal variables {sorted(unknown)}"
            )
        self._deps[var] = dep_set

    def dependents_of(self, universal: int) -> List[int]:
        """``E_x``: the existential variables whose dependency set contains ``universal``."""
        return [y for y in self._exist_order if universal in self._deps[y]]

    def all_variables(self) -> List[int]:
        return self._universals + self._exist_order

    def __len__(self) -> int:
        return len(self._universals) + len(self._exist_order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependencyPrefix):
            return NotImplemented
        return (
            set(self._universals) == set(other._universals)
            and self._deps == other._deps
        )

    def __repr__(self) -> str:
        parts = [f"A{v}" for v in self._universals]
        parts += [
            f"E{v}({','.join(map(str, sorted(self._deps[v])))})"
            for v in self._exist_order
        ]
        return " ".join(parts) if parts else "<empty prefix>"

    # ------------------------------------------------------------------
    # QBF embedding
    # ------------------------------------------------------------------
    def is_qbf_shaped(self) -> bool:
        """True iff the dependency sets are totally ordered by inclusion.

        By Theorem 4 of the paper this is exactly the condition for the
        dependency graph to be acyclic, i.e. for an equivalent QBF prefix
        to exist.
        """
        deps = [self._deps[y] for y in self._exist_order]
        for i, d1 in enumerate(deps):
            for d2 in deps[i + 1 :]:
                if not (d1 <= d2 or d2 <= d1):
                    return False
        return True


class BlockedPrefix:
    """A QBF prefix: alternating blocks of variables.

    Blocks are ``(quantifier, [vars])`` pairs with quantifier ``'a'`` or
    ``'e'``.  Adjacent same-quantifier blocks are merged on insertion.
    """

    def __init__(self, blocks: Iterable[Tuple[str, Sequence[int]]] = ()):
        self._blocks: List[Tuple[str, List[int]]] = []
        for quantifier, variables in blocks:
            self.add_block(quantifier, variables)

    def add_block(self, quantifier: str, variables: Sequence[int]) -> None:
        if quantifier not in (EXISTS, FORALL):
            raise ValueError(f"unknown quantifier {quantifier!r}")
        variables = [v for v in variables]
        if not variables:
            return
        if self._blocks and self._blocks[-1][0] == quantifier:
            self._blocks[-1][1].extend(variables)
        else:
            self._blocks.append((quantifier, variables))

    @property
    def blocks(self) -> List[Tuple[str, List[int]]]:
        return [(q, list(vs)) for q, vs in self._blocks]

    def variables(self) -> List[int]:
        return [v for _, vs in self._blocks for v in vs]

    def quantifier_of(self, var: int) -> Optional[str]:
        for quantifier, variables in self._blocks:
            if var in variables:
                return quantifier
        return None

    def innermost_block(self) -> Optional[Tuple[str, List[int]]]:
        if not self._blocks:
            return None
        quantifier, variables = self._blocks[-1]
        return quantifier, list(variables)

    def drop_innermost_block(self) -> None:
        self._blocks.pop()

    def remove_variable(self, var: int) -> None:
        for index, (_quantifier, variables) in enumerate(self._blocks):
            if var in variables:
                variables.remove(var)
                if not variables:
                    del self._blocks[index]
                    self._merge_adjacent()
                return
        raise KeyError(var)

    def _merge_adjacent(self) -> None:
        merged: List[Tuple[str, List[int]]] = []
        for quantifier, variables in self._blocks:
            if merged and merged[-1][0] == quantifier:
                merged[-1][1].extend(variables)
            else:
                merged.append((quantifier, list(variables)))
        self._blocks = merged

    def to_dependency_prefix(self) -> DependencyPrefix:
        """Embed into a DQBF prefix (the construction below Definition 3)."""
        prefix = DependencyPrefix()
        universal_so_far: List[int] = []
        for quantifier, variables in self._blocks:
            if quantifier == FORALL:
                for var in variables:
                    prefix.add_universal(var)
                    universal_so_far.append(var)
            else:
                for var in variables:
                    prefix.add_existential(var, universal_so_far)
        return prefix

    def __len__(self) -> int:
        return sum(len(vs) for _, vs in self._blocks)

    def __repr__(self) -> str:
        return " ".join(
            f"{'∀' if q == FORALL else '∃'}{{{','.join(map(str, vs))}}}"
            for q, vs in self._blocks
        ) or "<empty prefix>"
