"""Tests for subsumption and self-subsuming resolution in preprocessing."""

from typing import List

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.preprocess import PreprocessStats, _subsumption, preprocess
from repro.formula.cnf import Cnf
from repro.formula.dqbf import Dqbf, expansion_solve

from conftest import dqbf_strategy


class TestSubsumption:
    def test_superset_clause_removed(self):
        formula = Dqbf.build(
            [1], [(2, [1]), (3, [1])],
            [[2, 3], [2, 3, 1], [2, -3]],
        )
        result = preprocess(formula, detect_gates=False)
        assert result.stats.clauses_subsumed >= 1
        if result.status is None:
            assert (1, 2, 3) not in result.formula.matrix

    def test_duplicate_free_no_change(self):
        formula = Dqbf.build(
            [1], [(2, [1]), (3, [1])],
            [[2, 3], [-2, -3]],
        )
        result = preprocess(formula, detect_gates=False)
        assert result.stats.clauses_subsumed == 0

    def test_self_subsuming_resolution_strengthens(self):
        # (a | b | c) and (!a | b): resolving on a gives (b | c), which
        # self-subsumes the first clause to (b | c)
        formula = Dqbf.build(
            [1], [(2, [1]), (3, [1]), (4, [1])],
            [[2, 3, 4], [-2, 3]],
        )
        result = preprocess(formula, detect_gates=False, use_subsumption=True)
        assert result.stats.literals_strengthened >= 1

    def test_strengthening_to_unit_propagates(self):
        # (a | b) and (!a | b) strengthen to (b), which then propagates
        formula = Dqbf.build(
            [1], [(2, [1]), (3, [1])],
            [[2, 3], [-2, 3], [-3, 1], [-3, -1]],
        )
        result = preprocess(formula, detect_gates=False)
        # b forced, then (1) and (-1) conflict on the universal: UNSAT
        assert result.status is False

    def test_disabled_flag(self):
        formula = Dqbf.build(
            [1], [(2, [1]), (3, [1])],
            [[2, 3], [2, 3, 1]],
        )
        result = preprocess(formula, detect_gates=False, use_subsumption=False)
        assert result.stats.clauses_subsumed == 0
        assert result.stats.literals_strengthened == 0

    @settings(max_examples=100, deadline=None)
    @given(dqbf_strategy(max_universals=3, max_existentials=3, max_clauses=10))
    def test_equisatisfiability_preserved(self, formula):
        expected = expansion_solve(formula)
        result = preprocess(formula, detect_gates=False, use_subsumption=True)
        if result.status is not None:
            assert result.status == expected
        else:
            assert expansion_solve(result.formula, limit=1 << 18) == expected


# ----------------------------------------------------------------------
# exact-output oracle
# ----------------------------------------------------------------------

def _reference_subsumption(work, stats) -> bool:
    """Verbatim copy of the original quadratic ``_subsumption``.

    The module's implementation must return exactly what this returns:
    the same bool, the same counters and the same clause list in the
    same order (the list drives ``cnf_to_aig`` and Tseitin numbering).
    """
    clauses = [frozenset(c) for c in work.matrix]
    changed = False

    # subsumption: shorter clauses first so survivors are minimal
    clauses.sort(key=len)
    kept: List[frozenset] = []
    for clause in clauses:
        if any(other <= clause for other in kept if len(other) <= len(clause)):
            stats.clauses_subsumed += 1
            changed = True
            continue
        kept.append(clause)

    # self-subsuming resolution (one sweep)
    strengthened: List[frozenset] = list(kept)
    by_index = {i: c for i, c in enumerate(strengthened)}
    for i, clause in list(by_index.items()):
        for lit in list(clause):
            if lit not in clause:
                continue  # removed by an earlier strengthening step
            rest = clause - {lit}
            for j, other in by_index.items():
                if j == i:
                    continue
                if -lit in other and (other - {-lit}) <= rest:
                    by_index[i] = rest
                    clause = rest
                    stats.literals_strengthened += 1
                    changed = True
                    break
            else:
                continue
            # literal removed: restart literal loop on the shrunk clause
            if not clause:
                break

    if changed:
        rebuilt = Cnf(num_vars=work.matrix.num_vars)
        for clause in by_index.values():
            rebuilt.add_clause(sorted(clause))
        work.matrix = rebuilt
    return changed


def _run_both(clauses):
    """(reference outcome, module outcome) as (changed, stats, clause list)."""
    outcomes = []
    for run in (_reference_subsumption, _subsumption):
        work = Dqbf(matrix=Cnf(clauses))
        stats = PreprocessStats()
        changed = run(work, stats)
        outcomes.append(
            (changed, stats.as_dict(), list(work.matrix), work.matrix.num_vars)
        )
    return outcomes


@st.composite
def dense_cnf(draw):
    """Few variables, many short clauses: subsumption, strengthening to
    a unit and strengthening to the empty clause all fire often."""
    num_vars = draw(st.integers(1, 6))
    literals = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from([v, -v]))
    return draw(
        st.lists(st.lists(literals, min_size=1, max_size=4), max_size=30)
    )


class TestExactOutput:
    @settings(max_examples=300, deadline=None)
    @example([[1, 2], [1, 2, 3], [-1, 2]])  # subsumed, then a unit
    @example([[1], [-1], [2, 3]])  # strengthened to the empty clause
    @example([[1, 2, 3], [-1, 2], [-2, 3], [3, 4, 5]])  # chained shrinking
    # a shrunk clause meets a longer, earlier candidate before a shorter,
    # already strengthened one
    @example([[2, -5], [6, -4, -5], [-3, 2], [-5, -3], [3], [-2, -3, 5], [4]])
    @given(dense_cnf())
    def test_matches_reference(self, clauses):
        reference, actual = _run_both(clauses)
        assert actual == reference

    def test_empty_clause_in_input(self):
        reference, actual = _run_both([[1, 2], [], [-1], [3, -2, 4]])
        assert actual == reference
        assert reference[1]["clauses_subsumed"] == 3

    def test_equal_length_ties_keep_input_order(self):
        clauses = [[3, 4], [1, 2], [5, 6], [1, 2, 7], [-5, 8], [2, 9], [-3, 4]]
        reference, actual = _run_both(clauses)
        assert actual == reference
        assert reference[0] is True

    def test_unchanged_matrix_keeps_order(self):
        clauses = [[1, 2, 3], [4, 5], [-1, -4], [2, -5, 6]]
        reference, actual = _run_both(clauses)
        assert actual == reference
        assert reference[0] is False
        assert reference[2] == [(1, 2, 3), (4, 5), (-1, -4), (2, -5, 6)]
