"""Single-pass AIG kernel: semantic oracles, the unit/pure fixpoint, caches.

The kernel primitives (``restrict``, ``cofactor2``,
``eliminate_universal_fused``) must compute exactly the functions of
the ``cofactor``/``rename`` rebuild chains they replace, and a Theorem-1
step must match its definition evaluated on the original matrix.
Equivalence is checked property-style with ``Aig.evaluate`` under
random or exhaustive assignments, on random expression AIGs and on
random DQBFs.
"""

import itertools
import random

from hypothesis import given, settings

from repro.aig.cnf_bridge import cnf_to_aig
from repro.aig.graph import FALSE, TRUE, Aig, complement
from repro.core.depgraph import linearize
from repro.core.elimination import eliminate_universal
from repro.core.hqs import HqsOptions, HqsSolver
from repro.core.state import AigDqbf
from repro.core.unitpure import UnitPureStats, apply_unit_pure, unit_pure_fixpoint
from repro.formula.dqbf import Dqbf, expansion_solve
from repro.formula.prefix import BlockedPrefix
from repro.pec.families import make_adder

from conftest import dqbf_strategy, random_dqbf, random_qbf


def random_edge(aig: Aig, rng: random.Random, variables, depth: int) -> int:
    if depth == 0 or rng.random() < 0.3:
        edge = aig.var(rng.choice(variables))
        return complement(edge) if rng.random() < 0.5 else edge
    op = rng.choice(["and", "or", "xor"])
    a = random_edge(aig, rng, variables, depth - 1)
    b = random_edge(aig, rng, variables, depth - 1)
    return {"and": aig.land, "or": aig.lor, "xor": aig.lxor}[op](a, b)


def assignments(variables, rng: random.Random, samples: int = 16):
    """All assignments when small, a random sample otherwise."""
    variables = sorted(variables)
    if len(variables) <= 10:
        for values in itertools.product([False, True], repeat=len(variables)):
            yield dict(zip(variables, values))
    else:
        for _ in range(samples):
            yield {v: rng.random() < 0.5 for v in variables}


def value(aig: Aig, root: int, assignment) -> bool:
    return root == TRUE if root in (TRUE, FALSE) else aig.evaluate(root, assignment)


def state_of(formula: Dqbf) -> AigDqbf:
    aig, root = cnf_to_aig(formula.matrix.clauses)
    next_var = max([formula.matrix.num_vars] + formula.prefix.all_variables()) + 1
    return AigDqbf(aig, root, formula.prefix.copy(), next_var)


class TestFusedPrimitives:
    def test_cofactor2_matches_naive_cofactors(self):
        rng = random.Random(1)
        variables = [1, 2, 3, 4, 5]
        for _ in range(40):
            aig = Aig()
            root = random_edge(aig, rng, variables, depth=4)
            var = rng.choice(variables)
            cof0, cof1 = aig.cofactor2(root, var)
            assert cof0 == aig.cofactor(root, var, False)
            assert cof1 == aig.cofactor(root, var, True)

    def test_cofactor2_shares_independent_cone(self):
        aig = Aig()
        a, b, c = aig.var(1), aig.var(2), aig.var(3)
        heavy = aig.land(aig.lor(a, b), aig.lxor(a, b))  # no 3 anywhere
        root = aig.land(heavy, c)
        cof0, cof1 = aig.cofactor2(root, 3)
        assert cof0 == FALSE
        assert cof1 == heavy  # shared verbatim, not rebuilt

    def test_restrict_matches_cofactor_chain(self):
        rng = random.Random(2)
        variables = [1, 2, 3, 4, 5, 6]
        for _ in range(40):
            aig = Aig()
            root = random_edge(aig, rng, variables, depth=4)
            chosen = rng.sample(variables, rng.randint(1, 3))
            assignment = {v: rng.random() < 0.5 for v in chosen}
            fused = aig.restrict(root, assignment)
            naive = root
            for var, value in assignment.items():
                naive = aig.cofactor(naive, var, value)
            assert fused == naive

    def test_restrict_untouched_support_is_identity(self):
        aig = Aig()
        root = aig.land(aig.var(1), aig.var(2))
        assert aig.restrict(root, {7: True, 9: False}) == root
        assert aig.restrict(root, {}) == root

    def test_exists_forall_still_correct(self):
        rng = random.Random(3)
        variables = [1, 2, 3, 4]
        for _ in range(25):
            aig = Aig()
            root = random_edge(aig, rng, variables, depth=3)
            var = rng.choice(variables)
            ex = aig.exists(root, var)
            fa = aig.forall(root, var)
            for assignment in assignments(set(variables) - {var}, rng):
                branches = [
                    aig.evaluate(root, {**assignment, var: value})
                    if root not in (TRUE, FALSE)
                    else root == TRUE
                    for value in (False, True)
                ]
                want_ex = branches[0] or branches[1]
                want_fa = branches[0] and branches[1]
                got_ex = ex == TRUE if ex in (TRUE, FALSE) else aig.evaluate(ex, assignment)
                got_fa = fa == TRUE if fa in (TRUE, FALSE) else aig.evaluate(fa, assignment)
                assert got_ex == want_ex
                assert got_fa == want_fa


class TestFusedElimination:
    @settings(max_examples=40, deadline=None)
    @given(formula=dqbf_strategy())
    def test_theorem1_matches_semantic_oracle(self, formula):
        """One Theorem-1 step against its definition on the original root.

        For every assignment alpha the eliminated matrix must equal
        ``f(alpha, x=0) & f(alpha[y := alpha(y')], x=1)`` and every copy
        ``y'`` must get ``D_y \\ {x}``.
        """
        rng = random.Random(4)
        universal = formula.prefix.universals[0]
        state = state_of(formula)
        original_root = state.root
        original_deps = {y: state.prefix.dependencies(y) for y in state.prefix.existentials}
        copies = eliminate_universal(state, universal)

        assert not state.prefix.quantifies(universal)
        for y, y_copy in copies.items():
            assert y_copy not in original_deps
            assert state.prefix.dependencies(y_copy) == original_deps[y] - {universal}

        variables = set(copies.values())
        for root in (original_root, state.root):
            if root > 1:
                variables |= state.aig.support(root)
        variables.discard(universal)
        for alpha in assignments(variables, rng):
            renamed = {**alpha, **{y: alpha[y_copy] for y, y_copy in copies.items()}}
            want = value(state.aig, original_root, {**alpha, universal: False}) and value(
                state.aig, original_root, {**renamed, universal: True}
            )
            assert value(state.aig, state.root, alpha) == want

    def test_copies_only_for_occurring_dependents(self):
        # Matrix (x | y2) & (!x | y3): the 1-cofactor is just y3, so only
        # y3 gets a copy even though y2 also depends on x.
        formula = Dqbf.build([1], [(2, [1]), (3, [1])], [[1, 2], [-1, 3]])
        state = state_of(formula)
        copies = eliminate_universal(state, 1)
        assert 2 not in copies
        assert 3 in copies


class TestBatchedUnitPure:
    def test_universal_unit_still_unsat(self):
        # forall x: x & (...)  -> universal unit, immediately UNSAT.
        formula = Dqbf.build([1], [(2, [1])], [[1], [1, 2]])
        state = state_of(formula)
        assert apply_unit_pure(state, UnitPureStats()) is False

    def test_dependency_and_blocked_prefix_agree(self):
        """The one fixpoint gives the same result on both prefix shapes.

        On a QBF-shaped DQBF, running it over the dependency prefix and
        over its linearization must reach the same root edge (node
        creation order included) with the same unit/pure counts.
        """
        rng = random.Random(7)
        for _ in range(80):
            qbf = random_qbf(rng, max_vars=7, max_clauses=10)
            dependency = BlockedPrefix(qbf.prefix.blocks).to_dependency_prefix()
            blocked = linearize(dependency)
            runs = []
            for prefix in (dependency.copy(), blocked):
                aig, root = cnf_to_aig(qbf.matrix.clauses)
                stats = UnitPureStats()
                decided, root = unit_pure_fixpoint(aig, root, prefix, stats)
                runs.append((decided, root, stats.units_eliminated,
                             stats.pures_eliminated, stats.rounds))
            assert runs[0] == runs[1], qbf


class TestSolverEquivalence:
    def test_solver_agrees_with_oracle(self, rng):
        for _ in range(30):
            formula = random_dqbf(rng)
            expected = expansion_solve(formula.copy())
            result = HqsSolver().solve(formula.copy())
            assert result.solved
            assert (result.status == "SAT") == expected, (
                f"HQS disagrees with oracle on {formula!r}"
            )


class TestKernelStats:
    def test_solve_result_has_kernel_counters(self, rng):
        # Preprocessing off so the AIG kernel is guaranteed to run.
        formula = random_dqbf(rng)
        result = HqsSolver(HqsOptions(use_preprocessing=False)).solve(formula.copy())
        for key in (
            "kernel_rebuild_passes",
            "kernel_fused_passes",
            "kernel_nodes_visited",
            "kernel_nodes_shared",
            "kernel_strash_lookups",
            "kernel_strash_hits",
            "kernel_strash_hit_rate",
            "kernel_support_cache_hit_rate",
            "kernel_unitpure_cache_hit_rate",
        ):
            assert key in result.stats, f"missing {key}"
        assert 0.0 <= result.stats["kernel_strash_hit_rate"] <= 1.0

    def test_default_solve_runs_fused_passes(self):
        # Preprocessing on: the solve exercises the full default pipeline.
        formula = make_adder(3, 2, False, seed=5).formula
        result = HqsSolver().solve(formula.copy())
        assert result.stats["kernel_fused_passes"] > 0

    def test_trace_mentions_kernel(self, rng):
        solver = HqsSolver(HqsOptions(use_preprocessing=False), trace=True)
        solver.solve(random_dqbf(rng).copy())
        assert any("kernel" in line for line in solver.trace)

    def test_sat_service_counters_exported(self, rng):
        result = HqsSolver(HqsOptions(use_preprocessing=False)).solve(
            random_dqbf(rng).copy()
        )
        for key in (
            "sat_queries",
            "sat_conflicts",
            "sat_clauses_encoded",
            "sat_encode_cache_hits",
            "sat_learnts_reused",
            "sat_counterexamples",
            "sat_rebinds",
            "sat_session_persistent",
        ):
            assert key in result.stats, f"missing {key}"
        assert result.stats["sat_session_persistent"] == 1

    def test_sat_session_disabled_still_exports_counters(self, rng):
        options = HqsOptions(use_preprocessing=False, use_sat_session=False)
        result = HqsSolver(options).solve(random_dqbf(rng).copy())
        assert result.stats["sat_session_persistent"] == 0
        assert "sat_queries" in result.stats


class TestMetadataCache:
    def test_support_of_matches_naive_support(self):
        rng = random.Random(6)
        variables = [1, 2, 3, 4, 5]
        for _ in range(25):
            aig = Aig()
            root = random_edge(aig, rng, variables, depth=4)
            want = {
                aig._input_label[n]
                for n in aig.cone_nodes(root)
                if aig.is_input(n)
            }
            assert aig.support_of(root) == frozenset(want)
            # second query is a pure cache hit
            before = aig.counters.support_cache_misses
            assert aig.support_of(root) == frozenset(want)
            assert aig.counters.support_cache_misses == before

    def test_level_of(self):
        aig = Aig()
        a, b, c = aig.var(1), aig.var(2), aig.var(3)
        assert aig.level_of(a) == 0
        ab = aig.land(a, b)
        assert aig.level_of(ab) == 1
        assert aig.level_of(aig.land(ab, c)) == 2
        assert aig.level_of(FALSE) == 0

    def test_extract_bumps_generation_and_keeps_counters(self):
        aig = Aig()
        root = aig.land(aig.var(1), aig.var(2))
        aig.support_of(root)
        generation = aig.cache_generation
        counters = aig.counters
        fresh, (new_root,) = aig.extract([root])
        assert fresh.cache_generation == generation + 1
        assert fresh.counters is counters  # shared accounting
        assert fresh.support_of(new_root) == frozenset({1, 2})

    def test_invalidate_caches(self):
        aig = Aig()
        root = aig.land(aig.var(1), aig.var(2))
        assert aig.support_of(root) == frozenset({1, 2})
        generation = aig.cache_generation
        aig.invalidate_caches()
        assert aig.cache_generation == generation + 1
        assert aig.support_of(root) == frozenset({1, 2})

    def test_matrix_size_cache_invalidated_on_root_change(self):
        formula = Dqbf.build([1], [(2, [1])], [[1, 2], [-1, 2]])
        state = state_of(formula)
        first = state.matrix_size()
        assert state.matrix_size() == first  # memoized
        state.root = state.aig.cofactor(state.root, 1, True)
        assert state.matrix_size() == state.aig.cone_size(state.root)
        state.root = TRUE
        assert state.matrix_size() == 0
