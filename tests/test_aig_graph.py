"""Tests for the AIG manager: simplification, strashing, semantics."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.graph import (
    FALSE,
    TRUE,
    Aig,
    complement,
    edge_of,
    is_complemented,
    node_of,
)


def random_edge(aig: Aig, rng: random.Random, variables, depth: int) -> int:
    """Build a random expression edge over the given variables."""
    if depth == 0 or rng.random() < 0.3:
        edge = aig.var(rng.choice(variables))
        return complement(edge) if rng.random() < 0.5 else edge
    op = rng.choice(["and", "or", "xor", "ite"])
    a = random_edge(aig, rng, variables, depth - 1)
    b = random_edge(aig, rng, variables, depth - 1)
    if op == "and":
        return aig.land(a, b)
    if op == "or":
        return aig.lor(a, b)
    if op == "xor":
        return aig.lxor(a, b)
    c = random_edge(aig, rng, variables, depth - 1)
    return aig.lite(a, b, c)


class TestEdgeHelpers:
    def test_encoding_round_trip(self):
        edge = edge_of(5, True)
        assert node_of(edge) == 5
        assert is_complemented(edge)
        assert not is_complemented(complement(edge))

    def test_constants(self):
        assert complement(FALSE) == TRUE
        assert node_of(FALSE) == node_of(TRUE) == 0


class TestSimplificationRules:
    def setup_method(self):
        self.aig = Aig()
        self.x = self.aig.var(1)
        self.y = self.aig.var(2)

    def test_and_false_annihilates(self):
        assert self.aig.land(self.x, FALSE) == FALSE
        assert self.aig.land(FALSE, self.x) == FALSE

    def test_and_true_is_identity(self):
        assert self.aig.land(self.x, TRUE) == self.x
        assert self.aig.land(TRUE, self.x) == self.x

    def test_and_idempotent(self):
        assert self.aig.land(self.x, self.x) == self.x

    def test_and_contradiction(self):
        assert self.aig.land(self.x, complement(self.x)) == FALSE

    def test_strashing_shares_nodes(self):
        e1 = self.aig.land(self.x, self.y)
        e2 = self.aig.land(self.y, self.x)
        assert e1 == e2

    def test_or_via_demorgan(self):
        e = self.aig.lor(self.x, self.y)
        assert is_complemented(e)

    def test_xor_of_equal_is_false(self):
        assert self.aig.lxor(self.x, self.x) == FALSE

    def test_xnor_of_equal_is_true(self):
        assert self.aig.lxnor(self.x, self.x) == TRUE

    def test_ite_constant_condition(self):
        assert self.aig.lite(TRUE, self.x, self.y) == self.x
        assert self.aig.lite(FALSE, self.x, self.y) == self.y

    def test_land_many_empty_is_true(self):
        assert self.aig.land_many([]) == TRUE

    def test_lor_many_empty_is_false(self):
        assert self.aig.lor_many([]) == FALSE

    def test_var_requires_positive_label(self):
        with pytest.raises(ValueError):
            self.aig.var(0)

    def test_literal_polarity(self):
        pos = self.aig.literal(3)
        neg = self.aig.literal(-3)
        assert pos == complement(neg)


class TestStructure:
    def test_inputs_are_not_and(self):
        aig = Aig()
        x = aig.var(1)
        assert aig.is_input(node_of(x))
        assert not aig.is_and(node_of(x))
        assert aig.input_label(node_of(x)) == 1

    def test_fanins_of_input_raise(self):
        aig = Aig()
        x = aig.var(1)
        with pytest.raises(ValueError):
            aig.fanins(node_of(x))

    def test_cone_nodes_topological(self):
        aig = Aig()
        e = aig.land(aig.var(1), aig.lor(aig.var(2), aig.var(3)))
        order = aig.cone_nodes(e)
        seen = set()
        for node in order:
            if aig.is_and(node):
                f0, f1 = aig.fanins(node)
                assert node_of(f0) in seen and node_of(f1) in seen
            seen.add(node)

    def test_support(self):
        aig = Aig()
        e = aig.land(aig.var(4), aig.var(9))
        assert aig.support(e) == {4, 9}

    def test_cone_size_counts_ands(self):
        aig = Aig()
        e = aig.land(aig.var(1), aig.land(aig.var(2), aig.var(3)))
        assert aig.cone_size(e) == 2

    def test_extract_compacts_garbage(self):
        aig = Aig()
        keep = aig.land(aig.var(1), aig.var(2))
        _garbage = aig.land(aig.var(3), aig.var(4))
        fresh, (root,) = aig.extract([keep])
        assert fresh.support(root) == {1, 2}
        assert fresh.num_nodes < aig.num_nodes

    @pytest.mark.parametrize("seed", range(8))
    def test_extract_preserves_cone_size(self, seed):
        """Compaction copies the cone node for node, so the live size
        measured before ``extract`` is the cone size after it (the QBF
        back-end checks its node budget with the pre-compaction count)."""
        rng = random.Random(seed)
        aig = Aig()
        variables = list(range(1, 7))
        for _ in range(3):
            random_edge(aig, rng, variables, 5)  # garbage around the root
        root = random_edge(aig, rng, variables, 6)
        live = aig.cone_size(root)
        fresh, (new_root,) = aig.extract([root])
        assert fresh.cone_size(new_root) == live
        assert fresh.num_nodes == live + len(fresh.support(new_root)) + 1


class TestSemantics:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6))
    def test_operators_match_python_semantics(self, seed):
        rng = random.Random(seed)
        aig = Aig()
        variables = [1, 2, 3]
        a = random_edge(aig, rng, variables, 3)
        b = random_edge(aig, rng, variables, 3)
        land, lor, lxor = aig.land(a, b), aig.lor(a, b), aig.lxor(a, b)
        for values in itertools.product([False, True], repeat=3):
            assignment = dict(zip(variables, values))
            va = aig.evaluate(a, assignment)
            vb = aig.evaluate(b, assignment)
            assert aig.evaluate(land, assignment) == (va and vb)
            assert aig.evaluate(lor, assignment) == (va or vb)
            assert aig.evaluate(lxor, assignment) == (va ^ vb)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6))
    def test_cofactor_compose_quantify(self, seed):
        rng = random.Random(seed)
        aig = Aig()
        variables = [1, 2, 3, 4]
        e = random_edge(aig, rng, variables, 4)
        v = rng.choice(variables)
        c0 = aig.cofactor(e, v, False)
        c1 = aig.cofactor(e, v, True)
        ex = aig.exists(e, v)
        fa = aig.forall(e, v)
        for values in itertools.product([False, True], repeat=4):
            assignment = dict(zip(variables, values))
            low = {**assignment, v: False}
            high = {**assignment, v: True}
            assert aig.evaluate(c0, assignment) == aig.evaluate(e, low)
            assert aig.evaluate(c1, assignment) == aig.evaluate(e, high)
            assert aig.evaluate(ex, assignment) == (
                aig.evaluate(e, low) or aig.evaluate(e, high)
            )
            assert aig.evaluate(fa, assignment) == (
                aig.evaluate(e, low) and aig.evaluate(e, high)
            )
        # quantified results no longer depend on v
        assert v not in aig.support(ex) or ex in (TRUE, FALSE)
        assert v not in aig.support(fa) or fa in (TRUE, FALSE)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_compose_is_substitution(self, seed):
        rng = random.Random(seed)
        aig = Aig()
        e = random_edge(aig, rng, [1, 2], 3)
        g = random_edge(aig, rng, [3, 4], 3)
        composed = aig.compose(e, {1: g})
        for values in itertools.product([False, True], repeat=4):
            assignment = dict(zip([1, 2, 3, 4], values))
            inner = aig.evaluate(g, assignment)
            expected = aig.evaluate(e, {**assignment, 1: inner})
            assert aig.evaluate(composed, assignment) == expected

    def test_rename(self):
        aig = Aig()
        e = aig.land(aig.var(1), complement(aig.var(2)))
        renamed = aig.rename(e, {1: 7, 2: 8})
        assert aig.support(renamed) == {7, 8}
        assert aig.evaluate(renamed, {7: True, 8: False})

    def test_simultaneous_swap_rename(self):
        """Renaming {1: 2, 2: 1} must swap, not chain."""
        aig = Aig()
        e = aig.land(aig.var(1), complement(aig.var(2)))
        swapped = aig.rename(e, {1: 2, 2: 1})
        assert aig.evaluate(swapped, {1: False, 2: True})
        assert not aig.evaluate(swapped, {1: True, 2: False})

    @pytest.mark.slow
    def test_deep_chain_no_recursion_error(self):
        """Operations are iterative: a 5000-deep chain must not blow the stack."""
        aig = Aig()
        edge = aig.var(1)
        for i in range(2, 5002):
            edge = aig.land(edge, aig.var(i))
        cof = aig.cofactor(edge, 1, True)
        assert 1 not in aig.support(cof)


class TestMultiRoot:
    def test_extract_multiple_roots(self):
        import itertools

        aig = Aig()
        a = aig.land(aig.var(1), aig.var(2))
        b = aig.lor(aig.var(2), complement(aig.var(3)))
        fresh, (ra, rb) = aig.extract([a, b])
        for values in itertools.product([False, True], repeat=3):
            assignment = dict(zip([1, 2, 3], values))
            assert fresh.evaluate(ra, assignment) == aig.evaluate(a, assignment)
            assert fresh.evaluate(rb, assignment) == aig.evaluate(b, assignment)

    def test_rebuild_shares_cache_across_roots(self):
        aig = Aig()
        shared = aig.land(aig.var(1), aig.var(2))
        a = aig.land(shared, aig.var(3))
        b = aig.lor(shared, aig.var(4))
        fresh, roots = aig.extract([a, b])
        # the shared node must exist only once in the fresh manager
        ands = sum(1 for n in range(1, fresh.num_nodes) if fresh.is_and(n))
        assert ands == 3  # shared + one per root

    def test_rebuild_with_mixed_leaf_map(self):
        import itertools

        aig = Aig()
        f = aig.land(aig.var(1), aig.lxor(aig.var(2), aig.var(3)))
        g = aig.lor(aig.var(4), aig.var(5))
        (rebuilt,) = aig.rebuild([f], {1: TRUE, 2: g})
        for values in itertools.product([False, True], repeat=3):
            assignment = dict(zip([3, 4, 5], values))
            inner = aig.evaluate(g, assignment)
            expected = aig.evaluate(f, {**assignment, 1: True, 2: inner})
            assert aig.evaluate(rebuilt, assignment) == expected

    def test_complemented_root_cone(self):
        aig = Aig()
        f = complement(aig.land(aig.var(1), aig.var(2)))
        assert aig.support(f) == {1, 2}
        assert aig.cone_size(f) == 1
