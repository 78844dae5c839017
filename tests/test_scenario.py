"""Scenario trees: construction, indistinguishability, node map, realization."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtariff.scenario import (BaseScenario, MarkovSelector,
                                 build_complete_tree, flat_tree, node_map,
                                 realize_next, single_path_tree,
                                 uniform_selector)

from conftest import all_nonanticipativity_pairs, indistinguishability_time


def bases_from(matrix) -> list[BaseScenario]:
    return [BaseScenario(i, np.asarray(row, dtype=float))
            for i, row in enumerate(matrix)]


class TestBuildCompleteTree:
    def test_three_bases_period_one_two_slots(self):
        tree = build_complete_tree(bases_from([[0, 0], [1, 1], [2, 2]]), 1, 2)
        assert tree.n_leaves == 3 ** 2
        assert tree.dg.shape == (9, 2)
        assert tree.probabilities.sum() == pytest.approx(1.0)

    def test_segments_concatenate(self):
        tree = build_complete_tree(bases_from([[0, 0, 0, 0], [1, 2, 3, 4]]), 2, 4)
        assert tree.n_leaves == 4
        # leaves in stage-choice order, the last stage varying fastest
        np.testing.assert_allclose(tree.dg[1], [0, 0, 3, 4])      # (0, 1)
        np.testing.assert_allclose(tree.dg[2], [1, 2, 0, 0])      # (1, 0)

    def test_markov_leaf_probability(self):
        sel = MarkovSelector(0.4, 0.3)
        tree = build_complete_tree(bases_from([[0, 0], [1, 1], [2, 2]]), 1, 2,
                                   prob_rule="markov", selector=sel)
        assert tree.n_leaves == 9
        stay_leaf = 0                                  # choices (0, 0)
        assert tree.probabilities[stay_leaf] == pytest.approx((1 / 3) * 0.4)
        assert tree.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_truncated_last_stage(self):
        tree = build_complete_tree(bases_from([[1] * 5, [2] * 5]), 2, 5)
        assert tree.n_leaves == 2 ** 3 == 8            # three stages
        assert tree.dg.shape == (8, 5)

    def test_leaf_order_last_stage_fastest(self):
        tree = build_complete_tree(bases_from([[0] * 4, [1] * 4, [2] * 4]), 2, 4)
        choices = list(itertools.product(range(3), repeat=2))
        np.testing.assert_array_equal(tree.dg, np.repeat(choices, 2, axis=1))

    def test_empty_bases_rejected(self):
        with pytest.raises(ValueError):
            build_complete_tree([], 1, 2)

    def test_selector_invariant_enforced(self):
        with pytest.raises(ValueError):
            MarkovSelector(0.4, 0.4).validate(3)   # 0.4 + 2*0.4 != 1
        uniform_selector(3, 0.4).validate(3)

    def test_leaf_limit(self):
        with pytest.raises(ValueError):
            build_complete_tree(bases_from([[0] * 30, [1] * 30]), 1, 30)


class TestIndistinguishability:
    def test_identical_scenarios(self):
        tree = single_path_tree(np.array([1.0, 2.0, 3.0]))
        leaf = tree.dg[0]
        assert indistinguishability_time(leaf, leaf) == 2   # all slots agree

    def test_prefix_agreement(self):
        t = flat_tree(bases_from([[5, 5, 5, 5, 1], [5, 5, 5, 5, 2]]), 5)
        assert indistinguishability_time(t.dg[0], t.dg[1]) == 3

    def test_differ_at_first_slot(self):
        t = flat_tree(bases_from([[1, 0], [2, 0]]), 2)
        assert indistinguishability_time(t.dg[0], t.dg[1]) == -1

    def test_period_tree_branch_point(self):
        tree = build_complete_tree(bases_from([[1] * 6, [2] * 6]), 2, 6)
        a, b = tree.dg[0], tree.dg[1]      # choices (0, 0, 0) and (0, 0, 1)
        assert indistinguishability_time(a, b) == 3   # diverge at the third stage

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 2), st.integers(2, 8),
           st.integers(0, 10_000))
    def test_ultrametric_property(self, n_b, period, n_slots, seed):
        rng = np.random.default_rng(seed)
        mat = rng.integers(0, 2, size=(n_b, n_slots)).astype(float)
        tree = build_complete_tree(bases_from(mat), period, n_slots)
        if tree.n_leaves > 81:
            return
        leaves = tree.dg
        for a in leaves[: min(9, len(leaves))]:
            for b in leaves[: min(9, len(leaves))]:
                hab = indistinguishability_time(a, b)
                assert hab == indistinguishability_time(b, a)
                for c in leaves[: min(9, len(leaves))]:
                    hac = indistinguishability_time(a, c)
                    hbc = indistinguishability_time(b, c)
                    assert hac >= min(hab, hbc)


def assert_node_map_matches_oracle(tree) -> None:
    """Leaves share a node exactly in the slots where the all-pairs set ties
    them, and each node is named by its first leaf."""
    nodes = node_map(tree)
    assert nodes.shape == (tree.n_leaves, tree.n_slots)
    shared = {(a, b, h)
              for a, b in itertools.combinations(range(tree.n_leaves), 2)
              for h in range(tree.n_slots) if nodes[a, h] == nodes[b, h]}
    assert shared == {(a, b, h)
                      for a, b, h_max in all_nonanticipativity_pairs(tree)
                      for h in range(h_max + 1)}
    assert np.all(nodes <= np.arange(tree.n_leaves)[:, None])
    np.testing.assert_array_equal(nodes[nodes, np.arange(tree.n_slots)], nodes)


def random_trees(rng, shapes) -> list:
    """Complete trees over random 0/1 bases, one per ``(n_b, period,
    n_slots)``, and a flat tree over the same bases."""
    trees = []
    for n_b, period, n_slots in shapes:
        mat = rng.integers(0, 2, size=(n_b, n_slots)).astype(float)
        trees.append(build_complete_tree(bases_from(mat), period, n_slots))
        trees.append(flat_tree(bases_from(mat), n_slots))
    return trees


class TestNonanticipativityPairs:
    """A leaf's node chain is its row of ``node_map``: the tree node it is at
    in each slot.  The chains must tie exactly the all-pairs set."""

    def test_two_leaf_tree(self):
        t = flat_tree(bases_from([[1, 1, 5], [1, 2, 5]]), 3)
        assert all_nonanticipativity_pairs(t) == [(0, 1, 0)]
        np.testing.assert_array_equal(node_map(t), [[0, 0, 0], [0, 1, 1]])

    def test_nine_leaf_chain_count(self):
        tree = build_complete_tree(bases_from([[0] * 4, [1] * 4, [2] * 4]), 2, 4)
        nodes = node_map(tree)
        # the first stage splits into three nodes, the second into nine
        assert [len(set(nodes[:, h])) for h in range(4)] == [3, 3, 9, 9]
        assert_node_map_matches_oracle(tree)

    def test_single_scenario_empty(self):
        tree = single_path_tree(np.zeros(4))
        assert all_nonanticipativity_pairs(tree) == []
        np.testing.assert_array_equal(node_map(tree), [[0, 0, 0, 0]])

    @pytest.mark.parametrize("n_b,period,n_slots", [(2, 1, 4), (3, 1, 4),
                                                    (3, 2, 6), (2, 2, 8)])
    def test_chained_equivalent_to_all_pairs(self, n_b, period, n_slots):
        rng = np.random.default_rng(n_b * 100 + n_slots)
        for tree in random_trees(rng, [(n_b, period, n_slots)]):
            assert tree.n_leaves <= 81
            assert_node_map_matches_oracle(tree)

    def test_leaf_differing_at_slot_0_shares_nothing(self):
        t = flat_tree(bases_from([[1, 0, 0], [2, 0, 0], [1, 0, 1]]), 3)
        np.testing.assert_array_equal(node_map(t), [[0, 0, 0], [1, 1, 1],
                                                    [0, 0, 2]])
        assert_node_map_matches_oracle(t)

    def test_chain_handles_identical_night_prefix(self):
        t = flat_tree(bases_from([[0, 0, 1.0], [0, 0, 2.0], [0, 0, 3.0]]), 3)
        np.testing.assert_array_equal(node_map(t), [[0, 0, 0], [0, 0, 1],
                                                    [0, 0, 2]])
        assert_node_map_matches_oracle(t)


class TestRealizeNext:
    def test_empirical_stay_frequency(self):
        sel = MarkovSelector(0.4, 0.3)
        rng = np.random.default_rng(123)
        stays = 0
        n = 100_000
        prev = 0
        for _ in range(n):
            nxt = realize_next(sel, prev, rng, 3)
            stays += nxt == prev
            prev = nxt
        assert 0.39 <= stays / n <= 0.41

    def test_single_base_constant(self):
        sel = MarkovSelector(1.0, 0.0)
        rng = np.random.default_rng(0)
        assert all(realize_next(sel, 0, rng, 1) == 0 for _ in range(10))

    def test_stay_one_constant_path(self):
        sel = MarkovSelector(1.0, 0.0)
        rng = np.random.default_rng(0)
        prev = 2
        for _ in range(20):
            prev = realize_next(sel, prev, rng, 3)
            assert prev == 2

    def test_initial_draw_uniform(self):
        sel = uniform_selector(3, 0.4)
        rng = np.random.default_rng(7)
        counts = np.bincount([realize_next(sel, None, rng, 3)
                              for _ in range(30_000)], minlength=3)
        assert np.all(np.abs(counts / 30_000 - 1 / 3) < 0.02)


def test_flat_tree_probability_validation():
    with pytest.raises(ValueError):
        flat_tree(bases_from([[1, 1], [2, 2]]), 2, np.array([0.7, 0.7]))
