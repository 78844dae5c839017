"""Scenario trees over uncertain on-site generation.

A leaf scenario is a per-slot bound on distributed generation, assembled by
concatenating segments of a small set of base scenarios stage by stage.  Two
leaves must share all decisions while their bound vectors agree on a prefix:
``node_map`` names the scenario-tree node each leaf is at in each slot, and
the operator LP builds every decision once per node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_LEAVES = 20_000


@dataclass(frozen=True)
class BaseScenario:
    id: int
    dg_bound: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.dg_bound, dtype=float)
        if np.any(arr < 0):
            raise ValueError(f"base scenario {self.id}: negative generation bound")
        object.__setattr__(self, "dg_bound", arr)


@dataclass(frozen=True)
class Scenario:
    id: int
    stage_choices: tuple[int, ...]
    dg_bound: np.ndarray


@dataclass(frozen=True)
class MarkovSelector:
    """Stage-to-stage base choice: repeat with ``stay_prob``, else switch."""

    stay_prob: float
    switch_prob: float

    def validate(self, n_bases: int) -> None:
        if n_bases == 1:
            if abs(self.stay_prob - 1.0) > 1e-9:
                raise ValueError("single-base selector must have stay_prob 1")
            return
        total = self.stay_prob + (n_bases - 1) * self.switch_prob
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"stay {self.stay_prob} + {n_bases - 1} * switch {self.switch_prob}"
                f" = {total}, expected 1")
        if self.stay_prob < 0 or self.switch_prob < 0:
            raise ValueError("negative transition probability")

    def transition(self, prev: int, nxt: int) -> float:
        return self.stay_prob if prev == nxt else self.switch_prob


def uniform_selector(n_bases: int, stay_prob: float) -> MarkovSelector:
    if n_bases == 1:
        return MarkovSelector(1.0, 0.0)
    return MarkovSelector(stay_prob, (1.0 - stay_prob) / (n_bases - 1))


@dataclass
class ScenarioTree:
    """Complete n-ary tree of stage-wise base choices with leaf probabilities."""

    bases: list[BaseScenario]
    period_length: int
    depth: int
    leaves: list[Scenario]
    probabilities: np.ndarray
    prob_rule: str = "uniform"
    selector: MarkovSelector | None = None

    @property
    def n_slots(self) -> int:
        return len(self.bases[0].dg_bound) if self.bases else 0

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def dg_matrix(self) -> np.ndarray:
        """Leaf-by-slot matrix of generation bounds."""
        return np.vstack([leaf.dg_bound for leaf in self.leaves])


def build_complete_tree(bases: list[BaseScenario], period_length: int,
                        n_slots: int, prob_rule: str = "uniform",
                        selector: MarkovSelector | None = None) -> ScenarioTree:
    """Enumerate every stage-choice path; last stage may be shorter.

    ``prob_rule`` is ``"uniform"`` or ``"markov"``; the latter multiplies
    selector transition probabilities along the path from a uniform first
    stage.
    """
    if not bases:
        raise ValueError("need at least one base scenario")
    if period_length < 1:
        raise ValueError("period_length must be >= 1")
    for base in bases:
        if len(base.dg_bound) < n_slots:
            raise ValueError(f"base scenario {base.id} shorter than horizon")
    n_b = len(bases)
    depth = -(-n_slots // period_length)
    if n_b ** depth > MAX_LEAVES:
        raise ValueError(
            f"complete tree would have {n_b ** depth} leaves (> {MAX_LEAVES});"
            " reduce the branching depth")
    if prob_rule == "markov":
        if selector is None:
            raise ValueError("markov rule needs a selector")
        selector.validate(n_b)
    elif prob_rule != "uniform":
        raise ValueError(f"unknown leaf probability rule {prob_rule!r}")

    leaves: list[Scenario] = []
    probs: list[float] = []
    choices = [0] * depth
    while True:
        dg = np.empty(n_slots)
        for stage, pick in enumerate(choices):
            lo = stage * period_length
            hi = min(lo + period_length, n_slots)
            dg[lo:hi] = bases[pick].dg_bound[lo:hi]
        if prob_rule == "uniform":
            p = 1.0 / n_b ** depth
        else:
            p = 1.0 / n_b
            for prev, nxt in zip(choices, choices[1:]):
                p *= selector.transition(prev, nxt)
        leaves.append(Scenario(len(leaves), tuple(choices), dg))
        probs.append(p)
        for pos in range(depth - 1, -1, -1):     # odometer increment
            choices[pos] += 1
            if choices[pos] < n_b:
                break
            choices[pos] = 0
        else:
            break
    return ScenarioTree(list(bases), period_length, depth, leaves,
                        np.asarray(probs), prob_rule, selector)


def single_path_tree(dg_bound: np.ndarray, base_id: int = 0) -> ScenarioTree:
    """Degenerate one-leaf tree pinned to a known generation path."""
    dg = np.asarray(dg_bound, dtype=float)
    base = BaseScenario(base_id, dg)
    leaf = Scenario(0, (base_id,), dg)
    return ScenarioTree([base], len(dg), 1, [leaf], np.array([1.0]), "uniform")


def flat_tree(bases: list[BaseScenario], n_slots: int,
              probabilities: np.ndarray | None = None) -> ScenarioTree:
    """One leaf per base scenario over the whole horizon, no mid-horizon branch."""
    if not bases:
        raise ValueError("need at least one base scenario")
    leaves = [Scenario(i, (i,), np.asarray(b.dg_bound[:n_slots], dtype=float))
              for i, b in enumerate(bases)]
    if probabilities is None:
        probabilities = np.full(len(bases), 1.0 / len(bases))
    probabilities = np.asarray(probabilities, dtype=float)
    if abs(probabilities.sum() - 1.0) > 1e-9:
        raise ValueError("leaf probabilities must sum to 1")
    return ScenarioTree(list(bases), n_slots, 1, leaves, probabilities, "uniform")


def node_map(tree: ScenarioTree) -> np.ndarray:
    """``(n_leaves, n_slots)`` map from each leaf and slot to its tree node.

    A node is named by its first leaf: entry ``[s, h]`` is the lowest leaf
    whose generation path agrees with leaf ``s`` on slots ``0..h``, so two
    leaves are at the same node of slot ``h`` exactly when the test oracle
    ``indistinguishability_time`` (``tests/conftest.py``) of the pair is at
    least ``h``.
    """
    dg = tree.dg_matrix().tolist()
    nodes = np.empty((tree.n_leaves, tree.n_slots), dtype=np.int64)
    parent = [0] * tree.n_leaves
    for h in range(tree.n_slots):
        first: dict = {}
        parent = [first.setdefault((parent[s], path[h]), s)
                  for s, path in enumerate(dg)]
        nodes[:, h] = parent
    return nodes


def realize_next(selector: MarkovSelector, previous_base: int | None,
                 rng: np.random.Generator, n_bases: int) -> int:
    """Draw the next realized base: uniform at the start, Markov afterwards."""
    if n_bases == 1:
        return 0
    if previous_base is None:
        return int(rng.integers(n_bases))
    selector.validate(n_bases)
    probs = np.full(n_bases, selector.switch_prob)
    probs[previous_base] = selector.stay_prob
    return int(rng.choice(n_bases, p=probs))
