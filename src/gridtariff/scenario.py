"""Scenario trees over uncertain on-site generation.

A tree holds its leaf scenarios once, as one ``(leaf, slot)`` array ``dg`` of
per-slot bounds on distributed generation.  Each leaf path concatenates
segments of a small set of base scenarios stage by stage.  Two leaves must
share all decisions while their paths agree on a prefix: ``node_map`` names
the scenario-tree node each leaf is at in each slot, and the operator LP
builds every decision once per node.
"""

from __future__ import annotations

import itertools
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

    def next_probs(self, previous: int, n_bases: int) -> np.ndarray:
        """Probability of each base following ``previous``."""
        self.validate(n_bases)
        probs = np.full(n_bases, self.switch_prob)
        probs[previous] = self.stay_prob
        return probs


def uniform_selector(n_bases: int, stay_prob: float) -> MarkovSelector:
    """Stay with ``stay_prob``, else switch to any other base alike.  With
    more than one base, raises ``ValueError`` unless ``0 <= stay_prob <= 1``."""
    if n_bases == 1:
        return MarkovSelector(1.0, 0.0)
    selector = MarkovSelector(stay_prob, (1.0 - stay_prob) / (n_bases - 1))
    selector.validate(n_bases)
    return selector


@dataclass
class ScenarioTree:
    """Leaf generation paths over a set of base scenarios, with leaf
    probabilities: ``dg[s, h]`` bounds generation of leaf ``s`` in slot
    ``h``."""

    bases: list[BaseScenario]
    period_length: int
    dg: np.ndarray              # (n_leaves, n_slots)
    probabilities: np.ndarray
    prob_rule: str = "uniform"
    selector: MarkovSelector | None = None

    @property
    def n_slots(self) -> int:
        return self.dg.shape[1]

    @property
    def n_leaves(self) -> int:
        return len(self.dg)


def build_complete_tree(bases: list[BaseScenario], period_length: int,
                        n_slots: int, prob_rule: str = "uniform",
                        selector: MarkovSelector | None = None) -> ScenarioTree:
    """Enumerate every stage-choice path; last stage may be shorter.

    Leaves come in the order of their stage choices with the last stage
    varying fastest: with ``n_b`` bases, leaf ``s`` takes base ``(s //
    n_b ** (depth - 1 - k)) % n_b`` in stage ``k``.  ``prob_rule`` is
    ``"uniform"`` or ``"markov"``; the latter multiplies selector transition
    probabilities along the path from a uniform first stage.
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

    choices = np.array(list(itertools.product(range(n_b), repeat=depth)),
                       dtype=np.int64)
    paths = np.array([base.dg_bound[:n_slots] for base in bases])
    slots = np.arange(n_slots)
    dg = paths[choices[:, slots // period_length], slots]
    if prob_rule == "uniform":
        probs = np.full(len(choices), 1.0 / n_b ** depth)
    else:
        probs = np.full(len(choices), 1.0 / n_b)
        for prev, nxt in zip(choices.T, choices.T[1:]):
            probs *= np.where(prev == nxt, selector.stay_prob, selector.switch_prob)
    return ScenarioTree(list(bases), period_length, dg, probs, prob_rule, selector)


def single_path_tree(dg_bound: np.ndarray, base_id: int = 0) -> ScenarioTree:
    """Degenerate one-leaf tree pinned to a known generation path."""
    return flat_tree([BaseScenario(base_id, dg_bound)], len(dg_bound))


def flat_tree(bases: list[BaseScenario], n_slots: int,
              probabilities: np.ndarray | None = None) -> ScenarioTree:
    """One leaf per base scenario over the whole horizon, no mid-horizon
    branch; leaf ``s`` is base ``s``."""
    if not bases:
        raise ValueError("need at least one base scenario")
    dg = np.array([base.dg_bound[:n_slots] for base in bases], dtype=float)
    if probabilities is None:
        probabilities = np.full(len(bases), 1.0 / len(bases))
    probabilities = np.asarray(probabilities, dtype=float)
    if abs(probabilities.sum() - 1.0) > 1e-9:
        raise ValueError("leaf probabilities must sum to 1")
    return ScenarioTree(list(bases), n_slots, dg, probabilities, "uniform")


def node_map(tree: ScenarioTree) -> np.ndarray:
    """``(n_leaves, n_slots)`` map from each leaf and slot to its tree node.

    A node is named by its first leaf: entry ``[s, h]`` is the lowest leaf
    whose generation path agrees with leaf ``s`` on slots ``0..h``, so two
    leaves are at the same node of slot ``h`` exactly when the test oracle
    ``indistinguishability_time`` (``tests/conftest.py``) of the pair is at
    least ``h``.
    """
    dg = tree.dg.tolist()
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
    return int(rng.choice(n_bases, p=selector.next_probs(previous_base, n_bases)))
