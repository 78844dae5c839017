"""In-memory spans around public gridtariff calls, and a tracing solver backend.

Spans are recorded from the benchmark's side of each layer boundary: the
benchmark wraps its own calls into ``gridtariff`` in ``Recorder.span``, and a
``TracingBackend`` registered through ``gridtariff.solver.register_backend``
wraps the bundled and HiGHS backends so every ``solve_lp``/``solve_milp`` made
inside ``solve_bilevel``, ``solve_follower`` and ``rolling.run`` gets a span
too.  Nothing under ``src/`` is changed.

Spans nest strictly (one thread, stack discipline), so a span's self time is
its duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from gridtariff.solver import get_backend, register_backend
from gridtariff.solver.core import SolverError

LAYER_OF_BACKEND = {"bundled": "solver.bundled", "scipy": "solver.highs"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; ``op`` tags every span with an operation id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), float("nan"), parent, self.op, attrs)
        self.spans.append(s)
        self._stack.append(idx)
        try:
            yield s.attrs
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NullRecorder:
    """Stand-in used by untraced runs: spans cost one generator frame."""

    op = None

    @contextmanager
    def span(self, name: str, **attrs):
        yield {}


class TracingBackend:
    """Forwards to a registered backend, recording one span per solve."""

    def __init__(self, inner: str, recorder: Recorder) -> None:
        self.inner = get_backend(inner)
        self.name = f"traced-{inner}"
        self.layer = LAYER_OF_BACKEND[inner]
        self.recorder = recorder

    def solve_lp(self, lp, opts=None):
        with self.recorder.span(f"{self.layer}.solve_lp", rows=lp.n_rows) as attrs:
            sol = self.inner.solve_lp(lp, opts)
            attrs["iterations"] = int(sol.iterations)
        return sol

    def solve_milp(self, model, opts=None, initial_solutions=None):
        with self.recorder.span(
                f"{self.layer}.solve_milp", rows=model.lp.n_rows,
                binaries=len(model.binary_idx),
                warm=len(initial_solutions or [])) as attrs:
            res = self.inner.solve_milp(model, opts, initial_solutions)
            attrs["nodes"] = int(res.nodes)
            attrs["pruned"] = sum(1 for entry in res.log
                                  if entry[3] in ("pruned", "infeasible"))
        return res


def tracing_backend(inner: str, recorder: Recorder) -> str:
    """Register (once per process) the tracing wrapper of ``inner`` and point
    it at ``recorder``; returns the name to pass as ``backend=``."""
    name = f"traced-{inner}"
    try:
        backend = get_backend(name)
    except SolverError:
        backend = register_backend(TracingBackend(inner, recorder))
    backend.recorder = recorder
    return name


def self_times(spans: list[Span]) -> list[float]:
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(setup: list[Span], spans: list[Span], n_ops: int) -> dict:
    """Per-layer metrics from one traced setup and one traced pass of ``n_ops``
    operations.  Times and counts are per operation unless the unit says
    otherwise; a layer the workload never reaches reads 0."""
    own = self_times(spans)
    per_op = 1.0 / max(n_ops, 1)

    def total(name: str, key: str | None = None) -> float:
        return float(sum(s.attrs.get(key, 0) if key else s.duration
                         for s in spans if s.name == name))

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    m: dict[str, tuple[float, str]] = {}
    m["generator.generate_s"] = (sum(s.duration for s in setup
                                     if s.name.startswith("generator.")), "s")
    m["follower.build_system_s"] = (sum(
        s.duration for s in setup if s.name == "follower.build_follower_system"), "s")

    for backend, layer in LAYER_OF_BACKEND.items():
        milp, lp = f"{layer}.solve_milp", f"{layer}.solve_lp"
        milp_s = total(milp)
        m[f"{layer}.milp_s"] = (milp_s * per_op, "s/op")
        m[f"{layer}.milp_calls"] = (calls(milp) * per_op, "count/op")
        m[f"{layer}.lp_s"] = (total(lp) * per_op, "s/op")
        m[f"{layer}.lp_calls"] = (calls(lp) * per_op, "count/op")
        m[f"{layer}.lp_iterations"] = (total(lp, "iterations") * per_op, "count/op")
        if backend == "bundled":
            nodes = total(milp, "nodes")
            m[f"{layer}.nodes"] = (nodes * per_op, "count/op")
            m[f"{layer}.nodes_per_s"] = (nodes / milp_s if milp_s else 0.0, "1/s")
            m[f"{layer}.pruned_ratio"] = (total(milp, "pruned") / nodes
                                          if nodes else 0.0, "ratio")

    # reformulation: direct solve_bilevel calls, or the windows of rolling.run
    pricing = {"reformulation.solve_bilevel", "rolling.run"}
    bilevel_s = total("reformulation.solve_bilevel") + total("rolling.run", "window_s")
    solves = calls("reformulation.solve_bilevel") + total("rolling.run", "windows")
    solver_in_pricing = sum(s.duration for s in spans
                            if s.name.startswith("solver.")
                            and s.parent is not None
                            and spans[s.parent].name in pricing)
    milps = [s for s in spans if s.name.endswith(".solve_milp")]
    m["reformulation.solve_bilevel_s"] = (bilevel_s * per_op, "s/op")
    m["reformulation.self_s"] = ((bilevel_s - solver_in_pricing) * per_op, "s/op")
    m["reformulation.milp_rows"] = (sum(s.attrs["rows"] for s in milps)
                                    / len(milps) if milps else 0.0, "count")
    m["reformulation.milp_binaries"] = (sum(s.attrs["binaries"] for s in milps)
                                        / len(milps) if milps else 0.0, "count")
    m["reformulation.milp_calls_per_solve"] = (len(milps) / solves
                                               if solves else 0.0, "ratio")
    m["reformulation.warm_start_ratio"] = (sum(s.attrs["warm"] for s in milps)
                                           / (2 * len(milps)) if milps else 0.0,
                                           "ratio")

    builds = [s for s in spans if s.name == "follower.build_follower_lp"]
    extract = sum(o for s, o in zip(spans, own) if s.name == "follower.solve_follower")
    m["follower.build_lp_s"] = (total("follower.build_follower_lp") * per_op, "s/op")
    m["follower.extract_self_s"] = (extract * per_op, "s/op")
    m["follower.evaluate_s"] = ((total("follower.evaluate_schedule")
                                 + total("follower.leader_profit")) * per_op, "s/op")
    m["follower.lp_rows"] = (float(builds[-1].attrs["rows"]) if builds else 0.0, "count")
    m["follower.lp_nnz"] = (float(builds[-1].attrs["nnz"]) if builds else 0.0, "count")

    m["rolling.windows"] = (total("rolling.run", "windows"), "count")
    m["rolling.self_s"] = ((total("rolling.run") - total("rolling.run", "window_s"))
                           * per_op, "s/op")
    m["rolling.audit_s"] = (total("rolling.audit_trajectory") * per_op, "s/op")
    m["baselines.reference_s"] = (total("baselines.reference_case") * per_op, "s/op")
    return m


COUNTED_ATTRS = {"solve_lp": ("iterations",),
                 "solve_milp": ("nodes", "rows", "binaries", "warm")}


def exact_counts(spans: list[Span]) -> dict[str, int]:
    """Counts that must repeat exactly when the same operations run again."""
    out: dict[str, int] = {}

    def bump(key: str, value) -> None:
        out[key] = out.get(key, 0) + int(value)

    for s in spans:
        if s.name.startswith("solver."):
            layer, call = s.name.rsplit(".", 1)
            bump(f"{layer}.{call}_calls", 1)
            for attr in COUNTED_ATTRS[call]:
                bump(f"{layer}.{call}_{attr}", s.attrs[attr])
        elif s.name == "rolling.run":
            bump("rolling.windows", s.attrs["windows"])
    return out
