"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload: set up on seed 1 with tracing on, run one task, require
its gates to pass, its spans to reach the solver layer and every per-layer
metric named in BENCHMARK.json to be produced, then corrupt the result and
require the gates to count the corrupted operations as failed in the
workload's tally.  Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import json
import sys
import time

from run import ROOT, cap_blas_threads, import_gridtariff


def _corrupt_desk(sol) -> None:
    sol.leader_objective += 1.0


def _corrupt_rh(res) -> None:
    pinned = next(r.pinned for r in res.traj.per_iteration_log if r.pinned)
    res.traj.frozen_prices[min(pinned)] += 0.5


def _corrupt_week(res) -> None:
    res.cost.generalized_cost += 1.0


CORRUPT = {"desk-bundled": _corrupt_desk, "rh-mini3": _corrupt_rh,
           "week-response": _corrupt_week}


def check_workload(cls) -> str:
    from tracing import Recorder, layer_metrics, tracing_backend
    from workloads import Outcome

    wl = cls()
    rec = Recorder()
    backend = tracing_backend(wl.backend, rec)
    wl.setup(1, rec)
    setup_spans, rec.spans = rec.spans, []
    task = wl.round()[0]
    t0 = time.perf_counter()
    result = wl.run_task(task, rec, backend)
    latency = time.perf_counter() - t0
    clean = wl.score(result, wl.check(task, result), latency)
    if clean.failed or not clean.attempted:
        raise AssertionError(f"{wl.name}: clean task failed: {clean.problems}")
    layers = layer_metrics(setup_spans, rec.spans, clean.attempted)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = {m["name"] for m in declared} - set(layers) - {"trace.overhead_ratio"}
    if missing:
        raise AssertionError(f"{wl.name}: per-layer metrics not produced: {missing}")
    if not any(layers[f"{layer}.{kind}_calls"][0] > 0
               for layer in ("solver.bundled", "solver.highs")
               for kind in ("lp", "milp")):
        raise AssertionError(f"{wl.name}: no solver spans recorded")

    CORRUPT[wl.name](result)
    corrupted = wl.score(result, wl.check(task, result), latency)
    tally = Outcome()
    tally.add(clean)
    tally.add(corrupted)
    if not corrupted.failed or tally.failed != corrupted.attempted:
        raise AssertionError(f"{wl.name}: corrupted result not counted as failed")
    return (f"{wl.name}: clean {clean.attempted} ops pass; corrupted result gives"
            f" fail_ratio {tally.failed}/{tally.attempted}"
            f" ({corrupted.problems[0]})")


def main() -> int:
    cap_blas_threads()
    import_gridtariff()
    from workloads import WORKLOADS
    for cls in WORKLOADS.values():
        print(check_workload(cls), flush=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
