"""Benchmark entry point: one seeded workload per process.

    python3 perfbench/run.py --workload desk-bundled --seed 1 --seconds 35 --trace 0

``--trace 0`` sets the workload up three times or for a second, whichever is
more (median reported as ``setup_s``), then cycles through the workload's
round of tasks for ``--seconds`` and prints the end-to-end metrics from the
median of each task's runs.  Every time is scaled to the host's reference
speed by a calibration kernel timed around it (``calibration.py``).
``--trace 1`` sets up once with spans on, runs each task of the round once
untraced and twice traced (fixed work, so ``--seconds`` does not apply), and
prints the per-layer metrics, whether each count repeated exactly between the
two traced passes, and the tracing overhead; the spans are written to
``.perfbench_out/``.  The last line of standard output is always one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

gridtariff is imported from ``src/`` next to this directory and nowhere else;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3           # at least, and more until SETUP_SECONDS have passed
SETUP_SECONDS = 1.0
TAIL_PERCENTILE = 90
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Run BLAS on one thread unless the environment asks for at most the
    usable cores; must run before numpy is imported.  The solvers' matrices
    are small, so a second BLAS thread only spins: on a 2-vCPU host it doubled
    the CPU time of a desk solve and did not shorten it."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = "1"
    return nproc


def import_gridtariff() -> None:
    """Put the checkout's ``src/`` first on the path; exit with code 2 when the
    sources are missing or an installed copy would be measured instead."""
    if (SRC / "gridtariff" / "__init__.py").is_file():
        sys.path.insert(0, str(SRC))
        import gridtariff
        if Path(gridtariff.__file__).resolve().is_relative_to(SRC):
            return
    print(f"perfbench: no gridtariff sources under {SRC}", file=sys.stderr)
    raise SystemExit(2)


def percentile(values: list[float], q: int) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def env_header(nproc: int) -> list[str]:
    import numpy
    import scipy
    return [f"# env nproc={nproc} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}"
            f" python={platform.python_version()} numpy={numpy.__version__}"
            f" scipy={scipy.__version__} machine={platform.machine()}"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, seed: int, seconds: float, lines: list[str]):
    from calibration import probe, scale
    from tracing import NullRecorder
    from workloads import timed
    setups, raw_setups = [], []
    before = probe()
    start = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        t0 = time.perf_counter()
        wl.setup(seed, NullRecorder())
        raw_setups.append(time.perf_counter() - t0)
        after = probe()
        setups.append(raw_setups[-1] * scale(before, after))
        before = after
    out, typical, elapsed, rounds = timed(wl, NullRecorder(), wl.backend, seconds)
    lat = typical.op_s or [elapsed]      # nothing succeeded: as slow as the run
    q = TAIL_PERCENTILE
    beyond = sum(1 for v in lat if v > percentile(lat, q))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (typical.ops / sum(typical.task_s) if typical.ops else 0.0,
                      "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (percentile(lat, q), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    speeds = typical.speeds
    lines.append(f"# timed {elapsed:.3f} s over {rounds:.2f} rounds; host speed"
                 f" {statistics.median(speeds):.3f} of reference (median;"
                 f" {min(speeds):.3f} to {max(speeds):.3f})")
    lines.append(f"# unscaled: {len(raw_setups)} set-ups, median"
                 f" {statistics.median(raw_setups):.4f} s;"
                 f" {(out.attempted - out.failed) / elapsed:.4f} successful"
                 f" operations per wall second; median latency"
                 f" {statistics.median(out.latencies or [elapsed]):.4f} s")
    lines.append(f"# scaled: {typical.ops} operations of {len(typical.task_s)}"
                 f" tasks in {sum(typical.task_s):.3f} s;"
                 f" op_tail_s is p{q} of {len(typical.op_s)} samples"
                 f" ({beyond} beyond it)")
    lines.append(f"# fail_ratio {out.failed / max(out.attempted, 1)!r}"
                 f" ratio ({out.failed} failed of {out.attempted} attempted)")
    return out, metrics


def per_layer(wl, seed: int, lines: list[str]):
    """Fixed work, so counts compare across runs and commits: each task of the
    round runs untraced, then traced twice, back to back so that the machine's
    drift hits all three alike; the pass times that give the tracing overhead
    are scaled like the end-to-end ones."""
    from calibration import probe, scale
    from tracing import NullRecorder, Recorder, exact_counts, layer_metrics, \
        tracing_backend
    from workloads import Outcome, execute
    setup_rec = Recorder()
    wl.setup(seed, setup_rec)
    tasks = wl.round()
    recs = [NullRecorder(), Recorder(), Recorder()]
    outs = [Outcome() for _ in recs]
    walls = [0.0 for _ in recs]
    before = probe()
    for i, task in enumerate(tasks):
        for k, rec in enumerate(recs):
            backend = tracing_backend(wl.backend, rec) if k else wl.backend
            rec.op = i
            t0 = time.perf_counter()
            outs[k].add(execute(wl, task, rec, backend))
            wall = time.perf_counter() - t0
            after = probe()
            walls[k] += wall * scale(before, after)
            before = after
    overhead = (walls[1] + walls[2]) / (2 * walls[0]) - 1.0

    metrics = layer_metrics(setup_rec.spans, recs[1].spans, outs[1].attempted)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    lines.append(f"# tracing overhead {overhead:+.4f}: scaled untraced"
                 f" {walls[0]:.3f} s, traced {walls[1]:.3f} and {walls[2]:.3f} s over the same"
                 f" {len(tasks)} tasks ({outs[1].attempted} operations)")
    first, second = (exact_counts(rec.spans) for rec in recs[1:])
    for key in sorted(set(first) | set(second)):
        a, b = first.get(key), second.get(key)
        lines.append(f"# count {key} {a} {'exact' if a == b else f'DIFFERED ({b})'}")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{wl.name}-s{seed}.json"
    path.write_text(json.dumps({"setup": setup_rec.dump(),
                                "pass1": recs[1].dump(), "pass2": recs[2].dump()}))
    lines.append(f"# spans written to {path.relative_to(ROOT)}")
    total = Outcome()
    for out in outs:
        total.add(out)
    return total, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = cap_blas_threads()
    import_gridtariff()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    # HiGHS prints through C stdio on fd 1; keep it off the result stream
    report = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    lines = [f"# perfbench workload={args.workload} seed={args.seed}"
             f" seconds={args.seconds:g} trace={args.trace}"] + env_header(nproc)
    wl = WORKLOADS[args.workload]()
    if args.trace:
        out, metrics = per_layer(wl, args.seed, lines)
    else:
        out, metrics = end_to_end(wl, args.seed, args.seconds, lines)
    for problem in out.problems:
        lines.append(f"# FAILED {problem}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value!r} {unit}")
    result = {"correct": out.failed == 0, "attempted": out.attempted,
              "failed": out.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print("\n".join(lines), file=report)
    print(json.dumps(result), file=report, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
