"""Host-speed calibration: a fixed kernel timed between operations.

On a shared virtual machine the same solve can take from 1x to 1.9x its
unloaded time, in phases that last from a second to minutes (README.md,
"Run-to-run spread").  The phases slow this kernel, a small dense solve and
an interpreted loop, about as much as they slow the solvers.  So every time
the benchmark reports is scaled by ``REFERENCE_S`` over the kernel's time
around it: it reads as seconds on the host at its unloaded speed.  The kernel
uses numpy and the interpreter only, nothing of gridtariff, so a change to
gridtariff moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on an unloaded 2-vCPU Xeon (Sapphire Rapids) virtual
# machine, one BLAS thread.
REFERENCE_S = 0.0045
PROBE_KERNELS = 6
_A = np.random.default_rng(0).random((150, 150)) + 150.0 * np.eye(150)


def _kernel() -> float:
    s = 0.0
    for i in range(20):
        s += float(np.linalg.solve(_A, _A[:, i])[0])
        s += sum(j * 0.5 for j in range(200))
    return s


def probe() -> float:
    """Mean of six kernel times, in seconds (27 ms in all at full speed): a
    slow phase can time-slice the host within milliseconds, so the mean over
    a stretch estimates the slowdown better than any one kernel does."""
    t0 = time.perf_counter()
    for _ in range(PROBE_KERNELS):
        _kernel()
    return (time.perf_counter() - t0) / PROBE_KERNELS


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into seconds at
    the reference speed."""
    return 2.0 * REFERENCE_S / (before + after)
