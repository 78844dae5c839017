"""Plain-text LP-format export for cross-checking with external solvers.

Writes the common ``Maximize/Subject To/Bounds/Binaries/End`` dialect with
positional names (``v{j}`` for column ``j``, ``c{i}`` for row ``i``).  The
test suite's reader parses it back, so models round-trip through a file.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import EQ, GE, LE, LinearProgram, MilpModel

def _terms_text(names: list[str], idx: np.ndarray, val: np.ndarray) -> str:
    parts = []
    for j, v in zip(idx, val):
        sign = "-" if v < 0 else "+"
        parts.append(f"{sign} {abs(v):.12g} {names[j]}")
    text = " ".join(parts) if parts else "+ 0 " + (names[0] if names else "x0")
    return text.lstrip("+ ").strip()


def write_lp(model: LinearProgram | MilpModel, path: str | Path) -> None:
    if isinstance(model, MilpModel):
        lp, binaries = model.lp, set(model.binary_idx.tolist())
    else:
        lp, binaries = model, set()
    names = [f"v{j}" for j in range(lp.n_vars)]
    a = lp.a_rows.tocsr()
    lines = ["Maximize" if lp.maximize else "Minimize"]
    obj_idx = np.flatnonzero(lp.obj)
    lines.append(" obj: " + _terms_text(names, obj_idx, lp.obj[obj_idx]))
    lines.append("Subject To")
    rel = {LE: "<=", GE: ">=", EQ: "="}
    for i in range(lp.n_rows):
        lo, hi = a.indptr[i], a.indptr[i + 1]
        body = _terms_text(names, a.indices[lo:hi], a.data[lo:hi])
        lines.append(f" c{i}: {body} {rel[lp.sense[i]]} {lp.rhs[i]:.12g}")
    lines.append("Bounds")
    for j in range(lp.n_vars):
        lo, up = lp.lower[j], lp.upper[j]
        if j in binaries:
            continue
        if lo == 0.0 and np.isinf(up):
            continue
        lo_s = f"{lo:.12g}" if np.isfinite(lo) else "-inf"
        if np.isfinite(up):
            lines.append(f" {lo_s} <= {names[j]} <= {up:.12g}")
        elif np.isfinite(lo):
            lines.append(f" {names[j]} >= {lo_s}")
        else:
            lines.append(f" {names[j]} free")
    if binaries:
        lines.append("Binaries")
        for j in sorted(binaries):
            lines.append(f" {names[j]}")
    lines.append("End")
    Path(path).write_text("\n".join(lines) + "\n")
