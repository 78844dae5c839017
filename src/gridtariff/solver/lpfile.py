"""Plain-text LP-format import/export for cross-checking with external solvers.

Writes the common ``Maximize/Subject To/Bounds/Binaries/End`` dialect with
positional names (``v{j}`` for column ``j``, ``c{i}`` for row ``i``); the
reader accepts the same dialect under any names, so models round-trip through
a file.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .core import EQ, GE, LE, LinearProgram, LpBuilder, MilpModel, SolverError

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


_TOKEN_RE = re.compile(r"([+-])|([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)|([A-Za-z_][A-Za-z0-9_]*)")


def _parse_terms(text: str, get_var) -> list[tuple[int, float]]:
    terms: list[tuple[int, float]] = []
    sign, coef = 1.0, None
    for match in _TOKEN_RE.finditer(text):
        op, num, name = match.groups()
        if op:
            sign = -1.0 if op == "-" else 1.0
            coef = None
        elif num:
            coef = float(num)
        elif name:
            value = sign * (1.0 if coef is None else coef)
            terms.append((get_var(name), value))
            sign, coef = 1.0, None
    return terms


def read_lp(path: str | Path) -> MilpModel:
    """Parse a file produced by :func:`write_lp` (or a compatible writer)."""
    lines = [ln.split("\\")[0].strip() for ln in Path(path).read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    builder = LpBuilder()
    var_of: dict[str, int] = {}

    def get_var(name: str) -> int:
        if name not in var_of:
            var_of[name] = builder.add_var(name)
        return var_of[name]

    section = None
    maximize = False
    obj_terms: list[tuple[int, float]] = []
    rows: list[tuple[list, str, float]] = []
    binaries: list[str] = []
    bound_lines: list[str] = []
    for ln in lines:
        low = ln.lower()
        if low in ("maximize", "minimize", "max", "min"):
            maximize = low.startswith("max")
            section = "obj"
            continue
        if low in ("subject to", "st", "s.t.", "such that"):
            section = "rows"
            continue
        if low == "bounds":
            section = "bounds"
            continue
        if low in ("binaries", "binary", "bin"):
            section = "bin"
            continue
        if low in ("general", "generals", "end"):
            section = "end"
            continue
        if section == "obj":
            body = ln.split(":", 1)[-1]
            obj_terms.extend(_parse_terms(body, get_var))
        elif section == "rows":
            body = ln.split(":", 1)[-1]            # drop the row name
            m = re.search(r"(<=|>=|=)", body)
            if not m:
                raise SolverError(f"constraint without relation: {ln!r}")
            rel = m.group(1)
            lhs, rhs = body.split(rel, 1)
            sense = {"<=": LE, ">=": GE, "=": EQ}[rel]
            rows.append((_parse_terms(lhs, get_var), sense, float(rhs)))
        elif section == "bounds":
            bound_lines.append(ln)
        elif section == "bin":
            binaries.extend(ln.split())

    for terms, sense, rhs in rows:
        builder.add_row(terms, sense, rhs)
    for idx, coef in obj_terms:
        builder.set_obj(idx, coef)
    lp = builder.build()
    lp.maximize = maximize

    for ln in bound_lines:
        if ln.endswith("free"):
            j = var_of[ln.split()[0]]
            lp.lower[j], lp.upper[j] = -np.inf, np.inf
            continue
        parts = re.split(r"<=|>=", ln)
        if "<=" in ln and len(parts) == 3:
            lo, name, up = parts
            j = var_of[name.strip()]
            lp.lower[j] = -np.inf if "inf" in lo else float(lo)
            lp.upper[j] = np.inf if "inf" in up else float(up)
        elif ">=" in ln and len(parts) == 2:
            name, lo = parts
            lp.lower[var_of[name.strip()]] = float(lo)
        elif "<=" in ln and len(parts) == 2:
            name, up = parts
            lp.upper[var_of[name.strip()]] = float(up)

    bin_idx = np.asarray(sorted(var_of[b] for b in binaries), dtype=np.int64)
    for j in bin_idx:
        lp.lower[j] = max(lp.lower[j], 0.0)
        lp.upper[j] = min(lp.upper[j], 1.0)
    return MilpModel(lp, bin_idx)
