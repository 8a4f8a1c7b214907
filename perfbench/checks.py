"""Output checks against reference values stored in ``reference.json``.

The references were computed by the program at the commit that added the
benchmark (``make_reference.py``). Tolerances follow the differential
oracle of the ROADMAP: 1e-12 relative for the exact methods and Monte Carlo
(at fixed seeds), 1e-9 absolute for maximized log-likelihoods (profile and
the duplicate MLE), and ``tol`` per marker and integral for quadrature.
Each check returns ``None`` or a one-line reason.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

REL = 1e-12
MAX_ABS = 1e-9
W_HAT_ABS = 1e-6   # an argmax is less well conditioned than the maximum
CASEWORK_QUAD_TOL = 1e-8   # the default --quad-tol


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def woe_tolerance(method: str, ref: float, m: int, quad_tol: float) -> float:
    if method == "profile":
        return MAX_ABS
    if method == "integrate-quad":
        # Two integrals per marker, each within tol.
        return 2.0 * quad_tol * m
    # Relative, with the scale floored at 1 so WoE values near 0 are not
    # held to an absolute 1e-12.
    return REL * max(abs(ref), 1.0)


def _differs(value: float, ref: float, tol: float) -> bool:
    if math.isinf(ref) or math.isinf(value):
        return value != ref
    return not abs(value - ref) <= tol


def woe_output(text: str, method: str, m: int, ref: float) -> str | None:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if payload.get("method") != method or payload.get("markers") != m:
        return f"method/markers {payload.get('method')}/{payload.get('markers')}"
    woe = float(payload["woe"])
    if _differs(woe, ref, woe_tolerance(method, ref, m, CASEWORK_QUAD_TOL)):
        return f"{method} woe {woe!r} vs reference {ref!r}"
    return None


def estimate_output(est, ref: dict) -> str | None:
    if bool(est.at_boundary) != ref["at_boundary"]:
        return f"at_boundary {est.at_boundary} vs reference {ref['at_boundary']}"
    if _differs(est.log_likelihood, ref["log_likelihood"], MAX_ABS):
        return f"log-likelihood {est.log_likelihood!r} vs {ref['log_likelihood']!r}"
    if _differs(est.w, ref["w"], W_HAT_ABS):
        return f"w {est.w!r} vs reference {ref['w']!r}"
    return None


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


_KEY_COLUMNS = ("hypothesis", "method", "prior_id", "m", "q", "w_t_true", "replicate")


def study_records(path: Path, ref_rows: list[list[str]], quad_tol: float) -> str | None:
    """Records must match the reference row for row: identical keys and
    maximizer presence, WoE within the method's tolerance. Maximizer
    values are not compared: a flat profile leaves them ill-conditioned."""
    rows = read_csv(path)
    if len(rows) != len(ref_rows) or rows[0] != ref_rows[0]:
        return f"records: {len(rows)} rows vs {len(ref_rows)}, or another header"
    col = {name: i for i, name in enumerate(rows[0])}
    for line, (row, ref) in enumerate(zip(rows[1:], ref_rows[1:]), start=2):
        if any(row[col[k]] != ref[col[k]] for k in _KEY_COLUMNS):
            return f"records line {line}: key {row} vs {ref}"
        for k in ("w_hat_h1", "w_hat_h2"):
            if bool(row[col[k]]) != bool(ref[col[k]]):
                return f"records line {line}: {k} presence differs"
        method = row[col["method"]]
        woe, ref_woe = float(row[col["woe"]]), float(ref[col["woe"]])
        tol = woe_tolerance("known" if method == "true-w" else method, ref_woe,
                            int(row[col["m"]]), quad_tol)
        if _differs(woe, ref_woe, tol):
            return f"records line {line}: {method} woe {woe!r} vs {ref_woe!r}"
    return None


def study_summary(path: Path, records_path: Path) -> str | None:
    """Each summary row must agree with its cell recomputed from the records."""
    records = read_csv(records_path)
    col = {name: i for i, name in enumerate(records[0])}
    cell_cols = ("hypothesis", "method", "prior_id", "m", "q", "w_t_true")
    cells: dict[tuple, list[float]] = {}
    for row in records[1:]:
        cells.setdefault(tuple(row[col[c]] for c in cell_cols), []).append(float(row[col["woe"]]))
    rows = read_csv(path)
    scol = {name: i for i, name in enumerate(rows[0])}
    if len(rows) - 1 != len(cells):
        return f"summary: {len(rows) - 1} rows for {len(cells)} cells"
    for row in rows[1:]:
        woes = cells.get(tuple(row[scol[c]] for c in cell_cols))
        if woes is None:
            return f"summary: no records for cell {row}"
        expect = {
            "n": len(woes),
            "mean_woe": math.fsum(woes) / len(woes),
            "min_woe": min(woes),
            "max_woe": max(woes),
            "n_woe_positive": sum(w > 0.0 for w in woes),
            "n_woe_negative": sum(w < 0.0 for w in woes),
        }
        for name, want in expect.items():
            got = float(row[scol[name]])
            if _differs(got, want, REL * max(abs(want), 1.0)):
                return f"summary cell {row[:6]}: {name} {got!r} vs {want!r}"
    return None
