"""Frozen reference: the row-by-row case-file parser that the column-wise
``snpwoe.fileio.parse_case_file`` replaced.

Every row is stripped, checked and converted on its own, in file order, so
the first failing check names its line. ``test_parse_case_oracle.py`` holds
the library to these arrays bit for bit and to these ``ParseError`` texts.
Do not optimise this file; its value is that it stays the old parser.
"""

from __future__ import annotations

import csv
import math

from snpwoe.evidence import CaseData
from snpwoe.fileio import ParseError
from snpwoe.genotypes import hwe_prior_array, validate_allele_freq

_CASE_HEADER_Q = ["marker_id", "x_t", "x_r", "q"]
_CASE_HEADER_P = ["marker_id", "x_t", "x_r", "p0", "p1", "p2"]
_FILE_PRIOR_TOL = 1e-9


def _fail(path, line: int, message: str):
    raise ParseError(f"{path}:{line}: {message}")


def _parse_float(text: str, path, line: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        _fail(path, line, f"column {column!r}: {text!r} is not a number")


def _parse_allele_freq(text: str, path, line: int) -> float:
    q = _parse_float(text, path, line, "q")
    try:
        return validate_allele_freq(q)
    except ValueError as exc:
        _fail(path, line, f"column 'q': {exc}")


def _parse_dosage(text: str, path, line: int, column: str) -> int:
    if text not in ("0", "1", "2"):
        _fail(path, line, f"column {column!r}: dosage must be 0, 1 or 2, got {text!r}")
    return int(text)


def _read_rows(path) -> list[tuple[int, list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, [cell.strip() for cell in row])
                    for row in reader]
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    return [(num, row) for num, row in rows if any(cell for cell in row)]


def _priors_from_row(parts: list[float], path, line: int) -> list[float]:
    for name, p in zip(("p0", "p1", "p2"), parts):
        if math.isnan(p) or not 0.0 <= p <= 1.0:
            _fail(path, line, f"column {name!r}: probability must lie in [0, 1], got {p!r}")
    total = math.fsum(parts)
    if abs(total - 1.0) > _FILE_PRIOR_TOL:
        _fail(path, line, f"genotype priors must sum to 1 within {_FILE_PRIOR_TOL}, got {total!r}")
    return [p / total for p in parts]


def parse_case_file(path) -> CaseData:
    rows = _read_rows(path)
    if not rows:
        raise ParseError(f"{path}:1: empty case file")
    header_line, header = rows[0]
    if header == _CASE_HEADER_Q:
        use_q = True
    elif header == _CASE_HEADER_P:
        use_q = False
    else:
        _fail(path, header_line,
              f"header must be {','.join(_CASE_HEADER_Q)} or "
              f"{','.join(_CASE_HEADER_P)}, got {','.join(header)!r}")
    if len(rows) == 1:
        _fail(path, header_line, "case file has a header but no markers")

    ids: list[str] = []
    x_t: list[int] = []
    x_r: list[int] = []
    priors: list = []   # allele frequencies, or explicit prior rows
    seen: set[str] = set()
    for line, row in rows[1:]:
        if len(row) != len(header):
            _fail(path, line, f"expected {len(header)} columns, got {len(row)}")
        marker_id = row[0]
        if not marker_id:
            _fail(path, line, "marker_id must be nonempty")
        if marker_id in seen:
            _fail(path, line, f"duplicate marker_id {marker_id!r}")
        seen.add(marker_id)
        ids.append(marker_id)
        x_t.append(_parse_dosage(row[1], path, line, "x_t"))
        x_r.append(_parse_dosage(row[2], path, line, "x_r"))
        if use_q:
            priors.append(_parse_allele_freq(row[3], path, line))
        else:
            parts = [_parse_float(row[3 + i], path, line, f"p{i}") for i in range(3)]
            priors.append(_priors_from_row(parts, path, line))
    return CaseData.from_arrays(x_t, x_r, hwe_prior_array(priors) if use_q else priors, ids)
