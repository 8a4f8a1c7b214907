"""File formats: case tables, duplicate pair counts, study configs, results.

All tabular formats are plain comma-separated text with a header row.
Floats are written with ``repr``, which round-trips every double exactly
and renders negative infinity as the literal ``-inf``; readers accept that
literal back. Parse failures raise :class:`ParseError` with a one-line
``path:line:`` message.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from .estimation import PairCountTable
from .evidence import CaseData, MarkerObservation
from .genotypes import GenotypePriors, hwe_priors
from .scaled_beta import ScaledBeta
from .study import (
    EceRow,
    PriorSpec,
    StudyConfig,
    StudyRecord,
    SummaryRow,
)

__all__ = [
    "ParseError",
    "parse_case_file",
    "parse_pair_table_file",
    "load_study_config",
    "write_records_csv",
    "read_records_csv",
    "write_summary_csv",
    "read_summary_csv",
    "write_ece_csv",
    "fmt_float",
]


class ParseError(ValueError):
    """Malformed input file; the message names the file and line."""


def fmt_float(x: float) -> str:
    """Exact round-trip text for a float; ``-inf``/``inf`` as literals."""
    return repr(float(x))


def _fail(path, line: int, message: str):
    raise ParseError(f"{path}:{line}: {message}")


def _parse_float(text: str, path, line: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        _fail(path, line, f"column {column!r}: {text!r} is not a number")


def _parse_dosage(text: str, path, line: int, column: str) -> int:
    if text not in ("0", "1", "2"):
        _fail(path, line, f"column {column!r}: dosage must be 0, 1 or 2, got {text!r}")
    return int(text)


def _read_rows(path) -> list[tuple[int, list[str]]]:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, [cell.strip() for cell in row])
                    for row in reader]
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    return [(num, row) for num, row in rows if any(cell for cell in row)]


_CASE_HEADER_Q = ["marker_id", "x_t", "x_r", "q"]
_CASE_HEADER_P = ["marker_id", "x_t", "x_r", "p0", "p1", "p2"]

# Slack allowed on sum(p) == 1 in input files, looser than the in-memory
# invariant; rows inside it are renormalized.
_FILE_PRIOR_TOL = 1e-9


def _priors_from_row(parts: list[float], path, line: int) -> GenotypePriors:
    for name, p in zip(("p0", "p1", "p2"), parts):
        if math.isnan(p) or not 0.0 <= p <= 1.0:
            _fail(path, line, f"column {name!r}: probability must lie in [0, 1], got {p!r}")
    total = math.fsum(parts)
    if abs(total - 1.0) > _FILE_PRIOR_TOL:
        _fail(path, line, f"genotype priors must sum to 1 within {_FILE_PRIOR_TOL}, got {total!r}")
    return GenotypePriors(*(p / total for p in parts))


def parse_case_file(path) -> CaseData:
    """Read a case table: one marker per row, with a unique ``marker_id``,
    observed dosages ``x_t``/``x_r``, and priors as either an allele
    frequency column ``q`` or explicit columns ``p0,p1,p2``.

    The header picks one priors form for the whole file. Allele
    frequencies and renormalized explicit priors are cached so markers
    with identical priors share one priors object.
    """
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

    prior_cache: dict[tuple, GenotypePriors] = {}
    markers: list[MarkerObservation] = []
    ids: list[str] = []
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
        x_t = _parse_dosage(row[1], path, line, "x_t")
        x_r = _parse_dosage(row[2], path, line, "x_r")
        if use_q:
            q = _parse_float(row[3], path, line, "q")
            if math.isnan(q) or not 0.0 < q < 1.0:
                _fail(path, line, f"column 'q': allele frequency must lie in (0, 1), got {q!r}")
            key = (q,)
            priors = prior_cache.get(key)
            if priors is None:
                priors = hwe_priors(q)
                prior_cache[key] = priors
        else:
            parts = [_parse_float(row[3 + i], path, line, f"p{i}") for i in range(3)]
            key = tuple(parts)
            priors = prior_cache.get(key)
            if priors is None:
                priors = _priors_from_row(parts, path, line)
                prior_cache[key] = priors
        ids.append(marker_id)
        markers.append(MarkerObservation(x_t, x_r, priors))
    return CaseData(tuple(markers), tuple(ids))


def parse_pair_table_file(path) -> PairCountTable:
    """Read a duplicate pair-count table.

    Line 1 gives the priors: either ``q,<freq>`` or ``p,<p0>,<p1>,<p2>``.
    Line 2 is the column header ``,0,1,2``; lines 3-5 are the dosage-
    labelled count rows for the first read, columns for the second.
    """
    rows = _read_rows(path)
    if len(rows) != 5:
        where = rows[-1][0] if rows else 1
        raise ParseError(f"{path}:{where}: pair table must have exactly 5 "
                         f"nonblank lines, got {len(rows)}")
    line, spec = rows[0]
    if spec[0] == "q" and len(spec) == 2:
        q = _parse_float(spec[1], path, line, "q")
        if math.isnan(q) or not 0.0 < q < 1.0:
            _fail(path, line, f"allele frequency must lie in (0, 1), got {q!r}")
        priors = hwe_priors(q)
    elif spec[0] == "p" and len(spec) == 4:
        parts = [_parse_float(spec[1 + i], path, line, f"p{i}") for i in range(3)]
        priors = _priors_from_row(parts, path, line)
    else:
        _fail(path, line, f"first line must be 'q,<freq>' or 'p,<p0>,<p1>,<p2>', got {','.join(spec)!r}")
    line, header = rows[1]
    if header != ["", "0", "1", "2"]:
        _fail(path, line, f"second line must be ',0,1,2', got {','.join(header)!r}")
    counts = np.zeros((3, 3), dtype=np.int64)
    for a, (line, row) in enumerate(rows[2:]):
        if len(row) != 4 or row[0] != str(a):
            _fail(path, line, f"count row must start with dosage label {a}, got {','.join(row)!r}")
        for b in range(3):
            text = row[1 + b]
            if not text.isdigit():
                _fail(path, line, f"count for pair ({a}, {b}) must be a nonnegative integer, got {text!r}")
            counts[a, b] = int(text)
    if counts.sum() < 1:
        _fail(path, rows[2][0], "pair table must contain at least one pair")
    return PairCountTable(counts, priors)


_CONFIG_KEYS = {
    "q_values", "w_t_values", "w_r", "marker_counts", "replicates",
    "methods", "priors", "master_seed", "mc_samples", "quad_tol",
    "profile_lower", "profile_upper",
}
_REQUIRED_CONFIG_KEYS = {
    "q_values", "w_t_values", "w_r", "marker_counts", "replicates", "methods",
}
_PRIOR_KEYS_MOMENTS = {"id", "mean", "variance"}
_PRIOR_KEYS_SHAPES = {"id", "shape1", "shape2"}


def _config_error(path, message: str):
    raise ParseError(f"{path}: {message}")


def _number(value, path, name: str) -> float:
    # YAML without a decimal point (e.g. "1e-4") lands here as a string.
    if isinstance(value, bool) or value is None:
        _config_error(path, f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        _config_error(path, f"{name} must be a number, got {value!r}")


def _number_list(value, path, name: str) -> list[float]:
    if not isinstance(value, list) or not value:
        _config_error(path, f"{name} must be a nonempty list")
    return [_number(v, path, f"{name}[{i}]") for i, v in enumerate(value)]


def _prior_spec_from_mapping(entry, path, index: int) -> PriorSpec:
    name = f"priors[{index}]"
    if not isinstance(entry, dict):
        _config_error(path, f"{name} must be a mapping")
    keys = set(entry)
    try:
        if keys == _PRIOR_KEYS_MOMENTS:
            dist = ScaledBeta.from_moments(_number(entry["mean"], path, f"{name}.mean"),
                                           _number(entry["variance"], path, f"{name}.variance"))
        elif keys == _PRIOR_KEYS_SHAPES:
            dist = ScaledBeta(_number(entry["shape1"], path, f"{name}.shape1"),
                              _number(entry["shape2"], path, f"{name}.shape2"))
        else:
            _config_error(path, f"{name} must have keys {{id, mean, variance}} "
                                f"or {{id, shape1, shape2}}, got {sorted(keys)}")
        return PriorSpec(str(entry["id"]), dist)
    except ParseError:
        raise
    except ValueError as exc:
        _config_error(path, f"{name}: {exc}")


def load_study_config(path) -> StudyConfig:
    """Load a study configuration mapping from a YAML file.

    Priors are given as a list of mappings with an ``id`` plus either
    ``mean``/``variance`` (converted by moment matching) or direct
    ``shape1``/``shape2``. Unknown keys are rejected so typos fail loudly.
    """
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        _config_error(path, "config must be a mapping")
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        _config_error(path, f"unknown config keys {unknown}")
    missing = sorted(_REQUIRED_CONFIG_KEYS - set(data))
    if missing:
        _config_error(path, f"missing required config keys {missing}")

    methods = data["methods"]
    if not isinstance(methods, list) or not all(isinstance(meth, str) for meth in methods):
        _config_error(path, "methods must be a list of strings")
    priors = []
    if "priors" in data:
        entries = data["priors"]
        if not isinstance(entries, list):
            _config_error(path, "priors must be a list")
        priors = [_prior_spec_from_mapping(e, path, i) for i, e in enumerate(entries)]

    kwargs = {
        "q_values": _number_list(data["q_values"], path, "q_values"),
        "w_t_values": _number_list(data["w_t_values"], path, "w_t_values"),
        "w_r": _number(data["w_r"], path, "w_r"),
        "marker_counts": [int(_number(v, path, f"marker_counts[{i}]"))
                          for i, v in enumerate(_number_list(data["marker_counts"], path, "marker_counts"))],
        "replicates": int(_number(data["replicates"], path, "replicates")),
        "methods": tuple(methods),
        "priors": tuple(priors),
    }
    for key in ("master_seed", "mc_samples"):
        if key in data:
            kwargs[key] = int(_number(data[key], path, key))
    for key in ("quad_tol", "profile_lower", "profile_upper"):
        if key in data:
            kwargs[key] = _number(data[key], path, key)
    try:
        return StudyConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        _config_error(path, f"invalid config: {exc}")


_RECORD_COLUMNS = [f.name for f in fields(StudyRecord)]
_SUMMARY_COLUMNS = [f.name for f in fields(SummaryRow)]
_ECE_COLUMNS = [f.name for f in fields(EceRow)]


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell_text(v) for v in row])


def write_records_csv(records, path) -> None:
    """One row per study record; floats exact, absent fields empty."""
    _write_csv(path, _RECORD_COLUMNS,
               ([getattr(rec, col) for col in _RECORD_COLUMNS] for rec in records))


def read_records_csv(path) -> list[StudyRecord]:
    rows = _read_rows(path)
    if not rows or rows[0][1] != _RECORD_COLUMNS:
        where = rows[0][0] if rows else 1
        raise ParseError(f"{path}:{where}: expected record header "
                         f"{','.join(_RECORD_COLUMNS)!r}")
    records = []
    for line, row in rows[1:]:
        if len(row) != len(_RECORD_COLUMNS):
            _fail(path, line, f"expected {len(_RECORD_COLUMNS)} columns, got {len(row)}")
        vals = dict(zip(_RECORD_COLUMNS, row))
        try:
            records.append(StudyRecord(
                hypothesis=vals["hypothesis"],
                method=vals["method"],
                prior_id=vals["prior_id"] or None,
                m=int(vals["m"]),
                q=float(vals["q"]),
                w_t_true=float(vals["w_t_true"]),
                replicate=int(vals["replicate"]),
                woe=float(vals["woe"]),
                w_hat_h1=float(vals["w_hat_h1"]) if vals["w_hat_h1"] else None,
                w_hat_h2=float(vals["w_hat_h2"]) if vals["w_hat_h2"] else None,
            ))
        except ValueError as exc:
            _fail(path, line, str(exc))
    return records


def write_summary_csv(rows, path) -> None:
    _write_csv(path, _SUMMARY_COLUMNS,
               ([getattr(row, col) for col in _SUMMARY_COLUMNS] for row in rows))


def read_summary_csv(path) -> list[SummaryRow]:
    rows = _read_rows(path)
    if not rows or rows[0][1] != _SUMMARY_COLUMNS:
        where = rows[0][0] if rows else 1
        raise ParseError(f"{path}:{where}: expected summary header "
                         f"{','.join(_SUMMARY_COLUMNS)!r}")
    out = []
    for line, row in rows[1:]:
        if len(row) != len(_SUMMARY_COLUMNS):
            _fail(path, line, f"expected {len(_SUMMARY_COLUMNS)} columns, got {len(row)}")
        vals = dict(zip(_SUMMARY_COLUMNS, row))
        try:
            out.append(SummaryRow(
                hypothesis=vals["hypothesis"],
                method=vals["method"],
                prior_id=vals["prior_id"] or None,
                m=int(vals["m"]),
                q=float(vals["q"]),
                w_t_true=float(vals["w_t_true"]),
                n=int(vals["n"]),
                mean_woe=float(vals["mean_woe"]),
                min_woe=float(vals["min_woe"]),
                max_woe=float(vals["max_woe"]),
                n_woe_positive=int(vals["n_woe_positive"]),
                n_woe_negative=int(vals["n_woe_negative"]),
            ))
        except ValueError as exc:
            _fail(path, line, str(exc))
    return out


def write_ece_csv(rows, path) -> None:
    _write_csv(path, _ECE_COLUMNS,
               ([getattr(row, col) for col in _ECE_COLUMNS] for row in rows))
