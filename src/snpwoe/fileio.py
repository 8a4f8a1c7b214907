"""File formats: case tables, duplicate pair counts, study configs, results.

All tabular formats are comma-separated UTF-8 text with a header row; a
leading byte-order mark is skipped.
Floats are written with ``repr``, which round-trips every double exactly
and renders negative infinity as the literal ``-inf``; readers accept that
literal back. Parse failures raise :class:`ParseError` with a one-line
``path:line:`` message.
"""

from __future__ import annotations

import csv
import math
import typing
from dataclasses import MISSING, fields
from itertools import compress, islice
from operator import itemgetter

import numpy as np

from .estimation import PairCountTable, _pair_count
from .evidence import CaseData
from .genotypes import GenotypePriors, hwe_prior_array, hwe_priors, validate_allele_freq
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


def _parse_allele_freq(text: str, path, line: int) -> float:
    q = _parse_float(text, path, line, "q")
    try:
        return validate_allele_freq(q)
    except ValueError as exc:
        _fail(path, line, f"column 'q': {exc}")


_DOSAGES = {"0": 0, "1": 1, "2": 2}


def _check_dosage(text: str, path, line: int, column: str) -> None:
    if text not in _DOSAGES:
        _fail(path, line, f"column {column!r}: dosage must be 0, 1 or 2, got {text!r}")


def _with_reader(path, read):
    """``read(reader)`` of a ``csv.reader`` over the file; I/O, decoding and
    CSV failures are parse errors naming the file. After a ``ParseError`` of
    ``read`` the rest is decoded, so that text not UTF-8 is reported first."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                return read(reader)
            except ParseError:
                for _ in fh:
                    pass
                raise
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc


def _read_rows(path) -> list[tuple[int, list[str]]]:
    rows = _with_reader(path, lambda reader: [(reader.line_num, [cell.strip() for cell in row])
                                              for row in reader])
    return [(num, row) for num, row in rows if any(cell for cell in row)]


_CASE_HEADER_Q = ["marker_id", "x_t", "x_r", "q"]
_CASE_HEADER_P = ["marker_id", "x_t", "x_r", "p0", "p1", "p2"]

# Slack allowed on sum(p) == 1 in input files, looser than the in-memory
# invariant; rows inside it are renormalized.
_FILE_PRIOR_TOL = 1e-9


def _priors_from_row(parts: list[float], path, line: int) -> list[float]:
    for name, p in zip(("p0", "p1", "p2"), parts):
        if math.isnan(p) or not 0.0 <= p <= 1.0:
            _fail(path, line, f"column {name!r}: probability must lie in [0, 1], got {p!r}")
    total = math.fsum(parts)
    if abs(total - 1.0) > _FILE_PRIOR_TOL:
        _fail(path, line, f"genotype priors must sum to 1 within {_FILE_PRIOR_TOL}, got {total!r}")
    return [p / total for p in parts]


def parse_case_file(path) -> CaseData:
    """Read a case table: one marker per row, with a unique ``marker_id``,
    observed dosages ``x_t``/``x_r``, and priors as either an allele
    frequency column ``q`` or explicit columns ``p0,p1,p2``.

    The header picks one priors form for the whole file. The file is read
    once, a block of rows at a time, and each block is checked a column at
    a time; only a block that fails is checked again, a row at a time, to
    name the first bad line.
    """
    return _with_reader(path, lambda reader: _case_from_reader(path, reader))


# Rows read and converted at a time, so that the text of at most one
# block's cells is held at once.
_BLOCK_ROWS = 1 << 16


def _case_from_reader(path, reader) -> CaseData:
    header = next(filter(any, ([cell.strip() for cell in row] for row in reader)), None)
    if header is None:
        _fail(path, 1, "empty case file")
    if header not in (_CASE_HEADER_Q, _CASE_HEADER_P):
        _fail(path, reader.line_num,
              f"header must be {','.join(_CASE_HEADER_Q)} or "
              f"{','.join(_CASE_HEADER_P)}, got {','.join(header)!r}")
    # The ids in file order; the garbage collector does not scan a dict of str.
    ids: dict[str, None] = {}
    blocks = []
    header_line = line = reader.line_num   # line: the line each block starts after
    while rows := list(islice(reader, _BLOCK_ROWS)):
        n = len(ids)
        try:
            block_ids, *arrays = _block_columns(rows, len(header))
            ids.update(dict.fromkeys(block_ids))
            if len(ids) != n + len(block_ids):
                raise ValueError("duplicate marker_id")
        except ValueError:
            while len(ids) > n:   # the newest keys go first, leaving earlier blocks' ids
                ids.popitem()
            _fail_first_bad_row(path, line, rows, header, ids)
        blocks.append(arrays)
        line = reader.line_num
    if not ids:
        _fail(path, header_line, "case file has a header but no markers")
    x_t, x_r, priors = map(np.concatenate, zip(*blocks))
    case = CaseData.__new__(CaseData)
    case._set_columns(x_t, x_r, priors, ids, checked=True)
    return case


def _dosage_column(texts: list[str]) -> np.ndarray:
    if not _DOSAGES.keys() >= set(texts):
        raise ValueError("bad dosage")
    return np.fromiter(map(_DOSAGES.__getitem__, texts), np.int64, len(texts))


def _block_columns(rows: list[list[str]], n: int):
    """Ids, ``x_t``, ``x_r`` and priors of the nonblank rows of ``n`` cells."""
    if set(map(len, rows)) - {n}:
        if any(any(map(str.strip, row)) for row in rows if len(row) != n):
            raise ValueError("bad column count")
        rows = [row for row in rows if len(row) == n]
    columns = [list(map(str.strip, map(itemgetter(k), rows))) for k in range(n)]
    if "" in columns[0]:
        # Rows of n empty cells are blank lines; any other empty id is an error.
        keep = list(map(any, zip(*columns)))
        columns = [list(compress(column, keep)) for column in columns]
        if "" in columns[0]:
            raise ValueError("empty marker_id")
    ids, x_t, x_r, *prior_texts = columns
    if n == len(_CASE_HEADER_Q):
        q = np.fromiter(map(float, prior_texts[0]), float, len(ids))
        if not ((q > 0.0) & (q <= 1.0)).all():
            raise ValueError("bad allele frequency")
        priors = hwe_prior_array(q)
    else:
        parts = [list(map(float, texts)) for texts in prior_texts]
        priors = np.column_stack(parts)
        if not ((priors >= 0.0) & (priors <= 1.0)).all():
            raise ValueError("bad probability")
        totals = np.fromiter(map(math.fsum, zip(*parts)), float, len(ids))
        if (np.abs(totals - 1.0) > _FILE_PRIOR_TOL).any():
            raise ValueError("priors off 1")
        priors = priors / totals[:, None]
    return ids, _dosage_column(x_t), _dosage_column(x_r), priors


def _fail_first_bad_row(path, line: int, rows: list, header: list, seen: dict):
    """Raise the ``ParseError`` of the first of ``rows``, a block starting after
    line ``line``, to fail a row-wise check; ``seen`` holds the earlier ids."""
    for row in rows:
        # A row spans one line plus one per line break inside its quoted cells.
        line += 1 + sum(cell.count("\n") + cell.count("\r") - cell.count("\r\n") for cell in row)
        row = [cell.strip() for cell in row]
        if not any(row):
            continue
        if len(row) != len(header):
            _fail(path, line, f"expected {len(header)} columns, got {len(row)}")
        marker_id = row[0]
        if not marker_id:
            _fail(path, line, "marker_id must be nonempty")
        if marker_id in seen:
            _fail(path, line, f"duplicate marker_id {marker_id!r}")
        seen[marker_id] = None
        _check_dosage(row[1], path, line, "x_t")
        _check_dosage(row[2], path, line, "x_r")
        if header == _CASE_HEADER_Q:
            _parse_allele_freq(row[3], path, line)
        else:
            _priors_from_row([_parse_float(row[3 + i], path, line, f"p{i}") for i in range(3)],
                             path, line)
    raise AssertionError(f"{path}: a column check failed but no line does")


def parse_pair_table_file(path) -> PairCountTable:
    """Read a duplicate pair-count table.

    Line 1 gives the priors: either ``q,<freq>`` or ``p,<p0>,<p1>,<p2>``.
    Line 2 is the column header ``,0,1,2``; lines 3-5 are the dosage-
    labelled count rows for the first read, columns for the second. A
    count is digits; :class:`PairCountTable`'s checks are reported at the
    count's line, its check for at least one pair at the first count row.
    """
    rows = _read_rows(path)
    if len(rows) != 5:
        _fail(path, rows[-1][0] if rows else 1,
              f"pair table must have exactly 5 nonblank lines, got {len(rows)}")
    line, spec = rows[0]
    if spec[0] == "q" and len(spec) == 2:
        priors = hwe_priors(_parse_allele_freq(spec[1], path, line))
    elif spec[0] == "p" and len(spec) == 4:
        parts = [_parse_float(spec[1 + i], path, line, f"p{i}") for i in range(3)]
        priors = GenotypePriors(*_priors_from_row(parts, path, line))
    else:
        _fail(path, line, f"first line must be 'q,<freq>' or 'p,<p0>,<p1>,<p2>', got {','.join(spec)!r}")
    line, header = rows[1]
    if header != ["", "0", "1", "2"]:
        _fail(path, line, f"second line must be ',0,1,2', got {','.join(header)!r}")
    counts = [[0] * 3 for _ in range(3)]
    for a, (line, row) in enumerate(rows[2:]):
        if len(row) != 4 or row[0] != str(a):
            _fail(path, line, f"count row must start with dosage label {a}, got {','.join(row)!r}")
        for b, text in enumerate(row[1:]):
            if not (text.isascii() and text.isdigit()):
                _fail(path, line, f"count for pair ({a}, {b}) must be a nonnegative integer, got {text!r}")
            try:   # leading zeros do not count, and 21 digits are already past the limit
                counts[a][b] = _pair_count(int(text.lstrip("0")[:21] or "0"), a, b)
            except ValueError as exc:
                _fail(path, line, str(exc))
    try:
        return PairCountTable(counts, priors)
    except ValueError as exc:
        _fail(path, rows[2][0], str(exc))


_PRIOR_KEYS_MOMENTS = {"id", "mean", "variance"}
_PRIOR_KEYS_SHAPES = {"id", "shape1", "shape2"}


def _config_error(path, message: str):
    raise ParseError(f"{path}: {message}")


def _prior_spec_from_mapping(entry, path, index: int) -> PriorSpec:
    name = f"priors[{index}]"
    if not isinstance(entry, dict):
        _config_error(path, f"{name} must be a mapping")
    keys = set(entry)
    if keys == _PRIOR_KEYS_MOMENTS:
        make, args = ScaledBeta.from_moments, (entry["mean"], entry["variance"])
    elif keys == _PRIOR_KEYS_SHAPES:
        make, args = ScaledBeta, (entry["shape1"], entry["shape2"])
    else:
        _config_error(path, f"{name} must have keys {{id, mean, variance}} "
                            f"or {{id, shape1, shape2}}, got {sorted(keys)}")
    try:
        return PriorSpec(str(entry["id"]), make(*args))
    except ValueError as exc:
        _config_error(path, f"invalid config: {name}: {exc}")


def load_study_config(path) -> StudyConfig:
    """Load a study configuration mapping from a YAML file.

    Priors are given as a list of mappings with an ``id`` plus either
    ``mean``/``variance`` (converted by moment matching) or direct
    ``shape1``/``shape2``. Unknown keys are rejected so typos fail loudly.
    Values are checked by :class:`StudyConfig` and :class:`ScaledBeta`,
    whose errors name the key.
    """
    import yaml  # loaded only by the one command that reads YAML
    try:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: invalid YAML: {exc}") from exc
    except ValueError as exc:   # PyYAML's int() and date() conversions give no line
        raise ParseError(f"{path}: invalid YAML: an integer or date that cannot be "
                         f"converted") from exc
    if not isinstance(data, dict):
        _config_error(path, "config must be a mapping")
    # The keys are StudyConfig's fields: required without a default, and
    # a list where the field is a tuple.
    schema = fields(StudyConfig)
    unknown = sorted(set(data) - {f.name for f in schema})
    if unknown:
        _config_error(path, f"unknown config keys {unknown}")
    missing = sorted(f.name for f in schema if f.default is MISSING and f.name not in data)
    if missing:
        _config_error(path, f"missing required config keys {missing}")

    methods = data["methods"]
    if not isinstance(methods, list) or not all(isinstance(meth, str) for meth in methods):
        _config_error(path, "methods must be a list of strings")
    types = typing.get_type_hints(StudyConfig)
    for f in schema:
        if typing.get_origin(types[f.name]) is tuple and not isinstance(data.get(f.name, []), list):
            _config_error(path, f"{f.name} must be a list")
    priors = [_prior_spec_from_mapping(e, path, i) for i, e in enumerate(data.get("priors", []))]
    try:
        return StudyConfig(**{**data, "priors": tuple(priors)})
    except (TypeError, ValueError) as exc:
        _config_error(path, f"invalid config: {exc}")


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def _write_csv(path, cls, rows) -> None:
    """Instances of the dataclass ``cls``, one column per field in order."""
    header = [f.name for f in fields(cls)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell_text(getattr(row, name)) for name in header])


def _cell_parser(tp):
    """Text to value for a field of type ``str``, ``int``, ``float`` or
    ``X | None``, where an empty cell is ``None``."""
    args = typing.get_args(tp)
    if type(None) in args:
        inner = _cell_parser(next(a for a in args if a is not type(None)))
        return lambda text: inner(text) if text else None
    return tp


def _read_csv(path, cls, kind: str) -> list:
    """Rows written by ``_write_csv`` as ``cls`` instances, cells cast by field type."""
    header = [f.name for f in fields(cls)]
    types = typing.get_type_hints(cls)
    parsers = [_cell_parser(types[name]) for name in header]
    rows = _read_rows(path)
    if not rows or rows[0][1] != header:
        _fail(path, rows[0][0] if rows else 1, f"expected {kind} header {','.join(header)!r}")
    out = []
    for line, row in rows[1:]:
        if len(row) != len(header):
            _fail(path, line, f"expected {len(header)} columns, got {len(row)}")
        try:
            out.append(cls(*(parse(text) for parse, text in zip(parsers, row))))
        except ValueError as exc:
            _fail(path, line, str(exc))
    return out


def write_records_csv(records, path) -> None:
    """One row per study record; floats exact, absent fields empty."""
    _write_csv(path, StudyRecord, records)


def read_records_csv(path) -> list[StudyRecord]:
    return _read_csv(path, StudyRecord, "record")


def write_summary_csv(rows, path) -> None:
    _write_csv(path, SummaryRow, rows)


def read_summary_csv(path) -> list[SummaryRow]:
    return _read_csv(path, SummaryRow, "summary")


def write_ece_csv(rows, path) -> None:
    _write_csv(path, EceRow, rows)
