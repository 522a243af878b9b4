"""File formats: flat key-value configs, measurement tables, series output.

Config files are ``key = value`` lines with ``#`` comments; keys are the
``PhysicalParams`` field names (units documented there).

Measurement tables are UTF-8 CSV with a header row; lines starting with
``#`` are metadata of the form ``# key: value`` and are ignored by the
reader except for documented keys (histograms carry their detuning there).
Expected columns:

* transmission: ``detuning_uev, transmission, uncertainty``
* g2zero:       ``detuning_uev, g2zero, uncertainty``
* g2_histogram: ``tau_ps, counts[, uncertainty]`` plus ``# detuning_uev: X``;
  counts on any scale; without uncertainties they are taken as Poisson

Series output (CSV or JSON) round-trips floats exactly (repr formatting)
and carries a metadata block; no timestamps unless explicitly requested.
It is formatted a column at a time, one repr per float, and written with
one call per file; the bytes are those of formatting it cell by cell.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fitting import G2Histogram, MeasurementSet
from .params import PhysicalParams


class DataFormatError(Exception):
    """Structured parse failure with file/line context."""

    def __init__(self, message, path=None, line=None):
        self.path = str(path) if path is not None else None
        self.line = line
        where = f"{self.path}:{line}: " if path is not None and line else \
            (f"{self.path}: " if path is not None else "")
        super().__init__(f"{where}{message}")


def read_config(path) -> dict:
    """Parse a flat key-value config file into a dict of floats. A key set
    twice raises, naming both lines, rather than keeping one value silently."""
    out, lines = {}, {}
    path = Path(path)
    if not path.exists():
        raise DataFormatError("config file not found", path)
    for ln, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"expected 'key = value', got {line!r}", path, ln)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in lines:
            raise DataFormatError(f"key {key!r} repeats the one on line {lines[key]}",
                                  path, ln)
        lines[key] = ln
        try:
            out[key] = float(value.strip())
        except ValueError as err:
            raise DataFormatError(f"non-numeric value for {key!r}: {value.strip()!r}",
                                  path, ln) from err
    return out


def params_from_config(path=None, overrides=None) -> PhysicalParams:
    """Physical parameters from an optional config file plus overrides."""
    mapping = read_config(path) if path is not None else {}
    if overrides:
        mapping.update(overrides)
    try:
        return PhysicalParams.from_mapping(mapping)
    except (ValueError, TypeError) as err:
        raise DataFormatError(str(err), path) from err


@dataclass(frozen=True)
class LoadReport:
    """Loader outcome: parsed data plus per-row diagnostics."""

    data: MeasurementSet
    rejected: tuple      # (line_number, reason) pairs


_KIND_COLUMNS = {
    "transmission": ("detuning_uev", "transmission", "uncertainty"),
    "g2zero": ("detuning_uev", "g2zero", "uncertainty"),
    "g2_histogram": ("tau_ps", "counts"),
}


def _read_table(path):
    path = Path(path)
    if not path.exists():
        raise DataFormatError("file not found", path)
    metadata = {}
    header = None
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if ":" in body:
                    k, _, v = body.partition(":")
                    metadata[k.strip()] = v.strip()
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = [c.strip() for c in cells]
                continue
            rows.append((ln, [c.strip() for c in cells]))
    if header is None:
        raise DataFormatError("empty file (no header row)", path)
    return header, rows, metadata


def load_measurements(path, kind) -> LoadReport:
    """Load one measurement table into a MeasurementSet.

    Malformed data rows are skipped and reported in ``rejected``; missing
    columns, an empty file or values that the measurement types refuse (an
    uncertainty that is not positive, a negative count) raise
    :class:`DataFormatError`.
    """
    if kind not in _KIND_COLUMNS:
        raise ValueError(f"unknown measurement kind {kind!r}")
    header, rows, metadata = _read_table(path)
    wanted = _KIND_COLUMNS[kind]
    try:
        idx = [header.index(c) for c in wanted]
    except ValueError:
        raise DataFormatError(
            f"missing columns: need {list(wanted)}, found {header}", path)
    # histograms may carry an optional third column
    if kind == "g2_histogram" and "uncertainty" in header:
        idx = idx + [header.index("uncertainty")]

    parsed = []
    rejected = []
    for ln, cells in rows:
        if len(cells) < len(header):
            rejected.append((ln, "too few columns"))
            continue
        try:
            vals = [float(cells[i]) for i in idx]
        except ValueError:
            rejected.append((ln, "non-numeric cell"))
            continue
        if not all(np.isfinite(v) for v in vals):
            rejected.append((ln, "non-finite value"))
            continue
        parsed.append(vals)
    if not parsed:
        raise DataFormatError("no usable data rows", path)
    arr = np.asarray(parsed, dtype=float)

    if kind == "g2_histogram" and "detuning_uev" not in metadata:
        raise DataFormatError(
            "histogram file needs a '# detuning_uev: X' metadata line", path)
    try:
        if kind != "g2_histogram":
            data = MeasurementSet(**{kind: arr})
        else:
            unc = arr[:, 2] if arr.shape[1] > 2 else None
            hist = G2Histogram(detuning=float(metadata["detuning_uev"]),
                               tau_ps=arr[:, 0], counts=arr[:, 1], uncertainty=unc)
            data = MeasurementSet(g2_histograms=(hist,))
    except ValueError as err:
        raise DataFormatError(str(err), path) from err
    return LoadReport(data=data, rejected=tuple(rejected))


def merge_measurements(*sets: MeasurementSet) -> MeasurementSet:
    """Combine several partial MeasurementSets into one."""
    trans = [s.transmission for s in sets if s.transmission.shape[0]]
    g2z = [s.g2zero for s in sets if s.g2zero.shape[0]]
    hists = tuple(h for s in sets for h in s.g2_histograms)
    return MeasurementSet(
        transmission=np.vstack(trans) if trans else np.empty((0, 3)),
        g2zero=np.vstack(g2z) if g2z else np.empty((0, 3)),
        g2_histograms=hists)


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _strict(v):
    # strict JSON has no NaN or infinity: such a float becomes CSV's token
    return _fmt(v) if isinstance(v, float) and not math.isfinite(v) else v


# a non-finite float's repr as strict JSON writes it: CSV's token, quoted
_QUOTED = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}


def _column(cells, fmt):
    """The text of each cell of one column. A column of floats is converted
    once and each value's repr taken; any other column is formatted cell by
    cell in CSV. In JSON its numbers are written as floats, as a column of
    floats writes them, and the rest as strings, each distinct string
    encoded once."""
    kinds = set(map(type, cells))
    if all(issubclass(t, (float, np.floating)) for t in kinds):
        text = list(map(repr, np.asarray(cells, dtype=float).tolist()))
        return text if fmt == "csv" else [_QUOTED.get(t, t) for t in text]
    if fmt == "csv":
        return list(map(_fmt, cells))
    numbers = {t for t in kinds if issubclass(t, (float, np.floating, int, np.integer))}
    floats = iter(_column([float(v) for v in cells if type(v) in numbers], fmt))
    encoded = {s: json.dumps(s) for s in {str(v) for v in cells if type(v) not in numbers}}
    return [next(floats) if type(v) in numbers else encoded[str(v)] for v in cells]


def _json_rows(cells):
    """The array of rows of encoded ``cells`` as ``json.dump`` writes it
    with ``indent=1``, as the value of a top-level key."""
    if not cells:
        return "[]"
    if not cells[0]:        # rows of no columns
        return "[\n  " + ",\n  ".join(["[]"] * len(cells)) + "\n ]"
    return ("[\n  [\n   " + "\n  ],\n  [\n   ".join(map(",\n   ".join, cells))
            + "\n  ]\n ]")


def write_series(columns, rows, path, fmt="csv", metadata=None):
    """Write a columnar series with a metadata block.

    ``rows`` is an iterable of tuples matching ``columns``. CSV output puts
    the metadata in leading ``# key: value`` lines; JSON output nests it and
    is strict JSON, with each non-finite float written as the string CSV
    writes for it (``"inf"``, ``"-inf"`` or ``"nan"``). Floats are written
    in full round-trip precision. Output is deterministic for identical
    inputs (metadata keys sorted, no timestamps).

    The cells are formatted a column at a time, a column of floats with one
    conversion and one repr per value, and the whole text is written at
    once; the bytes are those of formatting cell by cell and of
    ``json.dump(doc, fh, indent=1, sort_keys=True)``. A row of the wrong
    width or an unknown ``fmt`` raises ``ValueError`` before any file is
    opened; a file that cannot be written raises :class:`DataFormatError`.
    """
    path = Path(path)
    rows = list(map(tuple, rows))
    if any(len(r) != len(columns) for r in rows):
        raise ValueError("row width does not match columns")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    meta = dict(metadata or {})
    cols = [_column(c, fmt) for c in zip(*rows)]
    cells = list(zip(*cols)) if cols else [()] * len(rows)
    if fmt == "csv":
        lines = [f"# {k}: {meta[k]}" for k in sorted(meta)]
        lines.append(",".join(columns))
        lines += map(",".join, cells)
        text = "\n".join(lines) + "\n"
    else:
        # everything but the rows, whose key sorts last, then the rows
        head = json.dumps({"metadata": {k: _strict(meta[k]) for k in sorted(meta)},
                           "columns": list(columns), "rows": []},
                          indent=1, sort_keys=True, allow_nan=False)
        text = head[:-len("[]\n}")] + _json_rows(cells) + "\n}\n"
    try:
        with open(path, "w", newline="" if fmt == "csv" else None,
                  encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise DataFormatError(f"cannot write series: {err}", path) from err
