"""File formats: flat key-value configs, measurement tables, series output.

Config files are ``key = value`` lines with ``#`` comments; keys are the
``PhysicalParams`` field names (units documented there).

Measurement tables are UTF-8 CSV with a header row; lines starting with
``#`` are metadata of the form ``# key: value`` and are ignored by the
reader except for documented keys (histograms carry their detuning there).
Expected columns:

* transmission: ``detuning_uev, transmission, uncertainty``
* g2zero:       ``detuning_uev, g2zero, uncertainty``
* g2_histogram: ``tau_ps, counts[, uncertainty]`` plus ``# detuning_uev: X``

Series output (CSV or JSON) round-trips floats exactly (repr formatting)
and carries a metadata block; no timestamps unless explicitly requested.
"""

from __future__ import annotations

import csv
import json
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
    """Parse a flat key-value config file into a dict of floats."""
    out = {}
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
    columns or an empty file raise :class:`DataFormatError`.
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

    if kind == "transmission":
        data = MeasurementSet(transmission=arr)
    elif kind == "g2zero":
        data = MeasurementSet(g2zero=arr)
    else:
        if "detuning_uev" not in metadata:
            raise DataFormatError(
                "histogram file needs a '# detuning_uev: X' metadata line", path)
        unc = arr[:, 2] if arr.shape[1] > 2 else None
        hist = G2Histogram(detuning=float(metadata["detuning_uev"]),
                           tau_ps=arr[:, 0], counts=arr[:, 1], uncertainty=unc)
        data = MeasurementSet(g2_histograms=(hist,))
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


def write_series(columns, rows, path, fmt="csv", metadata=None):
    """Write a columnar series with a metadata block.

    ``rows`` is an iterable of tuples matching ``columns``. CSV output puts
    the metadata in leading ``# key: value`` lines; JSON output nests it.
    Floats are written in full round-trip precision. Output is deterministic
    for identical inputs (metadata keys sorted, no timestamps).
    """
    path = Path(path)
    rows = [tuple(r) for r in rows]
    for r in rows:
        if len(r) != len(columns):
            raise ValueError("row width does not match columns")
    meta = dict(metadata or {})
    try:
        if fmt == "csv":
            with open(path, "w", newline="", encoding="utf-8") as fh:
                for k in sorted(meta):
                    fh.write(f"# {k}: {meta[k]}\n")
                fh.write(",".join(columns) + "\n")
                for r in rows:
                    fh.write(",".join(_fmt(v) for v in r) + "\n")
        elif fmt == "json":
            doc = {
                "metadata": {k: meta[k] for k in sorted(meta)},
                "columns": list(columns),
                "rows": [[(float(v) if isinstance(v, (float, np.floating, int,
                                                      np.integer)) else str(v))
                          for v in r] for r in rows],
            }
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as err:
        raise DataFormatError(f"cannot write series: {err}", path) from err
