"""The one writer of output files: CSV tables and strict, canonical JSON."""

from __future__ import annotations

import csv
import json

import numpy as np

from .errors import NumericError


def write_csv(path, header, columns) -> None:
    """Write equal-length `columns` as rows, after `header` unless it is None.

    Every float cell is `repr` of a Python float, so files round-trip
    exactly; a float array is formatted once per distinct bit pattern, which
    keeps -0.0 apart from 0.0. Quoting and `\r\n` endings are `csv.writer`'s.
    """
    rows = zip(*[_cells(c) for c in columns])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(rows)


def _cells(column) -> list:
    # `.tolist()` yields Python scalars: under numpy 2, `repr` of a numpy
    # scalar is `np.float64(...)`.
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        bits = np.ascontiguousarray(column, dtype=float).view(np.int64)
        distinct, back = np.unique(bits, return_inverse=True)
        text = [repr(v) for v in distinct.view(float).tolist()]
        return np.array(text, dtype=object)[back].tolist()
    if isinstance(column, np.ndarray) and column.dtype != object:
        return column.tolist()
    return [repr(float(v)) if isinstance(v, (float, np.floating)) else v
            for v in column]


def to_jsonable(obj):
    """`obj` with str dict keys, lists for sequences and no numpy types."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj.item() if isinstance(obj, np.generic) else obj


def write_json(path, obj) -> None:
    """Write `obj` as strict JSON: sorted keys, indent 2, one newline.

    A NaN or an infinity is a `NumericError` naming the file, which is then
    not written: strict JSON has no spelling for either.
    """
    try:
        text = json.dumps(to_jsonable(obj), sort_keys=True, indent=2,
                          allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{path}: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")
