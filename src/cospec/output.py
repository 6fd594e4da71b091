"""The one writer of output files: CSV tables and strict, canonical JSON."""

from __future__ import annotations

import json

import numpy as np

from .errors import NumericError


# Rows formatted and joined per `write` call: bounded, so that neither the
# cells of a whole column nor a whole file are held at once.
_CHUNK_ROWS = 4096
_SPECIAL = ',"\r\n'


def write_csv(path, header, columns) -> None:
    """Write equal-length `columns` (arrays or lists) as rows, after `header`
    unless it is None.

    Every float cell is `repr` of a Python float, so files round-trip
    exactly. Quoting and `\r\n` endings are those of `csv.writer`'s default
    dialect, which the tests hold this writer to.
    """
    rows = min(map(len, columns), default=0)
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(",".join(_cells(header, len(header))) + "\r\n")
        for start in range(0, rows, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, rows)
            fh.write(_rows_text(
                [_cells(c[start:stop], len(columns)) for c in columns]
            ))


def _rows_text(chunk) -> str:
    """The rows of equal-length column slices, each row ending in `\r\n`."""
    width, rows = 2 * len(chunk), len(chunk[0])
    # Row-major cells, each followed by "," or, last in its row, by "\r\n".
    flat = [","] * (width * rows)
    for k, column in enumerate(chunk):
        flat[2 * k::width] = column
    flat[width - 1::width] = ["\r\n"] * rows
    return "".join(flat)


def _cells(column, width: int):
    """`column` as a sequence of quoted text cells in rows of `width` fields.

    An array is spelled once per distinct value, into an object array. A
    float is `repr` of a Python float: under numpy 2, `repr` of a numpy
    scalar is `np.float64(...)`. Floats are told apart by their bits, which
    keeps -0.0 apart from 0.0.
    """
    if isinstance(column, np.ndarray) and column.dtype != object:
        if column.dtype.kind == "f":
            bits = np.ascontiguousarray(column, dtype=float).view(np.int64)
            distinct, back = np.unique(bits, return_inverse=True)
            text = [repr(v) for v in distinct.view(float).tolist()]
        else:
            distinct, back = np.unique(column, return_inverse=True)
            text = [str(v) for v in distinct.tolist()]
        return np.array(_quoted(text, width), dtype=object)[back]
    if not isinstance(column, np.ndarray):
        column = list(column)
    if not set(map(type, column)) <= {str}:
        column = [_text(v) for v in column]
    return _quoted(column, width)


def _text(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return "" if v is None else str(v)


def _quoted(cells, width: int):
    """`cells` as `csv.writer` spells them in rows of `width` fields.

    A cell holding a delimiter, a quote or a line break is quoted, with its
    quotes doubled; one scan of all the cells finds whether any does. A
    row whose one field is empty is written `""`, so that it is not read
    back as a row of no fields.
    """
    joined = "".join(cells)
    if any(ch in joined for ch in _SPECIAL):
        cells = ['"' + c.replace('"', '""') + '"'
                 if any(ch in c for ch in _SPECIAL) else c for c in cells]
    if width == 1 and "" in cells:
        cells = ['""' if c == "" else c for c in cells]
    return cells


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
