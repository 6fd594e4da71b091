"""The one writer of output files: CSV tables and strict, canonical JSON."""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import NumericError


# Rows assembled per `write` call: bounded, so that the bytes of a whole
# file are never held at once.
_CHUNK_ROWS = 4096
_SPECIAL = ',"\r\n'
# Pads each spelled cell to its column's width and is dropped before a
# chunk is written. It never occurs in UTF-8, so every cell keeps its bytes.
_PAD = b"\xff"


def write_csv(path, header, columns) -> None:
    """Write equal-length `columns` as rows, after `header` unless it is None.

    A column is an array, a list, or a pair `(values, index)` that stands
    for `values[index]`, so a caller with few distinct cells spells only
    those. A 2-D integer array is a column of texts, one per row, padded
    with -1 after the last id: each cell is the row's ids joined by `-`.
    Every float cell is `repr` of a Python float, so files round-trip
    exactly. Quoting and `\r\n` endings are those of `csv.writer`'s default
    dialect, which the tests hold this writer to.

    Each column is spelled once, as a table of its distinct cells in padded
    UTF-8 rows; a chunk of rows is then assembled from those tables as one
    byte matrix.
    """
    width = len(columns)
    spelled = [_spell(c, width) for c in columns]
    rows = min((size for _, _, size in spelled), default=0)
    # The bytes of a field and the `,` (or, last in its row, `\r\n`) after it.
    stops = np.cumsum([table.shape[1] + 1 for table, _, _ in spelled])
    with open(path, "w", newline="") as fh:
        if header is not None:
            cells = _quoted([_text(v) for v in header], len(header))
            fh.write(",".join(cells) + "\r\n")
        for start in range(0, rows, _CHUNK_ROWS):
            chunk = slice(start, min(start + _CHUNK_ROWS, rows))
            out = np.empty((chunk.stop - start, stops[-1] + 1), np.uint8)
            for (table, cells_of, _), end in zip(spelled, stops):
                out[:, end - 1 - table.shape[1]:end - 1] = table.take(
                    cells_of(chunk), axis=0)
                out[:, end - 1] = ord(",")
            out[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
            fh.write(out.tobytes().translate(None, _PAD).decode())


def _spell(column, width: int):
    """`column` as (table, cells_of, size) in rows of `width` fields.

    `table` holds each distinct cell once, UTF-8 padded with `_PAD`; the
    cells of the rows `at` (a slice or an index array) are the rows
    `cells_of(at)` of `table`, and `size` is the column's length. An array
    column gets its table indices a chunk at a time, so that no index
    array of the column's length is made.

    A float is `repr` of a Python float: under numpy 2, `repr` of a numpy
    scalar is `np.float64(...)`. Floats are told apart by their bits, which
    keeps -0.0 apart from 0.0.
    """
    if isinstance(column, tuple):
        values, index = column
        index = np.asarray(index, dtype=np.intp)
        table, cells_of, _ = _spell(values, width)
        return table, lambda at: cells_of(index[at]), len(index)
    if isinstance(column, np.ndarray) and column.dtype != object:
        if column.ndim == 2:
            rows = np.arange(len(column))
            return _id_table(column, width), rows.__getitem__, len(column)
        if column.dtype.kind == "f":
            column = np.ascontiguousarray(column, dtype=float).view(np.int64)
            distinct = np.unique(column)
            text = [repr(v) for v in distinct.view(float).tolist()]
        else:
            distinct = np.unique(column)
            text = [str(v) for v in distinct.tolist()]
        return (_table(_quoted(text, width)),
                lambda at: np.searchsorted(distinct, column[at]), len(column))
    number = {}
    index = np.array([number.setdefault(_text(v), len(number)) for v in column],
                     dtype=np.intp)
    return _table(_quoted(list(number), width)), index.__getitem__, len(index)


def _table(cells) -> np.ndarray:
    """Text cells as a (cells, widest) uint8 array of padded UTF-8 rows."""
    data = [c.encode() for c in cells]
    widest = max(map(len, data), default=0)
    flat = b"".join(d.ljust(widest, _PAD) for d in data)
    return np.frombuffer(flat, np.uint8).reshape(len(data), widest)


def _id_table(texts: np.ndarray, width: int) -> np.ndarray:
    """An (n, L) id matrix padded with -1 as padded UTF-8 rows, one per text.

    Each id is spelled once. A text's first id is gathered from those
    spellings, and each later id from the same spellings behind a `-`; a -1
    gathers only `_PAD` bytes, except that a text of no ids in a one-field
    row is `""`, as `csv.writer` spells it.
    """
    names = _table(_quoted([str(t) for t in range(texts.max(initial=-1) + 1)]
                           + [""], width))
    dashed = np.insert(names, 0, ord("-"), axis=1)
    dashed[-1] = _PAD[0]
    n, length = texts.shape
    later = dashed[texts[:, 1:]].reshape(n, (length - 1) * dashed.shape[1])
    return np.concatenate([names[texts[:, 0]], later], axis=1)


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


def to_jsonable(obj, key: str = ""):
    """`obj` with str dict keys, lists for sequences and no numpy types; a
    NaN or an infinity is a `NumericError` naming its key path below `key`,
    as in `models/ar/perplexity is inf`."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v, f"{key}/{k}") for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v, f"{key}/{i}") for i, v in enumerate(obj)]
    obj = obj.item() if isinstance(obj, np.generic) else obj
    if isinstance(obj, float) and not math.isfinite(obj):
        raise NumericError(f"{key.lstrip('/')} is {obj}")
    return obj


def write_json(path, obj) -> None:
    """Write `obj` as strict JSON: sorted keys, indent 2, one newline.

    A NaN or an infinity, which strict JSON cannot spell, is a
    `NumericError` naming the file and the key; the file is not written.
    """
    try:
        text = json.dumps(to_jsonable(obj), sort_keys=True, indent=2,
                          allow_nan=False)
    except (NumericError, ValueError) as exc:
        raise NumericError(f"{os.path.basename(path)}: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")
