"""The one writer of output files: CSV tables and strict, canonical JSON."""

from __future__ import annotations

import json

import numpy as np

from .errors import NumericError


# Rows assembled per `write` call: bounded, so that the bytes of a whole
# file are never held at once.
_CHUNK_ROWS = 4096
_SPECIAL = ',"\r\n'
_SPECIAL_CODES = [ord(ch) for ch in _SPECIAL]
# Pads each spelled cell to its column's width and is dropped before a
# chunk is written. It never occurs in UTF-8, so every cell keeps its bytes.
_PAD = b"\xff"


def write_csv(path, header, columns) -> None:
    """Write equal-length `columns` as rows, after `header` unless it is None.

    A column is an array, a list, or a pair `(values, index)` that stands
    for `values[index]`, so a caller with few distinct cells spells only
    those. Every float cell is `repr` of a Python float, so files round-trip
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
    keeps -0.0 apart from 0.0. A text array is spelled in numpy, row by row.
    """
    if isinstance(column, tuple):
        values, index = column
        index = np.asarray(index, dtype=np.intp)
        table, cells_of, _ = _spell(values, width)
        return table, lambda at: cells_of(index[at]), len(index)
    if isinstance(column, np.ndarray) and column.dtype != object:
        if column.dtype.kind == "U":
            rows = np.arange(len(column))
            return _text_table(column, width), rows.__getitem__, len(column)
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


def _text_table(text: np.ndarray, width: int) -> np.ndarray:
    """A `U` array as padded UTF-8 rows, one per element.

    An element that is ASCII and needs no quotes is its own code points,
    padded with U+00FF, whose low byte is `_PAD`. Only the other elements
    are spelled one at a time, by `_quoted`. Trailing NULs are padding in a
    `U` array, so they are not part of an element.
    """
    if not len(text):  # `np.char.ljust` cannot take an empty array
        return np.empty((0, 0), np.uint8)
    length = np.char.str_len(text)
    points = np.ascontiguousarray(text).view(np.uint32).reshape(len(text), -1)
    odd = (points > 127) | np.isin(points, _SPECIAL_CODES, kind="table")
    other = odd.any(axis=1) | ((length == 0) & (width == 1))
    spelled = _table(_quoted(text[other].tolist(), width))
    widest = max(int(length.max()), spelled.shape[1])
    codes = np.char.ljust(text, widest, chr(_PAD[0])).view(np.uint32)
    table = codes.reshape(len(text), -1)[:, :widest].astype(np.uint8)
    table[other] = _PAD[0]
    table[other, :spelled.shape[1]] = spelled
    return table


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
