"""The one output writer against `csv.writer` and strict JSON."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cospec.cooccurrence import write_joint_csv, write_matrix_csv
from cospec.errors import NumericError
from cospec.objectives import exact_joint, parse_objective
from cospec.output import to_jsonable, write_csv, write_json
from cospec.spectral import singular_spectrum
from cospec.toy_model import ToyParams


def reference_csv(path, header, columns):
    """`csv.writer` over rows whose float cells are `repr(float(v))`.

    A column `(values, index)` is `values[index]`, and a 2-D array column
    is its rows' ids joined by `-`, -1 pads dropped.
    """
    columns = [_indexed(*c) if isinstance(c, tuple) else _keys(c)
               for c in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([
                repr(float(v)) if isinstance(v, (float, np.floating)) else v
                for v in row
            ])


def _indexed(values, index):
    if isinstance(values, tuple):
        values = _indexed(*values)
    values = _keys(values)
    return [values[i] for i in index]


def _keys(column):
    if isinstance(column, np.ndarray) and column.ndim == 2:
        return ["-".join(str(t) for t in text if t >= 0)
                for text in column.tolist()]
    return column


CASES = {
    "mixed": (["name", "count", "value", "any"], [
        ["a", "b,c", 'say "hi"', np.str_("d"), "line\nbreak"],
        np.array([3, -1, 0, 7, 2]),
        np.array([0.1, -0.0, 0.0, 1e300, 0.1]),
        [np.float64(0.25), 1.5, np.int64(3), np.float32(0.1), 2],
    ]),
    "no_header": (None, [
        np.array([1 / 3, 2.5, 1 / 3]), np.array([-0.0, 5e-324, np.pi]),
    ]),
    "zero_rows": (["a", "b"], [np.array([]), []]),
    "strided": (["x"], [np.arange(12.0).reshape(3, 4)[:, 1] / 7]),
    "empty_text": ([""], [["", ""]]),
    # texts of ids padded with -1, one with no ids at all
    "id_texts": (["key", "n"], [
        np.array([[3, 12, -1], [10, -1, -1], [0, 1, 2], [-1, -1, -1]]),
        np.arange(4),
    ]),
    "one_field_id_texts": (["key"], [np.array([[7, 100], [-1, -1], [5, -1]])]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_write_csv_matches_csv_writer(name, tmp_path):
    header, columns = CASES[name]
    write_csv(tmp_path / "got.csv", header, columns)
    reference_csv(tmp_path / "want.csv", header, columns)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    if name == "zero_rows":
        assert got == b"a,b\r\n"
    if name == "mixed":
        assert b'"b,c"' in got and b'"say ""hi"""' in got
        assert b"-0.0" in got and b"np." not in got
    if name == "empty_text":
        assert got == b'""\r\n""\r\n""\r\n'


_TEXT = st.text(max_size=5) | st.text(alphabet=',"\r\nab ', max_size=6)
# Text for `U` arrays, which drop trailing NULs but keep inner ones.
_UTEXT = _TEXT | st.text(alphabet='\x00a"é€😀,\n', max_size=4)
_FLOAT = st.floats() | st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.5e-310, np.inf, -np.inf, np.nan])
_INT64 = st.integers(-(2**63), 2**63 - 1)
_CELL = st.one_of(
    _TEXT, st.integers(), st.booleans(), _FLOAT, _FLOAT.map(np.float64),
    st.floats(width=32).map(np.float32), _INT64.map(np.int64),
    st.booleans().map(np.bool_),
)


@st.composite
def _column(draw, rows):
    """One column of `rows` cells: a list or an array of one of five kinds,
    a `U` text array, or a pair `(values, index)` over such a column."""
    kind = draw(st.sampled_from(
        ["list", "object", "float", "int", "bool", "text", "pair"]))
    if kind == "pair":
        size = draw(st.integers(1 if rows else 0, 6))
        values = draw(_column(size))
        index = draw(st.lists(st.integers(0, max(size - 1, 0)), min_size=rows,
                              max_size=rows))
        return values, draw(st.sampled_from([index, np.array(index, int)]))
    if kind == "text":
        return np.array(draw(st.lists(_UTEXT, min_size=rows, max_size=rows)),
                        dtype=str)
    cell = {"float": _FLOAT, "int": _INT64, "bool": st.booleans()}
    values = draw(st.lists(cell.get(kind, _CELL), min_size=rows,
                           max_size=rows))
    dtype = {"list": None, "object": object, "float": float,
             "int": np.int64, "bool": bool}[kind]
    return values if dtype is None else np.array(values, dtype)


@st.composite
def _tables(draw):
    """(header, columns): 0-20 rows of 1-4 columns."""
    rows, width = draw(st.integers(0, 20)), draw(st.integers(1, 4))
    columns = [draw(_column(rows)) for _ in range(width)]
    header = draw(st.none() | st.lists(_TEXT, min_size=width, max_size=width))
    return header, columns


@given(table=_tables())
@settings(max_examples=300, deadline=None)
def test_write_csv_matches_csv_writer_on_any_table(table, tmp_path_factory):
    header, columns = table
    out = tmp_path_factory.mktemp("csv")
    write_csv(out / "got.csv", header, columns)
    reference_csv(out / "want.csv", header, columns)
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


def test_write_csv_matches_csv_writer_across_chunks(tmp_path):
    # Three full chunks of rows and part of a fourth, whose cells repeat
    # across chunks, with text and float columns given as (values, index).
    rows = 3 * 4096 + 7
    rng = np.random.default_rng(5)
    words = np.array(["a", 'b"c', "d,e", "é", "x\x00y", "", "line\nbreak"])
    floats = np.array([0.1, -0.0, 0.0, 1 / 3, 5e-324, -1e300, np.pi])
    columns = [
        (words, rng.integers(0, len(words), rows)),
        floats[rng.integers(0, len(floats), rows)],
        (list(floats), rng.integers(0, len(floats), rows)),
        np.arange(rows) % 97 - 40,
        words[rng.integers(0, len(words), rows)],
        [["p", "q,r"][k % 2] for k in range(rows)],
    ]
    write_csv(tmp_path / "got.csv", ["w", "f", "g", "i", "u", "l"], columns)
    reference_csv(tmp_path / "want.csv", ["w", "f", "g", "i", "u", "l"],
                  columns)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.count(b"\r\n") > rows


@pytest.mark.parametrize("label, params", [
    ("masked:0.5", ToyParams(2, 6, 4)), ("vlm:0.5-0.75", ToyParams(2, 8, 2)),
])
def test_triplet_files_match_csv_writer(label, params, tmp_path):
    joint = exact_joint(parse_objective(label), params)
    keys = ["-".join(str(t) for t in text if t >= 0)
            for text in joint.tokens.tolist()]
    for write, table in ((write_joint_csv, joint.dense()),
                         (write_matrix_csv, joint.normalized)):
        rows, targets = np.nonzero(table)
        write(joint, tmp_path / "got.csv")
        reference_csv(tmp_path / "want.csv", ["row_key", "col_token", "value"],
                      [[keys[r] for r in rows],
                       [joint.cols[c] for c in targets],
                       table[rows, targets]])
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()


def test_spectrum_csv_format(tmp_path):
    path = tmp_path / "spectrum.csv"
    sigma = singular_spectrum(np.diag([2.0, 1.0]))
    write_csv(path, ["rank", "sigma"], [[1, 2], sigma])
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == ["rank", "sigma"]
    assert lines[1] == ["1", "2.0"]
    assert lines[2] == ["2", "1.0"]


def test_write_json_is_canonical(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"b": np.float64(1.5), "a": np.arange(2), 3: None})
    assert path.read_text() == (
        '{\n  "3": null,\n  "a": [\n    0,\n    1\n  ],\n  "b": 1.5\n}\n'
    )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf])
def test_write_json_rejects_non_finite_numbers(bad, tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(NumericError,
                       match=r"report\.json: models/ar/perplexity is "):
        write_json(path, {"models": {"ar": {"perplexity": bad}}})
    assert not path.exists()


def test_json_refusal_names_the_index_in_a_sequence():
    spectra = {"ar": np.array([1.0, 0.5, np.inf]), "dar:2": (2.0, np.nan)}
    with pytest.raises(NumericError, match=r"^spectra/ar/2 is inf$"):
        to_jsonable({"spectra": spectra})
