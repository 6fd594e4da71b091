"""The one output writer against `csv.writer` and strict JSON."""

import csv
import json

import numpy as np
import pytest

from cospec.errors import NumericError
from cospec.output import write_csv, write_json
from cospec.spectral import singular_spectrum


def reference_csv(path, header, columns):
    """`csv.writer` over rows whose float cells are `repr(float(v))`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([
                repr(float(v)) if isinstance(v, (float, np.floating)) else v
                for v in row
            ])


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


def test_spectrum_csv_format(tmp_path):
    path = tmp_path / "spectrum.csv"
    sigma = singular_spectrum(np.diag([2.0, 1.0])).values
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
    with pytest.raises(NumericError, match="report.json"):
        write_json(path, {"models": {"ar": {"perplexity": bad}}})
    assert not path.exists()
