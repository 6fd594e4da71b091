"""Exit codes and console output of the `cospec` entry point."""

import contextlib
import io
import json
import math
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import time
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import cospec
from cospec import experiments
from cospec.cli import main
from cospec.errors import ResourceError
from cospec.experiments import EXPERIMENTS, load_config


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_list_prints_sorted_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == sorted(EXPERIMENTS)
    assert "genbound" in out


def test_run_writes_report_and_announces_it(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "experiment": "spectrum",
        "params": {"r": 2, "s": 3, "T": 2},
        "objectives": ["ar"],
    })
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == 0
    assert f"wrote {out_dir}/report.json" in capsys.readouterr().out
    report = json.loads((out_dir / "report.json").read_text())
    assert report["experiment"] == "spectrum"
    # no staging directory is left beside the output
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "out"]


def test_a_run_into_an_existing_directory_adds_only_its_files(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    (out / "report.json").write_text("old")
    cfg = write_cfg(tmp_path, {
        "experiment": "spectrum",
        "params": {"r": 1, "s": 3, "T": 2},
        "objectives": ["ar"],
    })
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == [
        "connectivity.csv", "joint_ar.csv", "normalized_ar.csv", "notes.txt",
        "report.json", "spectrum.csv"]
    assert (out / "notes.txt").read_text() == "kept"
    assert json.loads((out / "report.json").read_text())["experiment"] \
        == "spectrum"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "o"]


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, {
        "experiment": "identity",
        "params": {"r": 1, "s": 3, "T": 2},
        "objectives": ["ar"],
        "trials": 5,
        "seed": 1,
    })
    main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["run", "--config", cfg, "--out", str(tmp_path / "b"),
          "--seed", "2"])
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a != b


def test_inadmissible_mask_ratio_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "experiment": "genbound",
        "params": {"r": 1, "s": 4, "T": 2},
        "objectives": ["masked:0.5"],
        "rho_m": 0.3,
    })
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "rho_m" in err


def test_unknown_field_is_a_config_error(tmp_path, capsys):
    for name in ("plot", "lr"):
        cfg = write_cfg(tmp_path, {
            "experiment": "spectrum",
            "params": {"r": 1, "s": 3, "T": 2},
            name: True,
        })
        out = str(tmp_path / "o")
        assert main(["run", "--config", cfg, "--out", out]) == 2
        assert f"unknown fields ['{name}']" in capsys.readouterr().err


# Every mistyped field, a number where a string belongs too, every count
# below 1, bools and fractions where an int belongs, out-of-range floats,
# and a repeated objective.
@pytest.mark.parametrize("fields, name", [
    ({"experiment": "identity", "trials": "abc"}, "trials"),
    ({"experiment": "sweep", "seeds": "two"}, "seeds"),
    ({"experiment": "genbound", "train": {"lr": "x"}}, "train.lr"),
    ({"experiment": "spectrum", "objectives": [5]}, "objectives[0]"),
    ({"experiment": "masks", "assignment": 5}, "assignment"),
    ({"experiment": "genbound", "train": {"steps": 0}}, "train.steps"),
    ({"experiment": "genbound", "train": {"dim": 0}}, "train.dim"),
    ({"experiment": "identity", "trials": -3}, "trials"),
    ({"experiment": "sweep", "seeds": 0}, "seeds"),
    ({"experiment": "spectrum", "params": {"r": 2.7, "s": 3, "T": 2}},
     "params.r"),
    ({"experiment": "spectrum", "params": {"r": True, "s": 3, "T": 2}},
     "params.r"),
    ({"experiment": "identity", "trials": True}, "trials"),
    ({"experiment": "identity", "trials": 2.9}, "trials"),
    ({"experiment": "genbound", "train": {"lr": -1}}, "train.lr"),
    ({"experiment": "genbound", "train": {"clip": 0}}, "train.clip"),
    ({"experiment": "probe", "reg": -5}, "reg"),
    ({"experiment": "spectrum", "rank": 0}, "rank"),
    ({"experiment": "factorize", "rank": -3}, "rank"),
    # an objective that parses to the spec of an earlier one, in either
    # spelling, for both runners that pair models by objective
    ({"experiment": "genbound", "objectives": ["ar", "dar:1"]},
     "objectives[1]"),
    ({"experiment": "sweep", "objectives": ["ar", "dar:1"]}, "objectives[1]"),
    ({"experiment": "genbound", "params": {"r": 1, "s": 4, "T": 2},
      "objectives": ["masked:0.5", "vlm:0.5-0.5"]}, "objectives[1]"),
    ({"experiment": "sweep", "params": {"r": 1, "s": 4, "T": 2},
      "objectives": ["vlm:0.5-0.5", "ar", "masked:0.5"]}, "objectives[2]"),
    ({"experiment": "genbound", "params": {"r": 1, "s": 4, "T": 2},
      "objectives": ["masked:0.5", "masked:0.5", "vlm:0.5-0.5", "ar",
                     "dar:1"]}, "objectives[1]"),
])
def test_non_numeric_field_is_a_config_error(tmp_path, capsys, fields, name):
    cfg = write_cfg(tmp_path, {"params": {"r": 1, "s": 3, "T": 2}, **fields})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name}: expected ")
    assert "Traceback" not in err


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--config", missing, "--out", str(tmp_path)]) == 2
    assert "config error:" in capsys.readouterr().err


def make_path(tmp_path, kind):
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    elif kind == "latin1":
        path.write_bytes(b'{"experiment": "caf\xe9"}')
    elif kind == "config":
        path.write_text(json.dumps({"experiment": "spectrum",
                                    "params": {"r": 1, "s": 3, "T": 2}}))
    elif kind == "file":
        path.write_text("")
    elif kind == "below-file":
        path.write_text("")
        path = path / "sub"
    elif kind == "broken-link":
        path.symlink_to(tmp_path / "missing")
    return str(path)


@pytest.mark.parametrize("config, out", [
    ("directory", "new"),     # --config names a directory
    ("latin1", "new"),        # --config names a file that is not UTF-8
    ("config", "file"),       # --out names an existing file
    ("config", "below-file"),  # --out lies below an existing file
    ("config", "broken-link"),  # --out is a link to nothing
])
def test_unusable_path_is_a_config_error(tmp_path, capsys, config, out):
    argv = ["run", "--config", make_path(tmp_path, config),
            "--out", make_path(tmp_path, out)]
    before = sorted(os.listdir(tmp_path))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == before


def test_oversized_corpus_exhausts_the_budget(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "experiment": "spectrum",
        "params": {"r": 3, "s": 12, "T": 3},
        "objectives": ["ar"],
    })
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err.startswith("resource budget exceeded:")


def run_child(tmp_path, payload, max_bytes=None):
    """`cospec run` on `payload` in a fresh interpreter, whose address space
    is capped at `max_bytes` if given; the finished process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(cospec.__file__).parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))

    return subprocess.run(
        [sys.executable, "-m", "cospec.cli", "run", "--config",
         write_cfg(tmp_path, payload), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=None if max_bytes is None else cap)


@pytest.mark.parametrize("payload, message", [
    # the training step overflows its gradient norm
    ({"experiment": "genbound", "params": {"r": 1, "s": 3, "T": 1},
      "objectives": ["ar"], "train": {"lr": 1e6, "clip": 1e18, "steps": 30}},
     "training diverged at step 2"),
    # training ends finite, but its perplexity overflows to an infinity
    ({"experiment": "genbound", "params": {"r": 1, "s": 3, "T": 2},
      "objectives": ["ar"], "train": {"lr": 1000, "steps": 50}},
     "report.json: models/ar/perplexity is inf"),
    # the factorization's objective overflows
    ({"experiment": "factorize", "params": {"r": 2, "s": 10, "T": 2},
      "objectives": ["masked:0.5"]},
     "factorization diverged at step 7"),
], ids=["train-step", "perplexity", "gd-step"])
def test_diverging_training_reports_numeric_failure(tmp_path, payload,
                                                    message):
    # a fresh interpreter shows the warnings a user would see on stderr
    done = run_child(tmp_path, payload)
    assert done.returncode == 3
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("numeric failure:") and message in lines[0]
    assert os.listdir(tmp_path) == ["cfg.json"]


# writes the `ar` factor files, then its GD factorization diverges on
# `masked:0.5` (exit 3)
HALF_WRITTEN = {"experiment": "factorize",
                "params": {"r": 2, "s": 10, "T": 2},
                "objectives": ["ar", "masked:0.5"]}


@pytest.mark.parametrize("out", ["o", "o/deeper/still"])
def test_a_failed_run_removes_the_directories_it_made(tmp_path, capsys, out):
    cfg = write_cfg(tmp_path, HALF_WRITTEN)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:")
    assert len(err.splitlines()) == 1
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_a_failed_run_keeps_a_directory_that_existed(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    cfg = write_cfg(tmp_path, HALF_WRITTEN)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert os.listdir(out) == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "kept"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "o"]


def test_a_failed_run_keeps_a_file_that_it_overwrote(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    (out / "factors_ar.json").write_text("kept")
    cfg = write_cfg(tmp_path, HALF_WRITTEN)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert sorted(os.listdir(out)) == ["factors_ar.json"]
    assert (out / "factors_ar.json").read_text() == "kept"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "o"]


def test_subcommand_is_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# Integers too large for numpy to size an array by, each refused at load
# before any array is made
@pytest.mark.parametrize("fields, name", [
    *(({"experiment": experiment, "params": {"r": 1, "s": 10**20, "T": 1}},
       "params") for experiment in sorted(EXPERIMENTS)),
    ({"experiment": "masks", "params": {"r": 10**20, "s": 3, "T": 1}},
     "params"),
    ({"experiment": "masks", "params": {"r": 1, "s": 3, "T": 10**20}},
     "params"),
    *(({"experiment": "genbound", "train": {"dim": dim, "steps": 1}},
       "train.dim") for dim in (10**13, 2**63 - 1, 10**20)),
    # too large for `.3g`, which reads an int as a float
    ({"experiment": "identity", "trials": 10**400}, "trials"),
])
def test_huge_integer_exhausts_the_budget(tmp_path, capsys, fields, name):
    cfg = write_cfg(tmp_path, {"params": {"r": 1, "s": 3, "T": 1},
                               "objectives": ["ar"], **fields})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"resource budget exceeded: {name}: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("experiment", ["masks", "spectrum"])
def test_a_group_width_above_the_length_runs_as_the_length(tmp_path,
                                                          experiment):
    reports = []
    for width in (10**20, 3):
        out = tmp_path / str(width)
        cfg = write_cfg(tmp_path, {
            "experiment": experiment,
            "params": {"r": 1, "s": 3, "T": 1},
            "objectives": ["ar"],
            "trials": 2,
            "assignment": f"g1=1,t={width}",
        })
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_an_int_of_too_many_digits_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"experiment": "identity", "params": {"r": 1, "s": 3, '
                    '"T": 1}, "trials": ' + "9" * 5000 + "}")
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1


# Each config asks numpy for gigabytes unless it is refused first, so each
# runs only in a child whose address space is capped at 3 GiB: a missed
# refusal then fails at its allocation, with another message.
@pytest.mark.parametrize("payload, message", [
    # 100,000 rows of 100,000 columns, 74.5 GiB
    ({"experiment": "spectrum", "params": {"r": 100000, "s": 2, "T": 1},
      "objectives": ["ar"]},
     "objectives[0]: ar: prefix joint of 100000 rows and 100000 columns "
     "needs more than 20000000 cells"),
    # two 100,000 x 100,000 masks, the first one 9.31 GiB of bools
    ({"experiment": "masks", "params": {"r": 1, "s": 100000, "T": 2}},
     "a mask over 100000 positions needs more than 20000000 cells"),
    # its entry mass 1 / (C(s, u) (s - u) T^(u + 1)) is past a float's range
    ({"experiment": "spectrum", "params": {"r": 1, "s": 100000, "T": 2},
      "objectives": ["masked:0.5"]},
     "objectives[0]: masked:0.5: unmasked joint needs more than 200000 "
     "rows"),
], ids=["joint-cells", "mask-cells", "mask-mass"])
def test_an_array_past_the_budgets_is_refused_before_it_is_made(
    tmp_path, payload, message
):
    done = run_child(tmp_path, payload, max_bytes=3 << 30)
    assert done.returncode == 4
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith(f"resource budget exceeded: {message}")
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_each_objective_is_sized_at_load(tmp_path, capsys, monkeypatch):
    # the `ar` joint at (2, 12, 2) fits, the `vlm` one not
    built = []
    monkeypatch.setattr(experiments, "exact_joint",
                        lambda spec, params: built.append(spec))
    cfg = write_cfg(tmp_path, {"experiment": "spectrum",
                               "params": {"r": 2, "s": 12, "T": 2},
                               "objectives": ["ar", "vlm:0.25-0.75"]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == (
        "resource budget exceeded: objectives[1]: vlm:0.25-0.75: unmasked "
        "joint needs more than 200000 rows, the enumeration budget; "
        "lower params r, s or T\n")
    assert built == []
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("experiment", ["genbound", "sweep"])
def test_the_ar_joint_that_scores_generation_is_sized_at_load(
    tmp_path, capsys, monkeypatch, experiment
):
    # at (1, 7, 10) the masked:5/7 joint (u = 2) has 2,100 rows, and the
    # `ar` joint that generation is scored on has 1,111,110
    built = []
    monkeypatch.setattr(experiments, "exact_joint",
                        lambda spec, params: built.append(spec))
    payload = {"experiment": experiment, "params": {"r": 1, "s": 7, "T": 10},
               "objectives": ["masked:0.7142857143"]}
    with pytest.raises(ResourceError, match="ar joint"):
        load_config(payload)
    cfg = write_cfg(tmp_path, payload)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == (
        f"resource budget exceeded: {experiment} scores generation on the ar "
        "joint: prefix joint needs more than 200000 rows, the enumeration "
        "budget; lower params r, s or T\n")
    assert built == []
    assert os.listdir(tmp_path) == ["cfg.json"]
    for other in ("spectrum", "masks"):
        load_config(dict(payload, experiment=other))


def test_masks_does_not_size_the_joints_it_never_builds(tmp_path):
    # the default `ar` joint at (1, 30, 2) would have 2^31 - 2 rows
    cfg = write_cfg(tmp_path, {"experiment": "masks",
                               "params": {"r": 1, "s": 30, "T": 2},
                               "trials": 2})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_impossible_allocation_exhausts_the_budget(
    tmp_path, capsys, monkeypatch
):
    def refused(cfg, out_dir):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setitem(EXPERIMENTS, "spectrum", refused)
    cfg = write_cfg(tmp_path, {"experiment": "spectrum",
                               "params": {"r": 1, "s": 3, "T": 1}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err == "resource budget exceeded: Unable to allocate 74.5 GiB\n"
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("fields, name", [
    ({"trials": 1e300}, "trials"),
    ({"seeds": 1e18}, "seeds"),
    ({"train": {"steps": 1e12}}, "train.steps"),
])
def test_endless_count_exhausts_the_budget(tmp_path, capsys, fields, name):
    cfg = write_cfg(tmp_path, {
        "experiment": "sweep",
        "params": {"r": 1, "s": 3, "T": 1},
        "objectives": ["ar"],
        **fields,
    })
    start = time.monotonic()
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert time.monotonic() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith(f"resource budget exceeded: {name}:")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_empty_variable_ratio_grid_is_a_config_error(tmp_path, capsys):
    # no m/4 lies in [0.3, 0.31]; the fixed ratio 0.3 is refused alike
    for text in ("vlm:0.3-0.31", "masked:0.3"):
        cfg = write_cfg(tmp_path, {
            "experiment": "masks",
            "params": {"r": 1, "s": 4, "T": 2},
            "objectives": [text],
        })
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "objectives[0]" in capsys.readouterr().err


# Fuzzing the exit contract. Numbers stay small so that a config that
# happens to be valid finishes quickly. The integers from 2^63 on, past
# what numpy sizes an array by, are refused at load, but for a group width
# above s, which is read as s.
_HUGE = st.integers(2**63, 10**400)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4)
    | st.floats(-4, 4) | st.sampled_from([math.nan, math.inf, -math.inf]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_OBJECTIVE = st.one_of(
    st.sampled_from(["ar", "dar:1", "dar:2", "masked:0.5", "masked:0.25",
                     "vlm:0.25-0.5", "vlm:0.5-0.75", " ar ", "masked:", "vlm:",
                     "vlm:0.5-0.5", "vlm:0.3-0.31", "masked:0.3333333333",
                     "vlm:0.3333333333-0.3333333333", "masked:0.6666666667",
                     "vlm:0.2499999999-0.2500000001"]),
    # a grid ratio m/s moved by rounding-sized slack, in both spellings
    st.tuples(st.integers(1, 3), st.integers(2, 4),
              st.sampled_from([0.0, 1e-10, -1e-10, 1e-8, -1e-8])).map(
        lambda c: c[0] / c[1] + c[2]).flatmap(
        lambda r: st.sampled_from([f"masked:{r!r}", f"vlm:{r!r}-{r!r}"])),
    st.floats(-1, 2).map(lambda r: f"masked:{r}"),
    st.integers(-2, 5).map(lambda t: f"dar:{t}"),
    st.tuples(st.floats(-1, 2), st.floats(-1, 2)).map(
        lambda lh: f"vlm:{lh[0]}-{lh[1]}"),
    st.text(max_size=8),
)


@st.composite
def _small_config(draw):
    """A well-typed config at small sizes: r, s, T <= 2/4/2, <= 5 steps;
    or with a huge size, dimension or group width."""
    cfg = {
        "experiment": draw(st.sampled_from(sorted(EXPERIMENTS))),
        "params": {"r": draw(st.integers(1, 2)), "s": draw(st.integers(2, 4)),
                   "T": draw(st.integers(1, 2))},
        "seed": draw(st.integers(0, 2**32)),
        "objectives": draw(st.lists(_OBJECTIVE, min_size=1, max_size=3)),
        "train": {"steps": draw(st.integers(1, 5)),
                  "dim": draw(st.none() | st.integers(1, 6))},
        "trials": draw(st.integers(1, 3)),
        "seeds": draw(st.integers(1, 3)),
    }
    optional = {
        "rank": st.integers(1, 4),
        "reg": st.floats(0, 1),
        "rho_m": st.floats(0, 1) | st.lists(st.floats(0, 1), max_size=3),
        "assignment": st.sampled_from(["g1=1,t=2", "g1=2,t=2", "g1=1,t=1",
                                       "g1=3,t=2", "t=2", "g1=x,t=1"])
        | _HUGE.map(lambda t: f"g1=1,t={t}"),
        "params.r": _HUGE,
        "params.s": _HUGE,
        "params.T": _HUGE,
        "train.dim": _HUGE,
        "train.lr": st.floats(1e-3, 0.5),
        "train.clip": st.floats(0.1, 10),
        "train.init_noise": st.floats(0, 0.1),
    }
    for key in draw(st.sets(st.sampled_from(sorted(optional)))):
        _put(cfg, key, draw(optional[key]))
    return cfg


def _put(cfg, key, value):
    outer, _, inner = key.partition(".")
    if inner and isinstance(cfg.get(outer), dict):
        cfg[outer] = dict(cfg[outer], **{inner: value})
    else:
        cfg[key] = value


_FIELDS = ["experiment", "params", "seed", "objectives", "rank", "reg",
           "trials", "train", "rho_m", "seeds", "assignment", "params.r",
           "params.s", "params.T", "train.steps", "train.dim", "train.lr",
           "train.clip", "train.init_noise", "objectives.0"]


@st.composite
def _any_config(draw):
    cfg = draw(_small_config())
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(_FIELDS + ["unknown"]))
        if key == "objectives.0":
            cfg["objectives"] = [draw(_JSON)]
        elif key == "unknown":
            cfg[draw(st.text(min_size=1, max_size=6))] = draw(_JSON)
        else:
            _put(cfg, key, draw(_JSON))
    return cfg


@given(cfg=_small_config() | _any_config() | _JSON)
@settings(max_examples=400, deadline=None)
def test_exit_contract_holds_for_any_config(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["run", "--config", path, "--out",
                         os.path.join(tmp, "out")])
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
