"""Exit codes and console output of the `cospec` entry point."""

import json

import pytest

from cospec.cli import main
from cospec.experiments import EXPERIMENTS


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


# Every mistyped field, a number where a string belongs too, and every count
# below 1.
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


def test_oversized_corpus_exhausts_the_budget(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "experiment": "spectrum",
        "params": {"r": 3, "s": 12, "T": 3},
        "objectives": ["ar"],
    })
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err.startswith("resource budget exceeded:")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_reports_numeric_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "experiment": "genbound",
        "params": {"r": 1, "s": 3, "T": 1},
        "objectives": ["ar"],
        "train": {"lr": 1e6, "clip": 1e18, "steps": 30},
    })
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:")
    assert "diverged" in err


def test_subcommand_is_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
