"""Config validation, seeded substreams, experiment runners, plot emission."""

import csv
import json
import os

import numpy as np
import pytest

from cospec import experiments, generation
from cospec.errors import ConfigError
from cospec.experiments import (
    ExperimentConfig,
    derive_rng,
    emit_plot_data,
    load_config,
    run_experiment,
)
from cospec.generation import TrainSettings
from cospec.output import to_jsonable
from cospec.toy_model import ToyParams


BASE = {"experiment": "spectrum", "params": {"r": 2, "s": 4, "T": 2}}


def cfg(**overrides):
    raw = dict(BASE)
    raw.update(overrides)
    return load_config(raw)


def read_lines(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_config_accepts_dict_json_and_path(tmp_path):
    from_dict = cfg()
    from_string = load_config(json.dumps(BASE))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE))
    from_file = load_config(path)
    assert from_dict == from_string == from_file
    assert from_dict.params == ToyParams(2, 4, 2)
    assert from_dict.objectives == ("ar",)


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="config"):
        cfg(banana=1)
    with pytest.raises(ConfigError, match="train"):
        cfg(train={"momentum": 0.9})


def test_config_rejects_bad_params():
    with pytest.raises(ConfigError, match="params"):
        load_config({"experiment": "spectrum", "params": {"r": 2, "s": 4}})
    with pytest.raises(ConfigError, match="params"):
        load_config({"experiment": "spectrum",
                     "params": {"r": 0, "s": 4, "T": 2}})
    with pytest.raises(ConfigError, match="experiment"):
        load_config({"params": {"r": 1, "s": 3, "T": 1}})
    with pytest.raises(ConfigError, match="experiment"):
        load_config({"experiment": "nope", "params": {"r": 1, "s": 3, "T": 1}})


def test_config_rejects_bad_objectives():
    with pytest.raises(ConfigError, match=r"objectives\[1\]"):
        cfg(objectives=["ar", "masked:9"])
    with pytest.raises(ConfigError, match=r"objectives\[0\]"):
        cfg(objectives=["masked:0.3"])  # non-integer unmasked count at s=4
    with pytest.raises(ConfigError, match="objectives"):
        cfg(objectives=[])


def test_config_validates_mask_ratio_grid():
    with pytest.raises(ConfigError, match="rho_m"):
        cfg(rho_m=0.3)
    with pytest.raises(ConfigError, match="rho_m"):
        cfg(rho_m=[0.5, 0.35])
    assert cfg(rho_m=0.5).rho_m == (0.5,)
    assert cfg(rho_m=[0.25, 0.75]).rho_m == (0.25, 0.75)


def test_config_rejects_garbage_sources(tmp_path):
    with pytest.raises(ConfigError, match="config"):
        load_config("/no/such/config.json")
    with pytest.raises(ConfigError, match="config"):
        load_config("not json at all {{{")
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigError, match="config"):
        load_config(bad)
    with pytest.raises(ConfigError, match="config"):
        load_config(json.dumps([1, 2, 3]))


def test_config_train_settings_pass_through():
    got = cfg(train={"dim": 4, "lr": 0.01, "steps": 10})
    assert got.train == TrainSettings(dim=4, lr=0.01, steps=10)


def test_derived_streams_are_stable_and_distinct():
    a = derive_rng(7, "spectrum", "ar").standard_normal(4)
    b = derive_rng(7, "spectrum", "ar").standard_normal(4)
    c = derive_rng(7, "spectrum", "masked").standard_normal(4)
    d = derive_rng(8, "spectrum", "ar").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_to_jsonable_strips_numpy_types():
    out = to_jsonable(
        {"a": np.float64(1.5), "b": np.arange(3), 2: (np.int32(4),)}
    )
    assert out == {"a": 1.5, "b": [0, 1, 2], "2": [4]}
    json.dumps(out)


def test_spectrum_experiment_end_to_end(tmp_path):
    config = cfg(objectives=["ar", "masked:0.5"])
    report = run_experiment(config, tmp_path)
    for label in ("ar", "masked:0.5"):
        assert report["results"][label]["max_abs_error_vs_closed_form"] < 1e-10
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "joint_masked_0p5.csv").exists()
    assert (tmp_path / "normalized_ar.csv").exists()
    lines = read_lines(tmp_path / "spectrum.csv")
    want = sum(len(report["spectra"][k]) for k in report["spectra"])
    assert lines[0] == ["objective", "rank", "sigma"]
    assert len(lines) == 1 + want
    conn = read_lines(tmp_path / "connectivity.csv")
    assert conn[0] == ["objective", "estimate"]
    assert len(conn) == 3


def test_identity_experiment_reports_residuals(tmp_path):
    config = cfg(experiment="identity", objectives=["ar", "dar:2"], trials=20)
    report = run_experiment(config, tmp_path)
    for label in ("ar", "dar:2"):
        entry = report["results"][label]
        assert entry["trials"] == 20
        assert entry["max_residual"] < 1e-9


def test_factorize_experiment_saves_factors(tmp_path):
    config = cfg(experiment="factorize", objectives=["masked:0.5"], rank=2)
    report = run_experiment(config, tmp_path)
    entry = report["results"]["masked:0.5"]
    assert entry["converged"]
    assert entry["gd_objective"] <= entry["optimal_objective"] * 1.001 + 1e-9
    from cospec.decomposition import load_factor_pair

    pair = load_factor_pair(tmp_path, name="factors_masked_0p5")
    assert pair.rank == 2


def test_probe_experiment_writes_summaries(tmp_path):
    config = cfg(experiment="probe", objectives=["masked:0.5"])
    report = run_experiment(config, tmp_path)
    assert report["results"]["masked:0.5"]["error"] == 0.0
    side = json.loads((tmp_path / "probe_masked_0p5.json").read_text())
    assert side == report["results"]["masked:0.5"]


def test_genbound_experiment_sections(tmp_path):
    config = load_config({
        "experiment": "genbound",
        "params": {"r": 1, "s": 4, "T": 2},
        "objectives": ["ar", "masked:0.5"],
        "train": {"steps": 150},
        "seed": 3,
    })
    report = run_experiment(config, tmp_path)
    assert set(report["models"]) == {"ar", "masked:0.5"}
    entry = report["bounds"]["masked:0.5"]["0.5"]
    assert entry["bound"] >= report["models"]["masked:0.5"]["gen_loss"]
    assert entry["gap_vs_ar"] == pytest.approx(
        entry["bound"] - report["delta_ar"]
    )
    perk = read_lines(tmp_path / "perk.csv")
    assert perk[0] == ["model", "k", "loss"]
    ks = [int(row[1]) for row in perk[1:]]
    assert ks == sorted(ks)
    assert len(perk) == 1 + 2 * 3


def test_masks_experiment_outputs(tmp_path):
    config = load_config({
        "experiment": "masks",
        "params": {"r": 2, "s": 5, "T": 2},
        "assignment": "g1=1,t=2",
        "trials": 4,
    })
    report = run_experiment(config, tmp_path)
    assert report["assignment"] == [1, 2, 2, 3, 3]
    assert report["max_query_drift"] <= 1e-12
    content = read_lines(tmp_path / "content_mask.csv")
    assert len(content) == 5
    with pytest.raises(ConfigError, match="assignment"):
        run_experiment(
            load_config({
                "experiment": "masks",
                "params": {"r": 2, "s": 5, "T": 2},
                "assignment": "g1=3,t=2",
            }),
            tmp_path,
        )


def test_sweep_experiment_csv_layout(tmp_path):
    config = load_config({
        "experiment": "sweep",
        "params": {"r": 1, "s": 4, "T": 2},
        "objectives": ["ar", "masked:0.5"],
        "train": {"steps": 120},
        "seeds": 2,
    })
    report = run_experiment(config, tmp_path)
    lines = read_lines(tmp_path / "sweep.csv")
    assert lines[0] == ["spec", "rho", "seed", "gen_loss", "bound", "delta",
                       "eta", "normW2"]
    assert len(lines) == 1 + 4  # (ar + masked at its one ratio) x 2 seeds
    ar_rows = [row for row in lines[1:] if row[0] == "ar"]
    for row in ar_rows:
        assert float(row[1]) == 0.0
        assert float(row[4]) == float(row[5])
    assert "0.5" in report["gaps"]
    assert set(report["gaps"]["0.5"]) == {"masked:0.5|0", "masked:0.5|1"}


@pytest.mark.parametrize("experiment, builds", [
    # ar and vlm, then the masked ratios 0.5 and 0.25 of the bound terms;
    # genbound builds the ar joint again for its delta term
    ("sweep", {"exact_joint": 2, "build_masked_joint": 2}),
    ("genbound", {"exact_joint": 3, "build_masked_joint": 2}),
])
def test_training_joints_are_built_outside_the_seed_loop(
    monkeypatch, tmp_path, experiment, builds
):
    counts = dict.fromkeys(builds, 0)

    def counted(name):
        build = getattr(experiments, name)

        def wrapped(*args):
            counts[name] += 1
            return build(*args)
        return wrapped

    for name in builds:
        monkeypatch.setattr(experiments, name, counted(name))

    def no_build(*args):
        raise AssertionError("train_model built its own joint")

    monkeypatch.setattr(generation, "exact_joint", no_build)
    run_experiment(load_config({
        "experiment": experiment,
        "params": {"r": 1, "s": 4, "T": 2},
        "objectives": ["ar", "masked:0.5", "vlm:0.25-0.5"],
        "train": {"steps": 5},
        "seeds": 3,
    }), tmp_path)
    assert counts == builds


def test_plot_emission_reports_skipped_sections(tmp_path):
    written, skipped = emit_plot_data({}, tmp_path)
    assert written == []
    assert sorted(skipped) == ["connectivity.csv", "perk.csv", "spectrum.csv"]
    assert os.listdir(tmp_path) == []
    written, skipped = emit_plot_data({"models": {}}, tmp_path)
    assert written == ["perk.csv"]
    assert read_lines(tmp_path / "perk.csv") == [["model", "k", "loss"]]


def test_rerun_is_byte_identical(tmp_path):
    config = cfg(objectives=["ar", "masked:0.5"], seed=11)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_experiment(config, out_a)
    run_experiment(config, out_b)
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    for out in (out_a, out_b):
        json.loads((out / "report.json").read_text(),
                   parse_constant=strict_constant)


def strict_constant(name):
    raise AssertionError(f"non-strict JSON constant {name}")


def test_config_defaults_round_trip():
    config = cfg()
    assert isinstance(config, ExperimentConfig)
    assert config.seed == 0
    assert config.trials == 100
    assert config.train == TrainSettings()
