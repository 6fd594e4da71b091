"""Config validation, seeded substreams, experiment runners, plot emission."""

import csv
import json
import os
from dataclasses import fields

import numpy as np
import pytest

import oracles
from cospec import cooccurrence, experiments, generation
from cospec.cooccurrence import build_ar_joint, normalize, unmasked_count
from cospec.errors import ConfigError
from cospec.experiments import (
    ExperimentConfig,
    derive_rng,
    emit_plot_data,
    load_config,
    run_experiment,
)
from cospec.generation import (
    TrainSettings,
    delta_term,
    gen_loss,
    generation_bound_terms,
    train_model,
)
from cospec.objectives import exact_joint, parse_objective
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
    assert from_dict.objectives == (("ar", parse_objective("ar")),)
    # each objective keeps the config's own string as its label
    spelled = cfg(objectives=["masked:0.50", "dar:2"]).objectives
    assert spelled == (("masked:0.50", parse_objective("masked:0.5")),
                       ("dar:2", parse_objective("dar:2")))


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="config"):
        cfg(banana=1)
    with pytest.raises(ConfigError, match="train"):
        cfg(train={"momentum": 0.9})
    with pytest.raises(ConfigError, match="must be an object") as exc:
        cfg(train=[20])
    assert exc.value.field == "train"


def test_config_rejects_bad_params():
    with pytest.raises(ConfigError, match="params"):
        load_config({"experiment": "spectrum", "params": {"r": 2, "s": 4}})
    with pytest.raises(ConfigError, match="params"):
        load_config({"experiment": "spectrum",
                     "params": {"r": 0, "s": 4, "T": 2}})
    with pytest.raises(ConfigError, match="missing required") as exc:
        load_config({"experiment": "spectrum"})
    assert exc.value.field == "params"
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
    for bad in ("0.5", {}):
        with pytest.raises(ConfigError, match="must be a ratio") as exc:
            cfg(rho_m=bad)
        assert exc.value.field == "rho_m"
    assert cfg(rho_m=0.5).rho_m == (0.5,)
    assert cfg(rho_m=[0.25, 0.75]).rho_m == (0.25, 0.75)


def test_config_refuses_ratios_of_one_unmasked_count():
    # at s = 4, 0.5 and 0.5000000001 both leave u = 2 positions visible, so
    # one ratio would be bounded twice
    with pytest.raises(ConfigError, match=r"rho_m\[1\] = 0\.5000000001, "
                       r"which leaves 2 .* rho_m\[0\] = 0\.5 ") as exc:
        cfg(rho_m=[0.5, 0.5000000001, 0.25])
    assert exc.value.field == "rho_m"
    with pytest.raises(ConfigError, match=r"rho_m\[2\] = 0\.25, .* "
                       r"rho_m\[0\] = 0\.25 "):
        cfg(rho_m=[0.25, 0.75, 0.25])


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


def test_config_train_kinds_name_every_train_setting():
    assert set(experiments._TRAIN_KINDS) == {
        f.name for f in fields(TrainSettings)}


def test_config_kinds_name_every_number_field():
    assert set(experiments._KINDS) == {
        f.name for f in fields(ExperimentConfig)
        if f.type in ("int", "float", "int | None")}


def test_config_null_numbers():
    # a null field whose default is None keeps None; any other is refused
    assert cfg(rank=None).rank is None
    assert cfg(train={"dim": None}).train.dim is None
    for key in ("seed", "reg", "trials", "seeds"):
        with pytest.raises(ConfigError, match="got None") as exc:
            cfg(**{key: None})
        assert exc.value.field == key


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
    # masked:0.25 hides one position at s = 4; only a window wider than one
    # has no closed form
    labels = ["ar", "masked:0.5", "vlm:0.25-0.5", "masked:0.25", "dar:2"]
    config = cfg(objectives=labels)
    report = run_experiment(config, tmp_path)
    for label in labels[:-1]:
        assert report["results"][label]["max_abs_error_vs_closed_form"] < 1e-10
    assert report["results"]["dar:2"]["max_abs_error_vs_closed_form"] is None
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "joint_masked_0p5.csv").exists()
    assert (tmp_path / "normalized_ar.csv").exists()
    lines = read_lines(tmp_path / "spectrum.csv")
    want = sum(len(report["spectra"][k]) for k in report["spectra"])
    assert lines[0] == ["objective", "rank", "sigma"]
    assert len(lines) == 1 + want
    conn = read_lines(tmp_path / "connectivity.csv")
    assert conn[0] == ["objective", "estimate"]
    assert len(conn) == 1 + len(labels)


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
    f, _ = oracles.load_factor_pair(tmp_path, name="factors_masked_0p5")
    assert f.shape[1] == 2


def test_exact_runners_clamp_a_large_rank_alike(tmp_path):
    # a rank above min(rows, cols) is that bound in every exact runner,
    # and each report names the rank it used
    objectives = ["ar", "masked:0.5"]
    params = ToyParams(1, 4, 2)
    bound = {label: min(normalize(exact_joint(parse_objective(label),
                                              params)).shape)
             for label in objectives}
    assert bound == {"ar": 6, "masked:0.5": 8}
    used = {}
    for name, read in (("spectrum", lambda e: e["tail_energy"]["t"]),
                       ("factorize", lambda e: e["rank"]),
                       ("probe", lambda e: e["t"])):
        config = load_config({"experiment": name,
                              "params": {"r": 1, "s": 4, "T": 2},
                              "objectives": objectives, "rank": 100})
        report = run_experiment(config, tmp_path / name)
        used[name] = {label: read(report["results"][label])
                      for label in objectives}
    assert used == {name: bound for name in used}


def test_factorize_reports_the_gap_over_steps(tmp_path):
    config = cfg(experiment="factorize", objectives=["ar", "masked:0.5"],
                 rank=2)
    report = run_experiment(config, tmp_path)
    written = json.loads((tmp_path / "report.json").read_text())
    for label, entry in report["results"].items():
        steps = [step for step, _ in entry["gd_gap"]]
        assert steps[0] == 1 and steps[-1] == entry["iterations"]
        assert steps == sorted(set(steps))
        assert entry["gd_gap"][-1][1] <= 0.001 * entry["optimal_objective"] + 1e-9
        assert written["results"][label]["gd_gap"] == entry["gd_gap"]


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


def test_genbound_model_entry_is_the_gen_loss_entry(tmp_path):
    config = load_config({
        "experiment": "genbound",
        "params": {"r": 1, "s": 4, "T": 2},
        "objectives": ["dar:2", "masked:0.5"],
        "train": {"steps": 30},
        "seed": 4,
    })
    report = run_experiment(config, tmp_path)
    for label, spec in config.objectives:
        result = train_model(exact_joint(spec, config.params), config.params,
                             config.train, derive_rng(4, "genbound", label))
        assert report["models"][label] == {
            **gen_loss(result.model, build_ar_joint(config.params)),
            "final_train_loss": result.losses[-1],
        }


def test_genbound_bound_entry_is_the_bound_row(tmp_path):
    # each reported bound, less its gap, is `generation_bound_terms`' row
    # for the model retrained from the same substream
    config = load_config({
        "experiment": "genbound",
        "params": {"r": 1, "s": 4, "T": 2},
        "objectives": ["masked:0.5", "vlm:0.25-0.5", "ar"],
        "train": {"steps": 30},
        "seed": 4,
    })
    report = run_experiment(config, tmp_path)
    assert set(report["bounds"]) == {"masked:0.5", "vlm:0.25-0.5"}
    checked = 0
    for label, spec in config.objectives[:2]:
        joint = exact_joint(spec, config.params)
        model = train_model(joint, config.params, config.train,
                            derive_rng(4, "genbound", label)).model
        for rho, entry in report["bounds"][label].items():
            row = {k: v for k, v in entry.items() if k != "gap_vs_ar"}
            u = unmasked_count(config.params.s, float(rho))
            assert row == generation_bound_terms(model, joint, u)
            checked += 1
    assert checked == 3


@pytest.mark.parametrize("experiment", ["genbound", "sweep"])
def test_an_ar_model_is_scored_once(monkeypatch, tmp_path, experiment):
    # its gen_loss and its delta read one pooling of the ar joint, and
    # equal those of the unshared calls
    calls = []
    real = generation.pooled_attention

    def counted(model, tokens):
        calls.append(len(tokens))
        return real(model, tokens)

    monkeypatch.setattr(generation, "pooled_attention", counted)
    config = load_config({
        "experiment": experiment, "params": {"r": 1, "s": 4, "T": 2},
        "objectives": ["ar"], "train": {"steps": 10}, "seeds": 2, "seed": 4,
    })
    report = run_experiment(config, tmp_path)
    streams = 2 if experiment == "sweep" else 1
    assert calls == [len(build_ar_joint(config.params).tokens)] * streams
    if experiment == "genbound":
        joint = build_ar_joint(config.params)
        model = train_model(joint, config.params, config.train,
                            derive_rng(4, "genbound", "ar")).model
        assert report["models"]["ar"]["gen_loss"] == \
            gen_loss(model, joint)["gen_loss"]
        assert report["delta_ar"] == delta_term(model, joint)


def test_sweep_gaps_read_the_baseline_of_the_same_seed(tmp_path):
    common = {"params": {"r": 1, "s": 4, "T": 2}, "train": {"steps": 20},
              "seeds": 2, "seed": 3}
    report = run_experiment(load_config(dict(
        common, experiment="sweep",
        objectives=["masked:0.5", "vlm:0.25-0.5", "ar"])), tmp_path / "a")
    delta_ar = {row["seed"]: row["delta"] for row in report["rows"]
                if row["spec"] == "ar"}
    masked = [row for row in report["rows"] if row["spec"] != "ar"]
    assert len(delta_ar) == 2 and len(masked) == 2 * (1 + 2)
    assert report["gaps"] == {
        f"{rho:g}": {f"{row['spec']}|{row['seed']}":
                     row["bound"] - delta_ar[row["seed"]]
                     for row in masked if row["rho"] == rho}
        for rho in {row["rho"] for row in masked}
    }

    objectives = ["masked:0.5", "vlm:0.25-0.5"]
    report = run_experiment(load_config(dict(
        common, experiment="sweep", objectives=objectives)), tmp_path / "b")
    assert report["gaps"] == {}
    report = run_experiment(load_config(dict(
        common, experiment="genbound", objectives=objectives)),
        tmp_path / "c")
    assert report["delta_ar"] is None
    entries = [e for rows in report["bounds"].values() for e in rows.values()]
    assert len(entries) == 3
    assert all(e["gap_vs_ar"] is None for e in entries)


@pytest.mark.parametrize("baseline", [" ar ", "dar:1"])
def test_any_width_one_prefix_spec_is_the_next_token_baseline(
    tmp_path, baseline
):
    common = {"params": {"r": 1, "s": 4, "T": 2}, "train": {"steps": 20},
              "objectives": [baseline, "vlm:0.5-0.5"], "seed": 3}
    report = run_experiment(
        load_config(dict(common, experiment="genbound")), tmp_path / "g"
    )
    entry = report["bounds"]["vlm:0.5-0.5"]["0.5"]
    assert report["delta_ar"] is not None
    assert entry["gap_vs_ar"] == entry["bound"] - report["delta_ar"]
    report = run_experiment(
        load_config(dict(common, experiment="sweep", seeds=2)), tmp_path / "s"
    )
    assert set(report["gaps"]["0.5"]) == {"vlm:0.5-0.5|0", "vlm:0.5-0.5|1"}


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


def test_a_bad_assignment_is_refused_before_any_output(tmp_path):
    # g1 = 9 leaves no room at s = 4, so the masks run never starts
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="first group size 9") as exc:
        run_experiment(load_config({
            "experiment": "masks", "params": {"r": 1, "s": 4, "T": 2},
            "assignment": "g1=9,t=2",
        }), out)
    assert exc.value.field == "assignment"
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["spectrum", "probe", "genbound"])
def test_every_experiment_refuses_a_bad_assignment(experiment):
    # as a bad `rho_m` is refused whether or not the experiment reads it
    with pytest.raises(ConfigError, match="cannot parse") as exc:
        cfg(experiment=experiment, assignment="banana")
    assert exc.value.field == "assignment"


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


@pytest.mark.parametrize("experiment", ["spectrum", "identity", "factorize",
                                        "probe"])
def test_exact_runners_normalize_each_joint_once(monkeypatch, tmp_path,
                                                 experiment):
    # `spectrum` reads the matrix three times: SVD, probe features, writer
    calls = []
    real = cooccurrence.normalize

    def counted(joint):
        calls.append(joint)
        return real(joint)

    monkeypatch.setattr(cooccurrence, "normalize", counted)
    objectives = ["ar", "masked:0.5", "dar:2"]
    run_experiment(cfg(experiment=experiment, objectives=objectives,
                       trials=6), tmp_path)
    assert len(calls) == len(objectives)
    assert len({id(joint) for joint in calls}) == len(objectives)


@pytest.mark.parametrize("experiment, builds", [
    # ar, masked:0.5 and vlm: the bound terms and the ar delta term read the
    # training joint of their model
    ("sweep", {"exact_joint": 3}),
    ("genbound", {"exact_joint": 3}),
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
    run_experiment(load_config({
        "experiment": experiment,
        "params": {"r": 1, "s": 4, "T": 2},
        "objectives": ["ar", "masked:0.5", "vlm:0.25-0.5"],
        "train": {"steps": 5},
        "seeds": 3,
    }), tmp_path)
    assert counts == builds


def test_plot_emission_skips_absent_sections(tmp_path):
    assert emit_plot_data({}, tmp_path) is None
    assert os.listdir(tmp_path) == []
    emit_plot_data({"models": {}}, tmp_path)
    assert os.listdir(tmp_path) == ["perk.csv"]
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
    assert config.reg == 1e-8
    assert config.seeds == 3
    assert config.assignment == "g1=1,t=2"
    assert cfg(assignment=None).assignment == "g1=1,t=2"
    assert config.train == TrainSettings()
