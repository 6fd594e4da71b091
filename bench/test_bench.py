"""Tests of the benchmark itself: smoke runs and checkers that must fail.

    python3 -m pytest -q bench

The smoke tests run every workload at tiny sizes, traced and untraced, with
every output check on. Each checker test first passes a real output, then
feeds the checker one deliberately wrong value and expects a CheckError.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

import pytest

import checks
import tracing
import workloads
from checks import CheckError

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

SELF_TIMES = sorted(
    name for name, unit in tracing.PER_LAYER
    if unit == "s" and name not in {
        *(f"experiments.{n}_s" for n in tracing.RUNNERS),
        "experiments.unattributed_s", "trace.wall_s", "trace.overhead_s",
    }
)


def _bench(workload, trace, cwd=workloads.ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_untraced(workload):
    done = _bench(workload, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.configs(workload, 7, smoke=True))
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_traced_self_times_add_up(workload):
    done = _bench(workload, 1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    total = sum(metrics[name] for name in SELF_TIMES)
    total += metrics["experiments.unattributed_s"]
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    runner = sum(metrics[f"experiments.{n}_s"] for n in tracing.RUNNERS)
    assert 0 < runner <= metrics["trace.wall_s"]


def test_refuses_to_run_without_sources(tmp_path):
    """In a directory with only the benchmark, it exits nonzero, no result."""
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ------------------------------------------------------------ checker tests


@pytest.fixture(scope="module")
def cospec_run():
    workloads.import_cospec()
    from cospec.experiments import load_config, run_experiment

    def run(cfg, out_dir):
        run_experiment(load_config(dict(cfg, seed=3)), str(out_dir))
        return out_dir

    return run


def _edit_report(out_dir, edit):
    path = out_dir / "report.json"
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


P = {"r": 2, "s": 4, "T": 2}


def test_spectrum_checker(cospec_run, tmp_path):
    cfg = {"experiment": "spectrum", "params": P,
           "objectives": ["ar", "masked:0.5", "vlm:0.25-0.5"]}
    out = cospec_run(cfg, tmp_path / "ok")
    checks.check_spectrum(cfg, out)

    def nudge_sigma(rows):
        row = next(r for r in rows if r[0] == "masked:0.5" and r[1] == "3")
        row[2] = repr(float(row[2]) + 1e-6)

    _edit_csv(out / "spectrum.csv", nudge_sigma)
    with pytest.raises(CheckError, match="off the closed form"):
        checks.check_spectrum(cfg, out)

    out = cospec_run(cfg, tmp_path / "joint")

    def scale_entry(rows):
        rows[1][2] = repr(float(rows[1][2]) * (1 + 1e-9))

    _edit_csv(out / "joint_vlm_0p25_0p5.csv", scale_entry)
    with pytest.raises(CheckError, match="closed form"):
        checks.check_spectrum(cfg, out)


def test_identity_checker(cospec_run, tmp_path):
    cfg = {"experiment": "identity", "params": P,
           "objectives": ["ar", "masked:0.5"], "trials": 3}
    out = cospec_run(cfg, tmp_path)
    checks.check_identity(cfg, out)
    _edit_report(out, lambda r: r["results"]["ar"].update(max_residual=2e-9))
    with pytest.raises(CheckError, match="residual"):
        checks.check_identity(cfg, out)


def test_factorize_checker(cospec_run, tmp_path):
    cfg = {"experiment": "factorize", "params": P,
           "objectives": ["ar", "masked:0.5", "dar:2"]}
    out = cospec_run(cfg, tmp_path)
    checks.check_factorize(cfg, out)

    def slow_gd(report):
        res = report["results"]["dar:2"]
        assert res["converged"]
        res["gd_objective"] = res["optimal_objective"] * 1.01

    _edit_report(out, slow_gd)
    with pytest.raises(CheckError, match="GD"):
        checks.check_factorize(cfg, out)
    out = cospec_run(cfg, tmp_path / "optimum")
    _edit_report(out, lambda r: r["results"]["masked:0.5"].update(
        optimal_objective=r["results"]["masked:0.5"]["optimal_objective"] + 1e-6))
    with pytest.raises(CheckError, match="optimum"):
        checks.check_factorize(cfg, out)


def test_probe_checker(cospec_run, tmp_path):
    cfg = {"experiment": "probe", "params": P, "objectives": ["masked:0.5"]}
    out = cospec_run(cfg, tmp_path)
    checks.check_probe(cfg, out)

    def wrong(report):
        report["results"]["masked:0.5"]["error"] = 0.125

    _edit_report(out, wrong)
    entry = json.loads((out / "report.json").read_text())["results"]["masked:0.5"]
    (out / "probe_masked_0p5.json").write_text(json.dumps(entry))
    with pytest.raises(CheckError, match="error 0.125"):
        checks.check_probe(cfg, out)


def test_masks_checker(cospec_run, tmp_path):
    cfg = {"experiment": "masks", "params": P, "assignment": "g1=1,t=2",
           "trials": 2}
    out = cospec_run(cfg, tmp_path)
    checks.check_masks(cfg, out)
    _edit_report(out, lambda r: r.update(max_query_drift=1e-9))
    with pytest.raises(CheckError, match="drift"):
        checks.check_masks(cfg, out)
    out = cospec_run(cfg, tmp_path / "mask")

    def leak(rows):
        rows[1][1] = "1"  # a query may not see its own group

    _edit_csv(out / "query_mask.csv", leak)
    with pytest.raises(CheckError, match="query_mask"):
        checks.check_masks(cfg, out)


GENBOUND = {"experiment": "genbound", "params": {"r": 1, "s": 4, "T": 2},
            "objectives": ["ar", "masked:0.5", "vlm:0.25-0.5"],
            "train": {"steps": 60}}


def test_genbound_checker(cospec_run, tmp_path):
    out = cospec_run(GENBOUND, tmp_path)
    checks.check_genbound(GENBOUND, out)

    def above_bound(report):
        # Shift delta and the bound together, so the bound still matches its
        # terms but sits just under the model's gen_loss.
        gen = report["models"]["vlm:0.25-0.5"]["gen_loss"]
        terms = report["bounds"]["vlm:0.25-0.5"]["0.5"]
        shift = terms["bound"] - gen + 1e-3
        terms["delta"] -= shift
        terms["bound"] -= shift

    _edit_report(out, above_bound)
    with pytest.raises(CheckError, match="above the bound"):
        checks.check_genbound(GENBOUND, out)

    out = cospec_run(GENBOUND, tmp_path / "loss")
    # At (1,4,2) masked:0.5 has sigma^2 summing to 1 + 3 * (1/3) = 2, so the
    # training loss cannot go below -2/4.
    _edit_report(out, lambda r: r["models"]["masked:0.5"].update(
        final_train_loss=-0.51))
    with pytest.raises(CheckError, match="below the minimum"):
        checks.check_genbound(GENBOUND, out)

    out = cospec_run(GENBOUND, tmp_path / "range")
    _edit_report(out, lambda r: r["models"]["ar"].update(gen_loss=1.2))
    with pytest.raises(CheckError, match="outside"):
        checks.check_genbound(GENBOUND, out)


def test_repeat_checker(cospec_run, tmp_path):
    cfg = {"experiment": "probe", "params": P, "objectives": ["masked:0.5"]}
    first = checks.digest(cospec_run(cfg, tmp_path / "a"))
    again = cospec_run(cfg, tmp_path / "b")
    checks.check_repeat(first, checks.digest(again), "probe")
    with open(again / "report.json", "a") as fh:
        fh.write(" ")
    with pytest.raises(CheckError, match="differs on rerun"):
        checks.check_repeat(first, checks.digest(again), "probe")
