"""The benchmark's tracer still finds and times what it names in `cospec`.

`bench/tracing.py` wraps package functions by module and name, so a
rename or a moved call in `cospec` would silently drop a layer from every
traced benchmark run. These tests hold the names, and the counts of small
traced `spectrum`, `genbound` and `masks` runs.
"""

import importlib
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))

import tracing  # noqa: E402
from cospec import cli  # noqa: E402
from cospec.objectives import exact_joint, parse_objective  # noqa: E402
from cospec.toy_model import ToyParams  # noqa: E402


@pytest.mark.parametrize("module, attr", [
    pytest.param(module, attr, id=f"{module}.{attr}")
    for module, attr, _ in tracing.SPANS
])
def test_every_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def traced_run(tmp_path, config):
    """Per-layer metrics of one traced `cospec run` of `config`."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with tracing.Tracer() as tracer:
        status = cli.main(["run", "--config", str(path), "--out", str(out)])
    assert status == 0
    return tracing.layer_metrics(tracer, 1, 1.0, 1.0)


def test_a_traced_spectrum_run_counts_its_builds_and_writes(tmp_path):
    objectives = ["ar", "masked:0.5", "dar:2", "vlm:0.25-0.75"]
    metrics = traced_run(tmp_path, {
        "experiment": "spectrum", "params": {"r": 2, "s": 4, "T": 2},
        "objectives": objectives, "seed": 3,
    })
    out = tmp_path / "out"
    triplets = [path for path in out.iterdir()
                if path.name.startswith(("joint_", "normalized_"))]
    assert len(triplets) == 2 * len(objectives)
    assert metrics["cooccurrence.write_s"]["value"] > 0
    assert metrics["cooccurrence.build_s"]["value"] > 0
    assert metrics["cooccurrence.write_mb"]["value"] == sum(
        path.stat().st_size for path in triplets) / 2**20
    assert metrics["cooccurrence.builds"]["value"] == len(objectives)
    # the tracer counts rows by `len(joint.rows)` and cells by
    # `len(joint.entries)`; both must still count the joint's own
    joints = [exact_joint(parse_objective(label), ToyParams(2, 4, 2))
              for label in objectives]
    assert metrics["cooccurrence.rows"]["value"] == sum(
        len(joint.tokens) for joint in joints)
    assert metrics["cooccurrence.nnz"]["value"] == sum(
        np.count_nonzero(joint.mass) for joint in joints)


def test_a_traced_genbound_run_times_training_and_scoring(tmp_path):
    metrics = traced_run(tmp_path, {
        "experiment": "genbound", "params": {"r": 1, "s": 4, "T": 2},
        "objectives": ["ar", "masked:0.5"], "train": {"steps": 20},
        "seed": 3,
    })
    assert metrics["generation.models"]["value"] == 2
    assert metrics["generation.train_steps"]["value"] == 40
    assert metrics["generation.train_s"]["value"] > 0
    assert metrics["generation.gen_loss_s"]["value"] > 0


def test_a_traced_masks_run_counts_its_forwards(tmp_path):
    metrics = traced_run(tmp_path, {
        "experiment": "masks", "params": {"r": 2, "s": 4, "T": 2},
        "trials": 4, "seed": 3,
    })
    assert metrics["twostream.forwards"]["value"] >= 1
    assert metrics["twostream.forward_s"]["value"] > 0
