"""Per-layer spans around `cospec`'s public functions, installed from outside.

`Tracer` replaces each traced function at every place `cospec` binds it
(module attributes, names imported by other modules, class attributes and
the `EXPERIMENTS` registry) with a wrapper that records a span, and puts
the originals back on exit. A span's self time is its duration minus the
durations of the spans it directly contains; self times are summed per
layer metric, so nested calls of one layer (`exact_joint` calling
`build_masked_joint`) count once.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

BUILD = "cooccurrence.build"

# (module, function or Class.method, layer). Times are self times.
SPANS = [
    ("cospec.objectives", "exact_joint", BUILD),
    ("cospec.cooccurrence", "build_ar_joint", BUILD),
    ("cospec.cooccurrence", "build_masked_joint", BUILD),
    ("cospec.cooccurrence", "build_dar_joint", BUILD),
    ("cospec.cooccurrence", "build_vlm_joint", BUILD),
    ("cospec.cooccurrence", "JointDistribution.dense", "cooccurrence.dense"),
    ("cospec.cooccurrence", "JointDistribution.row_marginal", "cooccurrence.dense"),
    ("cospec.cooccurrence", "JointDistribution.col_marginal", "cooccurrence.dense"),
    ("cospec.cooccurrence", "normalize", "cooccurrence.normalize"),
    ("cospec.cooccurrence", "write_joint_csv", "cooccurrence.write"),
    ("cospec.cooccurrence", "write_matrix_csv", "cooccurrence.write"),
    ("cospec.spectral", "singular_spectrum", "spectral.svd"),
    ("cospec.spectral", "connectivity_estimate", "spectral.connectivity"),
    ("cospec.decomposition", "identity_residual", "decomposition.identity"),
    ("cospec.decomposition", "spectral_loss", "decomposition.identity"),
    ("cospec.decomposition", "optimal_features", "decomposition.features"),
    ("cospec.decomposition", "probe_features_for_joint", "decomposition.features"),
    ("cospec.decomposition", "gd_factorize", "decomposition.gd"),
    ("cospec.decomposition", "linear_probe", "decomposition.probe"),
    ("cospec.decomposition", "save_factor_pair", "decomposition.save"),
    ("cospec.generation", "train_model", "generation.train"),
    ("cospec.generation", "gen_loss", "generation.gen_loss"),
    ("cospec.generation", "generation_bound_terms", "generation.bound"),
    ("cospec.generation", "delta_term", "generation.delta"),
    ("cospec.twostream", "two_stream_forward", "twostream.forward"),
    ("cospec.experiments", "write_report", "experiments.report"),
    ("cospec.experiments", "emit_plot_data", "experiments.report"),
]

RUNNERS = ("spectrum", "identity", "factorize", "probe", "genbound", "masks",
           "sweep")
RUNNER_LAYERS = {f"experiments.{name}" for name in RUNNERS}

# Every per-layer metric the traced run reports, with its unit, in the
# order of BENCHMARK.json.
PER_LAYER = [
    ("cooccurrence.build_s", "s"),
    ("cooccurrence.builds", "count"),
    ("cooccurrence.rows", "count"),
    ("cooccurrence.nnz", "count"),
    ("cooccurrence.dense_s", "s"),
    ("cooccurrence.dense_calls", "count"),
    ("cooccurrence.normalize_s", "s"),
    ("cooccurrence.write_s", "s"),
    ("cooccurrence.write_mb", "MB"),
    ("spectral.svd_s", "s"),
    ("spectral.connectivity_s", "s"),
    ("decomposition.identity_s", "s"),
    ("decomposition.features_s", "s"),
    ("decomposition.gd_s", "s"),
    ("decomposition.gd_iterations", "count"),
    ("decomposition.probe_s", "s"),
    ("decomposition.save_s", "s"),
    ("generation.train_s", "s"),
    ("generation.models", "count"),
    ("generation.train_steps", "count"),
    ("generation.step_ms", "ms"),
    ("generation.gen_loss_s", "s"),
    ("generation.bound_s", "s"),
    ("generation.delta_s", "s"),
    ("twostream.forward_s", "s"),
    ("twostream.forwards", "count"),
    *[(f"experiments.{name}_s", "s") for name in RUNNERS],
    ("experiments.report_s", "s"),
    ("experiments.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def _on_build(tracer, parent, result, args, kwargs):
    if parent != BUILD:  # count each requested joint once, not its parts
        tracer.counts["cooccurrence.builds"] += 1
        tracer.counts["cooccurrence.rows"] += len(result.rows)
        tracer.counts["cooccurrence.nnz"] += len(result.entries)


def _on_write(tracer, parent, result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["cooccurrence.write_mb"] += os.path.getsize(path) / 2**20


def _counter(name, amount=lambda result: 1):
    def hook(tracer, parent, result, args, kwargs):
        tracer.counts[name] += amount(result)
    return hook


def _on_train(tracer, parent, result, args, kwargs):
    tracer.counts["generation.models"] += 1
    tracer.counts["generation.train_steps"] += len(result.losses)


HOOKS = {
    BUILD: _on_build,
    "cooccurrence.dense": _counter("cooccurrence.dense_calls"),
    "cooccurrence.write": _on_write,
    "decomposition.gd": _counter(
        "decomposition.gd_iterations", lambda result: result.iterations
    ),
    "generation.train": _on_train,
    "twostream.forward": _counter("twostream.forwards"),
}


class Tracer:
    """Collects span self times and layer counts while installed."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []  # [layer, start, seconds covered by child spans]
        self._undo = []

    def _wrap(self, fn, layer):
        hook = HOOKS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [layer, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                duration = time.perf_counter() - frame[1]
                self.self_s[layer] += duration - frame[2]
                self.total_s[layer] += duration
                if self._stack:
                    self._stack[-1][2] += duration
            if hook is not None:
                hook(self, parent, result, args, kwargs)
            return result

        return traced

    def __enter__(self):
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "cospec" or name.startswith("cospec.")
        ]
        for module_name, attr, layer in SPANS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._set(cls, method, self._wrap(original, layer), original)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, layer)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper, original)
        registry = sys.modules["cospec.experiments"].EXPERIMENTS
        for name in RUNNERS:
            original = registry[name]
            registry[name] = self._wrap(original, f"experiments.{name}")
            self._undo.append((registry.__setitem__, name, original))
        return self

    def _set(self, owner, name, wrapper, original):
        setattr(owner, name, wrapper)
        self._undo.append((functools.partial(setattr, owner), name, original))

    def __exit__(self, *exc):
        while self._undo:
            restore, name, original = self._undo.pop()
            restore(name, original)
        return False


def layer_metrics(tracer: Tracer, rounds: int, traced_wall: float,
                  untraced_wall: float) -> dict:
    """Per-round per-layer metrics from one tracer that saw `rounds` rounds.

    `traced_wall` and `untraced_wall` are the mean seconds of a traced and
    of an untraced round. Runner times are inclusive; every other time is
    self time, so the self times plus `experiments.unattributed_s` add up to
    `trace.wall_s`.
    """
    out = {}
    for layer in {layer for _, _, layer in SPANS}:
        out[f"{layer}_s"] = tracer.self_s.get(layer, 0.0) / rounds
    for name in RUNNERS:
        out[f"experiments.{name}_s"] = (
            tracer.total_s.get(f"experiments.{name}", 0.0) / rounds
        )
    for name, value in tracer.counts.items():
        out[name] = value / rounds
    attributed = sum(
        v for layer, v in tracer.self_s.items() if layer not in RUNNER_LAYERS
    )
    out["experiments.unattributed_s"] = traced_wall - attributed / rounds
    steps = out.get("generation.train_steps", 0.0)
    out["generation.step_ms"] = (
        1000.0 * out["generation.train_s"] / steps if steps else 0.0
    )
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return {
        name: {"value": out.get(name, 0.0), "unit": unit}
        for name, unit in PER_LAYER
    }
