"""Named experiments over a JSON config, with fully seeded determinism.

Every experiment reads one validated config, derives all of its randomness
from the config seed through named substreams, and writes a canonical
`report.json` plus CSV side files into its output directory. Reruns with
the same config and seed are byte-identical; that property is part of the
contract and is tested end to end.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import shutil
import tempfile
from dataclasses import dataclass, field, fields

import numpy as np

from . import decomposition as dec
from . import generation as gen
from . import twostream as ts
from .cooccurrence import (
    admissible_counts,
    check_joint_size,
    unmasked_count,
    write_joint_csv,
    write_matrix_csv,
)
from .errors import ConfigError, DomainError, ResourceError
from .objectives import ObjectiveSpec, exact_joint, parse_objective
from .output import write_csv, write_json
from .spectral import (
    connectivity_estimate,
    exact_ar_spectrum,
    predicted_masked_spectrum,
    singular_spectrum,
    tail_energy,
)
from .toy_model import ENUMERATION_BUDGET, ToyParams, sample_sequence

# (type, least allowed value[, whether it is excluded]) of each number field
_KINDS = {"seed": (int,), "rank": (int, 1), "reg": (float, 0),
          "trials": (int, 1), "seeds": (int, 1)}
_TRAIN_KINDS = {
    "dim": (int, 1), "lr": (float, 0, True), "steps": (int, 1),
    "init_noise": (float, 0), "clip": (float, 0, True),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config: one field per key, with `load_config`'s defaults."""

    experiment: str
    params: ToyParams
    seed: int = 0
    # (label, spec) pairs; the label is the config's own string
    objectives: tuple[tuple[str, ObjectiveSpec], ...] = (
        ("ar", ObjectiveSpec(width=1)),)
    rank: int | None = None
    reg: float = 1e-8
    trials: int = 100
    train: gen.TrainSettings = field(default_factory=gen.TrainSettings)
    rho_m: tuple[float, ...] | None = None
    seeds: int = 3
    assignment: str = "g1=1,t=2"


def load_config(source) -> ExperimentConfig:
    """Validate a config from a dict, a JSON string, or a file path.

    A bad field is a `ConfigError`. A vocabulary r*s*T (every runner lists
    it), or a `trials`, `seeds`, `train.steps` or `train.dim` count, above
    the enumeration budget is a `ResourceError`, and so is an objective
    whose exact joint `check_joint_size` refuses, unless the experiment is
    `masks`, which builds none; `genbound` and `sweep` also build the `ar`
    joint, to score generation on, and it is sized the same way.
    """
    if isinstance(source, (str, os.PathLike)) and os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {os.fspath(source)!r}: {exc}",
                              field="config") from exc
        except ValueError as exc:  # bad JSON, or an int of too many digits
            raise ConfigError(str(exc), field="config") from exc
    elif isinstance(source, str):
        try:
            raw = json.loads(source)
        except ValueError as exc:
            raise ConfigError(
                f"not an existing file and not valid JSON: {str(source)[:80]!r}",
                field="config",
            ) from exc
    else:
        raw = source
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object", field="config")
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(
            f"unknown fields {sorted(unknown)}", field="config"
        )
    if "experiment" not in raw:
        raise ConfigError("missing required field", field="experiment")
    name = raw["experiment"]
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}",
            field="experiment",
        )
    if "params" not in raw:
        raise ConfigError("missing required field", field="params")
    pdict = raw["params"]
    if not isinstance(pdict, dict) or set(pdict) != {"r", "s", "T"}:
        raise ConfigError(
            'must be an object with exactly the keys {"r", "s", "T"}',
            field="params",
        )
    sizes = {key: _number(pdict[key], int, field=f"params.{key}")
             for key in ("r", "s", "T")}
    try:
        params = ToyParams(**sizes)
    except DomainError as exc:
        raise ConfigError(str(exc), field="params") from exc
    _within_budget("params: vocabulary r*s*T", params.vocab_size)

    objectives = raw.get("objectives",
                         [label for label, _ in ExperimentConfig.objectives])
    if not isinstance(objectives, list) or not objectives:
        raise ConfigError("must be a nonempty list", field="objectives")
    specs = []
    for i, text in enumerate(objectives):
        if not isinstance(text, str):
            raise ConfigError(
                f"expected str, got {text!r}", field=f"objectives[{i}]"
            )
        try:
            spec = parse_objective(text)
            counts = None if spec.width is not None else admissible_counts(
                params.s, spec.rho_lo, spec.rho_hi)
        except DomainError as exc:
            raise ConfigError(str(exc), field=f"objectives[{i}]") from exc
        if spec in specs:
            raise ConfigError(
                f"expected distinct objectives, got {text!r}, which repeats "
                f"objectives[{specs.index(spec)}] ({spec.label()})",
                field=f"objectives[{i}]",
            )
        if name != "masks":  # the one experiment that builds no joint
            try:
                check_joint_size(params, counts)
            except ResourceError as exc:
                raise ResourceError(f"objectives[{i}]: {text}: {exc}") from exc
        specs.append(spec)
    if name in ("genbound", "sweep"):  # both score generation on it
        try:
            check_joint_size(params)
        except ResourceError as exc:
            raise ResourceError(f"{name} scores generation on the ar joint: "
                                f"{exc}") from exc

    rho_m = raw.get("rho_m")
    if rho_m is not None:
        if isinstance(rho_m, (int, float)):
            rho_m = [rho_m]
        if not isinstance(rho_m, list) or not rho_m:
            raise ConfigError("must be a ratio or list of ratios", field="rho_m")
        rho_m = tuple(_number(rho, float, field="rho_m") for rho in rho_m)
        counts = []
        for i, rho in enumerate(rho_m):
            try:
                u = unmasked_count(params.s, rho)
            except DomainError as exc:
                raise ConfigError(str(exc), field="rho_m") from exc
            if u in counts:
                j = counts.index(u)
                raise ConfigError(
                    f"expected distinct ratios, got rho_m[{i}] = {rho!r}, "
                    f"which leaves {u} positions unmasked, as "
                    f"rho_m[{j}] = {rho_m[j]!r} does", field="rho_m",
                )
            counts.append(u)

    train_raw = raw.get("train", {})
    if not isinstance(train_raw, dict):
        raise ConfigError("must be an object", field="train")
    unknown = train_raw.keys() - _TRAIN_KINDS
    if unknown:
        raise ConfigError(f"unknown fields {sorted(unknown)}", field="train")
    train = gen.TrainSettings(**_numbers(train_raw, _TRAIN_KINDS, "train."))

    assignment = raw.get("assignment")
    if assignment is None:
        assignment = ExperimentConfig.assignment
    if not isinstance(assignment, str):
        raise ConfigError(
            f"expected str, got {assignment!r}", field="assignment"
        )
    try:
        ts.parse_assignment(assignment, params.s)
    except DomainError as exc:
        raise ConfigError(str(exc), field="assignment") from exc

    cfg = ExperimentConfig(
        experiment=name,
        params=params,
        objectives=tuple(zip(objectives, specs)),
        train=train,
        rho_m=rho_m,
        assignment=assignment,
        **_numbers(raw, _KINDS),
    )
    for key, count in (("trials", cfg.trials), ("seeds", cfg.seeds),
                       ("train.steps", cfg.train.steps),
                       ("train.dim", cfg.train.dim or 0)):
        _within_budget(key, count)
    return cfg


def _within_budget(key: str, count: int) -> None:
    """Refuse a count above the enumeration budget as a `ResourceError`."""
    if count > ENUMERATION_BUDGET:
        # `.3g` reads an int as a float, and no float reaches 1e309
        size = f"{count:.3g}" if count < 1e308 else "at least 1e+308"
        raise ResourceError(
            f"{key}: {size} exceeds the budget of {ENUMERATION_BUDGET}")


def _numbers(raw: dict, kinds: dict, prefix: str = "") -> dict:
    """The fields of `raw` that `kinds` names, each read by `_number`; a
    null `rank` or `dim`, whose default is None, is None."""
    return {key: None if v is None and key in ("rank", "dim")
            else _number(v, *kinds[key], field=prefix + key)
            for key, v in raw.items() if key in kinds}


def _number(value, kind, least=None, above=False, *, field: str):
    """`value` as a finite `kind`, at least `least` (above it if `above`).

    Anything else is a ConfigError: a bool, a string, NaN, an infinity, or a
    fraction where an int belongs.
    """
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or number != value or number in (math.inf, -math.inf)):
        raise ConfigError(
            f"expected {kind.__name__}, got {value!r}", field=field
        )
    if least is not None and (number <= least if above else number < least):
        raise ConfigError(
            f"expected {'more than' if above else 'at least'} {least}, "
            f"got {value!r}", field=field,
        )
    return number


def derive_rng(seed: int, *labels: str) -> np.random.Generator:
    """Independent generator for (seed, substream labels), order-sensitive."""
    digest = hashlib.sha256(
        "|".join([str(seed), *labels]).encode()
    ).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _safe(label: str) -> str:
    return label.replace(":", "_").replace("-", "_").replace(".", "p")


def write_report(report: dict, out_dir) -> None:
    write_json(os.path.join(out_dir, "report.json"), report)


def _closed_form_spectrum(spec: ObjectiveSpec, params: ToyParams):
    """Next-token, or any mask objective; None for a wider window."""
    if spec.width == 1:
        return exact_ar_spectrum(params)
    if spec.width is None:
        return predicted_masked_spectrum(params, spec.rho_lo, spec.rho_hi)
    return None


def _rank(cfg: ExperimentConfig, joint, default: int) -> int:
    """The config's `rank`, else `default`, at most min(joint.mass.shape)."""
    return min(default if cfg.rank is None else cfg.rank,
               min(joint.mass.shape))


def run_spectrum(cfg: ExperimentConfig, out_dir) -> dict:
    """Build each objective's joint, decompose it, compare to closed forms."""
    results = {}
    spectra = {}
    connectivity = {}
    for label, spec in cfg.objectives:
        joint = exact_joint(spec, cfg.params)
        numeric = singular_spectrum(joint.normalized)
        closed = _closed_form_spectrum(spec, cfg.params)
        max_err = None
        if closed is not None:
            # the closed form is never longer than the numeric spectrum
            max_err = float(np.max(np.abs(
                numeric - np.pad(closed, (0, len(numeric) - len(closed))))))
        t_tail = _rank(cfg, joint, cfg.params.r)
        t_conn = _rank(cfg, joint, cfg.params.r + 1)
        x, _, _ = dec.probe_features_for_joint(joint, t_conn, cfg.params)
        connectivity[label] = connectivity_estimate(x)
        name = _safe(label)
        write_joint_csv(joint, os.path.join(out_dir, f"joint_{name}.csv"))
        write_matrix_csv(joint,
                         os.path.join(out_dir, f"normalized_{name}.csv"))
        spectra[label] = numeric
        results[label] = {
            "rows": len(joint.tokens),
            "cols": len(joint.cols),
            "max_abs_error_vs_closed_form": max_err,
            "tail_energy": {"t": t_tail, "value": tail_energy(numeric, t_tail)},
            "top_singular_values": numeric[:10],
        }
    return {"results": results, "spectra": spectra,
            "connectivity": connectivity}


def run_identity(cfg: ExperimentConfig, out_dir) -> dict:
    """Randomized trials of the loss/factorization identity per objective."""
    results = {}
    dims = (1, 2, 4)
    for label, spec in cfg.objectives:
        joint = exact_joint(spec, cfg.params)
        worst = 0.0
        for trial in range(cfg.trials):
            rng = derive_rng(cfg.seed, "identity", label, str(trial))
            t = dims[trial % len(dims)]
            f = rng.standard_normal((len(joint.tokens), t))
            w = rng.standard_normal((t, len(joint.cols)))
            worst = max(worst, dec.identity_residual(f, w, joint))
        results[label] = {"trials": cfg.trials, "max_residual": worst}
    return {"results": results}


def run_factorize(cfg: ExperimentConfig, out_dir) -> dict:
    """Gradient-descent factorization against the truncated-SVD optimum."""
    results = {}
    for label, spec in cfg.objectives:
        joint = exact_joint(spec, cfg.params)
        a, t = joint.normalized, _rank(cfg, joint, cfg.params.r)
        f, g = dec.optimal_features(a, t)
        optimal = dec.decomposition_objective(f, g, a)
        run = dec.gd_factorize(
            a, t, rng=derive_rng(cfg.seed, "factorize", label)
        )
        dec.save_factor_pair(f, g, out_dir, name=f"factors_{_safe(label)}")
        results[label] = {
            "rank": t,
            "optimal_objective": optimal,
            "gd_objective": run.objective,
            "gd_gap": [[i, v - run.target] for i, v in run.trajectory],
            "iterations": run.iterations,
            "converged": run.converged,
        }
    return {"results": results}


def run_probe(cfg: ExperimentConfig, out_dir) -> dict:
    """Linear probe error on each objective's optimal features."""
    results = {}
    for label, spec in cfg.objectives:
        joint = exact_joint(spec, cfg.params)
        t = _rank(cfg, joint, cfg.params.r)
        x, labels, weights = dec.probe_features_for_joint(joint, t, cfg.params)
        probe = dec.linear_probe(x, labels, reg=cfg.reg, weights=weights)
        entry = {"t": t, "reg": cfg.reg, "error": probe.error}
        write_json(os.path.join(out_dir, f"probe_{_safe(label)}.json"), entry)
        results[label] = entry
    return {"results": results}


def _bound_rows(cfg: ExperimentConfig, spec: ObjectiveSpec, model, joint,
                z=None):
    """(rho, entry) of each ratio `model` is measured at; `joint` is the one
    it trained on, and `z` its `gen.scores` if the caller has them.

    A prefix model has one row at rho 0.0, whose `bound` is its `delta`, the
    worst pretraining error (its bound has no length term). A mask model
    has one row per ratio of `rho_m` (else the grid) that is on `spec`'s
    grid and leaves u >= 2 visible, with the bound's terms and the bound.
    """
    if spec.width is not None:
        delta = gen.delta_term(model, joint, z=z)
        return [(0.0, {"bound": delta, "delta": delta,
                       "eta": gen.max_output_discrepancy(model),
                       "output_norm": model.output_norm()})]
    s = cfg.params.s
    counts = admissible_counts(s, spec.rho_lo, spec.rho_hi)
    rows = []
    for rho in cfg.rho_m or [(s - u) / s for u in counts]:
        u = unmasked_count(s, rho)
        if u >= 2 and u in counts:
            rows.append((rho, gen.generation_bound_terms(model, joint, u)))
    return rows


def _trained(cfg: ExperimentConfig, name: str, streams):
    """Train and measure one model per objective and substream.

    Each joint is built once, and the model of (label, stream) trains from
    `derive_rng(cfg.seed, name, label, *stream)`. Every model's generation
    is scored on the `ar` joint, which is built first and is the joint the
    `ar` objective trains on; an `ar` model's scores on it serve both its
    `gen_loss` and its `delta`. Returns the records
    `(label, spec, stream, entry, rows)`, objective-major, where `entry` is
    `gen_loss`'s with `final_train_loss` and `rows` is `_bound_rows`'; and
    the next-token model's `delta` per stream.
    """
    records, delta_ar = [], {}
    ar_joint = exact_joint(ObjectiveSpec(width=1), cfg.params)
    for label, spec in cfg.objectives:
        joint = ar_joint if spec.width == 1 else exact_joint(spec, cfg.params)
        for stream in streams:
            rng = derive_rng(cfg.seed, name, label, *stream)
            result = gen.train_model(joint, cfg.params, cfg.train, rng)
            z = gen.scores(result.model, ar_joint) if spec.width == 1 else None
            rows = _bound_rows(cfg, spec, result.model, joint, z)
            if spec.width == 1:
                delta_ar[stream] = rows[0][1]["delta"]
            entry = {**gen.gen_loss(result.model, ar_joint, z=z),
                     "final_train_loss": result.losses[-1]}
            records.append((label, spec, stream, entry, rows))
    return records, delta_ar


def run_genbound(cfg: ExperimentConfig, out_dir) -> dict:
    """Train one model per objective; measure losses, bound terms, and gaps."""
    records, delta_ar = _trained(cfg, "genbound", [()])
    delta_ar = delta_ar.get(())
    bounds = {
        label: {f"{rho:g}": {**entry, "gap_vs_ar": None if delta_ar is None
                             else entry["bound"] - delta_ar}
                for rho, entry in rows}
        for label, spec, _, _, rows in records if spec.width is None
    }
    return {"models": {label: entry for label, _, _, entry, _ in records},
            "bounds": bounds, "delta_ar": delta_ar}


def run_masks(cfg: ExperimentConfig, out_dir) -> dict:
    """Dump the two causal masks and measure query-stream leakage."""
    params = cfg.params
    a = ts.parse_assignment(cfg.assignment, params.s)
    content, query = ts.build_masks(a)
    ts.write_mask_csv(content, os.path.join(out_dir, "content_mask.csv"))
    ts.write_mask_csv(query, os.path.join(out_dir, "query_mask.csv"))
    model = ts.init_two_stream(params, dim=8, rng=derive_rng(cfg.seed, "masks"))
    rng = derive_rng(cfg.seed, "masks", "perturb")
    drift = max_query_drift(model, a, params, rng, trials=cfg.trials)
    return {
        "assignment": a.tolist(),
        "max_query_drift": drift,
        "mask_files": ["content_mask.csv", "query_mask.csv"],
    }


# Trials whose texts run as one stack, so that the stack's memory does not
# grow with the trial count a config asks for.
_TRIALS_PER_FORWARD = 1024


def max_query_drift(
    model: ts.TwoStreamModel,
    a: np.ndarray,
    params: ToyParams,
    rng: np.random.Generator,
    trials: int = 8,
) -> float:
    """Worst change in a query row when same-or-later-group tokens change.

    `a` is the group id per position, as `ts.partition_groups` gives it.
    For each predicted group, every token in that group or after it is
    outside the group's allowed keys, so redrawing all of them must leave
    that group's query outputs untouched. Returns the max abs drift seen.
    """
    trials = max(1, trials)
    starts = np.flatnonzero(np.diff(a)) + 1
    # row p of redrawn text k is read if position p is in group 2 + k
    read = a == a[starts][:, None]
    worst = 0.0
    # each stack's texts are all drawn first and then run as one forward
    for done in range(0, trials, _TRIALS_PER_FORWARD):
        texts = []
        for _ in range(min(_TRIALS_PER_FORWARD, trials - done)):
            label = int(rng.integers(1, params.r + 1))
            x = sample_sequence(params, label, rng)
            texts.append(x)
            for start in starts:
                other = sample_sequence(params, label, rng)
                texts.append(np.concatenate((x[:start], other[start:])))
        _, g_out = ts.two_stream_forward(model, texts, a)
        # per trial: the drawn text, then the text redrawn from each group on
        g_out = g_out.reshape(-1, 1 + len(starts), *g_out.shape[1:])
        drift = np.abs(g_out[:, 1:] - g_out[:, :1])[:, read]
        worst = np.max(drift, initial=worst)
    return float(worst)


def run_sweep(cfg: ExperimentConfig, out_dir) -> dict:
    """Grid of trained models: one CSV row per model and evaluation ratio.

    The bound column always holds the model's own theoretical bound: the
    masked expression at the row's ratio for masked and variable-ratio
    models, and the worst pretraining error itself for a prefix model
    (whose bound has no length term; its rho is reported as 0).
    """
    columns = ("spec", "rho", "seed", "gen_loss", "bound", "delta", "eta",
               "normW2")
    records, delta_ar = _trained(cfg, "sweep",
                                 [(str(i),) for i in range(cfg.seeds)])
    rows, gaps = [], {}
    for label, spec, stream, entry, found in records:
        for rho, terms in found:
            rows.append(dict(zip(columns, (
                label, rho, int(stream[0]), entry["gen_loss"], terms["bound"],
                terms["delta"], terms["eta"], terms["output_norm"]))))
            if spec.width is None and stream in delta_ar:
                gaps.setdefault(f"{rho:g}", {})[f"{label}|{stream[0]}"] = (
                    terms["bound"] - delta_ar[stream])
    write_csv(os.path.join(out_dir, "sweep.csv"), columns, [
        [row[name] if name in ("spec", "seed") else float(row[name])
         for row in rows]
        for name in columns
    ])
    return {"rows": rows, "gaps": gaps}


EXPERIMENTS = {
    "spectrum": run_spectrum,
    "identity": run_identity,
    "factorize": run_factorize,
    "probe": run_probe,
    "genbound": run_genbound,
    "masks": run_masks,
    "sweep": run_sweep,
}


def emit_plot_data(report: dict, out_dir) -> None:
    """Write plot-ready CSVs for whatever sections the report carries.

    A section that is absent gets no file; one that is present but empty
    still gets its header-only file.
    """
    tables = {}
    if "spectra" in report:
        spectra = report["spectra"]
        labels = sorted(spectra)
        tables["spectrum.csv"] = (["objective", "rank", "sigma"], [
            [label for label in labels for _ in spectra[label]],
            [i for label in labels for i in range(1, len(spectra[label]) + 1)],
            [float(v) for label in labels for v in spectra[label]],
        ])
    if "models" in report:
        entries = sorted(
            (int(k), label, float(v))
            for label, model in report["models"].items()
            for k, v in model.get("per_position", {}).items()
        )
        tables["perk.csv"] = (["model", "k", "loss"], [
            [e[1] for e in entries], [e[0] for e in entries],
            [e[2] for e in entries],
        ])
    if "connectivity" in report:
        conn = report["connectivity"]
        tables["connectivity.csv"] = (["objective", "estimate"], [
            sorted(conn), [float(conn[label]) for label in sorted(conn)],
        ])
    for name, (header, columns) in tables.items():
        write_csv(os.path.join(out_dir, name), header, columns)


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Execute one experiment and write its report and plot data.

    The report is the runner's sections plus the experiment's name and
    params. Every file is written into a staging directory, made in the
    nearest existing directory of `out_dir`'s path, and moved into
    `out_dir` once all are written: a failed run leaves the file system as
    it found it.
    """
    base = os.path.abspath(out_dir)
    while not os.path.lexists(base):
        base = os.path.dirname(base)
    try:
        stage = tempfile.mkdtemp(dir=base)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory "
                          f"{os.fspath(out_dir)!r}: {exc.strerror}") from exc
    try:
        report = {"experiment": cfg.experiment, "params": cfg.params.to_dict(),
                  **EXPERIMENTS[cfg.experiment](cfg, stage)}
        write_report(report, stage)
        emit_plot_data(report, stage)
        os.makedirs(out_dir, exist_ok=True)
        for name in os.listdir(stage):
            os.replace(os.path.join(stage, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return report
