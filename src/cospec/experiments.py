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
from dataclasses import dataclass, field

import numpy as np

from . import decomposition as dec
from . import generation as gen
from . import twostream as ts
from .cooccurrence import (
    admissible_counts,
    normalize,
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
from .toy_model import (
    ENUMERATION_BUDGET,
    ToyParams,
    enumerate_sequences,
    sample_sequence,
    token_label,
)

_TOP_KEYS = {
    "experiment", "seed", "params", "objectives", "rank", "reg", "trials",
    "train", "rho_m", "seeds", "assignment",
}
# (type, least allowed value[, whether it is excluded]) of each `train` field
_TRAIN_KINDS = {
    "dim": (int, 1), "lr": (float, 0, True), "steps": (int, 1),
    "init_noise": (float, 0), "clip": (float, 0, True),
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: ToyParams
    seed: int = 0
    objectives: tuple[str, ...] = ("ar",)
    rank: int | None = None
    reg: float = 1e-8
    trials: int = 100
    train: gen.TrainSettings = field(default_factory=gen.TrainSettings)
    rho_m: tuple[float, ...] | None = None
    seeds: int = 3
    assignment: str | None = None


def load_config(source) -> ExperimentConfig:
    """Validate a config from a dict, a JSON string, or a file path.

    A bad field is a `ConfigError`; a `trials`, `seeds` or `train.steps`
    count above the enumeration budget, a loop that would not end, is a
    `ResourceError`.
    """
    if isinstance(source, (str, os.PathLike)) and os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(str(exc), field="config") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {os.fspath(source)!r}: {exc}",
                              field="config") from exc
    elif isinstance(source, str):
        try:
            raw = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"not an existing file and not valid JSON: {str(source)[:80]!r}",
                field="config",
            ) from exc
    else:
        raw = source
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object", field="config")
    unknown = set(raw) - _TOP_KEYS
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

    objectives = raw.get("objectives", ["ar"])
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
            if spec.width is None:
                admissible_counts(params.s, spec.rho_lo, spec.rho_hi)
        except DomainError as exc:
            raise ConfigError(str(exc), field=f"objectives[{i}]") from exc
        if spec in specs:
            raise ConfigError(
                f"expected distinct objectives, got {text!r}, which repeats "
                f"objectives[{specs.index(spec)}] ({spec.label()})",
                field=f"objectives[{i}]",
            )
        specs.append(spec)

    rho_m = raw.get("rho_m")
    if rho_m is not None:
        if isinstance(rho_m, (int, float)):
            rho_m = [rho_m]
        if not isinstance(rho_m, list) or not rho_m:
            raise ConfigError("must be a ratio or list of ratios", field="rho_m")
        rho_m = tuple(_number(rho, float, field="rho_m") for rho in rho_m)
        for rho in rho_m:
            try:
                unmasked_count(params.s, rho)
            except DomainError as exc:
                raise ConfigError(str(exc), field="rho_m") from exc

    train_raw = raw.get("train", {})
    if not isinstance(train_raw, dict):
        raise ConfigError("must be an object", field="train")
    unknown = train_raw.keys() - _TRAIN_KINDS
    if unknown:
        raise ConfigError(f"unknown fields {sorted(unknown)}", field="train")
    train = gen.TrainSettings(**{
        key: _number(v, *_TRAIN_KINDS[key], field=f"train.{key}")
        for key, v in train_raw.items()
        if not (key == "dim" and v is None)
    })

    rank = raw.get("rank")
    assignment = raw.get("assignment")
    if assignment is not None and not isinstance(assignment, str):
        raise ConfigError(
            f"expected str, got {assignment!r}", field="assignment"
        )

    cfg = ExperimentConfig(
        experiment=name,
        params=params,
        seed=_number(raw.get("seed", 0), int, field="seed"),
        objectives=tuple(objectives),
        rank=None if rank is None else _number(rank, int, 1, field="rank"),
        reg=_number(raw.get("reg", 1e-8), float, 0, field="reg"),
        trials=_number(raw.get("trials", 100), int, 1, field="trials"),
        train=train,
        rho_m=rho_m,
        seeds=_number(raw.get("seeds", 3), int, 1, field="seeds"),
        assignment=assignment,
    )
    for key, count in (("trials", cfg.trials), ("seeds", cfg.seeds),
                       ("train.steps", cfg.train.steps)):
        if count > ENUMERATION_BUDGET:
            raise ResourceError(
                f"{key}: {count:.3g} exceeds the budget of {ENUMERATION_BUDGET}"
            )
    return cfg


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


def write_report(report: dict, out_dir) -> str:
    path = os.path.join(out_dir, "report.json")
    write_json(path, report)
    return path


def _closed_form_spectrum(spec: ObjectiveSpec, params: ToyParams):
    """Next-token, or any mask objective; None for a wider window."""
    if spec.width == 1:
        return exact_ar_spectrum(params)
    if spec.width is None:
        return predicted_masked_spectrum(params, spec.rho_lo, spec.rho_hi)
    return None


def run_spectrum(cfg: ExperimentConfig, out_dir) -> dict:
    """Build each objective's joint, decompose it, compare to closed forms."""
    results = {}
    spectra = {}
    connectivity = {}
    for label in cfg.objectives:
        spec = parse_objective(label)
        joint = exact_joint(spec, cfg.params)
        m = normalize(joint)
        numeric = singular_spectrum(m)
        closed = _closed_form_spectrum(spec, cfg.params)
        max_err = None
        if closed is not None:
            n = max(len(numeric), len(closed))
            max_err = float(
                np.max(np.abs(numeric.padded(n) - closed.padded(n)))
            )
        t_tail = cfg.rank if cfg.rank is not None else cfg.params.r
        t_conn = cfg.rank if cfg.rank is not None else cfg.params.r + 1
        t_conn = min(t_conn, min(m.shape))
        x, _, _ = dec.probe_features_for_joint(
            m, t_conn, lambda tok: token_label(cfg.params, tok)
        )
        connectivity[label] = connectivity_estimate(x)
        write_joint_csv(joint, os.path.join(out_dir, f"joint_{_safe(label)}.csv"))
        write_matrix_csv(m, os.path.join(out_dir, f"normalized_{_safe(label)}.csv"))
        spectra[label] = numeric.values
        results[label] = {
            "rows": m.shape[0],
            "cols": m.shape[1],
            "max_abs_error_vs_closed_form": max_err,
            "tail_energy": {"t": t_tail, "value": tail_energy(numeric, t_tail)},
            "top_singular_values": numeric.values[:10],
        }
    return {
        "experiment": "spectrum",
        "params": cfg.params.to_dict(),
        "results": results,
        "spectra": spectra,
        "connectivity": connectivity,
    }


def run_identity(cfg: ExperimentConfig, out_dir) -> dict:
    """Randomized trials of the loss/factorization identity per objective."""
    results = {}
    dims = (1, 2, 4)
    for label in cfg.objectives:
        spec = parse_objective(label)
        joint = exact_joint(spec, cfg.params)
        m = normalize(joint)
        worst = 0.0
        for trial in range(cfg.trials):
            rng = derive_rng(cfg.seed, "identity", label, str(trial))
            t = dims[trial % len(dims)]
            f = rng.standard_normal((len(joint.tokens), t))
            w = rng.standard_normal((t, len(joint.cols)))
            worst = max(worst, dec.identity_residual(f, w, joint, m))
        results[label] = {"trials": cfg.trials, "max_residual": worst}
    return {
        "experiment": "identity",
        "params": cfg.params.to_dict(),
        "results": results,
    }


def run_factorize(cfg: ExperimentConfig, out_dir) -> dict:
    """Gradient-descent factorization against the truncated-SVD optimum."""
    results = {}
    for label in cfg.objectives:
        spec = parse_objective(label)
        m = normalize(exact_joint(spec, cfg.params))
        t = cfg.rank if cfg.rank is not None else cfg.params.r
        t = min(t, min(m.shape))
        best = dec.optimal_features(m, t)
        optimal = dec.decomposition_objective(best, m)
        run = dec.gd_factorize(
            m, t, rng=derive_rng(cfg.seed, "factorize", label)
        )
        dec.save_factor_pair(best, out_dir, name=f"factors_{_safe(label)}")
        results[label] = {
            "rank": t,
            "optimal_objective": optimal,
            "gd_objective": run.objective,
            "gd_gap": [[i, v - run.target] for i, v in run.trajectory],
            "iterations": run.iterations,
            "converged": run.converged,
        }
    return {
        "experiment": "factorize",
        "params": cfg.params.to_dict(),
        "results": results,
    }


def run_probe(cfg: ExperimentConfig, out_dir) -> dict:
    """Linear probe error on each objective's optimal features."""
    results = {}
    for label in cfg.objectives:
        m = normalize(exact_joint(parse_objective(label), cfg.params))
        t = cfg.rank if cfg.rank is not None else cfg.params.r
        x, labels, weights = dec.probe_features_for_joint(
            m, t, lambda tok: token_label(cfg.params, tok)
        )
        probe = dec.linear_probe(x, labels, reg=cfg.reg, weights=weights)
        entry = {"t": t, "reg": cfg.reg, "error": probe.error}
        write_json(os.path.join(out_dir, f"probe_{_safe(label)}.json"), entry)
        results[label] = entry
    return {
        "experiment": "probe",
        "params": cfg.params.to_dict(),
        "results": results,
    }


def _bound_rows(cfg: ExperimentConfig, spec: ObjectiveSpec, model, joint):
    """(rho, terms, bound) of a mask model at each ratio of `rho_m` (else
    the grid) that is on `spec`'s grid and leaves u >= 2 visible; `joint` is
    the one the model trained on."""
    s = cfg.params.s
    counts = admissible_counts(s, spec.rho_lo, spec.rho_hi)
    rows = []
    for rho in cfg.rho_m or [(s - u) / s for u in counts]:
        u = unmasked_count(s, rho)
        if u >= 2 and u in counts:
            terms = gen.generation_bound_terms(model, cfg.params, rho, joint)
            rows.append((rho, terms, gen.masked_generation_bound(terms)))
    return rows


def run_genbound(cfg: ExperimentConfig, out_dir) -> dict:
    """Train one model per objective; measure losses, bound terms, and gaps."""
    params = cfg.params
    dataset = list(enumerate_sequences(params))
    reports = {}
    bound_rows = {}
    delta_ar = None
    for label in cfg.objectives:
        spec = parse_objective(label)
        rng = derive_rng(cfg.seed, "genbound", label)
        joint = exact_joint(spec, params)
        result = gen.train_model(joint, params, cfg.train, rng)
        if spec.width == 1:
            delta_ar = gen.delta_term(result.model, joint)
        elif spec.width is None:
            bound_rows[label] = _bound_rows(cfg, spec, result.model, joint)
        g = gen.gen_loss(result.model, dataset, params)
        reports[label] = {
            "gen_loss": g.total,
            "nll": g.nll,
            "perplexity": g.perplexity,
            "per_position": g.per_position,
            "final_train_loss": result.losses[-1],
        }
    bounds = {
        label: {
            f"{rho:g}": {
                "weights": terms.weights,
                "eta": terms.eta,
                "delta": terms.delta,
                "output_norm": terms.output_norm,
                "bound": bound,
                "gap_vs_ar": None if delta_ar is None else bound - delta_ar,
            }
            for rho, terms, bound in rows
        }
        for label, rows in bound_rows.items()
    }
    return {
        "experiment": "genbound",
        "params": params.to_dict(),
        "models": reports,
        "bounds": bounds,
        "delta_ar": delta_ar,
    }


def run_masks(cfg: ExperimentConfig, out_dir) -> dict:
    """Dump the two causal masks and measure query-stream leakage."""
    params = cfg.params
    text = cfg.assignment if cfg.assignment is not None else "g1=1,t=2"
    try:
        a = ts.parse_assignment(text, params.s)
    except DomainError as exc:
        raise ConfigError(str(exc), field="assignment") from exc
    masks = ts.build_masks(a)
    ts.write_mask_csv(masks.content, os.path.join(out_dir, "content_mask.csv"))
    ts.write_mask_csv(masks.query, os.path.join(out_dir, "query_mask.csv"))
    model = ts.init_two_stream(params, dim=8, rng=derive_rng(cfg.seed, "masks"))
    rng = derive_rng(cfg.seed, "masks", "perturb")
    drift = max_query_drift(model, a, params, rng, trials=cfg.trials)
    return {
        "experiment": "masks",
        "params": params.to_dict(),
        "assignment": list(a.groups),
        "max_query_drift": drift,
        "mask_files": ["content_mask.csv", "query_mask.csv"],
    }


# Trials whose texts run as one stack, so that the stack's memory does not
# grow with the trial count a config asks for.
_TRIALS_PER_FORWARD = 1024


def max_query_drift(
    model: ts.TwoStreamModel,
    a: ts.GroupAssignment,
    params: ToyParams,
    rng: np.random.Generator,
    trials: int = 8,
) -> float:
    """Worst change in a query row when same-or-later-group tokens change.

    For each predicted group, every token in that group or after it is
    outside the group's allowed keys, so redrawing all of them must leave
    that group's query outputs untouched. Returns the max abs drift seen.
    """
    trials = max(1, trials)
    return max(
        _query_drift(model, a, params, rng,
                     min(_TRIALS_PER_FORWARD, trials - done))
        for done in range(0, trials, _TRIALS_PER_FORWARD)
    )


def _query_drift(model, a, params, rng, trials: int) -> float:
    """`max_query_drift` over `trials` trials, whose texts are all drawn
    first and then run as one stack."""
    starts = [a.positions_of(g)[0] - 1 for g in range(2, a.num_groups + 1)]
    texts = []
    for _ in range(trials):
        label = int(rng.integers(1, params.r + 1))
        x = sample_sequence(params, label, rng).tokens
        texts.append(x)
        for start in starts:
            other = sample_sequence(params, label, rng).tokens
            texts.append(x[:start] + other[start:])
    _, g_out = ts.two_stream_forward(model, texts, a)
    # per trial: the drawn text, then the text redrawn from each group on
    g_out = g_out.reshape(trials, 1 + len(starts), *g_out.shape[1:])
    # row p of redrawn text k is read if position p is in group 2 + k
    read = np.array(a.groups) == np.arange(2, a.num_groups + 1)[:, None]
    drift = np.abs(g_out[:, 1:] - g_out[:, :1])[:, read]
    return float(np.max(drift, initial=0.0))


def run_sweep(cfg: ExperimentConfig, out_dir) -> dict:
    """Grid of trained models: one CSV row per model and evaluation ratio.

    The bound column always holds the model's own theoretical bound: the
    masked expression at the row's ratio for masked and variable-ratio
    models, and the worst pretraining error itself for the next-token
    model (whose bound has no length term; its rho is reported as 0).
    """
    columns = ("spec", "rho", "seed", "gen_loss", "bound", "delta", "eta",
               "normW2")
    params = cfg.params
    dataset = list(enumerate_sequences(params))
    rows = []
    delta_ar_by_seed: dict[int, float] = {}
    for label in cfg.objectives:
        spec = parse_objective(label)
        joint = exact_joint(spec, params)
        for seed_i in range(cfg.seeds):
            rng = derive_rng(cfg.seed, "sweep", label, str(seed_i))
            model = gen.train_model(joint, params, cfg.train, rng).model
            total = gen.gen_loss(model, dataset, params).total
            # (rho, bound, delta, eta, normW2) of each row
            if spec.width is not None:
                delta = gen.delta_term(model, joint)
                if spec.width == 1:
                    delta_ar_by_seed[seed_i] = delta
                found = [(0.0, delta, delta, gen.max_output_discrepancy(model),
                          model.output_norm())]
            else:
                found = [(rho, bound, terms.delta, terms.eta, terms.output_norm)
                         for rho, terms, bound in _bound_rows(cfg, spec, model,
                                                              joint)]
            rows += [
                dict(zip(columns, (label, rho, seed_i, total, *rest)))
                for rho, *rest in found
            ]
    gaps: dict[str, dict[str, float]] = {}
    for row in rows:
        seed_i = row["seed"]
        if row["rho"] and seed_i in delta_ar_by_seed:
            key = f"{row['rho']:g}"
            gaps.setdefault(key, {})[f"{row['spec']}|{seed_i}"] = (
                row["bound"] - delta_ar_by_seed[seed_i]
            )
    write_csv(os.path.join(out_dir, "sweep.csv"), columns, [
        [row[name] if name in ("spec", "seed") else float(row[name])
         for row in rows]
        for name in columns
    ])
    return {
        "experiment": "sweep",
        "params": params.to_dict(),
        "rows": rows,
        "gaps": gaps,
    }


EXPERIMENTS = {
    "spectrum": run_spectrum,
    "identity": run_identity,
    "factorize": run_factorize,
    "probe": run_probe,
    "genbound": run_genbound,
    "masks": run_masks,
    "sweep": run_sweep,
}


def emit_plot_data(report: dict, out_dir) -> tuple[list[str], list[str]]:
    """Write plot-ready CSVs for whatever sections the report carries.

    Returns (written, skipped) file name lists; a section that is present
    but empty still gets its header-only file.
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
    skipped = [name for name in ("spectrum.csv", "perk.csv", "connectivity.csv")
               if name not in tables]
    return list(tables), skipped


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Execute one experiment and write its report and plot data."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory: {exc}") from exc
    report = EXPERIMENTS[cfg.experiment](cfg, out_dir)
    write_report(report, out_dir)
    emit_plot_data(report, out_dir)
    return report
