"""Output checks for every operation the benchmark runs.

Each check reads the files one `cospec run` wrote and compares them with
the paper's closed forms, recomputed here from (r, s, T) alone, or with a
property the method must have. Nothing here calls into `cospec`, and
nothing is compared with a saved copy of an earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os


class CheckError(AssertionError):
    """An output disagrees with its closed form or required property."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(a: float, b: float, rel: float = 1e-12, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def _safe(label: str) -> str:
    """File-name form of an objective label, as `cospec` writes it."""
    return label.replace(":", "_").replace("-", "_").replace(".", "p")


def _report(out_dir) -> dict:
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


def _rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------- closed forms


class Objective:
    """Closed-form law of one objective's joint on the toy corpus."""

    def __init__(self, label: str, params: dict):
        self.label = label
        self.r, self.s, self.t = params["r"], params["s"], params["T"]
        kind, _, arg = label.partition(":")
        self.kind = kind
        r, s, big_t = self.r, self.s, self.t
        if kind in ("ar", "dar"):
            self.width = int(arg) if kind == "dar" else 1
            self.rows = r * sum(big_t**i for i in range(1, s))
            self.cols = r * (s - 1) * big_t
            self.nnz = sum(
                r * big_t**i * self.window(i) * big_t for i in range(1, s)
            )
        elif kind in ("masked", "vlm"):
            if kind == "masked":
                lo = hi = float(arg)
            else:
                lo, hi = (float(x) for x in arg.split("-"))
            self.masked_counts = [
                m for m in range(1, s) if lo - 1e-12 <= m / s <= hi + 1e-12
            ]
            _require(bool(self.masked_counts), f"{label}: no admissible ratio")
            self.rows = sum(
                r * math.comb(s, s - m) * big_t ** (s - m)
                for m in self.masked_counts
            )
            self.cols = r * s * big_t
            self.nnz = sum(
                r * math.comb(s, s - m) * big_t ** (s - m) * m * big_t
                for m in self.masked_counts
            )
        else:
            raise CheckError(f"unknown objective {label!r}")

    def window(self, i: int) -> int:
        return min(i + self.width, self.s) - i

    def entry(self, row_len: int) -> float:
        """Joint value of every nonzero entry whose row has row_len tokens."""
        r, s, big_t = self.r, self.s, self.t
        if self.kind in ("ar", "dar"):
            i = row_len
            return 1.0 / ((s - 1) * r * self.window(i) * big_t ** (i + 1))
        u = row_len
        return 1.0 / (
            len(self.masked_counts)
            * r * math.comb(s, u) * (s - u) * big_t ** (u + 1)
        )

    def spectrum(self) -> list[float] | None:
        """Closed-form singular values, or None where the paper gives none.

        Next-token: r*(s-1) ones. Masked with more than one hidden
        position: r ones, r*(s-1) copies of sqrt(u/((s-u)(s-1))), zeros.
        """
        n = min(self.rows, self.cols)
        r, s = self.r, self.s
        if self.kind == "ar":
            ones = r * (s - 1)
            return [1.0] * ones + [0.0] * (n - ones)
        if self.kind == "masked" and self.masked_counts[0] > 1:
            u = s - self.masked_counts[0]
            middle = math.sqrt(u / ((s - u) * (s - 1)))
            return [1.0] * r + [middle] * (r * (s - 1)) + [0.0] * (n - r * s)
        return None

    def bound_ratios(self) -> list[float]:
        """Ratios at which a masked or vlm model's bound is evaluated."""
        return [m / self.s for m in self.masked_counts if self.s - m >= 2]


def gen_loss_range(params: dict) -> tuple[float, float]:
    """Every normalized quadratic generation loss lies in this interval.

    The loss is minus the true token's normalized score plus the mean
    squared normalized score, 1/n over the n targets (positions 2..s).
    """
    n = params["r"] * (params["s"] - 1) * params["T"]
    return -1.0 + 1.0 / n, 1.0 + 1.0 / n


def masked_bound(s, rho, delta, eta, norm_w):
    """The masked generation bound recomputed from its measured terms."""
    u = s * (1.0 - rho)
    acc = 0.0
    for k in range(2, round(u) + 1):
        w = u**3 - (k - 1) ** 3
        acc += w**2 / (k - 1) ** 6 + w * norm_w**2 * eta
    return acc / (2.0 * u) + delta + 1.0


# ------------------------------------------------------------------- checkers


def check_joint_csv(obj: Objective, path) -> dict:
    """Joint CSV: mass 1, closed-form rows, nnz and entry values.

    Returns {(row_key, col): value} for the normalized-matrix check.
    """
    rows = _rows(path)
    _require(rows[0] == ["row_key", "col_token", "value"], f"{path}: header")
    entries = {}
    row_keys = set()
    for key, col, value in rows[1:]:
        v = float(value)
        want = obj.entry(len(key.split("-")))
        _require(
            _close(v, want),
            f"{path}: entry ({key},{col}) = {v!r}, closed form {want!r}",
        )
        entries[(key, int(col))] = v
        row_keys.add(key)
    total = math.fsum(entries.values())
    _require(_close(total, 1.0), f"{path}: mass sums to {total!r}, not 1")
    _require(
        len(row_keys) == obj.rows,
        f"{path}: {len(row_keys)} rows, closed form {obj.rows}",
    )
    _require(
        len(entries) == obj.nnz,
        f"{path}: {len(entries)} nonzeros, closed form {obj.nnz}",
    )
    return entries


def check_normalized_csv(entries: dict, path) -> float:
    """Normalized CSV equals A / sqrt(P_C P_G) entry for entry.

    Returns the sum of squared entries (the squared Frobenius norm).
    """
    pc, pg = {}, {}
    for (key, col), v in entries.items():
        pc[key] = pc.get(key, 0.0) + v
        pg[col] = pg.get(col, 0.0) + v
    rows = _rows(path)
    _require(rows[0] == ["row_key", "col_token", "value"], f"{path}: header")
    seen = 0
    squares = []
    for key, col, value in rows[1:]:
        a = entries.get((key, int(col)))
        _require(a is not None, f"{path}: ({key},{col}) not in the joint")
        want = a / math.sqrt(pc[key] * pg[int(col)])
        v = float(value)
        _require(_close(v, want), f"{path}: ({key},{col}) = {v!r}, want {want!r}")
        squares.append(v * v)
        seen += 1
    _require(seen == len(entries), f"{path}: {seen} entries, joint has {len(entries)}")
    return math.fsum(squares)


def check_spectrum(cfg: dict, out_dir) -> None:
    params = cfg["params"]
    spectra: dict[str, list[float]] = {}
    for label, rank, sigma in _rows(os.path.join(out_dir, "spectrum.csv"))[1:]:
        values = spectra.setdefault(label, [])
        _require(int(rank) == len(values) + 1, f"spectrum {label}: rank order")
        values.append(float(sigma))
    _require(
        sorted(spectra) == sorted(cfg["objectives"]),
        f"spectrum.csv covers {sorted(spectra)}",
    )
    conn = {
        row[0]: float(row[1])
        for row in _rows(os.path.join(out_dir, "connectivity.csv"))[1:]
    }
    for label in cfg["objectives"]:
        obj = Objective(label, params)
        got = spectra[label]
        n = min(obj.rows, obj.cols)
        _require(len(got) == n, f"spectrum {label}: {len(got)} values, want {n}")
        _require(
            all(a >= b for a, b in zip(got, got[1:])) and got[-1] >= 0.0,
            f"spectrum {label}: not descending and nonnegative",
        )
        # The top singular value of any marginal-normalized joint is 1.
        _require(_close(got[0], 1.0, abs_=1e-9), f"spectrum {label}: top {got[0]!r}")
        closed = obj.spectrum()
        if closed is not None:
            worst = max(abs(a - b) for a, b in zip(got, closed))
            _require(
                worst <= 1e-9,
                f"spectrum {label}: off the closed form by {worst:.3g}",
            )
        entries = check_joint_csv(
            obj, os.path.join(out_dir, f"joint_{_safe(label)}.csv")
        )
        frob = check_normalized_csv(
            entries, os.path.join(out_dir, f"normalized_{_safe(label)}.csv")
        )
        energy = math.fsum(v * v for v in got)
        _require(
            _close(frob, energy, rel=1e-9),
            f"spectrum {label}: sum sigma^2 {energy!r} != Frobenius {frob!r}",
        )
        _require(math.isfinite(conn.get(label, math.nan)),
                 f"connectivity {label}: missing or not finite")


def check_identity(cfg: dict, out_dir) -> None:
    results = _report(out_dir)["results"]
    _require(sorted(results) == sorted(cfg["objectives"]), "identity: objectives")
    for label, res in results.items():
        _require(res["trials"] == cfg["trials"], f"identity {label}: trials")
        _require(
            res["max_residual"] < 1e-9,
            f"identity {label}: residual {res['max_residual']!r} >= 1e-9",
        )


def _factor_norm(path) -> tuple[int, int, float]:
    rows = _rows(path)
    values = [float(v) for row in rows for v in row]
    return len(rows), len(rows[0]), math.fsum(v * v for v in values)


def check_factorize(cfg: dict, out_dir) -> None:
    params = cfg["params"]
    results = _report(out_dir)["results"]
    _require(sorted(results) == sorted(cfg["objectives"]), "factorize: objectives")
    for label, res in results.items():
        obj = Objective(label, params)
        t = min(cfg.get("rank") or params["r"], obj.rows, obj.cols)
        _require(res["rank"] == t, f"factorize {label}: rank {res['rank']}")
        optimal, gd = res["optimal_objective"], res["gd_objective"]
        closed = obj.spectrum()
        if closed is not None:
            tail = math.fsum(v * v for v in closed[t:])
            _require(
                _close(optimal, tail, abs_=1e-9),
                f"factorize {label}: optimum {optimal!r}, closed form {tail!r}",
            )
        if res["converged"]:
            # Eckart-Young: no rank-t product beats the SVD optimum, and GD
            # stops within 0.1% of it.
            _require(
                optimal - 1e-9 <= gd <= max(optimal * 1.001, 1e-6) + 1e-12,
                f"factorize {label}: GD {gd!r} vs optimum {optimal!r}",
            )
        name = f"factors_{_safe(label)}"
        with open(os.path.join(out_dir, f"{name}.json")) as fh:
            header = json.load(fh)
        _require(
            (header["rank"], header["rows"], header["cols"])
            == (t, obj.rows, obj.cols),
            f"factorize {label}: factor header {header}",
        )
        for side, n in (("rows", obj.rows), ("cols", obj.cols)):
            got_n, got_t, norm = _factor_norm(
                os.path.join(out_dir, f"{name}_{side}.csv")
            )
            _require((got_n, got_t) == (n, t), f"factorize {label}: {side} shape")
            if closed is not None:
                # Both factors absorb sqrt(sigma): squared norm = sum sigma_i.
                want = math.fsum(closed[:t])
                _require(
                    _close(norm, want, abs_=1e-9),
                    f"factorize {label}: {side} factor energy {norm!r}, "
                    f"want {want!r}",
                )


def check_probe(cfg: dict, out_dir) -> None:
    params = cfg["params"]
    results = _report(out_dir)["results"]
    _require(sorted(results) == sorted(cfg["objectives"]), "probe: objectives")
    for label, res in results.items():
        t = cfg.get("rank") or params["r"]
        _require(res["t"] == t, f"probe {label}: rank {res['t']}")
        with open(os.path.join(out_dir, f"probe_{_safe(label)}.json")) as fh:
            _require(json.load(fh) == res, f"probe {label}: side file differs")
        if label.startswith("masked:") and t == params["r"]:
            _require(
                res["error"] == 0.0,
                f"probe {label}: error {res['error']!r} at rank r, want 0",
            )


def _groups(assignment: str, s: int) -> list[int]:
    fields = dict(part.split("=") for part in assignment.split(","))
    g1, width = int(fields["g1"]), int(fields["t"])
    sizes = [g1]
    while sum(sizes) < s:
        sizes.append(min(width, s - sum(sizes)))
    return [g for g, n in enumerate(sizes, start=1) for _ in range(n)]


def check_masks(cfg: dict, out_dir) -> None:
    report = _report(out_dir)
    groups = _groups(cfg["assignment"], cfg["params"]["s"])
    _require(report["assignment"] == groups, f"masks: assignment {report['assignment']}")
    _require(
        report["max_query_drift"] <= 1e-12,
        f"masks: query drift {report['max_query_drift']!r} > 1e-12",
    )
    for name, allowed in (
        ("content_mask.csv", lambda gi, gj: gi >= gj),
        ("query_mask.csv", lambda gi, gj: gi > gj),
    ):
        want = [[str(int(allowed(gi, gj))) for gj in groups] for gi in groups]
        _require(_rows(os.path.join(out_dir, name)) == want, f"masks: {name}")


def _check_gen_loss(where: str, value: float, params: dict) -> None:
    lo, hi = gen_loss_range(params)
    _require(
        lo - 1e-12 <= value <= hi + 1e-12,
        f"{where}: gen_loss {value!r} outside [{lo!r}, {hi!r}]",
    )


def check_genbound(cfg: dict, out_dir) -> None:
    params = cfg["params"]
    report = _report(out_dir)
    models = report["models"]
    _require(sorted(models) == sorted(cfg["objectives"]), "genbound: objectives")
    for label, res in models.items():
        obj = Objective(label, params)
        _check_gen_loss(f"genbound {label}", res["gen_loss"], params)
        per_k = res["per_position"]
        _require(
            sorted(int(k) for k in per_k) == list(range(2, params["s"] + 1)),
            f"genbound {label}: positions {sorted(per_k)}",
        )
        for k, v in per_k.items():
            _check_gen_loss(f"genbound {label} k={k}", v, params)
        closed = obj.spectrum()
        if closed is not None:
            # The quadratic loss is minimized at -sum(sigma^2)/4.
            floor = -math.fsum(v * v for v in closed) / 4.0
            _require(
                res["final_train_loss"] >= floor - 1e-9,
                f"genbound {label}: final loss {res['final_train_loss']!r} "
                f"below the minimum {floor!r}",
            )
        if obj.kind not in ("masked", "vlm"):
            continue
        bounds = report["bounds"][label]
        want = [f"{rho:g}" for rho in obj.bound_ratios()]
        _require(sorted(bounds) == sorted(want), f"genbound {label}: ratios {sorted(bounds)}")
        for key, terms in bounds.items():
            rho = float(key)
            u = round(params["s"] * (1.0 - rho))
            weights = {int(k): w for k, w in terms["weights"].items()}
            _require(
                sorted(weights) == list(range(2, u + 1))
                and all(_close(w, u**3 - (k - 1) ** 3, rel=1e-9)
                        for k, w in weights.items()),
                f"genbound {label}@{key}: weights {weights}",
            )
            bound = masked_bound(params["s"], rho, terms["delta"],
                                 terms["eta"], terms["output_norm"])
            _require(
                _close(terms["bound"], bound, rel=1e-9),
                f"genbound {label}@{key}: bound {terms['bound']!r}, "
                f"recomputed {bound!r}",
            )
            _require(
                res["gen_loss"] <= terms["bound"] + 1e-9,
                f"genbound {label}@{key}: gen_loss {res['gen_loss']!r} above "
                f"the bound {terms['bound']!r}",
            )
    _require(
        ("ar" in models) == (report["delta_ar"] is not None),
        "genbound: delta_ar present iff an ar model was trained",
    )


CHECKS = {
    "spectrum": check_spectrum,
    "identity": check_identity,
    "factorize": check_factorize,
    "probe": check_probe,
    "masks": check_masks,
    "genbound": check_genbound,
}


def check_operation(cfg: dict, out_dir) -> None:
    """Run the checker for the config's experiment on its output directory."""
    CHECKS[cfg["experiment"]](cfg, out_dir)


def digest(out_dir) -> dict[str, str]:
    """SHA-256 of every file an operation wrote, by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_repeat(first: dict[str, str], again: dict[str, str], where: str) -> None:
    """A repeated operation must write byte-identical files."""
    _require(
        sorted(first) == sorted(again),
        f"{where}: rerun wrote {sorted(again)}, first run {sorted(first)}",
    )
    for name in first:
        _require(first[name] == again[name], f"{where}: {name} differs on rerun")
