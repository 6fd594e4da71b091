"""Run alternating parent/change pairs of `bench/run.py` and summarize them.

    python3 tests/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \
        --out BENCH_<n>.json [--seed 1]

PARENT_DIR and CHANGE_DIR are two checkouts, best of equal path length.
The change's BENCHMARK.json fixes the workloads, the run length S
(`run_seconds`) and the end-to-end metrics. For each workload, pair k of
10 runs `python3 bench/run.py --workload W --seed SEED+k --seconds S
--trace 0` once in each checkout, under `env -i` with only PATH and HOME
set, so that the environment's size does not move peak RSS. The parent
runs first in even pairs and the change in odd ones.

The output JSON holds every run's result, and per workload and end-to-end
metric of the change's BENCHMARK.json: each side's median and quartiles,
the change's median over the parent's, the pairs the change won (ties
count for neither), the parent's quartile spread, whether the change's
median is within the metric's bound of the parent's, and whether it beats
the parent's by more than that spread. Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
PAIRS = 10


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run in `checkout`: its last stdout line, parsed,
    which it prints whether or not its checks pass."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
           "HOME": os.environ.get("HOME", "/")}
    cmd = ["env", "-i", *(f"{k}={v}" for k, v in env.items()), "python3",
           "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=20 * seconds + 300)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}") from None


def quartiles(values: list[float]) -> dict:
    """Median and quartiles of `values`, and the values in run order."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric, the two sides' statistics and the verdicts."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        entry = {
            "pairs": len(pairs),
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
            "correct": {s: all(p[s]["correct"] for p in pairs) for s in SIDES},
        }
        for metric in metrics:
            name = metric["name"]
            sign = 1 if metric["better"] == "lower" else -1
            values = {s: [p[s]["metrics"][name]["value"] for p in pairs]
                      for s in SIDES}
            stats = {s: quartiles(values[s]) for s in SIDES}
            parent = stats["parent"]["median"]
            change = stats["change"]["median"]
            spread = stats["parent"]["q3"] - stats["parent"]["q1"]
            won = sum(sign * (c - p) < 0
                      for p, c in zip(values["parent"], values["change"]))
            entry[name] = {
                **stats,
                "change_over_parent_median": change / parent,
                "pairs_change_better": f"{won}/{len(pairs)}",
                "parent_iqr": spread,
                "within_bound": (sign * (change - parent)
                                 <= metric["bound"] * parent),
                "gain_exceeds_parent_iqr": sign * (parent - change) > spread,
            }
        out[workload] = entry
    return out


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    runs = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for k in range(PAIRS):
            seed = args.seed + k
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                result = run_bench(checkouts[side], workload, seed, seconds)
                runs.append({"workload": workload, "pair": k, "seed": seed,
                             "side": side, "result": result})
                print(f"{workload} pair {k} {side}: "
                      f"{json.dumps(result['metrics'])}", file=sys.stderr)
    report = {
        "command": (f"python3 bench/run.py --workload W --seed N --seconds "
                    f"{seconds:g} --trace 0"),
        "protocol": (f"{PAIRS} alternating pairs per workload, seeds "
                     f"{args.seed}..{args.seed + PAIRS - 1}; the parent "
                     "runs first in even pairs; each run under env -i with "
                     "only PATH and HOME"),
        "machine": machine(),
        "summary": summarize(runs, benchmark["end_to_end"]),
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
