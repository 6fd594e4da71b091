"""Workload definitions: the `cospec run` configs each workload executes.

Every config is generated from the workload name and the benchmark seed, so
the same seed gives the same inputs. The seed reaches the program only as
the config's own `seed` field (identity trials, GD starts, model inits,
mask perturbations); shapes, objectives and step counts are fixed per
workload, so the amount of work does not depend on the seed except through
how many GD iterations a factorization needs to converge.

Run as a script, this module is the set-up probe that `run.py` repeats to
time set-up in a fresh interpreter:

    python3 bench/workloads.py --workload exact --seed 1 --out DIR

It imports `cospec` from the checkout's `src/`, writes the configs into DIR
and prints the set-up seconds as one JSON line.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# One BLAS thread: the load comes from one process, and on this class of
# box one thread trains faster and more steadily than two. Set before numpy
# is imported, here and in every interpreter the benchmark starts.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

WORKLOADS = ("exact", "train")


def pin_blas() -> None:
    os.environ.update(BLAS_ENV)


def import_cospec():
    """Import `cospec` from this checkout's `src/`, never from elsewhere."""
    init = os.path.join(SRC, "cospec", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"bench: no cospec sources at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import cospec
    import cospec.cli

    found = os.path.realpath(cospec.__file__)
    if not found.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"bench: imported cospec from {found}, not {SRC}")
    return cospec


def _p(r, s, t):
    return {"r": r, "s": s, "T": t}


def configs(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The ordered operations of one round of `workload`, as config dicts.

    `smoke` shrinks every shape and step count so that the whole workload,
    with every check, runs in a few seconds.
    """
    if workload == "exact":
        if smoke:
            return [
                {"experiment": "spectrum", "params": _p(2, 4, 2),
                 "objectives": ["ar", "masked:0.5", "dar:2", "vlm:0.25-0.5"]},
                {"experiment": "identity", "params": _p(2, 4, 2),
                 "objectives": ["ar", "vlm:0.25-0.5"], "trials": 3},
                {"experiment": "factorize", "params": _p(2, 4, 2),
                 "objectives": ["ar", "masked:0.5", "dar:2"]},
                {"experiment": "probe", "params": _p(2, 4, 2),
                 "objectives": ["masked:0.5", "vlm:0.25-0.5"]},
                {"experiment": "masks", "params": _p(2, 4, 2),
                 "assignment": "g1=1,t=2", "trials": 3},
            ]
        return [
            {"experiment": "spectrum", "params": _p(2, 8, 2),
             "objectives": ["ar", "masked:0.5", "masked:0.75", "dar:2",
                            "vlm:0.5-0.75"]},
            {"experiment": "spectrum", "params": _p(3, 6, 3),
             "objectives": ["ar", "masked:0.5", "dar:2", "vlm:0.5-0.67"]},
            {"experiment": "spectrum", "params": _p(2, 6, 4),
             "objectives": ["ar", "masked:0.5", "dar:3", "vlm:0.34-0.67"]},
            {"experiment": "identity", "params": _p(2, 8, 2),
             "objectives": ["ar", "masked:0.5", "vlm:0.5-0.75"], "trials": 15},
            {"experiment": "factorize", "params": _p(2, 8, 2),
             "objectives": ["ar", "masked:0.5", "dar:2", "vlm:0.5-0.75"]},
            {"experiment": "probe", "params": _p(2, 8, 2),
             "objectives": ["masked:0.5", "masked:0.75", "dar:2",
                            "vlm:0.5-0.75"]},
            {"experiment": "probe", "params": _p(3, 6, 3),
             "objectives": ["masked:0.5", "vlm:0.5-0.67"]},
            {"experiment": "masks", "params": _p(2, 8, 2),
             "assignment": "g1=2,t=2", "trials": 100},
        ]
    if workload == "train":
        if smoke:
            return [
                {"experiment": "genbound", "params": _p(1, 4, 2),
                 "objectives": ["ar", "masked:0.5", "vlm:0.25-0.5"],
                 "train": {"steps": 60}},
            ]
        return [
            {"experiment": "genbound", "params": _p(2, 8, 2),
             "objectives": ["masked:0.5", "vlm:0.5-0.75"]},
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def write_configs(workload: str, seed: int, out_dir, smoke=False):
    """Write one JSON file per operation; return [(path, config)]."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for i, cfg in enumerate(configs(workload, seed, smoke)):
        cfg = dict(cfg, seed=seed)
        path = os.path.join(out_dir, f"op{i}_{cfg['experiment']}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, sort_keys=True)
        written.append((path, cfg))
    return written


def setup(workload: str, seed: int, out_dir, smoke=False):
    """Import cospec and generate the configs; return (seconds, configs)."""
    start = time.perf_counter()
    import_cospec()
    written = write_configs(workload, seed, out_dir, smoke)
    return time.perf_counter() - start, written


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    pin_blas()
    seconds, _ = setup(args.workload, args.seed, args.out, args.smoke)
    print(json.dumps({"setup_s": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
