"""Write the outputs of every bench `exact` and `train` config, of the c12
rerun configs and of `EXTRA_CONFIGS`, into one directory; or list what
moved between two such directories.

    python3 tests/dump_outputs.py OUT [--seeds 1 7]
    python3 tests/dump_outputs.py OUT --diff PARENT_OUT

`cospec` is imported from the `src/` of the checkout holding this script,
with one BLAS thread, as `bench/run.py` runs it. A change keeps every
output byte-identical when a dump made in a checkout of the change (OUT)
and one made in a checkout of the parent (PARENT_OUT) do not differ.
`--diff` makes no dump: it prints one JSON line `[path, parent, change]`
per moved value of a CSV cell (`file.csv:row:column`, from 1) or a JSON
leaf (`file.json:key/index/...`), per file or directory that is on one
side only or is a file on one side and a directory on the other
(`"<file>"` and `"<dir>"` mark what each side has), and per file that
differs in bytes but in no value (`"<bytes>"`). So a directory left behind,
even an empty one, shows. It prints nothing, and exits 0, when the trees
are identical. Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "bench")]

import workloads  # noqa: E402

_MIXED = ["ar", "dar:2", "masked:0.25", "vlm:0.25-0.5"]
_WIDE = ["ar", "vlm:0.5-0.75"]
_AR_LAST = ["vlm:0.25-0.5", "dar:2", "ar"]
_NO_AR = ["masked:0.5", "vlm:0.25-0.5"]
# Branches the other configs miss: prefix and mask models side by side in
# `genbound` and `sweep`, with and without `rho_m`, with the next-token
# baseline after the mask models and with no baseline at all, a mask ratio
# that leaves one position hidden (`masked:0.25` at s = 4), bound ratios
# dropped for leaving one position visible (u = 1 on the grid of
# `vlm:0.5-0.75` at s = 4) or for lying off the model's grid (0.25), and
# the closed form of a ratio range and of a wide lookahead window in
# `spectrum`; and a `genbound` with no next-token model at T = 3, which
# builds the `ar` joint only to score generation, at a T where the
# corpus weights T^(s-k) of the prefixes are not powers of 2.
EXTRA_CONFIGS = [
    *({"experiment": experiment, "params": {"r": 1, "s": 4, "T": 2},
       "objectives": objectives, "train": {"steps": 60}, "seeds": 2,
       "seed": 5, **extra}
      for objectives, extra, experiments in (
          (_MIXED, {}, ("genbound", "sweep")),
          (_MIXED, {"rho_m": [0.25, 0.5]}, ("genbound", "sweep")),
          (_WIDE, {}, ("genbound", "sweep")),
          (_WIDE, {"rho_m": [0.25, 0.5, 0.75]}, ("genbound", "sweep")),
          (_AR_LAST, {}, ("genbound", "sweep")),
          (_NO_AR, {}, ("sweep",)))
      for experiment in experiments),
    {"experiment": "genbound", "params": {"r": 1, "s": 4, "T": 3},
     "objectives": _NO_AR, "train": {"steps": 60}, "seed": 5},
    {"experiment": "spectrum", "params": {"r": 2, "s": 4, "T": 2},
     "objectives": ["masked:0.25", "vlm:0.25-0.75", "dar:3"], "seed": 5},
    # two-stream groups: one group only, one group per position, a short
    # last group, more trials than one stacked forward takes, and exactly
    # two full stacks
    *({"experiment": "masks", "params": {"r": 2, "s": s, "T": 2},
       "assignment": assignment, "trials": trials, "seed": 5}
      for s, assignment, trials in ((3, "g1=3,t=3", 20), (4, "g1=1,t=1", 20),
                                    (5, "g1=1,t=3", 20),
                                    (4, "g1=1,t=2", 2500),
                                    (5, "g1=2,t=2", 2048))),
    # the `assignment` default, which no other masks config leaves out
    {"experiment": "masks", "params": {"r": 2, "s": 5, "T": 2}, "trials": 20,
     "seed": 5},
    # the exact runners on a lookahead window and on a ratio that leaves
    # one position hidden, and once with a `rank` above the smaller side
    *({"experiment": experiment, "params": {"r": 1, "s": 4, "T": 2},
       "objectives": ["dar:2", "masked:0.25"], "trials": 20, "seed": 5,
       **extra}
      for experiment, extra in (("identity", {}), ("factorize", {}),
                                ("probe", {}), ("factorize", {"rank": 100}))),
]


def dump(out: str, seeds) -> dict:
    """Run every config into `out`; return the number of files and of
    directories below it, by the marks `_entries` gives them."""
    workloads.pin_blas()
    cli = workloads.import_cospec().cli
    from test_acceptance import RERUN_CONFIGS

    runs = []
    for workload in ("exact", "train"):
        for seed in seeds:
            for i, cfg in enumerate(workloads.configs(workload, seed)):
                name = f"{workload}_seed{seed}/op{i}_{cfg['experiment']}"
                runs.append((name, dict(cfg, seed=seed)))
    runs += [(f"rerun/{cfg['experiment']}", cfg) for cfg in RERUN_CONFIGS]
    runs += [(f"extra/op{i}_{cfg['experiment']}", cfg)
             for i, cfg in enumerate(EXTRA_CONFIGS)]
    os.makedirs(out)
    for name, cfg in runs:
        target = os.path.join(out, name)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", json.dumps(cfg),
                             "--out", target])
        if code != 0:
            raise SystemExit(f"{name}: cospec exited {code}")
    kinds = list(_entries(out).values())
    return {kind: kinds.count(kind) for kind in ("<file>", "<dir>")}


def _entries(top: str) -> dict:
    """`"<file>"` or `"<dir>"` of every entry below `top`, by its path
    relative to `top`."""
    return {os.path.relpath(os.path.join(root, name), top): kind
            for root, dirs, files in os.walk(top)
            for kind, names in (("<dir>", dirs), ("<file>", files))
            for name in names}


def diff(parent: str, change: str):
    """Yield (path, parent value, change value) for each moved value."""
    trees = [_entries(top) for top in (parent, change)]
    for path in sorted(trees[0].keys() | trees[1].keys()):
        kinds = trees[0].get(path), trees[1].get(path)
        if kinds[0] != kinds[1]:
            yield path, *kinds
        elif kinds[0] == "<file>":
            old, new = (_read(os.path.join(top, path))
                        for top in (parent, change))
            if old != new:
                moved = list(_moved_values(path, old.decode(), new.decode()))
                yield from moved or [(path, "<bytes>", "<bytes>")]


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _moved_values(path, old: str, new: str):
    if path.endswith(".json"):
        leaves = [dict(_leaves(json.loads(text))) for text in (old, new)]
    elif path.endswith(".csv"):
        leaves = [{f"{i}:{j}": cell
                   for i, row in enumerate(csv.reader(io.StringIO(text)), 1)
                   for j, cell in enumerate(row, 1)} for text in (old, new)]
    else:
        return
    for key in sorted(leaves[0] | leaves[1]):
        a, b = (side.get(key) for side in leaves)
        if a != b or type(a) is not type(b):
            yield f"{path}:{key}", a, b


def _leaves(obj, prefix=""):
    """(key path, value) for each scalar in a JSON value."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else None)
    if items is None:
        yield prefix, obj
        return
    for key, value in items:
        yield from _leaves(value, f"{prefix}/{key}" if prefix else str(key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory to create and fill, or with "
                        "--diff, the change's dump")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    parser.add_argument("--diff", metavar="PARENT_OUT",
                        help="list the values that moved from this dump to OUT")
    args = parser.parse_args(argv)
    if args.diff is not None:
        moved = 0
        for moved, line in enumerate(diff(args.diff, args.out), 1):
            print(json.dumps(list(line)))
        return 1 if moved else 0
    counts = dump(args.out, args.seeds)
    print(f"{counts['<file>']} files and {counts['<dir>']} directories in "
          f"{args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
