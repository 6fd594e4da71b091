"""Write the outputs of every bench `exact` and `train` config, and of the
c12 rerun configs, into one directory; or list what moved between two such
directories.

    python3 tests/dump_outputs.py OUT [--seeds 1 7]
    python3 tests/dump_outputs.py OUT --diff PARENT_OUT

`cospec` is imported from the `src/` of the checkout holding this script,
with one BLAS thread, as `bench/run.py` runs it. A change keeps every
output byte-identical when a dump made in a checkout of the change (OUT)
and one made in a checkout of the parent (PARENT_OUT) do not differ.
`--diff` makes no dump: it prints one JSON line `[path, parent, change]`
per moved value of a CSV cell (`file.csv:row:column`, from 1) or a JSON
leaf (`file.json:key/index/...`), and per file that is on one side only
(`"<file>"` marks the side that has it) or differs in bytes but in no value
(`"<bytes>"`). It prints nothing, and exits 0, when the trees are
identical. Pytest does not collect this file.
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


def dump(out: str, seeds) -> int:
    """Run every config into `out`; return the number of files written."""
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
    os.makedirs(out)
    for name, cfg in runs:
        target = os.path.join(out, name)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", json.dumps(cfg),
                             "--out", target])
        if code != 0:
            raise SystemExit(f"{name}: cospec exited {code}")
    return sum(len(files) for _, _, files in os.walk(out))


def diff(parent: str, change: str):
    """Yield (path, parent value, change value) for each moved value."""
    trees = [{os.path.relpath(os.path.join(root, name), top)
              for root, _, names in os.walk(top) for name in names}
             for top in (parent, change)]
    for path in sorted(trees[0] | trees[1]):
        if path not in trees[0]:
            yield path, None, "<file>"
        elif path not in trees[1]:
            yield path, "<file>", None
        else:
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
    print(f"{dump(args.out, args.seeds)} files in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
