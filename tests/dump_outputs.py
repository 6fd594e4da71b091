"""Write the outputs of every bench `exact` and `train` config, and of the
c12 rerun configs, into one directory.

    python3 tests/dump_outputs.py OUT [--seeds 1 7]

`cospec` is imported from the `src/` of the checkout holding this script,
with one BLAS thread, as `bench/run.py` runs it. A change keeps every
output byte-identical when `diff -r` of a dump made in a checkout of the
parent and one made in a checkout of the change is empty. Pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory to create and fill")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    args = parser.parse_args(argv)
    print(f"{dump(args.out, args.seeds)} files in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
