"""Command line entry point.

`cospec run --config cfg.json [--out dir] [--seed n]` executes one
experiment; `cospec list` prints the registry. Exit codes: 0 on success,
2 for config problems, 3 for numeric failures, 4 for blown size budgets
and allocations the machine refuses.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import DomainError, NumericError, ResourceError
from .experiments import EXPERIMENTS, load_config, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_RESOURCE = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cospec",
        description="Exact spectra and generation bounds for pretraining "
        "objectives on an enumerable toy corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute one experiment from a config")
    run.add_argument("--config", required=True, help="path to a JSON config")
    run.add_argument(
        "--out", default=None,
        help="output directory (default: <experiment>_out)",
    )
    run.add_argument(
        "--seed", type=int, default=None, help="override the config seed"
    )
    sub.add_parser("list", help="print available experiment names")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return EXIT_OK
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        out_dir = args.out if args.out else f"{cfg.experiment}_out"
        run_experiment(cfg, out_dir)
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ResourceError, MemoryError) as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    print(f"wrote {out_dir}/report.json")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
