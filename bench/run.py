"""Benchmark for `cospec`: end-to-end metrics, output checks, traced layers.

    python3 bench/run.py --workload exact --seed 1 --seconds 35 --trace 0

Runs whole rounds of the workload's operations, each one
`cospec.cli.main(["run", "--config", ...])` in this process, until
`--seconds` have passed, and checks every output. The last line of stdout
is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones: `setup_s` (median of
several fresh-interpreter set-ups), and per round `wall_s` and `cpu_s`
(medians over rounds) and `peak_rss_mb`. With `--trace 1` untraced and
traced rounds alternate and the metrics are the per-layer ones from the
traced rounds (see tracing.py). Outputs go under `.bench_runs/` in the
checkout and are removed at exit. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads

SETUP_REPEATS = 7


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child's, in MiB."""
    kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


class Run:
    """Executes rounds of operations, timing, checking and comparing them."""

    def __init__(self, ops, run_dir):
        import checks
        import cospec.cli

        self.ops = ops
        self.run_dir = run_dir
        self.checks = checks
        self.main = cospec.cli.main
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first_digests = {}
        self.rounds = 0

    def round(self, tracer=None) -> tuple[float, float]:
        """Run every operation once; return (wall seconds, CPU seconds)."""
        round_dir = os.path.join(self.run_dir, f"round{self.rounds}")
        self.rounds += 1
        wall = cpu = 0.0
        for i, (path, cfg) in enumerate(self.ops):
            out_dir = os.path.join(round_dir, f"op{i}")
            captured = io.StringIO()
            spans = tracer if tracer is not None else contextlib.nullcontext()
            self.attempted += 1
            with spans, contextlib.redirect_stdout(captured), \
                    contextlib.redirect_stderr(captured):
                c0, t0 = cpu_seconds(), time.perf_counter()
                try:
                    code = self.main(["run", "--config", path, "--out", out_dir])
                except Exception as exc:  # a traceback is a failed operation
                    code = f"{type(exc).__name__}: {exc}"
                t1, c1 = time.perf_counter(), cpu_seconds()
            wall += t1 - t0
            cpu += c1 - c0
            if code != 0:
                self.failed += 1
                print(f"op{i} {cfg['experiment']} failed: {code} "
                      f"{captured.getvalue().strip()}", file=sys.stderr)
                continue
            self.verify(i, cfg, out_dir)
        shutil.rmtree(round_dir, ignore_errors=True)
        print(f"round {self.rounds - 1}{' traced' if tracer else ''}: "
              f"wall {wall:.4f} s, cpu {cpu:.4f} s", file=sys.stderr)
        return wall, cpu

    def verify(self, i, cfg, out_dir) -> None:
        where = f"op{i} {cfg['experiment']} round {self.rounds - 1}"
        try:
            digest = self.checks.digest(out_dir)
            if i in self.first_digests:
                # Byte-identical to an output that passed every check.
                self.checks.check_repeat(self.first_digests[i], digest, where)
            else:
                self.checks.check_operation(cfg, out_dir)
                self.first_digests[i] = digest
        except (self.checks.CheckError, OSError, KeyError, ValueError) as exc:
            self.errors.append(f"{where}: {type(exc).__name__}: {exc}")
            print(f"check failed: {self.errors[-1]}", file=sys.stderr)


def setup_samples(args, first: float, run_dir) -> list[float]:
    """Set-up seconds: this process's, then fresh interpreters' repeats."""
    samples = [first]
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "workloads.py")
    for i in range(SETUP_REPEATS - 1):
        cmd = [sys.executable, script, "--workload", args.workload,
               "--seed", str(args.seed),
               "--out", os.path.join(run_dir, f"setup{i}")]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                              check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def measure(args, run_dir, ops, setup_first: float) -> dict:
    import tracing

    run = Run(ops, run_dir)
    start = time.perf_counter()
    plain, traced = [], []
    tracer = tracing.Tracer() if args.trace else None
    while True:
        if tracer is not None and len(plain) > len(traced):
            traced.append(run.round(tracer))
        else:
            plain.append(run.round())
        if time.perf_counter() - start >= args.seconds and (
            tracer is None or traced
        ):
            break
    if tracer is not None:
        metrics = tracing.layer_metrics(
            tracer,
            rounds=len(traced),
            traced_wall=statistics.fmean(w for w, _ in traced),
            untraced_wall=statistics.fmean(w for w, _ in plain),
        )
    else:
        rss = peak_rss_mb()  # before the set-up children below run
        setup = statistics.median(setup_samples(args, setup_first, run_dir))
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": statistics.median(w for w, _ in plain),
                       "unit": "s"},
            "cpu_s": {"value": statistics.median(c for _, c in plain),
                      "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    return {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes and step counts, every check on")
    args = parser.parse_args(argv)
    workloads.pin_blas()
    run_dir = os.path.join(workloads.ROOT, ".bench_runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_first, ops = workloads.setup(
            args.workload, args.seed, os.path.join(run_dir, "configs"),
            args.smoke,
        )
        result = measure(args, run_dir, ops, setup_first)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while another run uses it
            os.rmdir(os.path.dirname(run_dir))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
