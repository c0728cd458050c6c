"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload rsa-sweep --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds ``src/repro``. The
workloads, their metrics and the layer each per-layer metric belongs
to are described in ``perfbench/README.md``; ``BENCHMARK.json`` at the
checkout root lists the metric names, units and bounds.

Standard output: a context line, one line per metric with its unit and
sample count, notes (latency tails, trace coverage), and, last, the
JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones. A checkout without the program exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: End-to-end metrics: name -> unit. Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER = {
    "distillation.pipelines": "count",
    "distillation.catalog_s": "s",
    "distillation.feasible_ratio": "fraction",
    "distillation.design_calls": "count",
    "distillation.design_self_s": "s",
    "programs.counts_calls": "count",
    "programs.counts_s": "s",
    "spec.hash_calls": "count",
    "spec.hash_s": "s",
    "spec.resolve_s": "s",
    "store.get_calls": "count",
    "store.get_s": "s",
    "store.hit_ratio": "fraction",
    "store.put_s": "s",
    "result.from_dict_s": "s",
    "result.to_dict_s": "s",
    "stages.pipeline_calls": "count",
    "stages.fixed_point_s": "s",
    "batch.factory_hit_ratio": "fraction",
    "batch.distance_hit_ratio": "fraction",
    "kernel.vectorized_points": "count",
    "kernel.scalar_points": "count",
    "engine.run_s": "s",
    "engine.chunks": "count",
    "engine.pool_spawns": "count",
    "sweep.self_s": "s",
    "sweep.to_dict_s": "s",
    "cli.encode_s": "s",
    "service.hit_alone_p50_ms": "ms",
    "service.store_hit_ratio": "fraction",
    "trace.coverage": "fraction",
    "trace.overhead": "ratio",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """Short digest of the program's sources; identifies code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def context_line(args: argparse.Namespace) -> str:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return (
        f"context: rev={git_rev()} src={source_digest()} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy} "
        f"load1={os.getloadavg()[0]:.2f} seed={args.seed} workload={args.workload} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )


def end_to_end(outcome) -> dict[str, tuple[float, list[float]]]:
    """Median of each end-to-end metric's samples, with the samples."""
    values = {name: (statistics.median(samples), samples) for name, samples in outcome.samples.items()}
    values["peak_rss_mb"] = (outcome.peak_rss_mb, [outcome.peak_rss_mb])
    return values


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    from clock import SpeedReference
    from workloads import WORK, WORKLOADS

    # Children inherit an ignored SIGINT (as under a non-interactive
    # shell's "&"), but a handled one resets to the default on exec, and
    # servers are stopped with SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # On SIGTERM, unwind so that servers and the speed reference stop.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    print(context_line(args), flush=True)
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        # End-to-end times are normalized to a reference machine speed
        # (clock.py); traced runs report plain times of the whole machine.
        with SpeedReference(enabled=not args.trace) as speed:
            outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), scratch, speed)
            outcome.notes.append(speed.note())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        table = PER_LAYER
        values = {name: (outcome.layers.get(name, 0), [0]) for name in PER_LAYER}
    else:
        table = END_TO_END
        values = end_to_end(outcome)
    for name, unit in table.items():
        value, samples = values[name]
        spread = f", range {min(samples):.6g}..{max(samples):.6g}" if len(samples) > 1 else ""
        print(f"metric {name} = {value:.6g} {unit} (n={len(samples)}{spread})")
    if not args.trace:
        walls = ", ".join(f"{name} {statistics.median(wall):.6g} s" for name, wall in outcome.wall.items())
        print(f"note wall-time medians: {walls}")
    for note in outcome.notes:
        print(f"note {note}")
    failed = len(outcome.failures)
    print(f"error_rate = {failed / outcome.attempted:.6g} ({failed} of {outcome.attempted} operations failed)")
    for failure in outcome.failures[:20]:
        print(f"failure {failure}")
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in table.items()}
    print(json.dumps({"correct": failed == 0, "attempted": outcome.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
