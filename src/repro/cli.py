"""Command-line interface: estimate resources without writing Python.

Mirrors the submit-a-job experience of the cloud tool (paper Sec. IV-A):
feed it an algorithm (logical counts as JSON, a QIR file, or a named
registry program), pick a hardware profile and budget, get the report.

Usage::

    python -m repro --counts counts.json --profile qubit_gate_ns_e3
    python -m repro --qir program.ll --profile qubit_maj_ns_e4 \\
        --budget 1e-4 --qec-scheme floquet_code --max-t-factories 10 --json
    python -m repro --program rsa_2048 --backend counting \\
        --profile qubit_maj_ns_e4 --budget 1e-4 --store /var/cache/repro

``--program NAME`` references the registry's open program catalog
(predefined ``rsa_1024`` / ``rsa_2048``, extended by ``--scenario``
``programs`` entries of any kind: multiplier, modexp, qir, formula,
random, counts); ``repro registry`` prints the whole catalog as JSON and
``repro store stats`` reports what a store is holding per namespace
(results, sweeps, and the logical-counts cache).

``counts.json`` uses the LogicalCounts field names::

    {"num_qubits": 100, "t_count": 1000000, "ccz_count": 500000,
     "rotation_count": 0, "rotation_depth": 0, "measurement_count": 10000}

Grid sweeps run through the shared batch engine (one trace per circuit,
memoized factory designs and distance lookups, optional process fan-out)::

    python -m repro batch grid.json --workers 4 --json

``grid.json`` describes a cartesian sweep. Programs are either the paper's
multipliers (``algorithms`` x ``bits``) or explicit logical counts
(``counts``: one dict or a list of dicts); the grid crosses them with
``profiles`` x ``budgets`` x ``depth_factors``::

    {"algorithms": ["schoolbook", "windowed"], "bits": [64, 128],
     "profiles": ["qubit_maj_ns_e4"], "budgets": [1e-4],
     "depth_factors": [1.0], "qec_scheme": null, "max_t_factories": null,
     "max_duration_ns": null, "max_physical_qubits": null}

Infeasible points are reported per row (and set a non-zero exit status)
rather than aborting the sweep.

``repro sweep`` runs a declarative sweep file — axes over registry
names, numeric ranges, or inline spec fragments, cartesian or zipped,
with an optional per-group frontier objective — in store-backed chunks::

    python -m repro sweep sweep.json --store /var/cache/repro --resume \\
        --csv results.csv

Every completed chunk is persisted before the next starts, so a killed
sweep re-run with ``--resume`` picks up from its completed points and
produces a bit-for-bit identical result (README section "Sweeps and
frontiers"). The same sweep documents drive the service's async job API
(``POST /v1/sweeps`` -> 202 + job id, ``GET /v1/jobs/<id>`` to poll,
``GET /v1/sweeps/<id>/result`` when done).

``repro optimize`` answers the *inverse* question — "cheapest
configuration with runtime <= 1 day" — adaptively over the same axes
vocabulary instead of densely gridding it::

    python -m repro optimize optimize.json --store /var/cache/repro

Monotone axes (error budget; ``constraints.logicalDepthFactor``) are
bisected to the feasibility boundary and objective plateau, other axes
fall back to bounded refinement; every probe batch reuses the store, so
re-running a finished question answers from its stored probe trace with
zero engine evaluations. The same documents drive ``POST /v1/optimize``
async jobs (README section "Inverse design (`repro optimize`)").

``repro bench trace`` prints per-stage timings (build vs trace vs
estimate) for one workload so performance work has a one-command
baseline, and exposes the count-resolution backend choice::

    python -m repro bench trace --algorithm modexp --bits 2048 \\
        --backend counting --json

How a run executes — ``--workers``, ``--executor {local,queue}``,
``--chunk-size``, ``--lease-ttl`` — is one
:class:`~repro.estimator.engine.ExecutionPolicy`, built once per command
from the same flag helper on ``batch``, ``sweep``, ``optimize``, ``work``
and ``serve``; none of it ever changes results or hashes.

Both ``batch`` and ``bench trace`` accept ``--backend
{formula,materialize,counting}``: closed-form tallies, a fully
materialized instruction stream, or the streaming counting builder
(identical counts; see the README section "Counting backend and scaling
limits").

Every subcommand accepts ``--scenario hw.json`` (repeatable) to register
user-defined qubit profiles / QEC schemes / distillation units, opening
the ``--profile`` and ``qec_scheme`` choices beyond the predefined sets
(README section "Scenario files"), and most accept ``--store DIR``, a
content-addressed persistent result store: re-running a spec whose hash
is already stored answers from disk instead of re-estimating.

``repro serve`` runs the estimation service — a JSON HTTP API mirroring
the paper's submit-a-job workflow (POST a spec or batch of specs, GET a
stored result by spec hash) over the shared batch engine with the store
behind it — and ``repro submit`` is its thin client::

    python -m repro serve --port 8000 --store /var/cache/repro &
    python -m repro submit --url http://127.0.0.1:8000 \\
        --counts counts.json --profile qubit_gate_ns_e3

(README section "Running as a service".)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from .budget import ErrorBudget
from .counts import COUNT_BACKENDS, LogicalCounts
from .estimator import Constraints
from .estimator.engine import ExecutionPolicy, chunk_size_for
from .estimator.spec import EstimateSpec, ProgramRef, run_specs
from .estimator.store import ResultStore, default_store_root
from .estimator.sweep import SweepSpec, run_sweep, stored_sweep
from .jsonlog import dumps_indented
from .qubits import PREDEFINED_PROFILES
from .registry import Registry, default_registry

#: Count-resolution backends exposed by ``batch`` and ``bench trace``
#: (one tuple in :mod:`repro.counts`, so a new backend shows up in both
#: CLI parsers automatically).
COUNT_BACKEND_CHOICES = COUNT_BACKENDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant quantum resource estimation "
        "(Azure Quantum Resource Estimator reproduction).",
        epilog="Grid sweeps: 'repro batch grid.json [--workers N] [--json]' "
        "runs many points through the cached batch engine "
        "(see 'repro batch --help').",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--counts", type=Path, help="JSON file with LogicalCounts fields"
    )
    source.add_argument("--qir", type=Path, help="QIR text file (.ll)")
    _add_program_argument(source)
    _add_profile_argument(parser)
    parser.add_argument(
        "--backend",
        choices=COUNT_BACKEND_CHOICES,
        default="formula",
        help="how a referenced --program resolves its counts (identical "
        "results; default: formula)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=1e-3,
        help="total error budget (default: 1e-3)",
    )
    parser.add_argument(
        "--qec-scheme",
        default=None,
        help="QEC scheme name (default: technology default — surface_code "
        "for gate-based, floquet_code for Majorana)",
    )
    parser.add_argument(
        "--max-t-factories",
        type=int,
        default=None,
        help="cap on parallel T-factory copies",
    )
    parser.add_argument(
        "--depth-factor",
        type=float,
        default=1.0,
        help="logical-depth slowdown factor >= 1 (trades runtime for qubits)",
    )
    _add_scenario_argument(parser)
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help="content-addressed result store directory; a re-run of the "
        "same spec answers from disk",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full eight-group report as JSON instead of the summary",
    )
    parser.add_argument(
        "--assess",
        action="store_true",
        help="also classify the result against the quantum computing "
        "implementation levels",
    )
    return parser


def _add_profile_argument(
    parser: argparse.ArgumentParser, default: str = "qubit_gate_ns_e3"
) -> None:
    """The hardware profile option (open set: registry + scenario files)."""
    parser.add_argument(
        "--profile",
        default=default,
        help=f"hardware profile name — predefined "
        f"({', '.join(sorted(PREDEFINED_PROFILES))}) or defined by a "
        f"--scenario file (default: {default})",
    )


def _add_program_argument(parser) -> None:
    """The named-program option (open set: registry + scenario files)."""
    parser.add_argument(
        "--program",
        default=None,
        metavar="NAME",
        help="named program from the registry — predefined (rsa_1024, "
        "rsa_2048) or defined by a --scenario 'programs' entry; see "
        "'repro registry' for the catalog",
    )


def _add_scenario_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        type=Path,
        action="append",
        default=None,
        metavar="FILE",
        help="scenario JSON file registering custom qubit profiles / QEC "
        "schemes / distillation units (repeatable; see the README section "
        "'Scenario files')",
    )


def _add_execution_arguments(
    parser: argparse.ArgumentParser,
    *,
    workers: str,
    executor: str | None = None,
    executors: tuple[str, ...] = ("local", "queue"),
    chunk_size: bool = False,
    lease_ttl_flag: str | None = "--lease-ttl",
) -> None:
    """A subcommand's :class:`ExecutionPolicy` flags (see ``_execution_policy``).

    ``workers`` and ``executor`` are the help texts of ``--workers`` and
    (when given) ``--executor``. Every default is ``None``, "not typed":
    the policy's own defaults apply, and ``repro serve`` layers its
    scenario settings under what was typed.
    """
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=f"{workers} (1 = serial; default: 1)",
    )
    if executor is not None:
        parser.add_argument(
            "--executor", choices=executors, default=None, help=executor
        )
    if chunk_size:
        parser.add_argument(
            "--chunk-size",
            type=int,
            default=None,
            metavar="N",
            help="points evaluated (and persisted) per chunk "
            "(default: the sweep file's chunkSize, else 16)",
        )
    if lease_ttl_flag is not None:
        parser.add_argument(
            lease_ttl_flag,
            dest="lease_ttl",
            type=float,
            default=None,
            metavar="SECONDS",
            help="queue executor: lease time-to-live — how long a dead "
            "worker's chunk stays unclaimable; heartbeats renew it while "
            "the worker lives (default: 30)",
        )


def _policy_flags(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    names: tuple[str, ...] = ("workers", "executor", "chunk_size", "lease_ttl"),
) -> dict[str, object]:
    """The :class:`ExecutionPolicy` values typed on the command line.

    Each is checked on its own, so a bad one is a usage error naming the
    flag as typed (``repro work --ttl``, ``repro sweep --lease-ttl``),
    not the policy field behind it.
    """
    given = {
        name: value
        for name in names
        if (value := getattr(args, name, None)) is not None
    }
    for name, value in given.items():
        try:
            ExecutionPolicy(**{name: value})
        except ValueError as exc:
            flag = next(
                action.option_strings[0]
                for action in parser._actions
                if action.dest == name and action.option_strings
            )
            parser.error(f"argument {flag}: {str(exc).removeprefix(name + ' ')}")
    return given


def _execution_policy(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> ExecutionPolicy:
    """The command's one :class:`ExecutionPolicy` (see ``_policy_flags``)."""
    return ExecutionPolicy(**_policy_flags(parser, args))


def _load_scenarios(paths: list[Path] | None) -> Registry:
    """Load --scenario files into the process registry; exits on errors."""
    registry = default_registry()
    for path in paths or ():
        try:
            registry.load_scenario(path)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
    return registry


def _resolve_profile(registry: Registry, name: str):
    """Profile lookup with a CLI-friendly failure."""
    try:
        return registry.qubit(name)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")


def _load_program(args: argparse.Namespace):
    if args.counts is not None:
        try:
            data = json.loads(args.counts.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"error: cannot read counts file: {exc}")
        try:
            return LogicalCounts.from_dict(data)
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"error: invalid logical counts: {exc}")
    try:
        text = args.qir.read_text()
    except OSError as exc:
        raise SystemExit(f"error: cannot read QIR file: {exc}")
    from .qir import QIRParseError, parse_qir

    try:
        return parse_qir(text, name=args.qir.stem)
    except QIRParseError as exc:
        raise SystemExit(f"error: QIR parse failed: {exc}")


def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="Sweep a grid of estimation points through the shared "
        "batch engine (cached cross-point work, optional process fan-out).",
    )
    parser.add_argument("grid", type=Path, help="JSON grid specification file")
    _add_execution_arguments(parser, workers="worker processes", lease_ttl_flag=None)
    parser.add_argument(
        "--backend",
        choices=COUNT_BACKEND_CHOICES,
        default="formula",
        help="how referenced program counts are resolved: closed-form "
        "tallies (formula, default), a materialized trace (materialize), "
        "or the streaming counting builder (counting); results are "
        "identical",
    )
    parser.add_argument(
        "--program",
        action="append",
        default=None,
        metavar="NAME",
        help="named registry program added to the grid's program list "
        "(repeatable; with this flag the grid file may omit its own "
        "program section)",
    )
    _add_scenario_argument(parser)
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help="content-addressed result store directory; previously computed "
        "grid points answer from disk (>= 10x on warm re-runs)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON object per grid point instead of the table",
    )
    return parser


#: Recognized top-level grid spec keys; anything else is a likely typo
#: (e.g. "budget" for "budgets") that would silently run with defaults.
_GRID_KEYS = frozenset(
    {
        "algorithms",
        "bits",
        "counts",
        "programs",
        "profiles",
        "budgets",
        "depth_factors",
        "max_t_factories",
        "max_duration_ns",
        "max_physical_qubits",
        "qec_scheme",
    }
)


def _load_grid(path: Path) -> dict:
    try:
        spec = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read grid spec: {exc}")
    if not isinstance(spec, dict):
        raise SystemExit("error: grid spec must be a JSON object")
    unknown = sorted(set(spec) - _GRID_KEYS)
    if unknown:
        raise SystemExit(
            f"error: unknown grid spec keys {unknown}; "
            f"known keys: {sorted(_GRID_KEYS)}"
        )
    return spec


def _grid_programs(
    spec: dict, registry: Registry, extra_names: list[str] | None = None
) -> list[tuple[ProgramRef | LogicalCounts, str]]:
    """(program, label) pairs from a grid spec (plus ``--program`` names).

    Programs come back in declarative form — :class:`ProgramRef` for
    multipliers and named registry programs, inline
    :class:`LogicalCounts` otherwise — ready to embed in
    :class:`EstimateSpec` points. Multiplier sizes and program names are
    validated eagerly so typos fail as spec errors; counting stays lazy
    (resolved in the batch workers through the chosen backend).
    """
    has_multipliers = "algorithms" in spec or "bits" in spec
    has_counts = "counts" in spec
    has_names = "programs" in spec
    sources = sum((has_multipliers, has_counts, has_names))
    if sources > 1 or (sources == 0 and not extra_names):
        raise SystemExit(
            "error: grid spec needs either 'algorithms'+'bits', 'counts', "
            "or 'programs' (or program names via --program)"
        )
    programs: list[tuple[ProgramRef | LogicalCounts, str]] = []
    if has_multipliers:
        algorithms = spec.get("algorithms")
        bits_list = spec.get("bits")
        if not algorithms or not bits_list:
            raise SystemExit(
                "error: multiplier grids need non-empty 'algorithms' and 'bits'"
            )
        from .arithmetic import multiplier_by_name

        for algorithm in algorithms:
            for bits in bits_list:
                try:
                    multiplier_by_name(algorithm, int(bits))  # validate only
                    ref = ProgramRef(
                        kind="multiplier", algorithm=algorithm, bits=int(bits)
                    )
                except (KeyError, ValueError, TypeError) as exc:
                    raise SystemExit(f"error: invalid grid spec: {exc}")
                programs.append((ref, f"{algorithm}/{bits}"))
    elif has_counts:
        counts_spec = spec["counts"]
        if isinstance(counts_spec, dict):
            counts_spec = [counts_spec]
        if not isinstance(counts_spec, list) or not counts_spec:
            raise SystemExit(
                "error: 'counts' must be a dict or non-empty list of dicts"
            )
        for index, data in enumerate(counts_spec):
            try:
                counts = LogicalCounts.from_dict(data)
            except (TypeError, ValueError) as exc:
                raise SystemExit(f"error: invalid logical counts [{index}]: {exc}")
            programs.append((counts, f"counts[{index}]"))
    raw_names = spec.get("programs")
    if raw_names is not None and (not isinstance(raw_names, list) or not raw_names):
        # An empty list must fail like an empty 'counts' — a mis-generated
        # grid running zero points and exiting 0 is a silent no-op.
        raise SystemExit(
            "error: grid 'programs' must be a non-empty list of registry "
            "program names"
        )
    names = list(raw_names or []) + list(extra_names or [])
    for name in names:
        if not isinstance(name, str) or not name:
            raise SystemExit(
                f"error: grid 'programs' entries must be names, got {name!r}"
            )
        try:
            registry.program(name)  # validate eagerly, like profiles
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}")
        programs.append((ProgramRef(name=name), name))
    return programs


def _batch_main(argv: list[str]) -> int:
    parser = build_batch_parser()
    args = parser.parse_args(argv)
    policy = _execution_policy(parser, args)
    registry = _load_scenarios(args.scenario)
    spec = _load_grid(args.grid)

    programs = _grid_programs(spec, registry, args.program)
    profiles = spec.get("profiles")
    if not profiles:
        raise SystemExit("error: grid spec needs non-empty 'profiles'")
    def _float_list(key: str, default: list[float]) -> list[float]:
        raw = spec.get(key, default)
        if not isinstance(raw, list) or not raw:
            raise SystemExit(f"error: '{key}' must be a non-empty list of numbers")
        try:
            return [float(value) for value in raw]
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"error: invalid '{key}' value: {exc}")

    budgets = _float_list("budgets", [1e-3])
    depth_factors = _float_list("depth_factors", [1.0])
    scheme_name = spec.get("qec_scheme")

    # Validate names and parameters eagerly — a typo in the grid is a spec
    # error, not sixteen failed sweep points.
    try:
        for profile in profiles:
            qubit = registry.qubit(profile)
            if scheme_name:
                registry.scheme(scheme_name, qubit)
        for factor in depth_factors:
            Constraints(logical_depth_factor=factor)
        for budget in budgets:
            ErrorBudget(total=budget)
        base_constraints = Constraints(
            max_t_factories=spec.get("max_t_factories"),
            max_duration_ns=spec.get("max_duration_ns"),
            max_physical_qubits=spec.get("max_physical_qubits"),
        )
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise SystemExit(f"error: invalid grid spec: {message}")

    # The cartesian grid as a declarative sweep, program-major (matching
    # the nesting order of the grid file's keys); the axes expand to the
    # same point specs the service and `repro sweep` would build.
    from .estimator.sweep import SweepAxis

    base: dict[str, object] = {"backend": args.backend}
    if scheme_name:
        base["scheme"] = {"name": scheme_name}
    base["constraints"] = base_constraints.to_dict()
    grid_sweep = SweepSpec(
        base=base,
        axes=(
            SweepAxis(
                "program",
                tuple(
                    {"counts": program.to_dict()}
                    if isinstance(program, LogicalCounts)
                    else program.to_dict()
                    for program, _ in programs
                ),
            ),
            SweepAxis("qubit", tuple(profiles)),
            SweepAxis("budget", tuple(budgets)),
            SweepAxis("constraints.logicalDepthFactor", tuple(depth_factors)),
        ),
        mode="cartesian",
    )
    meta = [
        (label, profile, budget, factor)
        for _, label in programs
        for profile in profiles
        for budget in budgets
        for factor in depth_factors
    ]

    store = ResultStore(args.store) if args.store else None
    result = run_sweep(grid_sweep, registry=registry, store=store, policy=policy)
    outcomes = result.points
    failures = 0

    if args.json:
        records = []
        for (label, profile, budget, factor), outcome in zip(meta, outcomes):
            record: dict[str, object] = {
                "program": label,
                "profile": profile,
                "budget": budget,
                "depthFactor": factor,
                "specHash": outcome.spec_hash,
                "fromStore": outcome.from_store,
                "ok": outcome.ok,
            }
            if outcome.ok:
                r = outcome.result
                record["result"] = {
                    "physicalQubits": r.physical_qubits,
                    "runtime_s": r.runtime_seconds,
                    "codeDistance": r.code_distance,
                    "logicalQubits": r.logical_qubits,
                    "rqops": r.rqops,
                    "tFactoryCopies": r.t_factory.copies if r.t_factory else 0,
                }
            else:
                record["error"] = outcome.error
                failures += 1
            records.append(record)
        print(dumps_indented(records))
    else:
        header = (
            f"{'program':<20} {'profile':<17} {'budget':>8} {'depth':>6} "
            f"{'phys qubits':>12} {'runtime[s]':>11} {'d':>3} {'rQOPS':>10}"
        )
        print(header)
        print("-" * len(header))
        for (label, profile, budget, factor), outcome in zip(meta, outcomes):
            if outcome.ok:
                r = outcome.result
                print(
                    f"{label:<20} {profile:<17} {budget:>8.1g} {factor:>6g} "
                    f"{r.physical_qubits:>12,} {r.runtime_seconds:>11.3g} "
                    f"{r.code_distance:>3} {r.rqops:>10.3g}"
                )
            else:
                failures += 1
                print(
                    f"{label:<20} {profile:<17} {budget:>8.1g} {factor:>6g} "
                    f"error: {outcome.error}"
                )
        if failures:
            print(
                f"{failures} of {len(outcomes)} points infeasible",
                file=sys.stderr,
            )
    return 1 if failures else 0


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Run a declarative sweep file (axes over registry names, "
        "numeric ranges, or inline spec fragments; cartesian or zipped; "
        "optional per-group frontier objective) in store-backed, resumable "
        "chunks.",
    )
    parser.add_argument("sweep", type=Path, help="JSON sweep specification file")
    _add_execution_arguments(
        parser,
        workers="worker processes per chunk, or with the queue executor "
        "cooperating worker processes",
        executor="'local' runs chunks in this process; 'queue' journals "
        "the sweep in the store's crash-safe work queue and drains it as "
        "--workers cooperating worker processes (requires --store; "
        "identical results; see 'repro work' and the README section "
        "'Fault tolerance and multi-process execution'; default: local)",
        chunk_size=True,
    )
    parser.add_argument(
        "--enqueue-only",
        action="store_true",
        help="queue executor only: journal the sweep and print its job id "
        "as JSON without evaluating anything; start 'repro work' "
        "processes to drain it",
    )
    _add_scenario_argument(parser)
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help="content-addressed result store directory; completed chunks "
        "persist there, so a killed sweep resumes from its finished points",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="report how many points are already stored before running "
        "(requires --store; stored points are always answered from disk)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-chunk progress lines on stderr",
    )
    output = parser.add_mutually_exclusive_group()
    output.add_argument(
        "--json",
        action="store_true",
        help="emit the full sweep result document as JSON",
    )
    output.add_argument(
        "--csv",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the flat CSV of all points to FILE ('-' for stdout)",
    )
    return parser


def _sweep_main(argv: list[str]) -> int:
    parser = build_sweep_parser()
    args = parser.parse_args(argv)
    policy = _execution_policy(parser, args)
    if args.resume and not args.store:
        parser.error("--resume requires --store (that is where points resume from)")
    if policy.executor == "queue" and not args.store:
        parser.error("--executor queue requires --store (the queue lives there)")
    if args.enqueue_only and policy.executor != "queue":
        parser.error("--enqueue-only requires --executor queue")
    registry = _load_scenarios(args.scenario)
    try:
        document = json.loads(args.sweep.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read sweep file: {exc}")
    try:
        sweep = SweepSpec.from_dict(document)
        points = sweep.expand()
    except ValueError as exc:
        raise SystemExit(f"error: invalid sweep spec: {exc}")

    store = ResultStore(args.store) if args.store else None
    point_hashes = None
    answered = None
    if store is not None:
        # Hashed once here and handed to run_sweep, which would otherwise
        # hash every point again. The finished sweep's stored row is read
        # once, here, before anything is enqueued: when it answers, no
        # job is journaled and no helper is spawned.
        point_hashes = sweep.point_hashes(registry)
        if not args.enqueue_only:
            answered = stored_sweep(sweep, store, point_hashes=point_hashes)
    if args.resume and store is not None:
        # The row answers every point. Otherwise a point counts when the
        # sweep will answer it from disk: a stored error document (an
        # infeasible point) counts, an undecodable document does not.
        # One lookup per chunk, as the sweep reads them.
        size = chunk_size_for(
            policy.chunk_size, sweep.chunk_size, len(points), store=True
        )
        if answered is not None:
            stored = len(points)
        else:
            stored = sum(
                entry is not None
                for start in range(0, len(point_hashes), size)
                for entry in store.lookup_many(point_hashes[start : start + size])
            )
        print(
            f"resume: {stored}/{len(points)} points already stored",
            file=sys.stderr,
        )

    def progress(event) -> None:
        if not args.quiet:
            print(
                f"[chunk {event.chunk}/{event.num_chunks}] "
                f"{event.completed}/{event.total} points "
                f"({event.from_store} from store, {event.failed} failed)",
                file=sys.stderr,
            )

    helper_procs: list = []
    if policy.executor == "queue" and answered is None:
        from .estimator.queue import SweepQueue

        job = SweepQueue(store).enqueue(
            sweep, registry=registry, chunk_size=policy.chunk_size
        )
        if args.enqueue_only:
            print(
                json.dumps(
                    {
                        "jobId": job.job_id,
                        "numChunks": job.num_chunks,
                        "totalPoints": job.total_points,
                        "status": job.status,
                    }
                )
            )
            return 0
        # --workers N on the queue executor means N cooperating worker
        # *processes*: N-1 spawned `repro work` helpers plus this process
        # draining the same job (each evaluating chunks serially — chunk
        # claims are the parallelism unit, not per-chunk fan-out).
        if policy.workers > 1:
            import subprocess

            helper_cmd = [
                sys.executable,
                "-m",
                "repro",
                "work",
                str(args.store),
                "--job",
                job.job_id,
                "--ttl",
                str(policy.lease_ttl),
                "--quiet",
            ]
            for path in args.scenario or ():
                helper_cmd += ["--scenario", str(path)]
            helper_procs = [
                subprocess.Popen(helper_cmd) for _ in range(policy.workers - 1)
            ]
        policy = replace(policy, workers=1)

    try:
        result = run_sweep(
            sweep,
            registry=registry,
            store=store,
            policy=policy,
            progress=progress,
            point_hashes=point_hashes,
            stored_result=answered,
        )
    except KeyboardInterrupt:
        print(
            "interrupted; completed chunks are stored — re-run with "
            "--resume to pick up where this left off",
            file=sys.stderr,
        )
        return 130
    finally:
        for proc in helper_procs:
            # Workers on a finished job exit on their own; the timeout
            # only guards against a wedged helper holding the exit.
            try:
                proc.wait(timeout=60)
            except Exception:
                proc.kill()

    if args.json:
        print(result.to_json())
    elif args.csv is not None:
        csv_text = result.to_csv()
        if str(args.csv) == "-":
            sys.stdout.write(csv_text)
        else:
            try:
                args.csv.write_text(csv_text)
            except OSError as exc:
                raise SystemExit(f"error: cannot write CSV: {exc}")
            print(f"wrote {result.num_points} points to {args.csv}")
    else:
        header = (
            f"{'point':<44} {'phys qubits':>12} {'runtime[s]':>11} {'d':>3} "
            f"{'rQOPS':>10} {'frontier':>8}"
        )
        print(header)
        print("-" * len(header))
        on_frontier = result.frontier_indices()
        for point in result.points:
            label = (point.label or point.spec_hash)[:44]
            if point.ok:
                r = point.result
                marker = "*" if point.index in on_frontier else ""
                print(
                    f"{label:<44} {r.physical_qubits:>12,} "
                    f"{r.runtime_seconds:>11.3g} {r.code_distance:>3} "
                    f"{r.rqops:>10.3g} {marker:>8}"
                )
            else:
                print(f"{label:<44} error: {point.error}")
        if result.frontiers is not None:
            print()
            objective = sweep.frontier.objective
            for group in result.frontiers:
                key = (
                    ", ".join(f"{field}={value}" for field, value in group.key)
                    or "(all points)"
                )
                print(
                    f"frontier [{objective}] {key}: "
                    f"points {list(group.indices)}"
                )
    if result.num_failed:
        print(
            f"{result.num_failed} of {result.num_points} points infeasible",
            file=sys.stderr,
        )
    return 1 if result.num_failed else 0


def build_optimize_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro optimize",
        description="Answer an inverse-design question (objective + "
        "constraints over one or two spec axes) adaptively: bisection on "
        "monotone axes and bounded refinement elsewhere reach the dense "
        "grid's answer in a fraction of its evaluations; the probe trace "
        "persists in the store, so interrupted searches resume and "
        "equivalent re-runs answer with zero evaluations.",
    )
    parser.add_argument(
        "optimize", type=Path, help="JSON optimize specification file"
    )
    _add_execution_arguments(
        parser,
        workers="worker processes per probe batch",
        executor="'local' evaluates probe batches in this process; 'queue' "
        "dispatches each batch through the store's crash-safe work queue "
        "(requires --store; identical results; default: local)",
    )
    _add_scenario_argument(parser)
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help="content-addressed result store directory; probes persist "
        "there and the probe trace is journaled under repro-optimize-v1, "
        "so a killed optimize resumes and a finished one re-answers free",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="report the stored probe trace (probes already taken, "
        "status) before running (requires --store)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-round progress lines on stderr",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full optimize answer document as JSON",
    )
    return parser


def _optimize_main(argv: list[str]) -> int:
    parser = build_optimize_parser()
    args = parser.parse_args(argv)
    policy = _execution_policy(parser, args)
    if args.resume and not args.store:
        parser.error("--resume requires --store (that is where the trace lives)")
    if policy.executor == "queue" and not args.store:
        parser.error("--executor queue requires --store (the queue lives there)")
    from .estimator.optimize import OptimizeSpec, run_optimize

    registry = _load_scenarios(args.scenario)
    try:
        document = json.loads(args.optimize.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read optimize file: {exc}")
    try:
        spec = OptimizeSpec.from_dict(document)
        optimize_hash = spec.content_hash(registry)
    except ValueError as exc:
        raise SystemExit(f"error: invalid optimize spec: {exc}")

    store = ResultStore(args.store) if args.store else None
    if args.resume and store is not None:
        trace = store.get_optimize(optimize_hash)
        if trace is None:
            print("resume: no stored probe trace", file=sys.stderr)
        else:
            print(
                f"resume: stored trace is {trace.get('status')!r} with "
                f"{len(trace.get('probes') or ())} probes",
                file=sys.stderr,
            )

    def progress(event) -> None:
        if not args.quiet:
            print(
                f"[round {event.round}] {event.probes} probes "
                f"({event.evaluations} evaluations, {event.from_store} from "
                f"store, {event.feasible} feasible)",
                file=sys.stderr,
            )

    try:
        result = run_optimize(
            spec,
            registry=registry,
            store=store,
            policy=policy,
            progress=progress,
        )
    except KeyboardInterrupt:
        print(
            "interrupted; probed points are stored — re-run to pick up "
            "where this left off",
            file=sys.stderr,
        )
        return 130
    if result.from_trace:
        print(
            "answered from stored trace (0 evaluations)",
            file=sys.stderr,
        )

    if args.json:
        print(dumps_indented(result.to_dict()))
    else:
        grid = spec.num_points()
        print(
            f"objective {spec.objective}: probed {len(result.probes)} of "
            f"{grid} grid points ({result.num_evaluations} engine "
            f"evaluations)"
        )
        answers = result.answer_probes()
        if not answers:
            print("no feasible point satisfies the constraints")
        else:
            header = (
                f"{'answer point':<44} {'phys qubits':>12} "
                f"{'runtime[s]':>11} {'d':>3}"
            )
            print(header)
            print("-" * len(header))
            for probe in answers:
                label = (probe.label or probe.spec_hash)[:44]
                r = probe.result
                print(
                    f"{label:<44} {r.physical_qubits:>12,} "
                    f"{r.runtime_seconds:>11.3g} {r.code_distance:>3}"
                )
    return 0 if result.answer else 1


def build_work_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro work",
        description="Run one sweep-queue worker process against a shared "
        "store directory: claim leased chunks of journaled sweep jobs "
        "(enqueued by 'repro sweep --executor queue', 'repro sweep "
        "--enqueue-only', or a 'repro serve' replica), evaluate them, and "
        "persist the outcomes. Start N of these on one store to drain a "
        "sweep cooperatively; kill any of them at any time — an expired "
        "lease is reclaimed by the survivors and the final result is "
        "bit-for-bit identical.",
    )
    parser.add_argument(
        "dir", type=Path, metavar="DIR", help="shared store directory"
    )
    parser.add_argument(
        "--job",
        default=None,
        metavar="HASH",
        help="work this sweep job (content hash) until its result document "
        "exists, waiting out other workers' leases; default: one pass over "
        "every pending journaled job, exiting when nothing is claimable",
    )
    _add_execution_arguments(
        parser,
        workers="worker processes per claimed chunk",
        lease_ttl_flag="--ttl",
    )
    parser.add_argument(
        "--poll",
        type=float,
        default=None,
        metavar="SECONDS",
        help="idle poll interval while other workers hold the remaining "
        "chunks (default: 0.05)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up (leaving the job resumable) after this long",
    )
    _add_scenario_argument(parser)
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-chunk progress lines on stderr",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the worker report (chunks evaluated/observed, jobs "
        "finalized) as JSON",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON log records (worker.start, worker.chunk "
        "with the job id, worker.done) on stderr, joinable with 'repro "
        "serve' request/job records on jobId",
    )
    return parser


def _work_main(argv: list[str]) -> int:
    from .estimator.queue import DEFAULT_POLL_INTERVAL, run_worker

    parser = build_work_parser()
    args = parser.parse_args(argv)
    policy = _execution_policy(parser, args)
    if args.poll is not None and args.poll <= 0:
        parser.error(f"--poll must be > 0, got {args.poll}")
    registry = _load_scenarios(args.scenario)
    store = ResultStore(args.dir)
    log = None
    if args.log_json:
        from .estimator.batch import set_executor_log
        from .jsonlog import StructuredLogger

        log = StructuredLogger(sys.stderr)
        set_executor_log(log)

    def progress(event) -> None:
        if not args.quiet:
            print(
                f"[{event.chunk}/{event.num_chunks} chunks] "
                f"{event.completed}/{event.total} points "
                f"({event.from_store} from store, {event.failed} failed)",
                file=sys.stderr,
            )

    try:
        report = run_worker(
            store,
            job_id=args.job,
            registry=registry,
            policy=policy,
            poll=args.poll if args.poll is not None else DEFAULT_POLL_INTERVAL,
            deadline_s=args.deadline,
            progress=progress,
            log=log,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.json:
        print(dumps_indented(report.to_dict()))
    elif not args.quiet:
        print(
            f"worker {report.owner}: {report.chunks_evaluated} chunks "
            f"evaluated, {report.chunks_observed} observed, "
            f"{report.jobs_finalized}/{report.jobs_seen} jobs finalized",
            file=sys.stderr,
        )
    # A targeted job left unfinished (deadline, unwritable store) is a
    # failure; an idle pass over pending jobs blocked by live leases is not.
    if args.job is not None and report.incomplete_jobs:
        return 1
    return 0


def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Performance baselines: 'trace' times one workload "
        "per stage (build vs trace vs estimate) through a chosen counting "
        "backend.",
    )
    parser.add_argument(
        "mode",
        choices=("trace",),
        help="benchmark kind: 'trace' (one workload, per-stage timings)",
    )
    parser.add_argument(
        "--algorithm",
        default="windowed",
        choices=("schoolbook", "karatsuba", "windowed", "modexp"),
        help="workload: one of the paper's multipliers, or 'modexp' "
        "(n-bit modular exponentiation, the RSA workload; default: windowed)",
    )
    _add_program_argument(parser)
    parser.add_argument(
        "--bits", type=int, default=64, help="input bit width n (default: 64)"
    )
    parser.add_argument(
        "--exponent-bits",
        type=int,
        default=None,
        help="modexp only: exponent register width (default: 2n, standard "
        "order finding)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=None,
        help="modexp only: lookup window size (default: cost-balancing; "
        "0 = schoolbook bit-at-a-time)",
    )
    parser.add_argument(
        "--backend",
        choices=COUNT_BACKEND_CHOICES,
        default="counting",
        help="count-resolution backend (default: counting)",
    )
    _add_profile_argument(parser, default="qubit_maj_ns_e4")
    parser.add_argument(
        "--budget",
        type=float,
        default=1e-4,
        help="total error budget for the estimate stage (default: 1e-4)",
    )
    _add_scenario_argument(parser)
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help="result store directory; the estimate stage answers from disk "
        "on a warm re-run (store hits show up in the --json cache stats)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the timings as JSON"
    )
    return parser


def _bench_counts(
    args: argparse.Namespace, registry: Registry
) -> tuple[LogicalCounts, float, float]:
    """Resolve the workload's counts; returns (counts, build_s, trace_s).

    ``build`` is circuit/emission construction, ``trace`` the counting
    pass over it. The streaming backend fuses the two (reported as
    build); the formula backend has no circuit at all (reported as trace).
    A named ``--program`` resolves through the registry's program layer
    (whole resolution reported as build).
    """
    algorithm, bits, backend = args.algorithm, args.bits, args.backend
    if args.program:
        if args.exponent_bits is not None or args.window is not None:
            raise SystemExit(
                "error: --exponent-bits/--window do not apply to --program"
            )
        try:
            program = registry.program(args.program)
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}")
        start = time.perf_counter()
        counts = program.counts(backend)
        return counts, time.perf_counter() - start, 0.0
    if algorithm == "modexp":
        from .arithmetic import (
            modexp_circuit,
            modexp_counting_counts,
            modexp_logical_counts,
        )

        if bits < 2:
            raise SystemExit("error: modexp needs --bits >= 2")
        exponent_bits = (
            args.exponent_bits if args.exponent_bits is not None else 2 * bits
        )
        if exponent_bits < 1:
            raise SystemExit(
                f"error: --exponent-bits must be >= 1, got {exponent_bits}"
            )
        modulus = (1 << bits) - 1
        try:
            if backend == "formula":
                start = time.perf_counter()
                counts = modexp_logical_counts(
                    bits, exponent_bits, window=args.window
                )
                return counts, 0.0, time.perf_counter() - start
            if backend == "counting":
                start = time.perf_counter()
                counts = modexp_counting_counts(
                    2, modulus, exponent_bits, window=args.window
                )
                return counts, time.perf_counter() - start, 0.0
            start = time.perf_counter()
            circuit = modexp_circuit(2, modulus, exponent_bits, window=args.window)
            built = time.perf_counter()
            counts = circuit.logical_counts()
            return counts, built - start, time.perf_counter() - built
        except ValueError as exc:  # e.g. an out-of-range --window
            raise SystemExit(f"error: {exc}")

    from .arithmetic import multiplier_by_name

    if args.exponent_bits is not None or args.window is not None:
        raise SystemExit(
            "error: --exponent-bits/--window only apply to --algorithm modexp"
        )
    try:
        multiplier = multiplier_by_name(algorithm, bits)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")
    if backend == "formula":
        start = time.perf_counter()
        counts = multiplier.logical_counts()
        return counts, 0.0, time.perf_counter() - start
    if backend == "counting":
        start = time.perf_counter()
        counts = multiplier.counted_counts()
        return counts, time.perf_counter() - start, 0.0
    start = time.perf_counter()
    circuit = multiplier.circuit()
    built = time.perf_counter()
    counts = circuit.logical_counts()
    return counts, built - start, time.perf_counter() - built


def _bench_main(argv: list[str]) -> int:
    parser = build_bench_parser()
    args = parser.parse_args(argv)
    if args.bits < 1:
        raise SystemExit(f"error: --bits must be >= 1, got {args.bits}")
    registry = _load_scenarios(args.scenario)
    _resolve_profile(registry, args.profile)  # fail fast on a typo

    counts, build_s, trace_s = _bench_counts(args, registry)

    # The estimate stage runs through the declarative spec path with an
    # explicit cache, so the timing baseline also reports cache/store
    # observability (and a --store warm re-run shows the store hit).
    from .estimator.batch import EstimateCache

    cache = EstimateCache()
    store = ResultStore(args.store) if args.store else None
    start = time.perf_counter()
    try:
        point = EstimateSpec(
            program=counts, qubit=args.profile, budget=args.budget
        )
        outcome = run_specs([point], registry=registry, store=store, cache=cache)[0]
        result = outcome.result
        estimate_error = outcome.error
    except ValueError as exc:  # e.g. an out-of-range --budget
        result = None
        estimate_error = str(exc)
    estimate_s = time.perf_counter() - start
    total_s = build_s + trace_s + estimate_s

    if args.json:
        record: dict[str, object] = {
            # A named program supersedes the algorithm/bits flags; their
            # defaults would describe a workload that never ran.
            "algorithm": None if args.program else args.algorithm,
            "bits": None if args.program else args.bits,
            "program": args.program,
            "backend": args.backend,
            "profile": args.profile,
            "budget": args.budget,
            "stages": {
                "build_s": build_s,
                "trace_s": trace_s,
                "estimate_s": estimate_s,
                "total_s": total_s,
            },
            "cacheStats": cache.stats(),
            "counts": counts.to_dict(),
        }
        if result is not None:
            record["result"] = {
                "physicalQubits": result.physical_qubits,
                "runtime_s": result.runtime_seconds,
                "codeDistance": result.code_distance,
                "rqops": result.rqops,
            }
        else:
            record["estimateError"] = estimate_error
        print(dumps_indented(record))
    else:
        workload = args.program or f"{args.algorithm}/{args.bits}"
        print(f"{workload} via {args.backend} backend on {args.profile}")
        print(f"{'stage':<10} {'time[s]':>10}")
        print("-" * 21)
        print(f"{'build':<10} {build_s:>10.3f}")
        print(f"{'trace':<10} {trace_s:>10.3f}")
        print(f"{'estimate':<10} {estimate_s:>10.3f}")
        print(f"{'total':<10} {total_s:>10.3f}")
        print(
            f"counts: qubits={counts.num_qubits:,} t={counts.t_count:,} "
            f"ccz={counts.ccz_count:,} ccix={counts.ccix_count:,} "
            f"meas={counts.measurement_count:,}"
        )
        if result is not None:
            print(
                f"estimate: {result.physical_qubits:,} physical qubits, "
                f"{result.runtime_seconds:.3g} s runtime, "
                f"d={result.code_distance}"
            )
        else:
            print(f"estimate failed: {estimate_error}")
    return 0 if estimate_error is None else 1


def _spec_from_program_args(args: argparse.Namespace) -> EstimateSpec:
    """Build the declarative spec for the single-point / submit flags.

    A local program (counts file or QIR) is resolved into inline
    :class:`LogicalCounts` client-side; names (``--program``, profile,
    scheme) stay names, resolved by whichever registry evaluates the
    spec — locally or on the service side.
    """
    if getattr(args, "program", None):
        program: LogicalCounts | ProgramRef = ProgramRef(name=args.program)
    else:
        from .estimator.stages import resolve_counts

        loaded = _load_program(args)
        try:
            program = resolve_counts(loaded)
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"error: cannot resolve program counts: {exc}")
    try:
        return EstimateSpec(
            program=program,
            qubit=args.profile,
            scheme=args.qec_scheme or None,
            budget=args.budget,
            constraints=Constraints(
                max_t_factories=args.max_t_factories,
                logical_depth_factor=args.depth_factor,
            ),
            backend=getattr(args, "backend", "formula"),
            label=getattr(args, "label", None),
        )
    except ValueError as exc:
        # Invalid budget/constraints values are input errors (exit 1, like
        # an infeasible estimate, matching the previous behavior).
        raise _SpecInputError(str(exc))


class _SpecInputError(Exception):
    """Invalid spec parameters from CLI flags (reported, exit code 1)."""


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] in SUBCOMMANDS:
        return SUBCOMMANDS[raw[0]](raw[1:])
    args = build_parser().parse_args(raw)
    registry = _load_scenarios(args.scenario)
    _resolve_profile(registry, args.profile)
    if args.program:
        try:
            registry.program(args.program)  # fail fast on a typo
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}")
    try:
        point = _spec_from_program_args(args)
    except _SpecInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    store = ResultStore(args.store) if args.store else None
    outcome = run_specs([point], registry=registry, store=store)[0]
    if not outcome.ok:
        print(f"error: {outcome.error}", file=sys.stderr)
        return 1
    result = outcome.result
    verdict = None
    if args.assess:
        from .advantage import assess

        verdict = assess(result)

    if args.json:
        report = result.to_dict()
        if verdict is not None:
            report["advantageAssessment"] = verdict.to_dict()
        print(dumps_indented(report))
    else:
        print(result.summary())
        if verdict is not None:
            print("Implementation level")
            print(f"  Level:                      {verdict.level.name.lower()}")
            print(
                f"  Practical advantage:        "
                f"{'yes' if verdict.practical_advantage else 'no'}"
            )
            for note in verdict.notes:
                print(f"  Note: {note}")
    return 0


def build_registry_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro registry",
        description="Print the registry catalog — qubit profiles, QEC "
        "schemes, distillation units, factory designers, and programs "
        "(including --scenario entries) — as JSON; the same document the "
        "service serves on GET /v1/registry.",
    )
    _add_scenario_argument(parser)
    return parser


def _registry_main(argv: list[str]) -> int:
    args = build_registry_parser().parse_args(argv)
    registry = _load_scenarios(args.scenario)
    print(dumps_indented(registry.describe()))
    return 0


def build_store_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro store",
        description="Inspect a content-addressed result store.",
    )
    parser.add_argument(
        "action",
        choices=("stats", "gc", "evict"),
        help="'stats' reports per-namespace row counts and bytes "
        "(results, sweeps, the counts cache, optimize traces, the job "
        "journal and the sweep queue's chunks) as JSON; 'gc' deletes the "
        "chunk rows of finished queue jobs whose sweep result is stored "
        "and reports how many; 'evict' prunes "
        "result/sweep/counts/optimize documents oldest-first until the "
        "store fits --max-bytes (queue chunks and journal entries are "
        "never touched — evicted documents are future cache misses that "
        "heal by recomputation)",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help=f"store directory (default: $REPRO_STORE_DIR or "
        f"{Path('~') / '.cache' / 'repro' / 'store'})",
    )
    parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="evict only: the byte budget to prune the document "
        "namespaces down to (required for 'evict')",
    )
    return parser


def _store_main(argv: list[str]) -> int:
    parser = build_store_parser()
    args = parser.parse_args(argv)
    store = ResultStore(args.store or default_store_root())
    if args.action == "gc":
        from .estimator.queue import collect_garbage

        print(dumps_indented(collect_garbage(store)))
    elif args.action == "evict":
        if args.max_bytes is None:
            parser.error("'evict' requires --max-bytes")
        if args.max_bytes < 0:
            parser.error(f"--max-bytes must be >= 0, got {args.max_bytes}")
        print(dumps_indented(store.evict(max_bytes=args.max_bytes)))
    else:
        print(dumps_indented(store.stats()))
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the estimation service: a JSON HTTP API (POST "
        "/v1/estimate with a spec or batch of specs, GET /v1/results/<hash>) "
        "over the shared batch engine with the persistent result store "
        "behind it.",
    )
    # Flags absorbed by ServerSettings default to None so "the user
    # typed it" is distinguishable from "defaulted": precedence is
    # CLI flag > scenario 'server' section > ServerSettings default
    # (see repro.settings).
    parser.add_argument(
        "--host",
        default=None,
        help="bind address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port; 0 picks a free one, printed on startup (default: 8000)",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help=f"result store directory (default: $REPRO_STORE_DIR or "
        f"{Path('~') / '.cache' / 'repro' / 'store'})",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="disable the persistent store (every submission recomputes)",
    )
    _add_execution_arguments(
        parser,
        workers="worker processes of the engine behind every submission "
        "and job",
        executor="sweep job execution: 'queue' journals jobs in the store's "
        "crash-safe work queue (replicas sharing the store drain sweeps "
        "cooperatively and a restart resumes in-flight jobs), 'local' "
        "keeps the in-process chunk loop, 'auto' picks queue whenever a "
        "store is configured (default: auto)",
        executors=("auto", "local", "queue"),
    )
    parser.add_argument(
        "--sweep-workers",
        type=int,
        default=None,
        help="async sweep job threads (POST /v1/sweeps; default: 2)",
    )
    parser.add_argument(
        "--max-body-bytes",
        type=int,
        default=None,
        metavar="N",
        help="reject request bodies over N bytes with 413 "
        "(default: 16 MiB)",
    )
    parser.add_argument(
        "--store-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="bound the store's document namespaces to ~N bytes on disk by "
        "LRU eviction (oldest results/sweeps/counts/optimize documents "
        "removed first; queue and journal entries never touched; "
        "default: unbounded)",
    )
    parser.add_argument(
        "--metrics-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="refresh interval for the disk-walking /v1/metrics gauges — "
        "scrapes inside the TTL do zero filesystem work (default: 10)",
    )
    _add_scenario_argument(parser)
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit one structured JSON log record per request and job "
        "transition on stderr (requestId/jobId/route/status/duration)",
    )
    parser.add_argument(
        "--verbose",
        action="store_const",
        const=True,
        default=None,
        help="log every HTTP request in the classic access-log format",
    )
    return parser


def _serve_main(argv: list[str]) -> int:
    from .jsonlog import StructuredLogger
    from .service import EstimationService, make_server
    from .settings import load_server_settings

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.no_store and args.store:
        parser.error("--store and --no-store are mutually exclusive")
    if args.executor == "queue" and args.no_store:
        parser.error("--executor queue requires a store")
    # Serve's --executor also takes 'auto', which its argparse choices check.
    _policy_flags(parser, args, ("workers", "lease_ttl"))
    try:
        # Precedence: CLI flag > scenario 'server' section > default.
        # None-valued args are flags the user did not type.
        settings = load_server_settings(
            args.scenario or (),
            host=args.host,
            port=args.port,
            workers=args.workers,
            sweep_workers=args.sweep_workers,
            executor=args.executor,
            lease_ttl=args.lease_ttl,
            max_body_bytes=args.max_body_bytes,
            store_max_bytes=args.store_max_bytes,
            metrics_ttl=args.metrics_ttl,
            verbose=args.verbose,
        )
    except ValueError as exc:
        parser.error(str(exc))
    if settings.executor == "queue" and args.no_store:
        parser.error("a scenario requesting executor 'queue' needs a store")
    registry = _load_scenarios(args.scenario)
    store = (
        None
        if args.no_store
        else ResultStore(
            args.store or default_store_root(),
            max_bytes=settings.store_max_bytes,
        )
    )
    log = StructuredLogger(sys.stderr) if args.log_json else None
    if log is not None:
        # Executor degradations (pool unavailable, unpicklable batch)
        # join the request/job records instead of vanishing silently.
        from .estimator.batch import set_executor_log

        set_executor_log(log)
    service = EstimationService.from_settings(
        settings, registry=registry, store=store, log=log
    )
    server = make_server(service=service, settings=settings)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}", flush=True)
    print(
        f"store: {store.root if store is not None else 'disabled'}", flush=True
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
    return 0


def build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Submit an estimation spec to a running 'repro serve' "
        "instance and print the report.",
    )
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8000",
        help="service base URL (default: http://127.0.0.1:8000)",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--spec",
        type=Path,
        help="spec JSON file (or a {'specs': [...]} batch), submitted as-is "
        "— the program/profile flags below are ignored",
    )
    source.add_argument(
        "--counts", type=Path, help="JSON file with LogicalCounts fields"
    )
    source.add_argument("--qir", type=Path, help="QIR text file (.ll)")
    _add_program_argument(source)
    _add_profile_argument(parser)
    parser.add_argument(
        "--budget", type=float, default=1e-3, help="total error budget"
    )
    parser.add_argument("--qec-scheme", default=None, help="QEC scheme name")
    parser.add_argument(
        "--max-t-factories", type=int, default=None,
        help="cap on parallel T-factory copies",
    )
    parser.add_argument(
        "--depth-factor", type=float, default=1.0,
        help="logical-depth slowdown factor >= 1",
    )
    parser.add_argument("--label", default=None, help="label echoed on the record")
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the raw result record(s) instead of the summary",
    )
    return parser


def _submit_main(argv: list[str]) -> int:
    from .estimator.result import PhysicalResourceEstimates
    from .service import ServiceClient, ServiceError

    args = build_submit_parser().parse_args(argv)
    if args.spec is not None:
        try:
            payload = json.loads(args.spec.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"error: cannot read spec file: {exc}")
    else:
        try:
            payload = _spec_from_program_args(args).to_dict()
        except _SpecInputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    client = ServiceClient(args.url)
    try:
        response = client._request("/v1/estimate", payload)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    records = response["results"] if "results" in response else [response]
    if args.json:
        print(dumps_indented(response))
    else:
        for record in records:
            label = record.get("label") or record.get("specHash") or "(spec)"
            if record["ok"]:
                origin = "store" if record.get("fromStore") else "computed"
                print(f"# {label} [{record['specHash']}] ({origin})")
                result = PhysicalResourceEstimates.from_dict(record["result"])
                print(result.summary())
            else:
                print(f"# {label}: error: {record['error']}")
    return 0 if all(record["ok"] for record in records) else 1


#: ``repro <name> ...`` entry points; anything else is a single estimate.
SUBCOMMANDS = {
    "batch": _batch_main,
    "sweep": _sweep_main,
    "optimize": _optimize_main,
    "bench": _bench_main,
    "serve": _serve_main,
    "submit": _submit_main,
    "registry": _registry_main,
    "store": _store_main,
    "work": _work_main,
}


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
