"""The benchmark's workloads: seeded inputs, timed phases, output checks.

Each workload runs the program from outside, in child processes started
from the checkout's ``src``, and returns a :class:`Outcome` holding its
end-to-end samples, every operation it attempted and every failure it
saw. ``trace=True`` runs the traced variant instead (see ``child.py``),
which yields the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from clock import SpeedReference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = BENCH / "child.py"

#: The ROADMAP reference sweep: rsa_2048 x 4 profiles x 250 budgets.
PROFILES = ("qubit_gate_ns_e3", "qubit_gate_ns_e4", "qubit_maj_ns_e4", "qubit_maj_ns_e6")
LADDER_START = 1e-12
LADDER_FACTOR = 1.1
LADDER_COUNT = 250

#: Budgets every profile answers for rsa_2048 (the reference sweep's
#: feasible band is [2.3e-4, 2.0e-2] on qubit_maj_ns_e4, the narrowest).
SERVICE_BUDGETS = (3e-4, 1.5e-2)
HIT_SET_PER_PROFILE = 16
HITS_ALONE = 1000
#: Seeded miss responses recomputed in-process and compared byte for byte.
MISS_SAMPLE = 4

SETUP_REPEATS = 5
#: A server set-up builds four catalogs (~3 s), so it repeats less often.
SERVER_SETUPS = 3
PASS_TIMEOUT = 150.0


@dataclass
class Outcome:
    """Samples and failures of one workload run."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    #: The same intervals as ``samples``, as plain wall time.
    wall: dict[str, list[float]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def check(self, ok: bool, message: str) -> bool:
        """Count one attempted operation or output check; record a failure."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def add(self, name: str, wall: float, factor: float) -> None:
        """Record one interval: its normalized time is the metric's sample."""
        self.samples.setdefault(name, []).append(wall * factor)
        self.wall.setdefault(name, []).append(wall)


# -- inputs ---------------------------------------------------------------


def sweep_document(seed: int) -> dict:
    """The reference sweep; seed 0 is the ROADMAP ladder, others jitter its start."""
    start = LADDER_START
    if seed != 0:
        start *= LADDER_FACTOR ** random.Random(seed).uniform(-0.5, 0.5)
    return {
        "base": {"program": {"name": "rsa_2048"}},
        "axes": [
            {"field": "qubit", "values": list(PROFILES)},
            {"field": "budget", "geom": {"start": start, "factor": LADDER_FACTOR, "count": LADDER_COUNT}},
        ],
    }


def _rsa_spec(profile: str, budget: float) -> dict:
    return {"program": {"name": "rsa_2048"}, "qubit": {"profile": profile}, "budget": budget}


def _budget(rng: random.Random) -> float:
    low, high = (math.log10(b) for b in SERVICE_BUDGETS)
    return 10 ** rng.uniform(low, high)


def hit_specs(seed: int) -> list[dict]:
    """The warmed hit set: HIT_SET_PER_PROFILE budgets on each profile."""
    rng = random.Random(f"hits-{seed}")
    return [_rsa_spec(p, _budget(rng)) for _ in range(HIT_SET_PER_PROFILE) for p in PROFILES]


def miss_specs(seed: int):
    """An endless seeded stream of fresh specs, cycling the profiles."""
    rng = random.Random(f"misses-{seed}")
    while True:
        for profile in PROFILES:
            yield _rsa_spec(profile, _budget(rng))


# -- processes ------------------------------------------------------------


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def python_child(args: list[str], *, trace_out: Path | None = None) -> list[str]:
    """Command line for a program entry point, traced through child.py or not."""
    if trace_out is not None:
        return [sys.executable, str(CHILD), "--trace-out", str(trace_out), *args]
    if args[0] == "cli":
        return [sys.executable, "-m", "repro", *args[1:]]
    return [sys.executable, str(CHILD), *args]


def reap(proc: subprocess.Popen, timeout: float) -> float:
    """Wait for ``proc`` (killing it after ``timeout``); returns its peak RSS in MiB."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


@dataclass
class Pass:
    wall_s: float
    #: Reference rate / REFERENCE_RATE over the pass (see clock.py).
    factor: float
    returncode: int
    rss_mb: float
    stdout: bytes
    stderr: str


def run_pass(command: list[str], workdir: Path, speed: SpeedReference | None = None) -> Pass:
    """One fresh interpreter, spawn to exit, with stdout captured to a file.

    Without ``speed`` (an interval an enclosing measurement times) the
    factor is 1.
    """
    speed = speed or SpeedReference(enabled=False)
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        mark = speed.mark()
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err, cwd=workdir, env=child_env())
        try:
            rss = reap(proc, PASS_TIMEOUT)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        factor = speed.factor(mark)
    return Pass(wall, factor, proc.returncode, rss, out_path.read_bytes(),
                err_path.read_text(errors="replace")[-400:])


def timed_setup(step, outcome: Outcome, speed: SpeedReference) -> None:
    """Run ``step`` SETUP_REPEATS times; each duration is a setup_s sample.

    One speed factor covers all repeats: a single short step leaves the
    reference too little CPU time to measure its rate.
    """
    mark = speed.mark()
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        step()
        walls.append(time.perf_counter() - start)
    factor = speed.factor(mark)
    for wall in walls:
        outcome.add("setup_s", wall, factor)


def import_check(module: str, workdir: Path, outcome: Outcome) -> None:
    """Start an interpreter that imports the entry module, as every pass does."""
    done = run_pass([sys.executable, "-c", f"import {module}"], workdir)
    outcome.check(done.returncode == 0, f"import of {module} failed: {done.stderr}")


def keep_going(start: float, iterations: int, seconds: float) -> bool:
    """Start another iteration while fewer than ``seconds`` have passed."""
    return iterations == 0 or time.perf_counter() - start < seconds


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


# -- trace totals -> per-layer metrics -------------------------------------


def read_trace(path: Path) -> dict:
    return json.loads(path.read_text())


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def coverage(trace: dict) -> float:
    """Share of the traced window spent inside top-level layer calls."""
    calls = trace["calls"]
    top = calls.get("trace.top", [0, 0.0])[1]
    envelope = calls.get("service.submit")
    return _ratio(top, envelope[1] if envelope else trace["window_s"])


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Sum the traced passes' totals into the per-layer metric names."""
    calls: dict[str, list[float]] = {}
    cache: dict = {}
    for trace in traces:
        for name, row in trace["calls"].items():
            into = calls.setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(row):
                into[i] += value
        for table, counters in trace["cache"].items():
            if isinstance(counters, dict):
                for key, value in counters.items():
                    slot = cache.setdefault(table, {})
                    slot[key] = slot.get(key, 0) + value

    def row(name: str) -> list[float]:
        return calls.get(name, [0, 0.0, 0.0, 0])

    def hit_ratio(table: str) -> float:
        counters = cache.get(table, {})
        hits = counters.get("hits", 0)
        return _ratio(hits, hits + counters.get("misses", 0))

    pipelines = row("distillation.evaluate_pipeline")
    return {
        "distillation.pipelines": pipelines[0],
        "distillation.catalog_s": row("distillation.catalog")[1],
        "distillation.feasible_ratio": _ratio(pipelines[3], pipelines[0]),
        "distillation.design_calls": row("distillation.design")[0],
        "distillation.design_self_s": row("distillation.design")[2],
        "programs.counts_calls": row("programs.resolve_counts")[0],
        "programs.counts_s": row("programs.resolve_counts")[1],
        "spec.hash_calls": row("spec.content_hash")[0],
        "spec.hash_s": row("spec.content_hash")[1],
        "spec.resolve_s": row("spec.to_request")[1],
        "store.get_calls": row("store.get")[0],
        "store.get_s": row("store.get")[1],
        "store.hit_ratio": hit_ratio("store"),
        "store.put_s": row("store.put_many")[1],
        "result.from_dict_s": row("result.from_dict")[1],
        "result.to_dict_s": row("result.to_dict")[1],
        "stages.pipeline_calls": row("stages.run_pipeline")[0],
        "stages.fixed_point_s": row("stages.fixed_point")[1],
        "batch.factory_hit_ratio": hit_ratio("factories"),
        "batch.distance_hit_ratio": hit_ratio("distances"),
        "kernel.vectorized_points": cache.get("kernel", {}).get("vectorized", 0),
        "kernel.scalar_points": cache.get("kernel", {}).get("scalar", 0),
        "sweep.self_s": row("sweep.run_sweep")[2],
        "sweep.to_dict_s": row("sweep.to_dict")[1],
        "cli.encode_s": row("cli.encode")[1],
    }


def engine_metrics(traces: list[dict]) -> dict[str, float]:
    run_s = sum(t["calls"].get("engine.run", [0, 0.0])[1] for t in traces)
    return {
        "engine.run_s": run_s,
        "engine.chunks": sum(t["engine"].get("chunksDispatched", 0) for t in traces),
        "engine.pool_spawns": sum(t["engine"].get("poolSpawns", 0) for t in traces),
    }


def trace_summary(outcome: Outcome, label: str, trace: dict, traced_s: float, plain_s: float) -> float:
    """Note one traced pass's coverage and overhead; returns its coverage."""
    share = coverage(trace)
    flag = "  BELOW 0.9" if share < 0.9 else ""
    outcome.notes.append(
        f"trace {label}: coverage {share:.3f}, overhead {_ratio(traced_s, plain_s):.3f} "
        f"({traced_s:.3f} s traced / {plain_s:.3f} s untraced){flag}"
    )
    return share


# -- rsa-sweep --------------------------------------------------------------


def check_sweep_output(data: bytes, returncode: int, document: dict, outcome: Outcome, label: str) -> bool:
    """Check one ``repro sweep --json`` output against the generated sweep."""
    try:
        result = json.loads(data)
        counts = result["counts"]
        points = result["points"]
        axes = result["sweep"]["axes"]
    except (ValueError, KeyError, TypeError) as exc:
        return outcome.check(False, f"{label}: unreadable sweep output ({exc})")
    budgets = axes[1]["values"]
    geom = document["axes"][1]["geom"]
    ok = (
        counts.get("total") == len(PROFILES) * LADDER_COUNT
        and counts.get("ok", 0) + counts.get("failed", 0) == counts.get("total")
        and len(points) == counts.get("total")
        and sum(1 for p in points if p.get("ok")) == counts.get("ok")
        and axes[0]["values"] == list(PROFILES)
        and len(budgets) == LADDER_COUNT
        and budgets[0] == geom["start"]
        and all(math.isclose(b / a, LADDER_FACTOR, rel_tol=1e-9) for a, b in zip(budgets, budgets[1:]))
        and all(
            p["coords"] == {"qubit": PROFILES[p["index"] // LADDER_COUNT], "budget": budgets[p["index"] % LADDER_COUNT]}
            and (p["result"]["logicalQubit"]["codeDistance"] > 0 if p["ok"] else bool(p["error"]))
            for p in points
        )
        # Infeasible points are outputs: the CLI exits 1 when any exist.
        and returncode == (1 if counts.get("failed") else 0)
    )
    return outcome.check(ok, f"{label}: sweep output fails its checks (exit {returncode})")


def expected(workload: str) -> dict:
    """The recorded reference outputs in ``expected.json``."""
    return json.loads((BENCH / "expected.json").read_text())[workload]


def check_reference(data: bytes, outcome: Outcome) -> None:
    """Seed 0 reproduces the recorded reference sweep byte for byte."""
    expected_run = expected("rsa-sweep")
    counts = json.loads(data)["counts"]
    outcome.check(
        sha256(data) == expected_run["sha256"]
        and counts["ok"] == expected_run["ok"]
        and counts["failed"] == expected_run["failed"],
        f"seed 0 output differs from the reference (sha256 {sha256(data)[:12]}, counts {counts})",
    )


def sweep_pair(sweep_file: Path, scratch: Path, speed: SpeedReference, *, workers: int = 1,
               trace_dir: Path | None = None):
    """A cold pass on an empty store, then a warm pass on the store it wrote."""
    store = scratch / "store"
    shutil.rmtree(store, ignore_errors=True)
    args = ["cli", "sweep", str(sweep_file), "--store", str(store), "--json", "--quiet"]
    if workers > 1:
        args += ["--workers", str(workers)]
    passes = []
    for phase in ("cold", "warm"):
        trace_out = trace_dir / f"{phase}.json" if trace_dir else None
        passes.append(run_pass(python_child(args, trace_out=trace_out), scratch, speed))
    shutil.rmtree(store, ignore_errors=True)
    return passes


def rsa_sweep(seed: int, seconds: float, trace: bool, scratch: Path, speed: SpeedReference) -> Outcome:
    outcome = Outcome()
    document = sweep_document(seed)
    sweep_file = scratch / "sweep.json"

    def setup() -> None:
        sweep_file.write_text(json.dumps(document))
        import_check("repro.cli", scratch, outcome)

    timed_setup(setup, outcome, speed)
    reference: bytes | None = None

    def checked(passes, label: str) -> None:
        nonlocal reference
        for phase, done in zip(("cold", "warm"), passes):
            outcome.peak_rss_mb = max(outcome.peak_rss_mb, done.rss_mb)
            if check_sweep_output(done.stdout, done.returncode, document, outcome, f"{label} {phase}"):
                if reference is None:
                    reference = done.stdout
                    if seed == 0:
                        check_reference(done.stdout, outcome)
                outcome.check(done.stdout == reference, f"{label} {phase} output differs from the first pass")

    if not trace:
        start = time.perf_counter()
        while keep_going(start, len(outcome.samples.get("cold_s", ())), seconds):
            cold, warm = sweep_pair(sweep_file, scratch, speed)
            checked((cold, warm), "serial")
            outcome.add("cold_s", cold.wall_s, cold.factor)
            outcome.add("warm_s", warm.wall_s, warm.factor)
        return outcome

    # Serial passes give the layer totals; pooled ones only engine.*,
    # since pool workers run unwrapped.
    traces, walls, shares = {}, {}, []
    for workers, label in ((1, "serial"), (2, "pool")):
        plain = sweep_pair(sweep_file, scratch, speed, workers=workers)
        checked(plain, label)
        trace_dir = scratch / f"trace-{label}"
        trace_dir.mkdir()
        traced = sweep_pair(sweep_file, scratch, speed, workers=workers, trace_dir=trace_dir)
        checked(traced, f"traced {label}")
        traces[label] = [read_trace(trace_dir / f"{phase}.json") for phase in ("cold", "warm")]
        for phase, t, p, tr in zip(("cold", "warm"), traced, plain, traces[label]):
            shares.append(trace_summary(outcome, f"{label} {phase}", tr, t.wall_s, p.wall_s))
        walls[label] = (sum(t.wall_s for t in traced), sum(p.wall_s for p in plain))
    outcome.layers.update(layer_metrics(traces["serial"]))
    outcome.layers.update(engine_metrics(traces["pool"]))
    outcome.layers["trace.coverage"] = min(shares)
    outcome.layers["trace.overhead"] = walls["serial"][0] / walls["serial"][1]
    return outcome


# -- multipliers ------------------------------------------------------------


def check_rows(data: bytes, outcome: Outcome, label: str) -> bool:
    """Figure rows match the recorded digest and the paper's Fig. 3 distances."""
    reference = expected("multipliers")
    try:
        rows = json.loads(data)
        distances = {
            str(r["bits"]): r["codeDistance"]
            for r in rows
            if r["algorithm"] == "schoolbook" and r["profile"] == "qubit_maj_ns_e4"
        }
    except (ValueError, KeyError, TypeError) as exc:
        return outcome.check(False, f"{label}: unreadable figure rows ({exc})")
    ok = (
        len(rows) == reference["rows"]
        and sha256(canonical(rows)) == reference["sha256"]
        and all(distances.get(bits) == d for bits, d in reference["fig3_code_distance"].items())
    )
    return outcome.check(ok, f"{label}: figure rows differ from the paper's reference")


def multipliers(seed: int, seconds: float, trace: bool, scratch: Path, speed: SpeedReference) -> Outcome:
    del seed  # the grid is the paper's
    outcome = Outcome()
    timed_setup(lambda: import_check("repro.experiments", scratch, outcome), outcome, speed)

    def figure_pass(trace_out: Path | None = None) -> Pass:
        done = run_pass(python_child(["figures"], trace_out=trace_out), scratch, speed)
        outcome.peak_rss_mb = max(outcome.peak_rss_mb, done.rss_mb)
        outcome.check(done.returncode == 0, f"figures exited {done.returncode}: {done.stderr}")
        check_rows(done.stdout, outcome, "figures")
        return done

    if not trace:
        # The paper path persists nothing, so a second pass is cold too;
        # it is still what a user waits for when re-running the figures.
        start = time.perf_counter()
        while keep_going(start, len(outcome.samples.get("cold_s", ())), seconds):
            for name in ("cold_s", "warm_s"):
                done = figure_pass()
                outcome.add(name, done.wall_s, done.factor)
        return outcome

    plain = figure_pass()
    trace_out = scratch / "trace.json"
    traced = figure_pass(trace_out)
    data = read_trace(trace_out)
    share = trace_summary(outcome, "figures", data, traced.wall_s, plain.wall_s)
    outcome.layers.update(layer_metrics([data]))
    outcome.layers["trace.coverage"] = share
    outcome.layers["trace.overhead"] = traced.wall_s / plain.wall_s
    return outcome


# -- service-mixed ----------------------------------------------------------


class Server:
    """``repro serve --port 0 --store DIR`` as a child process."""

    def __init__(self, scratch: Path, *, trace_out: Path | None = None) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
        self.log = self.dir / "stdout"
        args = ["cli", "serve", "--port", "0", "--store", str(self.dir / "store")]
        with open(self.log, "wb") as out:
            self.proc = subprocess.Popen(
                python_child(args, trace_out=trace_out), stdout=out,
                stderr=subprocess.DEVNULL, cwd=self.dir, env=child_env(),
            )
        self.rss_mb = 0.0
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            for line in self.log.read_text(errors="replace").splitlines():
                if line.startswith("serving on http://"):
                    return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("server did not report its port")

    def stop(self) -> None:
        """SIGINT makes ``repro serve`` shut down cleanly (see run.py's main)."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            self.rss_mb = reap(self.proc, 30)
        shutil.rmtree(self.dir, ignore_errors=True)


def request(port: int, method: str, path: str, payload=None):
    """One request on a fresh connection, as ``ServiceClient`` sends it.

    Returns ``(status, body, seconds)``, timed from connect to the last
    byte of the response. (Keep-alive connections are left out: on
    them every response stalls ~40 ms on delayed ACKs, which would
    swamp the server's own time.)
    """
    body = None if payload is None else json.dumps(payload).encode()
    headers = {"Content-Type": "application/json"} if body else {}
    start = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        status = response.status
    except (OSError, http.client.HTTPException) as exc:
        status, data = 0, str(exc).encode()
    finally:
        conn.close()
    return status, data, time.perf_counter() - start


def warm_hit_set(server: Server, specs: list[dict], outcome: Outcome) -> dict[str, bytes]:
    """Compute the hit set through the server; returns spec key -> result bytes."""
    status, data, _ = request(server.port, "POST", "/v1/estimate", {"specs": specs})
    stored: dict[str, bytes] = {}
    try:
        records = json.loads(data)["results"] if status == 200 else []
    except (ValueError, KeyError):
        records = []
    ok = len(records) == len(specs) and all(r["ok"] and not r["fromStore"] for r in records)
    if outcome.check(ok, f"hit-set warm-up failed (HTTP {status})"):
        for spec, record in zip(specs, records):
            stored[json.dumps(spec)] = canonical(record["result"])
    return stored


def check_response(status: int, data: bytes, from_store: bool, outcome: Outcome, expected: bytes | None = None):
    """A 200 with an ok record whose fromStore matches; returns the record."""
    try:
        record = json.loads(data) if status == 200 else None
    except ValueError:
        record = None
    ok = (
        record is not None
        and record.get("ok") is True
        and record.get("fromStore") is from_store
        and (expected is None or canonical(record["result"]) == expected)
    )
    kind = "hit" if from_store else "miss"
    outcome.check(ok, f"{kind} response failed its checks (HTTP {status}: {data[:120]!r})")
    return record


def mixed_phase(server: Server, hits: list[dict], misses, seconds: float):
    """Two closed-loop clients: back-to-back misses for ``seconds``, hits until then.

    Returns ``(hit_log, miss_log, wall_s)``; each log holds
    ``(spec, status, body, latency_s)`` tuples, checked after the phase.
    """
    hit_log: list = []
    miss_log: list = []
    done = threading.Event()

    def send_misses() -> None:
        end = time.perf_counter() + seconds
        try:
            while time.perf_counter() < end:
                spec = next(misses)
                miss_log.append((spec, *request(server.port, "POST", "/v1/estimate", spec)))
        finally:
            done.set()

    def send_hits() -> None:
        index = 0
        while not done.is_set():
            spec = hits[index % len(hits)]
            index += 1
            hit_log.append((spec, *request(server.port, "POST", "/v1/estimate", spec)))

    threads = [threading.Thread(target=send_misses), threading.Thread(target=send_hits)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return hit_log, miss_log, time.perf_counter() - start


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def hits_alone(server: Server, hits: list[dict], warmed: dict[str, bytes], outcome: Outcome) -> list[float]:
    """HITS_ALONE hits from one client with no miss stream; returns their latencies."""
    latencies = []
    for index in range(HITS_ALONE):
        spec = hits[index % len(hits)]
        status, data, latency = request(server.port, "POST", "/v1/estimate", spec)
        check_response(status, data, True, outcome, warmed.get(json.dumps(spec)))
        latencies.append(latency)
    return latencies


def check_mixed(hit_log, miss_log, warmed: dict[str, bytes], outcome: Outcome) -> None:
    for spec, status, data, _ in hit_log:
        check_response(status, data, True, outcome, warmed.get(json.dumps(spec)))
    for spec, status, data, _ in miss_log:
        check_response(status, data, False, outcome)


def check_miss_sample(miss_log, seed: int, outcome: Outcome) -> None:
    """A seeded sample of miss responses equals in-process run_specs output."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.estimator.spec import EstimateSpec, run_specs

    # One profile, so the check builds one T-factory catalog, not four.
    rng = random.Random(f"sample-{seed}")
    profile = rng.choice(PROFILES)
    candidates = [entry for entry in miss_log if entry[0]["qubit"]["profile"] == profile]
    sample = rng.sample(candidates, min(MISS_SAMPLE, len(candidates)))
    specs = [EstimateSpec.from_dict(spec) for spec, *_ in sample]
    for (spec, status, data, _), local in zip(sample, run_specs(specs)):
        served = json.loads(data).get("result") if status == 200 else None
        outcome.check(
            local.ok and served is not None and canonical(served) == canonical(local.result.to_dict()),
            f"miss response for {spec} differs from in-process run_specs",
        )


def latency_metrics(outcome: Outcome, hit_log, miss_log, wall_s: float, factor: float) -> None:
    """Miss p50 becomes cold_s; the mixed phase's percentiles become notes (wall time).

    Hit latency under the miss stream is not gated: it is two modes,
    hits that wait for a miss behind the engine lock and hits that do
    not, and its median flips between them from run to run.
    """
    hits = [entry[-1] for entry in hit_log]
    misses = [entry[-1] for entry in miss_log]
    outcome.add("cold_s", statistics.median(misses), factor)
    for kind, values in (("hit", hits), ("miss", misses)):
        quantiles = ", ".join(f"p{q} {percentile(values, q) * 1e3:.3f} ms" for q in (50, 90, 99))
        outcome.notes.append(f"{kind}_ms: {quantiles} (n={len(values)})")
    outcome.notes.append(f"req_per_s: {(len(hits) + len(misses)) / wall_s:.1f} 1/s over {wall_s:.2f} s (n={len(hits) + len(misses)})")


def service_mixed(seed: int, seconds: float, trace: bool, scratch: Path, speed: SpeedReference) -> Outcome:
    outcome = Outcome()
    hits = hit_specs(seed)
    servers: list[Server] = []
    try:
        if not trace:
            mark = speed.mark()
            setups = []
            for _ in range(SERVER_SETUPS):
                for server in servers:
                    server.stop()
                start = time.perf_counter()
                servers[:] = [Server(scratch)]
                warmed = warm_hit_set(servers[0], hits, outcome)
                setups.append(time.perf_counter() - start)
            factor = speed.factor(mark)
            for wall in setups:
                outcome.add("setup_s", wall, factor)
            mark = speed.mark()
            alone = hits_alone(servers[0], hits, warmed, outcome)
            outcome.add("warm_s", statistics.median(alone), speed.factor(mark))
            mark = speed.mark()
            hit_log, miss_log, wall = mixed_phase(servers[0], hits, miss_specs(seed), seconds)
            factor = speed.factor(mark)
            servers[0].stop()
            outcome.peak_rss_mb = servers[0].rss_mb
            check_mixed(hit_log, miss_log, warmed, outcome)
            check_miss_sample(miss_log, seed, outcome)
            latency_metrics(outcome, hit_log, miss_log, wall, factor)
            return outcome

        # Traced run: the same phases against an untraced and a traced server.
        means = {}
        for label in ("untraced", "traced"):
            trace_out = scratch / "trace.json" if label == "traced" else None
            server = Server(scratch, trace_out=trace_out)
            servers.append(server)
            warmed = warm_hit_set(server, hits, outcome)
            alone = hits_alone(server, hits, warmed, outcome)
            hit_log, miss_log, wall = mixed_phase(server, hits, miss_specs(seed), seconds)
            status, data, _ = request(server.port, "GET", "/v1/metrics?format=json")
            check_mixed(hit_log, miss_log, warmed, outcome)
            means[label] = statistics.fmean([e[-1] for e in hit_log + miss_log])
            servers.pop().stop()
            if label == "traced":
                outcome.layers["service.hit_alone_p50_ms"] = statistics.median(alone) * 1e3
                outcome.layers["service.store_hit_ratio"] = store_hit_ratio(status, data)
                latency_metrics(outcome, hit_log, miss_log, wall, 1.0)
        data = read_trace(scratch / "trace.json")
        share = trace_summary(outcome, "server", data, means["traced"], means["untraced"])
        outcome.layers.update(layer_metrics([data]))
        outcome.layers["trace.coverage"] = share
        outcome.layers["trace.overhead"] = means["traced"] / means["untraced"]
        return outcome
    finally:
        for server in servers:
            server.stop()


def store_hit_ratio(status: int, data: bytes) -> float:
    """Store hits / lookups from the server's own /v1/metrics counters."""
    if status != 200:
        return 0.0
    document = json.loads(data)
    counters = {}
    for sample in document.get("counters", []) + document.get("gauges", []):
        labels = sample.get("labels") or {}
        if sample["name"] == "repro_cache_events_total" and labels.get("cache") == "store":
            counters[labels.get("outcome")] = sample["value"]
    hits = counters.get("hits", 0)
    return _ratio(hits, hits + counters.get("misses", 0))


WORKLOADS = {
    "rsa-sweep": rsa_sweep,
    "multipliers": multipliers,
    "service-mixed": service_mixed,
}
