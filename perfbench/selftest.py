"""Tests of the benchmark itself: ``python3 -m pytest perfbench/selftest.py -q``.

They run no workload and take well under a second. The file is not
named ``test_*.py``, so the repository's tier-1 suite does not collect
it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    LADDER_COUNT,
    LADDER_FACTOR,
    PROFILES,
    Outcome,
    canonical,
    check_response,
    check_rows,
    check_sweep_output,
    hit_specs,
    miss_specs,
    sweep_document,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
CONFIG = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _misses(seed: int, count: int) -> list[dict]:
    stream = miss_specs(seed)
    return [next(stream) for _ in range(count)]


def _budgets(specs: list[dict]) -> list[float]:
    return [spec["budget"] for spec in specs]


def test_same_seed_gives_identical_inputs():
    for seed in (0, 7):
        assert sweep_document(seed) == sweep_document(seed)
        assert hit_specs(seed) == hit_specs(seed)
        assert _misses(seed, 200) == _misses(seed, 200)


def test_other_seed_changes_budgets_not_point_counts():
    reference, other = sweep_document(0), sweep_document(1)
    assert reference["axes"][1]["geom"]["start"] == workloads.LADDER_START
    assert other["axes"][1]["geom"]["start"] != reference["axes"][1]["geom"]["start"]
    for document in (reference, other):
        assert document["axes"][0]["values"] == list(PROFILES)
        assert document["axes"][1]["geom"]["count"] == LADDER_COUNT
    assert len(hit_specs(0)) == len(hit_specs(1))
    assert _budgets(hit_specs(0)) != _budgets(hit_specs(1))
    assert _budgets(_misses(0, 64)) != _budgets(_misses(1, 64))
    low, high = workloads.SERVICE_BUDGETS
    for spec in hit_specs(1) + _misses(1, 64):
        assert low <= spec["budget"] <= high
    # Misses never repeat a hit, so each one reaches the estimator.
    assert not set(_budgets(hit_specs(3))) & set(_budgets(_misses(3, 4000)))


def test_metric_names_and_units():
    end_to_end = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    for name, unit in {**end_to_end, **per_layer}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
    assert len(per_layer) <= 128
    setup = next(m for m in CONFIG["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in CONFIG["end_to_end"])
    assert {w["name"] for w in CONFIG["workloads"]} == set(workloads.WORKLOADS)


def test_every_per_layer_name_has_a_source():
    empty = {"window_s": 1.0, "calls": {}, "cache": {}, "engine": {}}
    produced = set(workloads.layer_metrics([empty])) | set(workloads.engine_metrics([empty]))
    produced |= {"service.hit_alone_p50_ms", "service.store_hit_ratio", "trace.coverage", "trace.overhead"}
    assert produced == set(run.PER_LAYER)


def _sweep_output(document: dict) -> bytes:
    """A well-formed ``repro sweep --json`` document for ``document``'s grid."""
    budgets = [document["axes"][1]["geom"]["start"]]
    while len(budgets) < LADDER_COUNT:
        budgets.append(budgets[-1] * LADDER_FACTOR)
    points = []
    for index in range(len(PROFILES) * LADDER_COUNT):
        ok = index % 3 != 0
        points.append({
            "index": index,
            "coords": {"qubit": PROFILES[index // LADDER_COUNT], "budget": budgets[index % LADDER_COUNT]},
            "ok": ok,
            "result": {"logicalQubit": {"codeDistance": 9}} if ok else None,
            "error": None if ok else "no T factory",
        })
    failed = sum(1 for p in points if not p["ok"])
    return json.dumps({
        "sweep": {"axes": [{"field": "qubit", "values": list(PROFILES)}, {"field": "budget", "values": budgets}]},
        "counts": {"total": len(points), "ok": len(points) - failed, "failed": failed},
        "points": points,
    }).encode()


def test_sweep_check_accepts_good_output_and_counts_corruption():
    document = sweep_document(5)
    good = _sweep_output(document)
    outcome = Outcome()
    assert check_sweep_output(good, 1, document, outcome, "good")
    assert outcome.failures == []

    corrupted = [
        good[: len(good) // 2],  # truncated
        good.replace(b'"codeDistance": 9', b'"codeDistance": 0', 1),
        good.replace(b'"ok": true', b'"ok": false', 1),
        good.replace(b'"qubit_maj_ns_e6"', b'"qubit_maj_ns_e4"', 2),
    ]
    for data in corrupted:
        assert not check_sweep_output(data, 1, document, outcome, "corrupted")
    assert not check_sweep_output(good, 0, document, outcome, "wrong exit code")
    assert outcome.attempted == 1 + len(corrupted) + 1
    assert len(outcome.failures) == len(corrupted) + 1


def test_corrupted_rows_and_responses_count_as_failures():
    outcome = Outcome()
    rows = [{"algorithm": "schoolbook", "bits": 32, "profile": "qubit_maj_ns_e4", "codeDistance": 9}] * 48
    assert not check_rows(json.dumps(rows).encode(), outcome, "digest")
    assert not check_rows(b"[{", outcome, "truncated")

    record = {"ok": True, "fromStore": True, "result": {"x": 1}}
    check_response(200, json.dumps(record).encode(), True, outcome, canonical({"x": 1}))
    check_response(200, json.dumps(record).encode(), False, outcome)  # a hit where a miss was due
    check_response(200, json.dumps(record).encode(), True, outcome, canonical({"x": 2}))
    check_response(500, b'{"error": "internal"}', True, outcome)
    assert outcome.attempted == 6
    assert len(outcome.failures) == 5


def test_percentile_and_medians():
    values = [float(v) for v in range(1, 101)]
    assert workloads.percentile(values, 50) == pytest.approx(50.5)
    assert 90 < workloads.percentile(values, 90) < 92
    assert workloads.percentile([3.0], 90) == 3.0
    outcome = Outcome(samples={"setup_s": [3.0, 1.0, 2.0]}, peak_rss_mb=10.0)
    assert run.end_to_end(outcome) == {"setup_s": (2.0, [3.0, 1.0, 2.0]), "peak_rss_mb": (10.0, [10.0])}


def test_checkout_without_program_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *CONFIG["command"][1:], "--workload", "rsa-sweep", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
