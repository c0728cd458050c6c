"""Catalog entries are built on first read, equal to an eager build.

The reference catalog here is built eagerly and independently of
``search.py``: every candidate from ``oracle_scan`` (the per-candidate
scan, see ``test_catalog_scan.py``), a stable sort on
``(physical_qubits, duration_ns)``, the Pareto filter, then
``evaluate_pipeline`` for every kept candidate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.distillation import (
    DistillationRound,
    TFactoryDesigner,
    evaluate_pipeline,
)
from repro.distillation import search
from repro.qec import FLOQUET_CODE, default_scheme_for
from repro.qubits import QUBIT_GATE_NS_E3, QUBIT_MAJ_NS_E4

from test_catalog_scan import CUSTOM_CASES, CUSTOM_DESIGNERS, PREDEFINED_PAIRS, oracle_scan


def eager_catalog(designer, qubit, scheme):
    """``(factories, staircase)`` of the reference eager build."""
    candidates = sorted(
        oracle_scan(designer, qubit, scheme), key=lambda c: (c[0], c[1])
    )
    kept: list[tuple[float, float]] = []
    factories = []
    for _, duration, error, spec in candidates:
        # Dominance is transitive, so checking the kept ones suffices.
        if any(e <= error and t <= duration for e, t in kept):
            continue
        kept.append((error, duration))
        factories.append(
            evaluate_pipeline([DistillationRound(u, d) for u, d in spec], qubit, scheme)
        )
    staircase = []
    for factory in factories:
        if not staircase or factory.output_error_rate < staircase[-1].output_error_rate:
            staircase.append(factory)
    return factories, staircase


def assert_matches_eager(designer, qubit, scheme):
    want_factories, want_staircase = eager_catalog(designer, qubit, scheme)
    catalog = designer._catalog(qubit, scheme)
    assert len(catalog.factories) == len(want_factories)
    assert len(catalog.staircase) == len(want_staircase)
    # Staircase first: its entries must be the factories' own objects,
    # whichever sequence builds them.
    staircase = list(catalog.staircase)
    factories = list(catalog.factories)
    assert factories == want_factories
    assert staircase == want_staircase
    by_id = {id(factory) for factory in factories}
    assert all(id(entry) in by_id for entry in staircase)
    assert catalog.neg_errors == tuple(-f.output_error_rate for f in want_staircase)
    assert [scanned[:2] for scanned in catalog.factories.scanned()] == [
        (f.output_error_rate, f.duration_ns) for f in want_factories
    ]
    assert [scanned[2] for scanned in catalog.staircase.scanned()] == [
        f.output_t_states for f in want_staircase
    ]


class TestForcedEntriesEqualEagerBuild:
    @pytest.mark.parametrize("qubit, scheme", PREDEFINED_PAIRS)
    def test_predefined_pairs(self, qubit, scheme):
        assert_matches_eager(TFactoryDesigner(), qubit, scheme)

    @pytest.mark.parametrize("kind, qubit", CUSTOM_CASES)
    def test_customized_designers(self, kind, qubit):
        designer = TFactoryDesigner(**CUSTOM_DESIGNERS[kind])
        assert_matches_eager(designer, qubit, default_scheme_for(qubit))


def test_catalog_build_builds_no_factory(monkeypatch):
    calls = []
    monkeypatch.setattr(
        search, "evaluate_pipeline", lambda *args: calls.append(args) or None
    )
    catalog = TFactoryDesigner()._catalog(QUBIT_MAJ_NS_E4, FLOQUET_CODE)
    assert len(catalog.factories) == 370
    assert calls == []


def test_each_entry_is_built_once_and_shared():
    designer = TFactoryDesigner()
    catalog = designer._catalog(QUBIT_GATE_NS_E3, default_scheme_for(QUBIT_GATE_NS_E3))
    first = designer.design(
        QUBIT_GATE_NS_E3, default_scheme_for(QUBIT_GATE_NS_E3), float("inf")
    )
    assert first is catalog.staircase[0] is catalog.factories[0]
    assert catalog.staircase[-1] is catalog.staircase[len(catalog.staircase) - 1]
    with pytest.raises(IndexError):
        catalog.staircase[len(catalog.staircase)]


def test_frontier_builds_only_its_members(monkeypatch):
    designer = TFactoryDesigner()
    qubit, scheme = QUBIT_MAJ_NS_E4, FLOQUET_CODE
    catalog = designer._catalog(qubit, scheme)
    built = []
    evaluate = search.evaluate_pipeline
    monkeypatch.setattr(
        search, "evaluate_pipeline", lambda *args: built.append(1) or evaluate(*args)
    )
    frontier = designer.frontier(qubit, scheme, 1e-10)
    assert 0 < len(built) == len(frontier) < len(catalog.factories)
    assert all(
        any(member is entry for entry in catalog.factories) for member in frontier
    )


FIGURE_BUILDS = """
import json
from repro.distillation import search
from repro.distillation.search import DEFAULT_DESIGNER
from repro.experiments import run_fig3, run_fig4

calls = []
evaluate = search.evaluate_pipeline
search.evaluate_pipeline = lambda *args: calls.append(1) or evaluate(*args)
run_fig3()
run_fig4()
pareto_sets = [
    (c.factories._pareto, set(c.staircase._positions))
    for c in DEFAULT_DESIGNER._catalog_cache.values()
]
print(json.dumps({
    "calls": len(calls),
    "entries": sum(len(pareto.candidates) for pareto, _ in pareto_sets),
    "built": sum(len(pareto.built) for pareto, _ in pareto_sets),
    "off_staircase": sum(len(pareto.built.keys() - stair) for pareto, stair in pareto_sets),
}))
"""


def test_figure_grid_builds_only_the_staircase_entries_it_returns():
    """A fresh Fig. 3/4 pass calls ``evaluate_pipeline`` once per distinct
    catalog entry it is handed, and every such entry is a staircase
    entry: none of the other Pareto entries is built."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", FIGURE_BUILDS],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(out.stdout)
    assert report["entries"] == 905  # the six Pareto sets
    assert report["calls"] == report["built"]
    assert report["off_staircase"] == 0
    assert 0 < report["calls"] <= 48  # one design per figure point at most


class TestConcurrentFirstReads:
    def test_threads_reading_one_unbuilt_entry_get_one_object(self):
        catalog = TFactoryDesigner()._catalog(QUBIT_MAJ_NS_E4, FLOQUET_CODE)
        got = self.read_together(catalog, 8)
        assert all(entry is got[0] for entry in got)
        assert catalog.factories[0] is got[0]

    def test_concurrent_builds_publish_one_object(self, monkeypatch):
        """Every thread builds the entry (they meet inside the build,
        before any publishes); all of them get the published one."""
        threads = 4
        inside = threading.Barrier(threads, timeout=30)
        evaluate = search.evaluate_pipeline

        def meeting(*args):
            inside.wait()
            return evaluate(*args)

        monkeypatch.setattr(search, "evaluate_pipeline", meeting)
        catalog = TFactoryDesigner()._catalog(QUBIT_MAJ_NS_E4, FLOQUET_CODE)
        got = self.read_together(catalog, threads)
        assert all(entry is got[0] for entry in got)
        assert catalog.staircase[0] is got[0]

    @staticmethod
    def read_together(catalog, threads):
        start = threading.Barrier(threads, timeout=30)
        got = [None] * threads

        def read(k):
            start.wait()
            got[k] = catalog.staircase[0]

        workers = [threading.Thread(target=read, args=(k,)) for k in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert None not in got
        return got
