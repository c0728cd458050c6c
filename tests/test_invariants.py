"""Property-based invariants of the estimation pipeline.

Seeded (``derandomize=True``) hypothesis sweeps over every registry
profile x compatible QEC scheme, pinning the physics-shaped properties a
refactor must never bend:

* **Budget monotonicity** — loosening the total error budget can never
  cost more: runtime and code distance are monotone non-increasing, and
  so are physical qubits once T-factory parallelism is pinned
  (``max_t_factories=1``). Unconstrained total qubit counts are *not*
  monotone by design — a looser budget shortens the runtime, and the
  shorter algorithm needs more simultaneous factory copies to keep up —
  so the suite asserts the invariant in its true form.
* **Frontier non-domination** — every pair of reported frontier points
  is mutually non-dominated in (runtime, physical qubits), and points
  are sorted by increasing runtime.
* **Backend agreement** — the counting and materialize backends produce
  bit-for-bit identical logical counts on sampled multipliers (the
  property that justifies excluding ``backend`` from spec hashes).
* **Kernel agreement** — the scalar walk and the vectorized
  struct-of-arrays kernel (``estimate_batch(backend=...)``) produce
  bit-for-bit identical results and error strings over random
  workloads, budgets (including infeasibly tight ones that exercise the
  kernel's scalar fallback), and constraints — the property that lets
  the batch engine pick a backend by batch size alone.

Sweeps run through the declarative layer (:class:`SweepSpec` /
:func:`run_sweep`), the same path as the CLI and the service; the
kernel-agreement points are that layer's resolved requests.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LogicalCounts, Registry, estimate_frontier
from repro.estimator.batch import EstimateCache, estimate_batch
from repro.estimator.sweep import SweepAxis, SweepSpec, run_sweep

#: One small workload shared by every property (fast per-point solves).
COUNTS = LogicalCounts(
    num_qubits=40,
    t_count=20_000,
    ccz_count=5_000,
    rotation_count=100,
    rotation_depth=50,
    measurement_count=500,
)

#: Budgets from paper-tight to very loose (the sampled sweep ladder).
BUDGET_LADDER = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


def _profile_scheme_pairs() -> list[tuple[str, str]]:
    """Every (profile, scheme) combination the registry can resolve."""
    registry = Registry()
    pairs = []
    for profile in registry.qubit_names():
        qubit = registry.qubit(profile)
        for scheme in registry.scheme_catalog():
            try:
                registry.scheme(scheme, qubit)
            except KeyError:
                continue  # scheme has no variant for this technology
            pairs.append((profile, scheme))
    return pairs


PAIRS = _profile_scheme_pairs()
PAIR_IDS = [f"{profile}-{scheme}" for profile, scheme in PAIRS]

#: Strategy: a sorted ladder of distinct budgets (loosening order).
budget_ladders = st.lists(
    st.sampled_from(BUDGET_LADDER), min_size=2, max_size=4, unique=True
).map(sorted)


def _budget_sweep(
    profile: str, scheme: str, budgets: list[float], *, max_t_factories=None
) -> list:
    base: dict = {"program": {"counts": COUNTS.to_dict()}, "scheme": {"name": scheme}}
    if max_t_factories is not None:
        base["constraints"] = {"maxTFactories": max_t_factories}
    sweep = SweepSpec(
        base=base,
        axes=(
            SweepAxis("budget", tuple(budgets)),
            SweepAxis("qubit", (profile,)),
        ),
    )
    result = run_sweep(sweep)
    assert result.num_failed == 0, [p.error for p in result.points if not p.ok]
    return [point.result for point in result.points]


def _non_increasing(values) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))


class TestBudgetMonotonicity:
    @pytest.mark.parametrize("profile,scheme", PAIRS, ids=PAIR_IDS)
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(budgets=budget_ladders)
    def test_runtime_and_distance_non_increasing(self, profile, scheme, budgets):
        results = _budget_sweep(profile, scheme, budgets)
        assert _non_increasing([r.runtime_seconds for r in results]), (
            profile,
            scheme,
            budgets,
            [r.runtime_seconds for r in results],
        )
        assert _non_increasing([r.code_distance for r in results])

    @pytest.mark.parametrize("profile,scheme", PAIRS, ids=PAIR_IDS)
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(budgets=budget_ladders)
    def test_physical_qubits_non_increasing_with_pinned_factories(
        self, profile, scheme, budgets
    ):
        # With parallelism pinned, a looser budget can only shrink the
        # code distance (algorithm area) and the factory itself.
        results = _budget_sweep(profile, scheme, budgets, max_t_factories=1)
        assert _non_increasing([r.physical_qubits for r in results]), (
            profile,
            scheme,
            budgets,
            [r.physical_qubits for r in results],
        )
        factories = [
            r.t_factory.physical_qubits if r.t_factory else 0 for r in results
        ]
        assert _non_increasing(factories)


class TestFrontierNonDomination:
    @pytest.mark.parametrize("profile,scheme", PAIRS, ids=PAIR_IDS)
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(budget=st.sampled_from((1e-4, 1e-3, 1e-2)))
    def test_frontier_points_mutually_non_dominated(self, profile, scheme, budget):
        registry = Registry()
        qubit = registry.qubit(profile)
        frontier = estimate_frontier(
            COUNTS,
            qubit,
            scheme=registry.scheme(scheme, qubit),
            budget=budget,
            depth_factors=[1.0, 2.0, 4.0, 16.0, 64.0],
        )
        runtimes = [point.runtime_seconds for point in frontier]
        assert runtimes == sorted(runtimes), "frontier must be runtime-sorted"
        for a in frontier:
            for b in frontier:
                if a is b:
                    continue
                dominates = (
                    a.runtime_seconds <= b.runtime_seconds
                    and a.physical_qubits <= b.physical_qubits
                )
                assert not dominates, (
                    profile,
                    scheme,
                    (a.runtime_seconds, a.physical_qubits),
                    (b.runtime_seconds, b.physical_qubits),
                )


class TestBackendAgreement:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        algorithm=st.sampled_from(("schoolbook", "karatsuba", "windowed")),
        bits=st.sampled_from((4, 6, 8, 12, 16)),
    )
    def test_counting_matches_materialize(self, algorithm, bits):
        from repro.arithmetic import multiplier_by_name

        multiplier = multiplier_by_name(algorithm, bits)
        counting = multiplier.backend_counts("counting")
        materialized = multiplier.backend_counts("materialize")
        assert counting == materialized, (algorithm, bits)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        algorithm=st.sampled_from(("schoolbook", "windowed")),
        bits=st.sampled_from((4, 8)),
    )
    def test_backend_choice_shares_one_spec_hash(self, algorithm, bits):
        # The property that lets the store answer a spec submitted via a
        # different backend: backend is excluded from the content hash.
        from repro.estimator.spec import EstimateSpec, ProgramRef

        hashes = {
            EstimateSpec(
                program=ProgramRef(kind="multiplier", algorithm=algorithm, bits=bits),
                qubit="qubit_maj_ns_e4",
                budget=1e-4,
                backend=backend,
            ).content_hash(Registry())
            for backend in ("formula", "materialize", "counting")
        }
        assert len(hashes) == 1


#: Workloads for the kernel-agreement sweep, from degenerate to large:
#: a zero-operation program (depth clamps to 1, no T factory), a
#: T-free measurement-only program, the shared small workload with
#: rotations, and a large deep one (big intermediate products).
KERNEL_WORKLOADS = (
    LogicalCounts(num_qubits=1),
    LogicalCounts(num_qubits=7, measurement_count=900),
    COUNTS,
    LogicalCounts(
        num_qubits=1_200,
        t_count=10**8,
        ccz_count=10**7,
        rotation_count=10_000,
        rotation_depth=4_000,
        measurement_count=10**6,
    ),
)

#: Budgets for the kernel-agreement sweep. 1e-25 is infeasibly tight for
#: every predefined factory search space — those points fail with an
#: EstimationError raised inside the kernel's scalar fallback, so the
#: error strings are part of what must match.
KERNEL_BUDGETS = (1e-25, 1e-10, 1e-6, 1e-4, 1e-3, 1e-1)


class TestKernelAgreement:
    """Scalar and vectorized kernels: bit-for-bit identical outcomes."""

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        pair=st.sampled_from(PAIRS),
        workload=st.sampled_from(KERNEL_WORKLOADS),
        budgets=st.lists(
            st.sampled_from(KERNEL_BUDGETS), min_size=2, max_size=4, unique=True
        ).map(sorted),
        max_t_factories=st.sampled_from((None, 1, 7)),
        depth_factor=st.sampled_from((1.0, 64.0)),
    )
    def test_batch_outcomes_identical(
        self, pair, workload, budgets, max_t_factories, depth_factor
    ):
        profile, scheme = pair
        base: dict = {
            "program": {"counts": workload.to_dict()},
            "scheme": {"name": scheme},
            "constraints": {"logicalDepthFactor": depth_factor},
        }
        if max_t_factories is not None:
            base["constraints"]["maxTFactories"] = max_t_factories
        sweep = SweepSpec(
            base=base,
            axes=(
                SweepAxis("budget", tuple(budgets)),
                SweepAxis("qubit", (profile,)),
            ),
        )
        registry = Registry()
        requests = [point.spec.to_request(registry) for point in sweep.expand()]

        def outcomes(backend: str) -> list:
            return [
                (outcome.result.to_dict() if outcome.ok else None, outcome.error)
                for outcome in estimate_batch(
                    requests, cache=EstimateCache(), backend=backend
                )
            ]

        # Full result documents and per-point error strings.
        assert outcomes("scalar") == outcomes("vectorized"), (profile, scheme)
