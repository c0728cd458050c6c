"""Estimation result object with the tool's eight output groups (Sec. IV-D)."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from ..budget import ErrorBudgetPartition
from ..counts import LogicalCounts
from ..distillation import TFactory
from ..jsonlog import _COMPACT
from ..layout import AlgorithmicLogicalResources
from ..qec import LogicalQubit
from ..qubits import PhysicalQubitParams

_T = TypeVar("_T")

#: Most sub-documents :func:`_shared` keeps decoded; past it the memo
#: starts over. A sweep's results repeat a few dozen (the reference
#: sweep's 684: 30 T factories, 17 logical qubits, 4 qubit parameter
#: sets, 1 pre-layout count set).
_SHARED_LIMIT = 256
_SHARED: dict[tuple[str, ...], Any] = {}


def _shared(kind: str, decode: Callable[[], _T], *parts: Any) -> _T:
    """``decode()``, shared with every earlier decode of the same input.

    ``parts`` are the JSON sub-documents ``decode`` reads; the memo key
    is ``kind`` plus their exact compact JSON, so equal keys mean equal
    input (``1`` and ``1.0``, or ``-0.0`` and ``0.0``, never share). The
    decoded objects are frozen, so sharing one equals a fresh decode. A
    decode that raises leaves nothing behind.
    """
    try:
        key = (kind, *("".join(_COMPACT(part, 0)) for part in parts))  # type: ignore[misc]
    except Exception:  # not JSON data, or no C encoder: decode unshared
        return decode()
    found = _SHARED.get(key)
    if found is None:
        found = decode()
        if len(_SHARED) >= _SHARED_LIMIT:
            _SHARED.clear()
        _SHARED[key] = found
    return found


@dataclass(frozen=True)
class PhysicalCounts:
    """Group 1 — headline physical resource estimates."""

    physical_qubits: int
    runtime_ns: float
    rqops: float

    @property
    def runtime_seconds(self) -> float:
        return self.runtime_ns * 1e-9

    def to_dict(self) -> dict[str, Any]:
        return {
            "physicalQubits": self.physical_qubits,
            "runtime_ns": self.runtime_ns,
            "runtime_s": self.runtime_seconds,
            "rqops": self.rqops,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PhysicalCounts":
        return cls(
            physical_qubits=data["physicalQubits"],
            runtime_ns=data["runtime_ns"],
            rqops=data["rqops"],
        )


@dataclass(frozen=True)
class TFactoryUsage:
    """How the chosen T factory is deployed during the run."""

    factory: TFactory
    copies: int
    total_runs: int
    runs_per_copy: int
    physical_qubits: int
    required_output_error_rate: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "copies": self.copies,
            "totalRuns": self.total_runs,
            "runsPerCopy": self.runs_per_copy,
            "physicalQubits": self.physical_qubits,
            "requiredOutputErrorRate": self.required_output_error_rate,
            "factory": self.factory.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TFactoryUsage":
        factory = data["factory"]
        return cls(
            factory=_shared("factory", lambda: TFactory.from_dict(factory), factory),
            copies=data["copies"],
            total_runs=data["totalRuns"],
            runs_per_copy=data["runsPerCopy"],
            physical_qubits=data["physicalQubits"],
            required_output_error_rate=data["requiredOutputErrorRate"],
        )


@dataclass(frozen=True)
class ResourceBreakdown:
    """Group 2 — intermediate quantities behind the headline numbers."""

    algorithmic_logical_qubits: int
    algorithmic_logical_depth: int
    logical_depth: int  # possibly stretched by constraints / factory fit
    num_t_states: int
    clock_frequency_hz: float
    physical_qubits_for_algorithm: int
    physical_qubits_for_t_factories: int
    required_logical_error_rate: float

    @property
    def logical_operations(self) -> int:
        """Total reliable logical operations = logical qubits x depth."""
        return self.algorithmic_logical_qubits * self.logical_depth

    def to_dict(self) -> dict[str, Any]:
        return {
            "algorithmicLogicalQubits": self.algorithmic_logical_qubits,
            "algorithmicLogicalDepth": self.algorithmic_logical_depth,
            "logicalDepth": self.logical_depth,
            "numTStates": self.num_t_states,
            "clockFrequency_Hz": self.clock_frequency_hz,
            "physicalQubitsForAlgorithm": self.physical_qubits_for_algorithm,
            "physicalQubitsForTFactories": self.physical_qubits_for_t_factories,
            "requiredLogicalErrorRate": self.required_logical_error_rate,
            "logicalOperations": self.logical_operations,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ResourceBreakdown":
        return cls(
            algorithmic_logical_qubits=data["algorithmicLogicalQubits"],
            algorithmic_logical_depth=data["algorithmicLogicalDepth"],
            logical_depth=data["logicalDepth"],
            num_t_states=data["numTStates"],
            clock_frequency_hz=data["clockFrequency_Hz"],
            physical_qubits_for_algorithm=data["physicalQubitsForAlgorithm"],
            physical_qubits_for_t_factories=data["physicalQubitsForTFactories"],
            required_logical_error_rate=data["requiredLogicalErrorRate"],
        )


@dataclass(frozen=True)
class PhysicalResourceEstimates:
    """Full output of one estimation run.

    Groups (paper Sec. IV-D): 1 physical counts, 2 breakdown, 3 logical
    qubit, 4 T factory, 5 pre-layout logical resources, 6 error budget,
    7 physical qubit parameters, 8 assumptions.
    """

    physical_counts: PhysicalCounts
    breakdown: ResourceBreakdown
    logical_qubit: LogicalQubit
    t_factory: TFactoryUsage | None
    algorithmic_resources: AlgorithmicLogicalResources
    error_budget: ErrorBudgetPartition
    qubit_params: PhysicalQubitParams
    assumptions: tuple[str, ...]

    # Convenience accessors used throughout examples/benchmarks.
    @property
    def physical_qubits(self) -> int:
        return self.physical_counts.physical_qubits

    @property
    def runtime_seconds(self) -> float:
        return self.physical_counts.runtime_seconds

    @property
    def rqops(self) -> float:
        return self.physical_counts.rqops

    @property
    def code_distance(self) -> int:
        return self.logical_qubit.code_distance

    @property
    def logical_qubits(self) -> int:
        return self.breakdown.algorithmic_logical_qubits

    @property
    def pre_layout(self) -> LogicalCounts:
        return self.algorithmic_resources.pre_layout

    def to_dict(self) -> dict[str, Any]:
        return {
            "physicalCounts": self.physical_counts.to_dict(),
            "breakdown": self.breakdown.to_dict(),
            "logicalQubit": self.logical_qubit.to_dict(),
            "tFactory": self.t_factory.to_dict() if self.t_factory else None,
            "preLayoutLogicalResources": self.pre_layout.to_dict(),
            "tStatesPerRotation": self.algorithmic_resources.t_states_per_rotation,
            "errorBudget": self.error_budget.to_dict(),
            "physicalQubitParameters": self.qubit_params.to_dict(),
            "assumptions": list(self.assumptions),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PhysicalResourceEstimates":
        """Inverse of :meth:`to_dict`: lossless result deserialization.

        ``from_dict(json.loads(result.to_json()))`` equals ``result``:
        every sub-object (including the full T-factory design and the QEC
        scheme formulas) is reconstructed, so stored results can be served
        and post-processed without re-running the estimator.

        Sub-documents that repeat across results — the qubit parameters,
        the logical qubit with its qubit, the T factory and the pre-layout
        counts — decode once per process and are shared (see
        :func:`_shared`).
        """
        qubit_data = data["physicalQubitParameters"]
        qubit = _shared("qubit", lambda: PhysicalQubitParams.from_dict(qubit_data), qubit_data)
        logical_data = data["logicalQubit"]
        logical_qubit = _shared(
            "logicalQubit",
            lambda: LogicalQubit.from_dict(logical_data, qubit),
            logical_data,
            qubit_data,
        )
        breakdown = ResourceBreakdown.from_dict(data["breakdown"])
        pre_layout_data = data["preLayoutLogicalResources"]
        pre_layout = _shared(
            "preLayout", lambda: LogicalCounts.from_dict(pre_layout_data), pre_layout_data
        )
        t_factory = data.get("tFactory")
        return cls(
            physical_counts=PhysicalCounts.from_dict(data["physicalCounts"]),
            breakdown=breakdown,
            logical_qubit=logical_qubit,
            t_factory=TFactoryUsage.from_dict(t_factory) if t_factory else None,
            algorithmic_resources=AlgorithmicLogicalResources(
                logical_qubits=breakdown.algorithmic_logical_qubits,
                logical_depth=breakdown.algorithmic_logical_depth,
                t_states=breakdown.num_t_states,
                t_states_per_rotation=data["tStatesPerRotation"],
                pre_layout=pre_layout,
            ),
            error_budget=ErrorBudgetPartition.from_dict(data["errorBudget"]),
            qubit_params=qubit,
            assumptions=tuple(data["assumptions"]),
        )

    def to_json(self, **json_kwargs: Any) -> str:
        json_kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **json_kwargs)

    def summary(self) -> str:
        """Human-readable report, in the spirit of the tool's result table."""
        pc = self.physical_counts
        bd = self.breakdown
        lines = [
            "Physical resource estimates",
            f"  Runtime:                    {pc.runtime_seconds:.4g} s",
            f"  rQOPS:                      {pc.rqops:.4g}",
            f"  Physical qubits:            {pc.physical_qubits:,}",
            "Resource estimates breakdown",
            f"  Logical algorithmic qubits: {bd.algorithmic_logical_qubits:,}",
            f"  Algorithmic depth:          {bd.algorithmic_logical_depth:,}",
            f"  Logical depth:              {bd.logical_depth:,}",
            f"  Clock frequency:            {bd.clock_frequency_hz:.4g} Hz",
            f"  Number of T states:         {bd.num_t_states:,}",
            f"  T factory copies:           {self.t_factory.copies if self.t_factory else 0}",
            f"  Physical qubits (algorithm):{bd.physical_qubits_for_algorithm:,}",
            f"  Physical qubits (factories):{bd.physical_qubits_for_t_factories:,}",
            "Logical qubit parameters",
            f"  QEC scheme:                 {self.logical_qubit.scheme.name}",
            f"  Code distance:              {self.logical_qubit.code_distance}",
            f"  Physical qubits / logical:  {self.logical_qubit.physical_qubits}",
            f"  Logical cycle time:         {self.logical_qubit.cycle_time_ns:.4g} ns",
            f"  Logical error rate:         {self.logical_qubit.logical_error_rate:.4g}",
        ]
        return "\n".join(lines)
