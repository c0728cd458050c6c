"""Resolved logical qubit: a scheme instantiated at a concrete distance.

This is the "logical qubit parameters" output group of the tool (paper
Sec. IV-D.3): the code distance together with the derived per-logical-qubit
physical footprint, cycle time, and achieved logical error rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

from ..qubits import PhysicalQubitParams
from .scheme import QECScheme

#: Hard upper bound used by searches; far above any practical device.
MAX_CODE_DISTANCE = 51


@dataclass(frozen=True)
class LogicalQubit:
    """A logical qubit of a QEC scheme at a fixed code distance."""

    scheme: QECScheme
    qubit: PhysicalQubitParams
    code_distance: int

    @classmethod
    def for_target_error_rate(
        cls,
        scheme: QECScheme,
        qubit: PhysicalQubitParams,
        required_error_rate: float,
    ) -> "LogicalQubit":
        """Instantiate at the smallest distance meeting the target rate."""
        scheme.check_compatible(qubit)
        distance = scheme.required_code_distance(qubit, required_error_rate)
        return cls(scheme=scheme, qubit=qubit, code_distance=distance)

    # The derived quantities are pure functions of the frozen fields.
    # Each is computed on its first read (so a custom formula that raises
    # does so on the read that needs it) and kept in the instance, which
    # a pickle carries along.

    @cached_property
    def physical_qubits(self) -> int:
        """Physical qubits forming this logical qubit."""
        return self.scheme.physical_qubits(self.qubit, self.code_distance)

    @cached_property
    def cycle_time_ns(self) -> float:
        """Duration of one logical cycle in nanoseconds."""
        return self.scheme.cycle_time_ns(self.qubit, self.code_distance)

    @cached_property
    def logical_error_rate(self) -> float:
        """Achieved logical error rate per qubit per cycle."""
        return self.scheme.logical_error_rate(self.qubit, self.code_distance)

    @cached_property
    def logical_cycles_per_second(self) -> float:
        """Logical clock rate in Hz (inverse of the cycle time)."""
        return 1e9 / self.cycle_time_ns

    def to_dict(self) -> dict[str, Any]:
        return {
            "codeDistance": self.code_distance,
            "physicalQubits": self.physical_qubits,
            "logicalCycleTime_ns": self.cycle_time_ns,
            "logicalErrorRate": self.logical_error_rate,
            "logicalCyclesPerSecond": self.logical_cycles_per_second,
            "qecScheme": self.scheme.to_dict(),
        }

    @classmethod
    def from_dict(
        cls, data: dict[str, Any], qubit: PhysicalQubitParams
    ) -> "LogicalQubit":
        """Inverse of :meth:`to_dict`.

        The serialized form carries the scheme but not the qubit model
        (the enclosing result serializes it once at the top level), so the
        caller supplies ``qubit``. Derived quantities (footprint, cycle
        time, error rate) are recomputed from the scheme formulas.
        """
        return cls(
            scheme=QECScheme.from_dict(data["qecScheme"]),
            qubit=qubit,
            code_distance=data["codeDistance"],
        )
