"""Distillation unit definitions (paper Sec. IV-C.5).

The predefined units implement 15-to-1 Reed–Muller distillation, the
workhorse protocol of the tool, in the variants described by Beverland et
al. (arXiv:2211.07629, Appendix C):

* ``15-to-1 RM prep`` — runs on bare physical qubits (31 physical qubits,
  duration ~23 measurement steps) or on logical qubits (31 logical qubits,
  13 logical cycles).
* ``15-to-1 space-efficient`` — logical-level only; trades time for space
  (20 logical qubits, 17 logical cycles).

Both share the 15-to-1 error model: failure probability
``15 * e_in + 356 * e_clifford`` and output error
``35 * e_in^3 + 7.1 * e_clifford``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any

from ..formulas import Formula


class DistillationUnitError(ValueError):
    """Raised for invalid distillation unit definitions."""


@dataclass(frozen=True)
class PhysicalUnitSpec:
    """Footprint of a unit applied directly to physical qubits.

    ``duration`` is a formula over the physical-qubit parameters (ns).
    """

    num_qubits: int
    duration: Formula

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise DistillationUnitError(
                f"physical unit needs at least 1 qubit, got {self.num_qubits}"
            )
        object.__setattr__(self, "duration", Formula(self.duration))

    def to_dict(self) -> dict[str, Any]:
        return {"numQubits": self.num_qubits, "duration": self.duration.source}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PhysicalUnitSpec":
        known = {"numQubits", "duration"}
        unknown = set(data) - known
        if unknown:
            raise DistillationUnitError(
                f"unknown physical unit spec fields: {sorted(unknown)}"
            )
        missing = known - set(data)
        if missing:
            raise DistillationUnitError(
                f"physical unit spec missing fields: {sorted(missing)}"
            )
        return cls(num_qubits=data["numQubits"], duration=Formula(data["duration"]))


@dataclass(frozen=True)
class LogicalUnitSpec:
    """Footprint of a unit applied to logical qubits of the QEC code."""

    num_logical_qubits: int
    duration_in_cycles: int

    def __post_init__(self) -> None:
        if self.num_logical_qubits < 1:
            raise DistillationUnitError(
                f"logical unit needs at least 1 logical qubit, got {self.num_logical_qubits}"
            )
        if self.duration_in_cycles < 1:
            raise DistillationUnitError(
                f"logical unit duration must be >= 1 cycle, got {self.duration_in_cycles}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "numLogicalQubits": self.num_logical_qubits,
            "durationInCycles": self.duration_in_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LogicalUnitSpec":
        known = {"numLogicalQubits", "durationInCycles"}
        unknown = set(data) - known
        if unknown:
            raise DistillationUnitError(
                f"unknown logical unit spec fields: {sorted(unknown)}"
            )
        missing = known - set(data)
        if missing:
            raise DistillationUnitError(
                f"logical unit spec missing fields: {sorted(missing)}"
            )
        return cls(
            num_logical_qubits=data["numLogicalQubits"],
            duration_in_cycles=data["durationInCycles"],
        )


@dataclass(frozen=True)
class DistillationUnit:
    """A T-state distillation protocol step.

    Parameters
    ----------
    name:
        Protocol name shown in reports.
    num_input_ts, num_output_ts:
        T states consumed / produced per successful run.
    failure_probability:
        Formula over ``inputErrorRate`` and ``cliffordErrorRate`` giving
        the probability that a run must be discarded.
    output_error_rate:
        Formula over the same variables giving the error rate of each
        output T state of a successful run.
    physical_spec / logical_spec:
        Footprints at the physical / logical level; at least one must be
        given. Units with only a ``physical_spec`` can only appear in the
        first round of a pipeline.
    """

    name: str
    num_input_ts: int
    num_output_ts: int
    failure_probability: Formula
    output_error_rate: Formula
    physical_spec: PhysicalUnitSpec | None = None
    logical_spec: LogicalUnitSpec | None = None

    _ALLOWED_VARIABLES = frozenset({"inputErrorRate", "cliffordErrorRate"})

    def __post_init__(self) -> None:
        if self.num_input_ts < 1 or self.num_output_ts < 1:
            raise DistillationUnitError(
                f"unit {self.name!r}: input/output T counts must be >= 1"
            )
        if self.num_output_ts >= self.num_input_ts:
            raise DistillationUnitError(
                f"unit {self.name!r}: distillation must consume more T states "
                f"than it produces ({self.num_input_ts} -> {self.num_output_ts})"
            )
        if self.physical_spec is None and self.logical_spec is None:
            raise DistillationUnitError(
                f"unit {self.name!r} needs a physical and/or logical spec"
            )
        object.__setattr__(self, "failure_probability", Formula(self.failure_probability))
        object.__setattr__(self, "output_error_rate", Formula(self.output_error_rate))
        for formula_name in ("failure_probability", "output_error_rate"):
            formula: Formula = getattr(self, formula_name)
            extra = formula.free_variables - self._ALLOWED_VARIABLES
            if extra:
                raise DistillationUnitError(
                    f"unit {self.name!r}: {formula_name} formula may only use "
                    f"{sorted(self._ALLOWED_VARIABLES)}, found {sorted(extra)}"
                )

    def evaluate(
        self, input_error_rate: float, clifford_error_rate: float
    ) -> tuple[float, float]:
        """Return ``(failure_probability, output_error_rate)`` for a run.

        Failure probability is clamped into [0, 1]; a clamp to 1 means the
        unit can never succeed at these error rates, which the pipeline
        evaluator treats as infeasible. A non-finite failure probability
        or a negative or non-finite output error is a definition error:
        a NaN would compare as meeting every error target.
        """
        env = {
            "inputErrorRate": input_error_rate,
            "cliffordErrorRate": clifford_error_rate,
        }
        failure = self.failure_probability.evaluate(env)
        output = self.output_error_rate.evaluate(env)
        if not math.isfinite(failure):
            raise DistillationUnitError(
                f"unit {self.name!r}: failure probability formula produced {failure}"
            )
        if not (math.isfinite(output) and output >= 0):
            raise DistillationUnitError(
                f"unit {self.name!r}: output error formula produced {output}"
            )
        return min(max(failure, 0.0), 1.0), output

    def customized(self, **overrides: Any) -> "DistillationUnit":
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise DistillationUnitError(
                f"unknown distillation unit parameters: {sorted(unknown)}"
            )
        if "name" not in overrides:
            overrides["name"] = f"{self.name} (customized)"
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "numInputTs": self.num_input_ts,
            "numOutputTs": self.num_output_ts,
            "failureProbability": self.failure_probability.source,
            "outputErrorRate": self.output_error_rate.source,
            "physicalSpec": self.physical_spec.to_dict() if self.physical_spec else None,
            "logicalSpec": self.logical_spec.to_dict() if self.logical_spec else None,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DistillationUnit":
        """Inverse of :meth:`to_dict` (formulas re-parsed from source)."""
        known = {
            "name",
            "numInputTs",
            "numOutputTs",
            "failureProbability",
            "outputErrorRate",
            "physicalSpec",
            "logicalSpec",
        }
        unknown = set(data) - known
        if unknown:
            raise DistillationUnitError(
                f"unknown distillation unit fields: {sorted(unknown)}"
            )
        missing = (known - {"physicalSpec", "logicalSpec"}) - set(data)
        if missing:
            raise DistillationUnitError(
                f"distillation unit definition missing: {sorted(missing)}"
            )
        physical = data.get("physicalSpec")
        logical = data.get("logicalSpec")
        return cls(
            name=data["name"],
            num_input_ts=data["numInputTs"],
            num_output_ts=data["numOutputTs"],
            failure_probability=Formula(data["failureProbability"]),
            output_error_rate=Formula(data["outputErrorRate"]),
            physical_spec=PhysicalUnitSpec.from_dict(physical) if physical else None,
            logical_spec=LogicalUnitSpec.from_dict(logical) if logical else None,
        )


_FAIL_15_TO_1 = "15 * inputErrorRate + 356 * cliffordErrorRate"
_OUT_15_TO_1 = "35 * inputErrorRate^3 + 7.1 * cliffordErrorRate"

T15_RM_PREP = DistillationUnit(
    name="15-to-1 RM prep",
    num_input_ts=15,
    num_output_ts=1,
    failure_probability=Formula(_FAIL_15_TO_1),
    output_error_rate=Formula(_OUT_15_TO_1),
    physical_spec=PhysicalUnitSpec(
        num_qubits=31, duration=Formula("23 * oneQubitMeasurementTime")
    ),
    logical_spec=LogicalUnitSpec(num_logical_qubits=31, duration_in_cycles=13),
)

T15_SPACE_EFFICIENT = DistillationUnit(
    name="15-to-1 space-efficient",
    num_input_ts=15,
    num_output_ts=1,
    failure_probability=Formula(_FAIL_15_TO_1),
    output_error_rate=Formula(_OUT_15_TO_1),
    logical_spec=LogicalUnitSpec(num_logical_qubits=20, duration_in_cycles=17),
)

PREDEFINED_UNITS: dict[str, DistillationUnit] = {
    T15_RM_PREP.name: T15_RM_PREP,
    T15_SPACE_EFFICIENT.name: T15_SPACE_EFFICIENT,
}
