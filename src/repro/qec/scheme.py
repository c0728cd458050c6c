"""QEC scheme definition with formula parameters."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any

from ..formulas import Formula
from ..qubits import InstructionSet, PhysicalQubitParams


class QECSchemeError(ValueError):
    """Raised for invalid scheme definitions or unsatisfiable requirements."""


@dataclass(frozen=True)
class QECScheme:
    """A quantum error correction scheme (paper Sec. IV-C.2).

    Parameters
    ----------
    name:
        Human-readable scheme name.
    crossing_prefactor:
        Prefactor ``a`` of the logical error model.
    error_correction_threshold:
        Threshold ``p*`` of the logical error model; physical error rates
        at or above the threshold cannot be corrected.
    logical_cycle_time:
        Formula for the duration (ns) of one logical cycle, over the
        physical qubit parameters and ``codeDistance``.
    physical_qubits_per_logical_qubit:
        Formula for the number of physical qubits forming one logical
        qubit, over the same variables.
    instruction_set:
        Which qubit technologies the scheme applies to; ``None`` means
        any.
    max_code_distance:
        Largest distance the scheme supports (practical cut-off for the
        solver's search, mirroring the tool's bounded search).
    """

    name: str
    crossing_prefactor: float
    error_correction_threshold: float
    logical_cycle_time: Formula
    physical_qubits_per_logical_qubit: Formula
    instruction_set: InstructionSet | None = None
    max_code_distance: int = 51

    def __post_init__(self) -> None:
        if self.crossing_prefactor <= 0:
            raise QECSchemeError(
                f"crossing prefactor must be positive, got {self.crossing_prefactor}"
            )
        if not 0.0 < self.error_correction_threshold < 1.0:
            raise QECSchemeError(
                "error correction threshold must be in (0, 1), got "
                f"{self.error_correction_threshold}"
            )
        if self.max_code_distance < 1 or self.max_code_distance % 2 == 0:
            raise QECSchemeError(
                f"max_code_distance must be a positive odd integer, got "
                f"{self.max_code_distance}"
            )
        # Coerce formula-likes so callers can pass plain strings.
        object.__setattr__(self, "logical_cycle_time", Formula(self.logical_cycle_time))
        object.__setattr__(
            self,
            "physical_qubits_per_logical_qubit",
            Formula(self.physical_qubits_per_logical_qubit),
        )
        # Every estimate checks compatibility (three times a point), so
        # the variables the formulas read are collected once.
        object.__setattr__(
            self,
            "_variables",
            self.logical_cycle_time.free_variables
            | self.physical_qubits_per_logical_qubit.free_variables,
        )

    def check_compatible(self, qubit: PhysicalQubitParams) -> None:
        """Raise if the scheme cannot run on the given qubit technology."""
        if (
            self.instruction_set is not None
            and qubit.instruction_set is not self.instruction_set
        ):
            raise QECSchemeError(
                f"QEC scheme {self.name!r} requires {self.instruction_set.value} "
                f"qubits but {qubit.name!r} is {qubit.instruction_set.value}"
            )
        if not self._variables <= qubit.bound_variables:
            missing = self._variables - qubit.bound_variables
            raise QECSchemeError(
                f"QEC scheme {self.name!r} formulas reference parameters "
                f"{sorted(missing)} not provided by qubit model {qubit.name!r}"
            )

    def formula_variables(self) -> set[str]:
        return set(self._variables)

    def logical_error_rate(self, qubit: PhysicalQubitParams, code_distance: int) -> float:
        """Logical error rate per qubit per cycle, ``a (p/p*)^((d+1)/2)``."""
        if code_distance < 1 or code_distance % 2 == 0:
            raise QECSchemeError(
                f"code distance must be a positive odd integer, got {code_distance}"
            )
        p = qubit.clifford_error_rate
        ratio = p / self.error_correction_threshold
        return self.crossing_prefactor * ratio ** ((code_distance + 1) / 2)

    def required_code_distance(
        self, qubit: PhysicalQubitParams, required_error_rate: float
    ) -> int:
        """Smallest odd distance achieving the required logical error rate.

        Solved in closed form from the error model then verified; raises
        :class:`QECSchemeError` when the physical error rate is at/above
        threshold or the needed distance exceeds ``max_code_distance``.
        """
        if required_error_rate <= 0.0:
            raise QECSchemeError(
                f"required logical error rate must be positive, got {required_error_rate}"
            )
        p = qubit.clifford_error_rate
        if p >= self.error_correction_threshold:
            raise QECSchemeError(
                f"physical error rate {p} of {qubit.name!r} is not below the "
                f"threshold {self.error_correction_threshold} of {self.name!r}; "
                "error correction cannot help"
            )
        ratio = p / self.error_correction_threshold
        # a * ratio^((d+1)/2) <= req  =>  (d+1)/2 >= log(req/a) / log(ratio)
        exponent = math.log(required_error_rate / self.crossing_prefactor) / math.log(ratio)
        distance = 2 * math.ceil(exponent) - 1
        distance = max(distance, 1)
        # Guard against floating point edge cases near the boundary.
        while self.logical_error_rate(qubit, distance) > required_error_rate:
            distance += 2
        while distance > 1 and self.logical_error_rate(qubit, distance - 2) <= required_error_rate:
            distance -= 2
        if distance > self.max_code_distance:
            raise QECSchemeError(
                f"achieving logical error rate {required_error_rate:.3e} on "
                f"{qubit.name!r} needs code distance {distance}, above the "
                f"maximum {self.max_code_distance} of scheme {self.name!r}"
            )
        return distance

    def distance_table(
        self, qubit: PhysicalQubitParams
    ) -> tuple[tuple[int, float], ...]:
        """``(distance, logical_error_rate)`` for every supported distance.

        One row per odd distance from 1 through ``max_code_distance``,
        with the rate computed by :meth:`logical_error_rate` — the exact
        values :meth:`required_code_distance` compares against. Batch
        engines tabulate this once per (scheme, qubit) pair and answer
        each required-error query with a sorted-array lookup; below
        threshold the rates decrease monotonically in the distance, so
        the first row at or under the requirement is the distance the
        scalar search returns.
        """
        return tuple(
            (d, self.logical_error_rate(qubit, d))
            for d in range(1, self.max_code_distance + 1, 2)
        )

    def cycle_time_ns(self, qubit: PhysicalQubitParams, code_distance: int) -> float:
        """Duration of one logical cycle, in nanoseconds."""
        env = qubit.formula_environment(code_distance)
        return self.logical_cycle_time.evaluate_positive(env)

    def physical_qubits(self, qubit: PhysicalQubitParams, code_distance: int) -> int:
        """Physical qubits per logical qubit at the given distance."""
        env = qubit.formula_environment(code_distance)
        return math.ceil(self.physical_qubits_per_logical_qubit.evaluate_positive(env))

    def customized(self, **overrides: Any) -> "QECScheme":
        """Copy with some parameters replaced (paper IV-C.2 customization)."""
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise QECSchemeError(f"unknown QEC scheme parameters: {sorted(unknown)}")
        if "name" not in overrides:
            overrides["name"] = f"{self.name} (customized)"
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "crossingPrefactor": self.crossing_prefactor,
            "errorCorrectionThreshold": self.error_correction_threshold,
            "logicalCycleTime": self.logical_cycle_time.source,
            "physicalQubitsPerLogicalQubit": self.physical_qubits_per_logical_qubit.source,
            "instructionSet": self.instruction_set.value if self.instruction_set else None,
            "maxCodeDistance": self.max_code_distance,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QECScheme":
        """Inverse of :meth:`to_dict` (formulas re-parsed from source)."""
        known = {
            "name",
            "crossingPrefactor",
            "errorCorrectionThreshold",
            "logicalCycleTime",
            "physicalQubitsPerLogicalQubit",
            "instructionSet",
            "maxCodeDistance",
        }
        unknown = set(data) - known
        if unknown:
            raise QECSchemeError(f"unknown QEC scheme fields: {sorted(unknown)}")
        missing = {
            "name",
            "crossingPrefactor",
            "errorCorrectionThreshold",
            "logicalCycleTime",
            "physicalQubitsPerLogicalQubit",
        } - set(data)
        if missing:
            raise QECSchemeError(f"QEC scheme definition missing: {sorted(missing)}")
        instruction_set = data.get("instructionSet")
        return cls(
            name=data["name"],
            crossing_prefactor=data["crossingPrefactor"],
            error_correction_threshold=data["errorCorrectionThreshold"],
            logical_cycle_time=Formula(data["logicalCycleTime"]),
            physical_qubits_per_logical_qubit=Formula(
                data["physicalQubitsPerLogicalQubit"]
            ),
            instruction_set=(
                InstructionSet(instruction_set) if instruction_set else None
            ),
            max_code_distance=data.get("maxCodeDistance", 51),
        )
