"""Physical qubit parameter dataclass and instruction sets."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import Any


class InstructionSet(str, Enum):
    """Primitive instruction set of the physical qubit technology."""

    GATE_BASED = "gate_based"
    MAJORANA = "majorana"


# Times are in nanoseconds, error rates are probabilities per operation.
_TIME_FIELDS = (
    "one_qubit_measurement_time_ns",
    "one_qubit_gate_time_ns",
    "two_qubit_gate_time_ns",
    "t_gate_time_ns",
    "two_qubit_joint_measurement_time_ns",
)
_ERROR_FIELDS = (
    "one_qubit_measurement_error_rate",
    "one_qubit_gate_error_rate",
    "two_qubit_gate_error_rate",
    "t_gate_error_rate",
    "two_qubit_joint_measurement_error_rate",
    "idle_error_rate",
)


@dataclass(frozen=True)
class PhysicalQubitParams:
    """Operation times and error rates of a physical qubit technology.

    Gate-based qubits use the gate-time/error fields; Majorana qubits use
    the measurement fields (their Cliffords are measurement-based) plus
    the T-gate error rate for the noisy non-Clifford operation. Fields not
    meaningful for an instruction set may be left at ``None``.
    """

    name: str
    instruction_set: InstructionSet
    one_qubit_measurement_time_ns: float
    one_qubit_measurement_error_rate: float
    t_gate_error_rate: float
    # Gate-based fields.
    one_qubit_gate_time_ns: float | None = None
    one_qubit_gate_error_rate: float | None = None
    two_qubit_gate_time_ns: float | None = None
    two_qubit_gate_error_rate: float | None = None
    t_gate_time_ns: float | None = None
    # Majorana fields.
    two_qubit_joint_measurement_time_ns: float | None = None
    two_qubit_joint_measurement_error_rate: float | None = None
    idle_error_rate: float | None = None

    def __post_init__(self) -> None:
        for f in _TIME_FIELDS:
            value = getattr(self, f)
            if value is not None and value <= 0:
                raise ValueError(f"{f} must be positive, got {value}")
        for f in _ERROR_FIELDS:
            value = getattr(self, f)
            if value is not None and not 0.0 <= value < 1.0:
                raise ValueError(f"{f} must be in [0, 1), got {value}")
        if self.instruction_set is InstructionSet.GATE_BASED:
            required = (
                "one_qubit_gate_time_ns",
                "one_qubit_gate_error_rate",
                "two_qubit_gate_time_ns",
                "two_qubit_gate_error_rate",
                "t_gate_time_ns",
            )
            clifford_fields = (
                "one_qubit_measurement_error_rate",
                "one_qubit_gate_error_rate",
                "two_qubit_gate_error_rate",
            )
        else:
            required = (
                "two_qubit_joint_measurement_time_ns",
                "two_qubit_joint_measurement_error_rate",
            )
            clifford_fields = (
                "one_qubit_measurement_error_rate",
                "two_qubit_joint_measurement_error_rate",
            )
        missing = [f for f in required if getattr(self, f) is None]
        if missing:
            raise ValueError(
                f"{self.instruction_set.value} qubit model {self.name!r} is "
                f"missing required parameters: {missing}"
            )
        # The formula bindings are pure functions of the frozen fields, so
        # they are derived once here instead of on every formula read.
        clifford = max(getattr(self, f) for f in clifford_fields)
        bindings: dict[str, float] = {
            "oneQubitMeasurementTime": self.one_qubit_measurement_time_ns,
            "oneQubitMeasurementErrorRate": self.one_qubit_measurement_error_rate,
            "tGateErrorRate": self.t_gate_error_rate,
            "cliffordErrorRate": clifford,
        }
        optional = {
            "oneQubitGateTime": self.one_qubit_gate_time_ns,
            "oneQubitGateErrorRate": self.one_qubit_gate_error_rate,
            "twoQubitGateTime": self.two_qubit_gate_time_ns,
            "twoQubitGateErrorRate": self.two_qubit_gate_error_rate,
            "tGateTime": self.t_gate_time_ns,
            "twoQubitJointMeasurementTime": self.two_qubit_joint_measurement_time_ns,
            "twoQubitJointMeasurementErrorRate": self.two_qubit_joint_measurement_error_rate,
            "idleErrorRate": self.idle_error_rate,
        }
        bindings.update({k: v for k, v in optional.items() if v is not None})
        object.__setattr__(self, "_clifford_error_rate", clifford)
        object.__setattr__(self, "_bindings", bindings)
        object.__setattr__(
            self, "_bound_variables", frozenset(("codeDistance", *bindings))
        )

    @property
    def clifford_error_rate(self) -> float:
        """Worst-case error rate of a Clifford-level primitive.

        This is the physical error rate ``p`` entering the QEC logical
        error model. For gate-based qubits it is the max over gate and
        measurement errors; for Majorana qubits the max over single and
        joint measurement errors.
        """
        return self._clifford_error_rate

    @property
    def bound_variables(self) -> frozenset[str]:
        """Names :meth:`formula_environment` binds, at any distance."""
        return self._bound_variables

    def formula_environment(self, code_distance: int) -> dict[str, float]:
        """Variable bindings exposed to QEC/distillation formulas.

        Names follow the tool's camelCase convention so published custom
        scheme strings work verbatim. Each call returns a new dict.
        """
        return {"codeDistance": float(code_distance), **self._bindings}

    def customized(self, **overrides: Any) -> "PhysicalQubitParams":
        """Copy with a subset of parameters replaced (paper IV-C.1).

        >>> fast = QUBIT_GATE_NS_E3.customized(two_qubit_gate_time_ns=20.0)
        """
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ValueError(f"unknown qubit parameters: {sorted(unknown)}")
        if "name" not in overrides:
            overrides["name"] = f"{self.name} (customized)"
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict[str, Any]:
        # Every field is a scalar, so a field-order read equals
        # dataclasses.asdict without its per-value deep copies (this runs
        # once per spec hash and per serialized result).
        data = {name: getattr(self, name) for name in _FIELD_NAMES}
        data["instruction_set"] = self.instruction_set.value
        return {k: v for k, v in data.items() if v is not None}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PhysicalQubitParams":
        """Inverse of :meth:`to_dict`; validates field names and values."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown PhysicalQubitParams fields: {sorted(unknown)}"
            )
        kwargs = dict(data)
        try:
            kwargs["instruction_set"] = InstructionSet(kwargs["instruction_set"])
        except KeyError:
            raise ValueError("qubit parameters need an 'instruction_set'") from None
        except ValueError:
            raise ValueError(
                f"unknown instruction_set {kwargs['instruction_set']!r}; "
                f"expected one of {[i.value for i in InstructionSet]}"
            ) from None
        return cls(**kwargs)


#: Field names of :class:`PhysicalQubitParams`, in declaration order.
_FIELD_NAMES = tuple(field.name for field in dataclasses.fields(PhysicalQubitParams))
