"""Pre-layout logical resource counts (paper Sec. III-A, IV-B.3).

``LogicalCounts`` is both the output of the IR tracer and the "known
logical estimates" input path of the tool: a user who already knows the
gate counts of their algorithm can construct one directly and feed it to
the estimator without writing any circuit, mirroring Azure's
``LogicalCounts`` Python entry point and the Q# ``AccountForEstimates``
operation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

#: Count-resolution backends of a referenced program: closed-form tallies
#: (``formula``), a materialized trace (``materialize``) or the streaming
#: counting builder (``counting``). It lives here, in a leaf module, so
#: spec validation and the CLI check a backend without importing the
#: arithmetic layer; :mod:`repro.arithmetic` re-exports it.
COUNT_BACKENDS = ("formula", "materialize", "counting")


@dataclass(frozen=True)
class LogicalCounts:
    """Logical-level resource tally of a quantum program, before layout.

    Attributes
    ----------
    num_qubits:
        Maximum number of logical qubits the program holds live at once
        (the circuit "width").
    t_count:
        Number of explicitly invoked T (or T†) gates.
    rotation_count:
        Number of arbitrary single-qubit rotation gates that require
        synthesis into Clifford+T (rotations by multiples of pi/4 should
        be counted as Cliffords/T by the front end, not here).
    rotation_depth:
        Number of non-Clifford layers containing at least one arbitrary
        rotation (paper Sec. III-B.2).
    ccz_count, ccix_count:
        Numbers of CCZ and CCiX (doubly-controlled iX) gates. Toffoli
        gates lower to one CCZ plus Cliffords.
    measurement_count:
        Number of single-qubit measurements.
    """

    num_qubits: int
    t_count: int = 0
    rotation_count: int = 0
    rotation_depth: int = 0
    ccz_count: int = 0
    ccix_count: int = 0
    measurement_count: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{f.name} must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"{f.name} must be non-negative, got {value}")
        if self.num_qubits == 0:
            raise ValueError("a program must use at least one logical qubit")
        if self.rotation_depth > self.rotation_count:
            raise ValueError(
                f"rotation_depth ({self.rotation_depth}) cannot exceed "
                f"rotation_count ({self.rotation_count})"
            )
        if self.rotation_count > 0 and self.rotation_depth == 0:
            raise ValueError("rotation_count > 0 requires rotation_depth >= 1")

    @property
    def non_clifford_count(self) -> int:
        """Total number of non-Clifford operations before synthesis."""
        return self.t_count + self.rotation_count + self.ccz_count + self.ccix_count

    def add(self, other: "LogicalCounts") -> "LogicalCounts":
        """Sequential composition: counts add; width takes the max.

        Rotation depths add, which is exact for sequential composition
        (layers of the second program follow all layers of the first).
        """
        return LogicalCounts(
            num_qubits=max(self.num_qubits, other.num_qubits),
            t_count=self.t_count + other.t_count,
            rotation_count=self.rotation_count + other.rotation_count,
            rotation_depth=self.rotation_depth + other.rotation_depth,
            ccz_count=self.ccz_count + other.ccz_count,
            ccix_count=self.ccix_count + other.ccix_count,
            measurement_count=self.measurement_count + other.measurement_count,
        )

    def account(self, extras) -> "LogicalCounts":
        """Fold estimates injected via ``account_for_estimates``.

        Each extra composes sequentially (:meth:`add`) while its qubits
        are auxiliary *on top of* this program's width, matching Q#'s
        ``AccountForEstimates`` (which receives the qubits it acts on
        plus an aux count). Both counting backends — the materialized
        tracer and the streaming builder — fold a program's injected
        estimates through this one helper, so the composition rule
        cannot drift between them.
        """
        counts = self
        for extra in extras:
            combined_width = counts.num_qubits + extra.num_qubits
            counts = counts.add(extra)
            counts = LogicalCounts(
                num_qubits=combined_width,
                t_count=counts.t_count,
                rotation_count=counts.rotation_count,
                rotation_depth=counts.rotation_depth,
                ccz_count=counts.ccz_count,
                ccix_count=counts.ccix_count,
                measurement_count=counts.measurement_count,
            )
        return counts

    def parallel(self, other: "LogicalCounts") -> "LogicalCounts":
        """Parallel composition: widths add; counts add.

        Rotation depth takes the max (the two programs' layers overlap in
        time), making this the dual of :meth:`add`. Useful for sizing a
        machine that runs independent subroutines side by side.
        """
        rotation_count = self.rotation_count + other.rotation_count
        rotation_depth = max(self.rotation_depth, other.rotation_depth)
        return LogicalCounts(
            num_qubits=self.num_qubits + other.num_qubits,
            t_count=self.t_count + other.t_count,
            rotation_count=rotation_count,
            rotation_depth=rotation_depth,
            ccz_count=self.ccz_count + other.ccz_count,
            ccix_count=self.ccix_count + other.ccix_count,
            measurement_count=self.measurement_count + other.measurement_count,
        )

    def scaled(self, repetitions: int) -> "LogicalCounts":
        """Counts for running this program ``repetitions`` times in sequence."""
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        return LogicalCounts(
            num_qubits=self.num_qubits,
            t_count=self.t_count * repetitions,
            rotation_count=self.rotation_count * repetitions,
            rotation_depth=self.rotation_depth * repetitions,
            ccz_count=self.ccz_count * repetitions,
            ccix_count=self.ccix_count * repetitions,
            measurement_count=self.measurement_count * repetitions,
        )

    def to_dict(self) -> dict[str, int]:
        """Plain-dict form (used by the report serializer)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "LogicalCounts":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown LogicalCounts fields: {sorted(unknown)}")
        return cls(**data)
