"""Common multiplier interface and helpers."""

from __future__ import annotations

import abc
import random
from typing import Sequence

from ...counts import COUNT_BACKENDS, LogicalCounts
from ...ir import Builder, Circuit, CircuitBuilder
from ...ir.counting import CountingBuilder
from ..tally import GateTally

def default_constant(bits: int) -> int:
    """Deterministic n-bit odd constant with the top bit set.

    Experiments need reproducible counts; an arbitrary-looking but fixed
    constant avoids the degenerate structure of values like ``2^n - 1``
    while keeping ``bit_length == bits`` so register sizing is exercised
    fully.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if bits == 1:
        return 1
    rng = random.Random(0xC0FFEE ^ bits)
    value = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    return value


class Multiplier(abc.ABC):
    """A circuit family computing ``acc += x * constant``.

    Subclasses provide the emitter (:meth:`emit`) plus mirrored
    closed-form tallies (:meth:`tally`) and width (:meth:`num_qubits`);
    tests assert the mirrors agree with traced circuits.
    """

    #: Short identifier used by experiments ("schoolbook", ...).
    name: str = ""

    def __init__(self, bits: int, constant: int | None = None) -> None:
        if bits < 1:
            raise ValueError(f"bit size must be >= 1, got {bits}")
        self.bits = bits
        self.constant = default_constant(bits) if constant is None else constant
        if not 0 <= self.constant < (1 << bits):
            raise ValueError(
                f"constant {self.constant} does not fit in {bits} bits"
            )
        self._circuit_cache: Circuit | None = None

    # -- abstract surface ---------------------------------------------------

    @abc.abstractmethod
    def emit(
        self, builder: Builder, x: Sequence[int], acc: Sequence[int]
    ) -> None:
        """Emit ``acc += x * self.constant`` onto caller-provided registers.

        ``x`` must have ``self.bits`` qubits and ``acc`` at least
        ``2 * self.bits``; ancillas are the emitter's business.
        """

    @abc.abstractmethod
    def tally(self) -> GateTally:
        """Closed-form gate tally of :meth:`circuit` (incl. final measures)."""

    @abc.abstractmethod
    def num_qubits(self) -> int:
        """Closed-form qubit high-water mark of :meth:`circuit`."""

    # -- shared machinery -----------------------------------------------------

    def circuit(self) -> Circuit:
        """The complete benchmark program: prepare, multiply, measure.

        The input register is put in uniform superposition (Hadamards are
        free Cliffords) and the product register is measured, mirroring
        how the multiplication subroutine sits inside a larger algorithm.
        Cached after first build.
        """
        if self._circuit_cache is None:
            builder = CircuitBuilder(f"{self.name}-{self.bits}b")
            x = builder.allocate_register(self.bits)
            acc = builder.allocate_register(2 * self.bits)
            for q in x:
                builder.h(q)
            self.emit(builder, x, acc)
            for q in acc:
                builder.measure(q)
            self._circuit_cache = builder.finish()
        return self._circuit_cache

    def logical_counts(self) -> LogicalCounts:
        """Closed-form pre-layout counts (validated against traces in tests)."""
        return self.tally().to_logical_counts(self.num_qubits())

    def traced_counts(self) -> LogicalCounts:
        """Counts obtained by actually tracing the emitted circuit."""
        return self.circuit().logical_counts()

    def counted_counts(self) -> LogicalCounts:
        """Counts via the streaming backend: emit, fold, never store.

        Identical to :meth:`traced_counts` (asserted by the tests) without
        materializing the instruction stream — O(live qubits) memory.
        """
        builder = CountingBuilder(f"{self.name}-{self.bits}b")
        x = builder.allocate_register(self.bits)
        acc = builder.allocate_register(2 * self.bits)
        for q in x:
            builder.h(q)
        self.emit(builder, x, acc)
        for q in acc:
            builder.measure(q)
        return builder.logical_counts()

    def backend_counts(self, backend: str = "formula") -> LogicalCounts:
        """Pre-layout counts through the chosen backend.

        ``formula`` evaluates the closed-form tally, ``materialize``
        builds and traces the full instruction stream, ``counting``
        streams it through :class:`~repro.ir.counting.CountingBuilder`.
        All three agree bit-for-bit; they differ in time and memory.
        """
        if backend == "formula":
            return self.logical_counts()
        if backend == "materialize":
            return self.traced_counts()
        if backend == "counting":
            return self.counted_counts()
        raise ValueError(
            f"unknown count backend {backend!r}; available: {COUNT_BACKENDS}"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(bits={self.bits})"


#: The multiplier algorithms addressable by name (grid specs, program
#: refs). Declarative layers validate against this eagerly, so a typo
#: fails at spec-parse time instead of inside a batch worker.
MULTIPLIER_ALGORITHMS = ("schoolbook", "karatsuba", "windowed")


def multiplier_by_name(name: str, bits: int, **kwargs: object) -> Multiplier:
    """Construct a multiplier from its experiment identifier."""
    from .karatsuba import KaratsubaMultiplier
    from .schoolbook import SchoolbookMultiplier
    from .windowed import WindowedMultiplier

    registry: dict[str, type[Multiplier]] = {
        "schoolbook": SchoolbookMultiplier,
        "karatsuba": KaratsubaMultiplier,
        "windowed": WindowedMultiplier,
    }
    assert set(registry) == set(MULTIPLIER_ALGORITHMS)
    try:
        cls = registry[name]
    except KeyError:
        raise KeyError(
            f"unknown multiplier {name!r}; available: {sorted(registry)}"
        ) from None
    return cls(bits, **kwargs)  # type: ignore[arg-type]
