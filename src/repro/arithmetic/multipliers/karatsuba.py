"""Karatsuba multiplication (paper Sec. V, citing arXiv:1904.07356).

``x * k`` via three half-size products, using the identity (``h = ceil(n/2)``)::

    x*k = t1 + 2^(2h) t2 + 2^h (t3 - t1 - t2)
    t1 = x_lo*k_lo,  t2 = x_hi*k_hi,  t3 = (x_lo+x_hi)*(k_lo+k_hi)

The recursion computes the three sub-products into fresh workspace
registers and combines them with additions/subtractions on the
accumulator. Workspace is *not* uncomputed inside the recursion (the
pebbling that keeps the AND count at Theta(n^lg3) instead of the
Theta(n^2.58) a recursive clean-up would cost); instead the whole dirty
computation is cleaned up Bennett-style at the top: compute into an
internal accumulator, CNOT-copy the product out, replay the adjoint. In
this cost model the adjoint turns every AND into a measurement and vice
versa, so cleanup roughly doubles the AND count while workspace stays
Theta(n^lg3) — exactly the "more qubits than the other two algorithms"
behaviour the paper reports for Karatsuba.

The schoolbook cutoff (default 512 bits) reflects the large constant
overhead real reversible Karatsuba carries; it puts the runtime crossover
with schoolbook in the multi-thousand-bit range the paper observes.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from ...ir import Builder
from ..adders import add_into, add_into_counts, subtract_into
from ..registers import copy_register
from ..tally import GateTally
from .base import Multiplier
from .schoolbook import emit_schoolbook, schoolbook_peak_workspace, schoolbook_tally

DEFAULT_CUTOFF = 512


class KaratsubaMultiplier(Multiplier):
    """Theta(n^lg3) ANDs, Theta(n^lg3) workspace.

    Parameters
    ----------
    cutoff:
        Input size at and below which the recursion falls back to
        schoolbook multiplication.
    clean:
        When True (default) the dirty workspace is uncomputed
        Bennett-style; when False the workspace is left allocated (the
        cheapest possible standalone multiplication, at the price of a
        subroutine that cannot be composed).
    """

    name = "karatsuba"

    def __init__(
        self,
        bits: int,
        constant: int | None = None,
        *,
        cutoff: int = DEFAULT_CUTOFF,
        clean: bool = True,
    ) -> None:
        super().__init__(bits, constant)
        if cutoff < 8:
            raise ValueError(
                f"cutoff must be >= 8 (the recursion's window bounds need it), "
                f"got {cutoff}"
            )
        self.cutoff = cutoff
        self.clean = clean

    def emit(
        self, builder: Builder, x: Sequence[int], acc: Sequence[int]
    ) -> None:
        if not self.clean:
            _emit_dirty(builder, x, acc, self.constant, self.cutoff)
            return
        # Bennett cleanup: compute dirty into an internal accumulator,
        # copy the product out, run the adjoint.
        builder.start_recording()
        internal = builder.allocate_register(len(acc))
        _emit_dirty(builder, x, internal, self.constant, self.cutoff)
        tape = builder.stop_recording()
        copy_register(builder, internal, acc)
        builder.emit_adjoint(tape)

    @cached_property
    def _stats(self) -> tuple[GateTally, int, int]:
        """:func:`_dirty_stats` of this instance, shared by the two mirrors."""
        n = self.bits
        return _dirty_stats(n, 2 * n, self.constant, self.cutoff)

    def tally(self) -> GateTally:
        dirty, _, _ = self._stats
        readout = GateTally(measurements=2 * self.bits)
        if not self.clean:
            return dirty + readout
        adjoint = GateTally(ccix=dirty.measurements, measurements=dirty.ccix)
        return dirty + adjoint + readout

    def num_qubits(self) -> int:
        n = self.bits
        _, persistent, peak = self._stats
        if not self.clean:
            return 3 * n + max(peak, persistent)
        # Clean mode adds the internal 2n-qubit accumulator on top of the
        # caller's registers; the dirty peak happens inside the recording.
        return 3 * n + 2 * n + max(peak, persistent)


def _split(n: int) -> int:
    """Split point: high half starts at ``h = ceil(n/2)``."""
    return (n + 1) // 2


def _emit_dirty(
    builder: Builder,
    x: Sequence[int],
    acc: Sequence[int],
    k: int,
    cutoff: int,
) -> None:
    """``acc += x * k`` leaving workspace registers dirty."""
    n = len(x)
    if n <= cutoff:
        emit_schoolbook(builder, x, acc, k)
        return
    h = _split(n)
    x_lo, x_hi = x[:h], x[h:]
    k_lo = k & ((1 << h) - 1)
    k_hi = k >> h

    # sx = x_lo + x_hi (h+1 bits; stays allocated).
    sx = builder.allocate_register(h + 1)
    copy_register(builder, x_lo, sx)
    add_into(builder, x_hi, sx)
    sk = k_lo + k_hi

    # Three sub-products into fresh workspace.
    t3 = builder.allocate_register(2 * (h + 1))
    _emit_dirty(builder, sx, t3, sk, cutoff)
    t1 = builder.allocate_register(2 * h)
    _emit_dirty(builder, x_lo, t1, k_lo, cutoff)
    t2 = builder.allocate_register(2 * (n - h))
    _emit_dirty(builder, x_hi, t2, k_hi, cutoff)

    # Combine: acc += t1 + t2<<2h + (t3 - t1 - t2)<<h  (mod 2^len(acc)).
    add_into(builder, t1, acc)
    add_into(builder, t2, acc[2 * h :])
    add_into(builder, t3, acc[h:])
    subtract_into(builder, t1, acc[h:])
    subtract_into(builder, t2, acc[h:])


def _dirty_stats(
    n: int, acc_len: int, k: int, cutoff: int
) -> tuple[GateTally, int, int]:
    """Mirror of :func:`_emit_dirty`.

    Returns ``(tally, persistent_workspace, peak_workspace)`` where both
    workspace figures are counted beyond the caller's x/acc registers and
    ``peak`` includes transient adder carries.
    """
    if n <= cutoff:
        tally = schoolbook_tally(n, acc_len, k)
        return tally, 0, schoolbook_peak_workspace(n, acc_len, k)
    h = _split(n)
    k_lo = k & ((1 << h) - 1)
    k_hi = k >> h
    sk = k_lo + k_hi

    tally = GateTally()
    live = 0
    peak = 0

    def phase(extra_live: int, transient: int) -> None:
        nonlocal live, peak
        live += extra_live
        peak = max(peak, live + transient)

    # sx alloc + the add x_hi into sx (carries: len(sx)-1 = h).
    phase(h + 1, 0)
    sx_add = add_into_counts(n - h, h + 1)
    tally = tally + sx_add
    phase(0, sx_add.ccix)  # carries == ands here

    # t3 then recursion.
    sub_tally, sub_persistent, sub_peak = _dirty_stats(h + 1, 2 * (h + 1), sk, cutoff)
    phase(2 * (h + 1), sub_peak)
    tally = tally + sub_tally
    live += sub_persistent
    peak = max(peak, live)

    sub_tally, sub_persistent, sub_peak = _dirty_stats(h, 2 * h, k_lo, cutoff)
    phase(2 * h, sub_peak)
    tally = tally + sub_tally
    live += sub_persistent
    peak = max(peak, live)

    sub_tally, sub_persistent, sub_peak = _dirty_stats(n - h, 2 * (n - h), k_hi, cutoff)
    phase(2 * (n - h), sub_peak)
    tally = tally + sub_tally
    live += sub_persistent
    peak = max(peak, live)

    # Combination adds/subs; transient carries = window length - 1.
    for a_len, window in (
        (2 * h, acc_len),
        (2 * (n - h), acc_len - 2 * h),
        (2 * (h + 1), acc_len - h),
        (2 * h, acc_len - h),
        (2 * (n - h), acc_len - h),
    ):
        step = add_into_counts(a_len, window)
        tally = tally + step
        peak = max(peak, live + step.ccix)

    return tally, live, peak
