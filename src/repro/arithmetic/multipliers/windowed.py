"""Windowed multiplication (paper Sec. V, citing arXiv:1905.07682).

Processes ``w`` bits of ``x`` per iteration instead of one: for the window
starting at bit ``j`` with value ``v``, the product contribution is
``(v * k) << j``. All ``2^w`` possible values of ``v * k`` are classical,
so a QROM lookup writes the right one into a temporary register, a single
addition folds it into the accumulator, and an adjoint unlookup returns
the temporary to zero (measurement-based, T-free). One addition per
window instead of per bit cuts the AND count to ``Theta(n^2 / w)`` —
"the quantum circuit equivalent of a look-up table" speed-up the paper
describes — at the cost of ``2^w`` lookup work per window, balanced by
the default window size ``w ~ lg(n)/2 + 1``.
"""

from __future__ import annotations

import math
from typing import Sequence

from ...ir import Builder
from ..adders import add_into, add_into_counts
from ..lookup import lookup_ancillas, lookup_counts, lookup_recorded, unlookup_adjoint
from ..tally import GateTally
from .base import Multiplier


def default_window_size(bits: int) -> int:
    """The cost-balancing window size ``floor(lg n / 2) + 1``.

    Balances the per-window lookup cost ``~2^(w+1)`` ANDs against the
    per-window addition cost ``~n`` ANDs: ``2^w ~ sqrt(n)`` up to
    constants (w = 6 at n = 2048, 8 at n = 16384).
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if bits == 1:
        return 1
    return int(math.log2(bits)) // 2 + 1


class WindowedMultiplier(Multiplier):
    """Theta(n^2 / w) ANDs, Theta(n) workspace."""

    name = "windowed"

    def __init__(
        self,
        bits: int,
        constant: int | None = None,
        *,
        window: int | None = None,
    ) -> None:
        super().__init__(bits, constant)
        self.window = default_window_size(bits) if window is None else window
        if not 1 <= self.window <= bits:
            raise ValueError(
                f"window must be in [1, {bits}], got {self.window}"
            )
        if self.window > 20:
            raise ValueError(
                f"window {self.window} would build a {2**self.window}-entry "
                "table; refusing sizes beyond 2^20"
            )

    def _windows(self) -> list[tuple[int, int]]:
        """(start_bit, width) of each window of x."""
        return [
            (j, min(self.window, self.bits - j))
            for j in range(0, self.bits, self.window)
        ]

    def emit(
        self, builder: Builder, x: Sequence[int], acc: Sequence[int]
    ) -> None:
        n, k = self.bits, self.constant
        if k == 0:
            return
        # Window blocks whose shape parameters match share one subcircuit
        # key: the table contents (the only thing the constant changes)
        # appear solely in Clifford data writes, so the counting backend
        # traces one full-width window and replays the rest in O(1).
        for j, wj in self._windows():
            address = x[j : j + wj]
            table = [v * k for v in range(1 << wj)]
            target_len = n + wj  # max table entry is (2^wj - 1) * k
            window_len = min(n + wj + 1, len(acc) - j)

            def block(
                b,
                address=address,
                table=table,
                j=j,
                target_len=target_len,
                window_len=window_len,
            ):
                target = b.allocate_register(target_len)
                tape = lookup_recorded(b, address, table, target)
                add_into(b, target, acc[j : j + window_len])
                unlookup_adjoint(b, tape)  # returns target to |0...0>
                b.release_register(target)

            builder.subcircuit(
                ("winmul-window", wj, target_len, window_len), block
            )

    def tally(self) -> GateTally:
        n, k = self.bits, self.constant
        readout = GateTally(measurements=2 * n)
        if k == 0:
            return readout
        # Every AND here is measured away, so one int carries both fields:
        # the lookup, its adjoint (ANDs and measurements swap) and the add.
        ands = 0
        for j, wj in self._windows():
            window_len = min(n + wj + 1, 2 * n - j)
            ands += 2 * lookup_counts(wj, 1 << wj).ccix
            ands += add_into_counts(n + wj, window_len).ccix
        return readout + GateTally(ccix=ands, measurements=ands)

    def num_qubits(self) -> int:
        n, k = self.bits, self.constant
        if k == 0:
            return 3 * n
        peak = 0
        for j, wj in self._windows():
            target_len = n + wj
            window_len = min(n + wj + 1, 2 * n - j)
            during_lookup = target_len + lookup_ancillas(wj)
            during_add = target_len + add_into_counts(n + wj, window_len).ccix
            peak = max(peak, during_lookup, during_add)
        return 3 * n + peak
