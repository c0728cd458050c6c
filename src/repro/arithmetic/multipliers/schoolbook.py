"""Standard long multiplication (paper Sec. V, "standard multiplication").

``acc += x * k`` one bit of ``x`` at a time: for bit ``i``, conditionally
add ``k << i`` into the accumulator window ``acc[i : i+n+1]`` (the window
bound is exact: after ``i`` partial additions the running sum is below
``2^(n+i+1)``, so carries never escape the window). Each controlled
constant addition costs ``n`` ANDs via the shared-scratch imprint trick,
for ``n^2`` ANDs total — the Omega(n^2) complexity the paper quotes.
"""

from __future__ import annotations

from typing import Sequence

from ...ir import Builder
from ..adders import add_constant_controlled, add_into, add_into_counts
from ..tally import GateTally
from .base import Multiplier


class SchoolbookMultiplier(Multiplier):
    """Theta(n^2) ANDs, Theta(n) workspace."""

    name = "schoolbook"

    def emit(
        self, builder: Builder, x: Sequence[int], acc: Sequence[int]
    ) -> None:
        emit_schoolbook(builder, x, acc, self.constant)

    def tally(self) -> GateTally:
        n = self.bits
        body = schoolbook_tally(n, 2 * n, self.constant)
        return body + GateTally(measurements=2 * n)  # final readout

    def num_qubits(self) -> int:
        n = self.bits
        return 3 * n + schoolbook_peak_workspace(n, 2 * n, self.constant)


def emit_schoolbook(
    builder: Builder,
    x: Sequence[int],
    acc: Sequence[int],
    constant: int,
) -> None:
    """``acc += x * constant`` into an accumulator window of any length.

    Used directly by the multiplier and as the Karatsuba recursion base.
    """
    n = len(x)
    m = len(acc)
    if constant == 0 or n == 0:
        return
    scratch = builder.allocate_register(min(n, m))
    for i in range(n):
        if i >= m:
            break
        window = acc[i : i + n + 1]
        add_constant_controlled(builder, x[i], constant, window, scratch)
    builder.release_register(scratch)


def schoolbook_tally(n: int, acc_len: int, constant: int) -> GateTally:
    """Mirror of :func:`emit_schoolbook`, in closed form.

    Row ``i`` adds the constant into a window of
    ``w_i = min(n+1, acc_len-i)`` qubits for ``w_i - 1`` ANDs, except
    that a window holding no set bit of the constant (``w_i`` at most its
    trailing zeros) or a single qubit costs nothing. Windows only shrink,
    so the rows that pay are a prefix: ``a = min(rows, acc_len-n)``
    full-width rows at ``n`` ANDs each, then the arithmetic series of
    ``w - 1`` over the shrinking windows ``w >= max(tz, 1) + 1``.
    """
    rows = min(n, acc_len)
    if constant == 0 or rows <= 0:
        return GateTally()
    if constant < 0:
        raise ValueError(f"constant must be non-negative, got {constant}")
    paying = _min_paying_window(constant)
    full_rows = min(rows, max(0, acc_len - n))
    ands = full_rows * n if n + 1 >= paying else 0
    # The shrinking tail: windows acc_len - i for i in [full_rows, rows).
    widest = acc_len - full_rows
    narrowest = max(acc_len - rows + 1, paying)
    if widest >= narrowest:
        ands += (widest - narrowest + 1) * (narrowest + widest - 2) // 2
    return GateTally(ccix=ands, measurements=ands)


def schoolbook_peak_workspace(n: int, acc_len: int, constant: int) -> int:
    """Peak ancillas of :func:`emit_schoolbook` beyond x and acc.

    The scratch register plus the carries of the widest paying window;
    windows only shrink, so that is row 0's when row 0 pays at all.
    """
    if constant == 0 or n == 0:
        return 0
    widest = min(n + 1, acc_len)
    carries = widest - 1 if widest >= _min_paying_window(constant) else 0
    return min(n, acc_len) + carries


def _min_paying_window(constant: int) -> int:
    """Narrowest accumulator window whose controlled addition costs ANDs.

    It must hold a set bit of the constant (be wider than its trailing
    zeros) and have at least two qubits (a 1-qubit addition is a CNOT).
    """
    trailing_zeros = (constant & -constant).bit_length() - 1
    return max(trailing_zeros, 1) + 1


def schoolbook_multiply_qq(
    builder: Builder,
    x: Sequence[int],
    y: Sequence[int],
    acc: Sequence[int],
) -> None:
    """Quantum-by-quantum ``acc += x * y`` (library extra, not benchmarked).

    For each bit of ``x``, the partial product ``x_i AND y`` is computed
    into a temporary register with temporary ANDs, added into the window,
    and uncomputed for free: ``2 n^2`` ANDs, ``Theta(n)`` workspace.
    """
    n = len(x)
    if len(acc) < len(x) + len(y):
        raise ValueError(
            f"accumulator ({len(acc)} qubits) too small for a "
            f"{len(x)}x{len(y)}-bit product"
        )
    for i in range(n):
        partial = [builder.and_compute(x[i], yq) for yq in y]
        window = acc[i : i + len(y) + 1]
        add_into(builder, partial, window)
        for yq, pq in zip(reversed(y), reversed(partial)):
            builder.and_uncompute(x[i], yq, pq)


def schoolbook_multiply_qq_tally(x_len: int, y_len: int, acc_len: int) -> GateTally:
    """Mirror of :func:`schoolbook_multiply_qq`."""
    total = GateTally()
    for i in range(x_len):
        window_len = min(y_len + 1, acc_len - i)
        total = total + GateTally(ccix=y_len, measurements=y_len)
        total = total + add_into_counts(y_len, window_len)
    return total
