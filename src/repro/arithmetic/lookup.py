"""QROM-style table lookup via unary iteration (windowed arithmetic core).

:func:`lookup` XORs ``table[address]`` into a target register, where the
address is a small quantum register and the table is classical — the
"quantum circuit equivalent of a look-up table" the paper attributes to
windowed multiplication (Sec. V, citing arXiv:1905.07682).

The implementation is the recursive select tree: branch on the top address
bit, with each branch guarded by a temporary AND of the incoming control
and the (possibly negated) address bit. Leaves write their table entry
with CNOTs. Cost for a ``w``-bit address: ``2^(w+1) - 4`` CCiX (``w >= 2``)
and as many measurements; zero CCZ/T.

:func:`lookup_counts` evaluates that cost without walking the tree. A
subtree over ``2^b`` entries that all exist costs ``2^(b+1) - 2`` ANDs
under a control (two per branch, recursively) and ``2^(b+1) - 4`` at the
uncontrolled top level. Only the one partial subtree per level, on the
path to the table's last entry, still recurses; where its upper half holds
no entry at all, it descends into the lower half behind a single AND.

Uncomputation (:func:`unlookup_adjoint`) replays the recorded tape in
reverse. The data-write CNOTs undo for free; the select-tree ANDs that
the forward pass already uncomputed internally are re-computed and
re-uncomputed, so an unlookup costs the same ``2^(w+1) - 4`` CCiX as the
lookup. (Gidney's measurement-based unlookup gets this down to
``O(2^(w/2))``, but it requires X-basis measurements that the reversible
simulator cannot check; since lookup cost is dominated by the adjacent
``Theta(n)``-AND addition for every sensible window size, we take the
simulable variant and note the constant in DESIGN.md.)
"""

from __future__ import annotations

from typing import Sequence

from ..ir import Builder
from ..ir.circuit import Instruction
from .tally import GateTally


def _write_entry(
    builder: Builder,
    control: int | None,
    value: int,
    target: Sequence[int],
) -> None:
    for position, qubit in enumerate(target):
        if (value >> position) & 1:
            if control is None:
                builder.x(qubit)
            else:
                builder.cx(control, qubit)


def _select(
    builder: Builder,
    control: int | None,
    address: Sequence[int],
    table: Sequence[int],
    lo: int,
    span: int,
    target: Sequence[int],
) -> None:
    """Apply entries ``table[lo : lo+span]`` under ``control``."""
    if span == 1 or not address:
        if lo < len(table):
            _write_entry(builder, control, table[lo], target)
        return
    bit = address[-1]
    rest = address[:-1]
    half = span // 2
    if lo + half >= len(table):
        # Entire upper half is out of range (implicit zeros): only recurse
        # into the lower half, conditioned on the bit being 0 — but since
        # the upper half contributes nothing, condition-free descent on the
        # negated bit suffices.
        builder.x(bit)
        if control is None:
            _select(builder, bit, rest, table, lo, half, target)
        else:
            t = builder.and_compute(control, bit)
            _select(builder, t, rest, table, lo, half, target)
            builder.and_uncompute(control, bit, t)
        builder.x(bit)
        return
    if control is None:
        # Top level: the address bit itself is the control.
        builder.x(bit)
        _select(builder, bit, rest, table, lo, half, target)
        builder.x(bit)
        _select(builder, bit, rest, table, lo + half, half, target)
    else:
        builder.x(bit)
        t0 = builder.and_compute(control, bit)
        _select(builder, t0, rest, table, lo, half, target)
        builder.and_uncompute(control, bit, t0)
        builder.x(bit)
        t1 = builder.and_compute(control, bit)
        _select(builder, t1, rest, table, lo + half, half, target)
        builder.and_uncompute(control, bit, t1)


def lookup(
    builder: Builder,
    address: Sequence[int],
    table: Sequence[int],
    target: Sequence[int],
) -> None:
    """``target ^= table[address]`` (missing entries are zero).

    ``address`` is little-endian; ``table`` may have up to ``2^len(address)``
    non-negative entries, each fitting in ``target``.
    """
    w = len(address)
    if len(table) > (1 << w):
        raise ValueError(
            f"table of {len(table)} entries needs more than {w} address bits"
        )
    for index, value in enumerate(table):
        if value < 0:
            raise ValueError(f"table entry {index} is negative: {value}")
        if value >> len(target):
            raise ValueError(
                f"table entry {index} ({value}) does not fit in the "
                f"{len(target)}-qubit target"
            )
    if not table:
        return
    _select(builder, None, address, table, 0, 1 << w, target)


def lookup_recorded(
    builder: Builder,
    address: Sequence[int],
    table: Sequence[int],
    target: Sequence[int],
) -> list[Instruction]:
    """Perform :func:`lookup` while recording its tape for later unlookup."""
    builder.start_recording()
    lookup(builder, address, table, target)
    return builder.stop_recording()


def unlookup_adjoint(builder: Builder, tape: list[Instruction]) -> None:
    """Undo a recorded lookup; every AND becomes a free measured uncompute."""
    builder.emit_adjoint(tape)


def lookup_counts(address_bits: int, num_entries: int) -> GateTally:
    """Gate tally of :func:`lookup` (mirrors the recursion exactly).

    A subtree whose entries all exist has a closed form (see the module
    docstring), so only the one partial subtree per level, on the path
    to the last entry, is walked: O(``address_bits``) steps.
    """
    if num_entries > (1 << address_bits):
        raise ValueError("table larger than the address space")
    if num_entries == 0:
        return GateTally()

    def select_ands(control: bool, bits: int, lo: int) -> int:
        if bits == 0:
            return 0
        if lo + (1 << bits) <= num_entries:
            return _complete_select_ands(control, bits)
        half = 1 << (bits - 1)
        if lo + half >= num_entries:
            inner = select_ands(True, bits - 1, lo)
            return (1 + inner) if control else inner
        lower = _complete_select_ands(True, bits - 1)
        upper = select_ands(True, bits - 1, lo + half)
        return (2 if control else 0) + lower + upper

    ands = select_ands(False, address_bits, 0)
    return GateTally(ccix=ands, measurements=ands)


def _complete_select_ands(control: bool, bits: int) -> int:
    """ANDs of a select subtree over ``2^bits`` existing entries."""
    if bits == 0:
        return 0
    return (1 << (bits + 1)) - (2 if control else 4)


def unlookup_adjoint_counts(address_bits: int, num_entries: int) -> GateTally:
    """Gate tally of :func:`unlookup_adjoint`: ANDs become measurements."""
    forward = lookup_counts(address_bits, num_entries)
    return GateTally(ccix=0, measurements=forward.ccix)


def lookup_ancillas(address_bits: int) -> int:
    """Peak live AND ancillas during a lookup (one per tree level)."""
    return max(0, address_bits - 1)
