"""Closed-form count tallies against the loops and recursions they replace.

The oracles below are the per-row, per-node mirrors the closed forms in
``schoolbook.py``, ``lookup.py`` and ``karatsuba.py`` were derived from,
kept verbatim (renamed only) as the reference: every closed form must
return exactly their numbers, and raise where they raise.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.arithmetic import (
    KaratsubaMultiplier,
    add_constant_controlled_counts,
    add_into_counts,
    lookup_counts,
)
from repro.arithmetic.multipliers.schoolbook import (
    schoolbook_peak_workspace,
    schoolbook_tally,
)
from repro.arithmetic.tally import GateTally


# -- oracles ------------------------------------------------------------------


def oracle_schoolbook_tally(n: int, acc_len: int, constant: int) -> GateTally:
    """Mirror of :func:`emit_schoolbook`."""
    total = GateTally()
    if constant == 0 or n == 0:
        return total
    for i in range(min(n, acc_len)):
        window_len = min(n + 1, acc_len - i)
        total = total + add_constant_controlled_counts(constant, window_len)
    return total


def oracle_schoolbook_peak_workspace(n: int, acc_len: int, constant: int) -> int:
    """Peak ancillas of :func:`emit_schoolbook` beyond x and acc."""
    if constant == 0 or n == 0:
        return 0
    scratch = min(n, acc_len)
    peak_carries = 0
    for i in range(min(n, acc_len)):
        window_len = min(n + 1, acc_len - i)
        masked = constant & ((1 << window_len) - 1)
        if masked == 0 or window_len < 2:
            continue
        peak_carries = max(peak_carries, window_len - 1)
    return scratch + peak_carries


def oracle_lookup_counts(address_bits: int, num_entries: int) -> GateTally:
    """Gate tally of :func:`lookup` (mirrors the recursion exactly)."""
    if num_entries > (1 << address_bits):
        raise ValueError("table larger than the address space")
    if num_entries == 0:
        return GateTally()

    def select_ands(control: bool, bits: int, lo: int, span: int) -> int:
        if span == 1 or bits == 0:
            return 0
        half = span // 2
        if lo + half >= num_entries:
            inner = select_ands(True, bits - 1, lo, half)
            return (1 + inner) if control else inner
        if not control:
            return select_ands(True, bits - 1, lo, half) + select_ands(
                True, bits - 1, lo + half, half
            )
        return 2 + select_ands(True, bits - 1, lo, half) + select_ands(
            True, bits - 1, lo + half, half
        )

    ands = select_ands(False, address_bits, 0, 1 << address_bits)
    return GateTally(ccix=ands, measurements=ands)


def _split(n: int) -> int:
    """Split point: high half starts at ``h = ceil(n/2)``."""
    return (n + 1) // 2


def oracle_dirty_stats(
    n: int, acc_len: int, k: int, cutoff: int
) -> tuple[GateTally, int, int]:
    """Mirror of :func:`_emit_dirty`.

    Returns ``(tally, persistent_workspace, peak_workspace)`` where both
    workspace figures are counted beyond the caller's x/acc registers and
    ``peak`` includes transient adder carries.
    """
    if n <= cutoff:
        tally = oracle_schoolbook_tally(n, acc_len, k)
        return tally, 0, oracle_schoolbook_peak_workspace(n, acc_len, k)
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
    tally = tally + add_into_counts(n - h, h + 1)
    phase(0, add_into_counts(n - h, h + 1).ccix)  # carries == ands here

    # t3 then recursion.
    sub_tally, sub_persistent, sub_peak = oracle_dirty_stats(
        h + 1, 2 * (h + 1), sk, cutoff
    )
    phase(2 * (h + 1), sub_peak)
    tally = tally + sub_tally
    live += sub_persistent
    peak = max(peak, live)

    sub_tally, sub_persistent, sub_peak = oracle_dirty_stats(h, 2 * h, k_lo, cutoff)
    phase(2 * h, sub_peak)
    tally = tally + sub_tally
    live += sub_persistent
    peak = max(peak, live)

    sub_tally, sub_persistent, sub_peak = oracle_dirty_stats(
        n - h, 2 * (n - h), k_hi, cutoff
    )
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


def oracle_karatsuba(n: int, k: int, cutoff: int, clean: bool) -> tuple[GateTally, int]:
    """``(tally(), num_qubits())`` of a Karatsuba multiplier, via the oracle."""
    dirty, persistent, peak = oracle_dirty_stats(n, 2 * n, k, cutoff)
    readout = GateTally(measurements=2 * n)
    if not clean:
        return dirty + readout, 3 * n + max(peak, persistent)
    adjoint = GateTally(ccix=dirty.measurements, measurements=dirty.ccix)
    return dirty + adjoint + readout, 3 * n + 2 * n + max(peak, persistent)


# -- strategies ---------------------------------------------------------------


@st.composite
def constants(draw, max_bits: int = 260) -> int:
    """0, 1, odd, even, powers of two, and long runs of trailing zeros."""
    odd = st.integers(0, (1 << max_bits) - 1).map(lambda v: v | 1)
    return draw(
        st.one_of(
            st.sampled_from([0, 1]),
            odd,
            odd.map(lambda v: v << 1),
            st.integers(0, max_bits).map(lambda e: 1 << e),
            # Trailing zeros up to and beyond any window drawn below.
            st.tuples(odd, st.integers(0, max_bits)).map(lambda p: p[0] << p[1]),
        )
    )


@st.composite
def accumulator_lengths(draw, n: int) -> int:
    """Accumulator lengths below, equal to and above ``n``, including 0."""
    return draw(
        st.one_of(
            st.just(0),
            st.integers(0, n),
            st.just(n),
            st.just(n + 1),
            st.just(2 * n),
            st.integers(n, 2 * n + 8),
        )
    )


# -- properties ---------------------------------------------------------------


class TestSchoolbookClosedForm:
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_tally_and_workspace_equal_the_row_loop(self, data):
        n = data.draw(st.integers(0, 200))
        acc_len = data.draw(accumulator_lengths(n))
        constant = data.draw(constants())
        assert schoolbook_tally(n, acc_len, constant) == oracle_schoolbook_tally(
            n, acc_len, constant
        )
        assert schoolbook_peak_workspace(
            n, acc_len, constant
        ) == oracle_schoolbook_peak_workspace(n, acc_len, constant)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
    def test_every_small_shape_equals_the_row_loop(self, n):
        for acc_len in range(0, 2 * n + 4):
            for constant in range(0, 1 << (n + 2)):
                assert schoolbook_tally(
                    n, acc_len, constant
                ) == oracle_schoolbook_tally(n, acc_len, constant)
                assert schoolbook_peak_workspace(
                    n, acc_len, constant
                ) == oracle_schoolbook_peak_workspace(n, acc_len, constant)

    @pytest.mark.parametrize("n,acc_len", [(1, 1), (5, 3), (5, 10), (64, 128)])
    @pytest.mark.parametrize("constant", [-1, -6, -(1 << 70)])
    def test_negative_constant_raises_like_the_row_loop(self, n, acc_len, constant):
        message = f"constant must be non-negative, got {constant}"
        with pytest.raises(ValueError) as expected:
            oracle_schoolbook_tally(n, acc_len, constant)
        assert str(expected.value) == message
        with pytest.raises(ValueError) as raised:
            schoolbook_tally(n, acc_len, constant)
        assert str(raised.value) == message
        assert schoolbook_peak_workspace(
            n, acc_len, constant
        ) == oracle_schoolbook_peak_workspace(n, acc_len, constant)

    @pytest.mark.parametrize("n,acc_len", [(0, 5), (5, 0), (5, -2)])
    def test_negative_constant_without_rows_is_empty_like_the_row_loop(
        self, n, acc_len
    ):
        assert oracle_schoolbook_tally(n, acc_len, -3) == GateTally()
        assert schoolbook_tally(n, acc_len, -3) == GateTally()


class TestLookupClosedForm:
    @pytest.mark.parametrize("w", range(0, 12))
    def test_every_table_size_equals_the_recursion(self, w):
        for entries in range((1 << w) + 1):
            assert lookup_counts(w, entries) == oracle_lookup_counts(w, entries)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_drawn_table_sizes_equal_the_recursion(self, data):
        w = data.draw(st.integers(0, 12))
        entries = data.draw(st.integers(0, 1 << w))
        assert lookup_counts(w, entries) == oracle_lookup_counts(w, entries)

    @pytest.mark.parametrize("w", [12])
    def test_edge_table_sizes_equal_the_recursion(self, w):
        full = 1 << w
        for entries in (0, 1, 2, 3, full // 2 - 1, full // 2, full // 2 + 1,
                        full - 1, full):
            assert lookup_counts(w, entries) == oracle_lookup_counts(w, entries)

    def test_oversized_table_still_rejected(self):
        with pytest.raises(ValueError, match="larger than the address space"):
            lookup_counts(3, 9)


class TestKaratsubaStats:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_tally_and_width_equal_the_uncached_recursion(self, data):
        n = data.draw(st.integers(1, 4096))
        cutoff = data.draw(st.integers(8, 64))
        clean = data.draw(st.booleans())
        k = data.draw(constants(max_bits=n)) % (1 << n)
        mult = KaratsubaMultiplier(n, k, cutoff=cutoff, clean=clean)
        assert (mult.tally(), mult.num_qubits()) == oracle_karatsuba(
            n, k, cutoff, clean
        )

    def test_stats_are_computed_once_per_instance(self, monkeypatch):
        from repro.arithmetic.multipliers import karatsuba

        calls = []
        real = karatsuba._dirty_stats

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(karatsuba, "_dirty_stats", counting)
        mult = KaratsubaMultiplier(2048, cutoff=64)
        mult.logical_counts()
        mult.logical_counts()
        top_level = [args for args in calls if args[0] == 2048]
        assert len(top_level) == 1
