"""Correctness + count-mirror tests for the three multiplication algorithms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.arithmetic import (
    KaratsubaMultiplier,
    SchoolbookMultiplier,
    WindowedMultiplier,
    default_window_size,
    multiplier_by_name,
    schoolbook_multiply_qq,
)
from repro.arithmetic.multipliers.base import default_constant
from repro.ir import CircuitBuilder, validate
from repro.sim import run_reversible


def _init(reg, value):
    return {q: (value >> i) & 1 for i, q in enumerate(reg)}


def _product(mult, n, xv):
    """Run the multiplier's emitter on |xv>|0> and read the accumulator."""
    b = CircuitBuilder()
    x = b.allocate_register(n)
    acc = b.allocate_register(2 * n)
    mult.emit(b, x, acc)
    c = b.finish()
    validate(c)
    sim = run_reversible(c, _init(x, xv))
    assert sim.read_register(x) == xv, "input register must be preserved"
    return sim.read_register(acc)


MULTIPLIER_FACTORIES = [
    pytest.param(lambda n, k: SchoolbookMultiplier(n, k), id="schoolbook"),
    pytest.param(lambda n, k: KaratsubaMultiplier(n, k, cutoff=8), id="karatsuba"),
    pytest.param(
        lambda n, k: KaratsubaMultiplier(n, k, cutoff=8, clean=False),
        id="karatsuba-dirty",
    ),
    pytest.param(lambda n, k: WindowedMultiplier(n, k), id="windowed"),
]


@pytest.mark.parametrize("factory", MULTIPLIER_FACTORIES)
class TestCorrectness:
    def test_exhaustive_tiny(self, factory):
        for n in (1, 2, 3):
            for xv in range(1 << n):
                for k in range(1 << n):
                    assert _product(factory(n, k), n, xv) == xv * k

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_random_products(self, factory, data):
        n = data.draw(st.integers(4, 40))
        xv = data.draw(st.integers(0, (1 << n) - 1))
        k = data.draw(st.integers(0, (1 << n) - 1))
        assert _product(factory(n, k), n, xv) == xv * k

    def test_identity_and_zero(self, factory):
        n = 12
        assert _product(factory(n, 0), n, 1234) == 0
        assert _product(factory(n, 1), n, 1234) == 1234
        assert _product(factory(n, (1 << n) - 1), n, (1 << n) - 1) == ((1 << n) - 1) ** 2


@pytest.mark.parametrize("factory", MULTIPLIER_FACTORIES)
@pytest.mark.parametrize("n", [4, 16, 33, 64, 96])
def test_closed_form_counts_equal_traced_counts(factory, n):
    """The count mirrors must agree with the tracer, field by field."""
    mult = factory(n, None if n > 1 else 1)
    assert mult.logical_counts() == mult.traced_counts()


#: Constants the default (always odd, top bit set) never is: zero, one, a
#: lone top bit, an even value (trailing zeros reach the schoolbook
#: windows directly) and a value with an empty low half (Karatsuba's
#: ``k_lo == 0``).
NON_DEFAULT_CONSTANTS = [
    pytest.param(lambda n: 0, id="zero"),
    pytest.param(lambda n: 1, id="one"),
    pytest.param(lambda n: 1 << (n - 1), id="top-bit"),
    pytest.param(lambda n: default_constant(n) & ~0b111, id="even"),
    pytest.param(
        lambda n: default_constant(n) >> ((n + 1) // 2) << ((n + 1) // 2),
        id="high-half-only",
    ),
]


@pytest.mark.parametrize("factory", MULTIPLIER_FACTORIES)
@pytest.mark.parametrize("n", [4, 9, 16, 33])
@pytest.mark.parametrize("constant", NON_DEFAULT_CONSTANTS)
def test_closed_form_counts_equal_traced_counts_for_other_constants(
    factory, n, constant
):
    mult = factory(n, constant(n))
    assert mult.logical_counts() == mult.traced_counts()


class TestScaling:
    def test_schoolbook_is_quadratic(self):
        small = SchoolbookMultiplier(256).tally().ccix
        large = SchoolbookMultiplier(512).tally().ccix
        assert large / small == pytest.approx(4.0, rel=0.05)

    def test_windowed_beats_schoolbook_by_window_factor(self):
        n = 1024
        school = SchoolbookMultiplier(n).tally().ccix
        windowed = WindowedMultiplier(n).tally().ccix
        w = default_window_size(n)
        assert windowed < school
        assert school / windowed == pytest.approx(w, rel=0.35)

    def test_karatsuba_subquadratic(self):
        # Doubling n should scale ANDs by ~3 deep in the recursion (lg 3).
        a = KaratsubaMultiplier(4096, cutoff=64).tally().ccix
        b = KaratsubaMultiplier(8192, cutoff=64).tally().ccix
        assert 2.5 < b / a < 3.5

    def test_karatsuba_uses_most_qubits(self):
        n = 2048
        school = SchoolbookMultiplier(n).num_qubits()
        kara = KaratsubaMultiplier(n).num_qubits()
        windowed = WindowedMultiplier(n).num_qubits()
        assert kara > school
        assert kara > windowed

    def test_workspace_linear_for_schoolbook_and_windowed(self):
        for cls in (SchoolbookMultiplier, WindowedMultiplier):
            q1 = cls(512).num_qubits()
            q2 = cls(1024).num_qubits()
            assert q2 / q1 == pytest.approx(2.0, rel=0.1)

    def test_karatsuba_workspace_superlinear(self):
        q1 = KaratsubaMultiplier(2048, cutoff=64).num_qubits()
        q2 = KaratsubaMultiplier(4096, cutoff=64).num_qubits()
        assert q2 / q1 > 2.2  # ~3x per doubling asymptotically

    def test_multipliers_contain_no_t_or_ccz(self):
        for cls in (SchoolbookMultiplier, KaratsubaMultiplier, WindowedMultiplier):
            tally = cls(128).tally()
            assert tally.t == 0
            assert tally.ccz == 0
            assert tally.ccix > 0


class TestConfiguration:
    def test_default_window_sizes(self):
        assert default_window_size(1) == 1
        assert default_window_size(32) == 3
        assert default_window_size(2048) == 6
        assert default_window_size(16384) == 8

    def test_window_bounds_validated(self):
        with pytest.raises(ValueError, match="window"):
            WindowedMultiplier(8, window=0)
        with pytest.raises(ValueError, match="window"):
            WindowedMultiplier(8, window=9)
        with pytest.raises(ValueError, match="2\\^20"):
            WindowedMultiplier(10**7, window=21)

    def test_karatsuba_cutoff_validated(self):
        with pytest.raises(ValueError, match="cutoff"):
            KaratsubaMultiplier(64, cutoff=4)

    def test_constant_must_fit(self):
        with pytest.raises(ValueError, match="fit"):
            SchoolbookMultiplier(4, constant=16)

    def test_default_constant_deterministic_full_width(self):
        k1, k2 = default_constant(64), default_constant(64)
        assert k1 == k2
        assert k1.bit_length() == 64
        assert k1 % 2 == 1

    def test_multiplier_by_name(self):
        assert isinstance(multiplier_by_name("schoolbook", 8), SchoolbookMultiplier)
        assert isinstance(multiplier_by_name("karatsuba", 8), KaratsubaMultiplier)
        assert isinstance(multiplier_by_name("windowed", 8), WindowedMultiplier)
        with pytest.raises(KeyError, match="available"):
            multiplier_by_name("fourier", 8)

    def test_circuit_cached(self):
        m = SchoolbookMultiplier(16)
        assert m.circuit() is m.circuit()

    def test_circuit_contains_readout(self):
        m = SchoolbookMultiplier(8)
        counts = m.traced_counts()
        # 8^2 adder measurements + 16 readout measurements
        assert counts.measurement_count == 64 + 16


class TestQuantumQuantum:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_property_qq_product(self, data):
        n = data.draw(st.integers(1, 16))
        xv = data.draw(st.integers(0, (1 << n) - 1))
        yv = data.draw(st.integers(0, (1 << n) - 1))
        b = CircuitBuilder()
        x, y = b.allocate_register(n), b.allocate_register(n)
        acc = b.allocate_register(2 * n)
        schoolbook_multiply_qq(b, x, y, acc)
        c = b.finish()
        validate(c)
        sim = run_reversible(c, {**_init(x, xv), **_init(y, yv)})
        assert sim.read_register(acc) == xv * yv
        assert sim.read_register(x) == xv
        assert sim.read_register(y) == yv

    def test_accumulator_too_small_rejected(self):
        b = CircuitBuilder()
        x, y = b.allocate_register(4), b.allocate_register(4)
        acc = b.allocate_register(7)
        with pytest.raises(ValueError, match="too small"):
            schoolbook_multiply_qq(b, x, y, acc)
