"""Unit and property tests for the formula engine."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.formulas import (
    Formula,
    FormulaError,
    FormulaEvalError,
    FormulaParseError,
    parse,
    tokenize,
)


class TestTokenizer:
    def test_numbers_identifiers_operators(self):
        toks = tokenize("2 * codeDistance^2")
        assert [t.kind for t in toks] == ["NUMBER", "OP", "IDENT", "OP", "NUMBER"]

    def test_scientific_notation(self):
        assert tokenize("1e-4")[0].text == "1e-4"
        assert tokenize("2.5E+10")[0].text == "2.5E+10"
        assert tokenize(".5")[0].text == ".5"

    def test_rejects_unknown_characters(self):
        with pytest.raises(FormulaParseError, match="unexpected character"):
            tokenize("a @ b")

    def test_whitespace_skipped(self):
        assert len(tokenize("  1   +\t2 \n")) == 3


class TestParser:
    @pytest.mark.parametrize(
        "text,env,expected",
        [
            ("1 + 2 * 3", {}, 7),
            ("(1 + 2) * 3", {}, 9),
            ("2^3^2", {}, 512),  # right-associative
            ("-2^2", {}, -4),  # unary binds looser than power
            ("10 - 3 - 2", {}, 5),  # left-associative
            ("8 / 4 / 2", {}, 1),
            ("x + y", {"x": 2, "y": 40}, 42),
            ("log2(8)", {}, 3),
            ("sqrt(x)", {"x": 9}, 3),
            ("max(2, 3, 1)", {}, 3),
            ("ceil(2.1)", {}, 3),
            ("floor(2.9)", {}, 2),
            ("min(4, x)", {"x": 2}, 2),
            ("--3", {}, 3),
            ("+5", {}, 5),
        ],
    )
    def test_evaluation(self, text, env, expected):
        assert parse(text).evaluate(env) == expected

    def test_empty_formula_rejected(self):
        with pytest.raises(FormulaParseError, match="empty"):
            parse("")

    def test_trailing_input_rejected(self):
        with pytest.raises(FormulaParseError, match="trailing"):
            parse("1 + 2 3")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(FormulaParseError):
            parse("(1 + 2")

    def test_missing_operand_rejected(self):
        with pytest.raises(FormulaParseError):
            parse("1 +")

    def test_unknown_function_fails_at_eval(self):
        with pytest.raises(FormulaError, match="unknown function"):
            parse("frobnicate(2)").evaluate({})

    def test_unbound_variable_reports_bound_names(self):
        with pytest.raises(FormulaError, match="unbound variable 'x'"):
            parse("x + y").evaluate({"y": 1})

    def test_division_by_zero(self):
        with pytest.raises(FormulaError, match="division by zero"):
            parse("1 / x").evaluate({"x": 0})

    def test_variables_collected(self):
        node = parse("a * log2(b + c) - a")
        assert node.variables() == {"a", "b", "c"}


class TestParseMemo:
    def test_equal_sources_share_one_tree(self):
        source = "2 * codeDistance^2 + 0.5 * memo_probe"
        first = parse(source)
        assert parse(source) is first
        assert Formula(source)._node is first
        assert parse(source).evaluate({"codeDistance": 3, "memo_probe": 2}) == 19

    def test_bad_formula_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(FormulaParseError):
                parse("2 * (memo_probe")
            with pytest.raises(FormulaParseError):
                Formula("memo_probe $ 1")


class TestFormula:
    def test_from_string(self):
        f = Formula("2 * d^2")
        assert f(d=5) == 50
        assert f.free_variables == {"d"}
        assert "2 * d^2" in repr(f)

    def test_from_number_is_constant(self):
        assert Formula(42)() == 42
        assert Formula(2.5)() == 2.5
        assert Formula(7).free_variables == frozenset()

    def test_copy_constructor(self):
        f = Formula("x + 1")
        g = Formula(f)
        assert g(x=1) == 2
        assert f == g

    def test_rejects_bool_and_other_types(self):
        with pytest.raises(TypeError):
            Formula(True)
        with pytest.raises(TypeError):
            Formula([1, 2])  # type: ignore[arg-type]

    def test_env_and_kwargs_merge(self):
        f = Formula("x + y")
        assert f({"x": 1}, y=2) == 3
        assert f({"x": 1, "y": 5}, y=2) == 3  # kwargs win

    def test_evaluate_positive_guards(self):
        f = Formula("x - 5")
        assert f.evaluate_positive(x=6) == 1
        with pytest.raises(FormulaEvalError, match="non-positive"):
            f.evaluate_positive(x=5)

    def test_equality_and_hash(self):
        assert Formula("1+2") == Formula("1 + 2")
        assert hash(Formula("1+2")) == hash(Formula("1 + 2"))
        assert Formula("x") != Formula("y")

    def test_azure_style_formulas(self):
        cycle = Formula(
            "(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * codeDistance"
        )
        assert cycle(twoQubitGateTime=50, oneQubitMeasurementTime=100, codeDistance=9) == 3600
        qubits = Formula("4 * codeDistance^2 + 8 * (codeDistance - 1)")
        assert qubits(codeDistance=5) == 132


@given(st.integers(-1000, 1000), st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_property_precedence_matches_python(a, b, c):
    """a + b * c and (a + b) * c must agree with Python's arithmetic."""
    assert parse("a + b * c").evaluate({"a": a, "b": b, "c": c}) == a + b * c
    assert parse("(a + b) * c").evaluate({"a": a, "b": b, "c": c}) == (a + b) * c


@given(
    st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.001, max_value=1e6, allow_nan=False),
)
def test_property_division_multiplication_roundtrip(x, y):
    got = parse("x / y * y").evaluate({"x": x, "y": y})
    assert got == pytest.approx(x, rel=1e-9)


@given(st.floats(min_value=1e-12, max_value=1e12, allow_nan=False))
def test_property_log2_matches_math(x):
    assert parse("log2(x)").evaluate({"x": x}) == pytest.approx(math.log2(x))


@given(st.integers(0, 50))
def test_property_number_literal_roundtrip(n):
    assert parse(str(n)).evaluate({}) == n
