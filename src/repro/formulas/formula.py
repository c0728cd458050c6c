"""User-facing ``Formula`` wrapper: parse once, evaluate many times.

A ``Formula`` may be constructed from a string, a number (constant
formula), or another ``Formula`` (copy). It reports its free variables so
model code can validate a custom scheme up front instead of failing deep
inside an estimation run.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Union

from .ast import FormulaError, FormulaNode, Number
from .parser import PARSE_CACHE_SIZE, parse

FormulaLike = Union[str, int, float, "Formula"]


class FormulaEvalError(FormulaError):
    """Raised when a formula evaluates to an invalid value for its use."""


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def _compile(source: str) -> tuple[FormulaNode, frozenset[str]]:
    """The parsed tree of ``source`` and its free variables (memoized)."""
    node = parse(source)
    return node, node.variables()


class Formula:
    """A compiled arithmetic formula over named variables.

    Parameters
    ----------
    source:
        Formula string (e.g. ``"2 * codeDistance^2"``), a plain number for
        a constant formula, or an existing :class:`Formula` to copy.

    Examples
    --------
    >>> Formula("2 * d^2")(d=5)
    50
    >>> Formula(42.0)()
    42.0
    """

    __slots__ = ("_hash", "_node", "_source", "_vars")

    def __init__(self, source: FormulaLike) -> None:
        if isinstance(source, Formula):
            self._node: FormulaNode = source._node
            self._source: str = source._source
            self._vars: frozenset[str] = source._vars
        elif isinstance(source, (int, float)) and not isinstance(source, bool):
            self._node = Number(source)
            self._source = repr(source)
            self._vars = frozenset()
        elif isinstance(source, str):
            # Stored results re-create their scheme and unit formulas on
            # every decode; the memo makes that a dictionary lookup.
            self._node, self._vars = _compile(source)
            self._source = source
        else:
            raise TypeError(
                f"Formula source must be str, number, or Formula, got {type(source).__name__}"
            )

    @property
    def source(self) -> str:
        """The original formula text."""
        return self._source

    @property
    def free_variables(self) -> frozenset[str]:
        """Names that must be bound when evaluating."""
        return self._vars

    def evaluate(self, env: Mapping[str, float] | None = None, /, **kwargs: float) -> float:
        """Evaluate with variables from ``env`` and/or keyword arguments."""
        # Nodes only read their bindings, so a plain dict passed alone is
        # not copied; any other mapping is, so it reads as a dict does.
        if kwargs or type(env) is not dict:
            merged: dict[str, float] = dict(env) if env else {}
            merged.update(kwargs)
            env = merged
        return self._node.evaluate(env)

    __call__ = evaluate

    def evaluate_positive(
        self, env: Mapping[str, float] | None = None, /, **kwargs: float
    ) -> float:
        """Evaluate and require a strictly positive result.

        Model quantities (durations, qubit counts) must be positive; a
        custom formula producing zero or a negative value is a user error
        we want to surface with context.
        """
        value = self.evaluate(env, **kwargs)
        if not value > 0:
            raise FormulaEvalError(
                f"formula {self._source!r} evaluated to non-positive value {value!r}"
            )
        return value

    def __repr__(self) -> str:
        return f"Formula({self._source!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Formula):
            return self._node == other._node
        return NotImplemented

    def __hash__(self) -> int:
        # Formulas sit inside memo keys (schemes, units) and are hashed
        # far more often than built; the tree hash is computed once.
        try:
            return self._hash
        except AttributeError:
            self._hash: int = hash(self._node)
            return self._hash
