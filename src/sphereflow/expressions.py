"""Minimal arithmetic expression language for scenario field definitions.

Variables theta and phi, constants pi and e, functions sin/cos/exp, and
the operators + - * / ^ (right-associative power).  The language is kept
deliberately tiny so scenarios stay auditable; there is no eval() and no
user-defined anything.
"""

import re

import numpy as np

from .errors import ExpressionDomainError, ExpressionParseError
from .grid import ScalarField, SphericalGrid

_NUM_RE = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_ID_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": np.pi, "e": np.e}

# Levels of parentheses, calls, prefix signs and exponents; a level costs the
# parser up to five Python frames, well inside the default recursion limit.
MAX_NESTING = 100


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        m = _NUM_RE.match(text, i)
        if m:
            tokens.append(("num", float(m.group()), i))
            i = m.end()
            continue
        m = _ID_RE.match(text, i)
        if m:
            tokens.append(("ident", m.group(), i))
            i = m.end()
            continue
        if c in "+-*/^()":
            tokens.append(("op", c, i))
            i += 1
            continue
        raise ExpressionParseError(
            f"unexpected character {c!r} at position {i}", position=i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Evaluator:
    """Recursive-descent parse-and-evaluate over theta/phi node arrays."""

    def __init__(self, text, variables):
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.k]

    def take(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, symbol):
        kind, value, pos = self.take()
        if kind != "op" or value != symbol:
            raise ExpressionParseError(
                f"expected {symbol!r} at position {pos}", position=pos)

    def run(self):
        result = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionParseError(
                f"unexpected token {value!r} at position {pos}", position=pos)
        return result

    def expr(self):
        value = self.term()
        while True:
            kind, sym, pos = self.peek()
            if kind == "op" and sym in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if sym == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.unary()
        while True:
            kind, sym, pos = self.peek()
            if kind == "op" and sym in "*/":
                self.take()
                rhs = self.unary()
                if sym == "*":
                    value = value * rhs
                else:
                    if np.any(np.asarray(rhs) == 0.0):
                        raise ExpressionDomainError(
                            f"division by zero at a node (operator at "
                            f"position {pos})")
                    value = value / rhs
            else:
                return value

    def unary(self):
        kind, sym, pos = self.peek()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionParseError(
                f"expression nested deeper than {MAX_NESTING} levels at "
                f"position {pos}", position=pos)
        if kind == "op" and sym in "+-":
            self.take()
            value = self.unary()
            value = value if sym == "+" else -value
        else:
            value = self.power()
        self.depth -= 1
        return value

    def power(self):
        base = self.atom()
        kind, sym, pos = self.peek()
        if kind == "op" and sym == "^":
            self.take()
            exponent = self.unary()
            with np.errstate(invalid="ignore", over="ignore"):
                value = np.power(base, exponent)
            if np.any(~np.isfinite(np.asarray(value, dtype=float))):
                raise ExpressionDomainError(
                    f"power produced a non-finite value (operator at "
                    f"position {pos})")
            return value
        return base

    def atom(self):
        kind, value, pos = self.take()
        if kind == "num":
            return value
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "(":
                if value not in _FUNCTIONS:
                    raise ExpressionParseError(
                        f"unknown function {value!r} at position {pos}",
                        position=pos)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                with np.errstate(over="ignore", invalid="ignore"):
                    out = _FUNCTIONS[value](arg)
                if np.any(~np.isfinite(np.asarray(out, dtype=float))):
                    raise ExpressionDomainError(
                        f"{value}() produced a non-finite value at a node "
                        f"(position {pos})")
                return out
            if value in self.variables:
                return self.variables[value]
            if value in _CONSTANTS:
                return _CONSTANTS[value]
            raise ExpressionParseError(
                f"unknown identifier {value!r} at position {pos}",
                position=pos)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionParseError(
            f"expected a number, name or '(' at position {pos}", position=pos)


def evaluate_expression(text: str, grid: SphericalGrid) -> ScalarField:
    """Evaluate an expression of theta and phi node-wise over the grid, on
    the theta column and phi row (broadcast only where the two mix)."""
    variables = {"theta": grid.thetas[:, None], "phi": grid.phis[None, :]}
    value = _Evaluator(text, variables).run()
    arr = np.broadcast_to(np.asarray(value, dtype=float), grid.shape).copy()
    if np.any(~np.isfinite(arr)):
        raise ExpressionDomainError("expression is non-finite at some node")
    return ScalarField(grid, arr)
