"""Minimal arithmetic expression language for scenario field definitions.

Variables theta and phi, constants pi and e, functions sin/cos/exp, and
the operators + - * / ^ (right-associative power).  The language is kept
deliberately tiny so scenarios stay auditable; there is no eval() and no
user-defined anything.  One token regex splits the text (a number, else a
name, else an operator); the parser is one left-associative loop over a
precedence table, {+, -} below {*, /}, under prefix signs and powers.
"""

import operator
import re

import numpy as np

from .errors import ExpressionDomainError, ExpressionParseError
from .grid import ScalarField, SphericalGrid

_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])")

_BINARY = ({"+": operator.add, "-": operator.sub},
           {"*": operator.mul, "/": operator.truediv})
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": np.pi, "e": np.e}

# Levels of parentheses, calls, prefix signs and exponents; a level costs the
# parser up to five Python frames (unary, atom and binary at levels 0, 1 and
# 2), well inside the default recursion limit.
MAX_NESTING = 100


def _tokenize(text):
    tokens, i = [], 0
    while i < len(text):
        if text[i].isspace():
            i += 1
        elif m := _TOKEN_RE.match(text, i):
            kind = m.lastgroup
            tokens.append((kind, float(m[0]) if kind == "num" else m[0], i))
            i = m.end()
        else:
            raise ExpressionParseError(
                f"unexpected character {text[i]!r} at position {i}",
                position=i)
    tokens.append(("end", None, len(text)))
    return tokens


def _finite(value, message):
    if np.any(~np.isfinite(np.asarray(value, dtype=float))):
        raise ExpressionDomainError(message)
    return value


class _Evaluator:
    """Recursive-descent parse-and-evaluate over theta/phi node arrays."""

    def __init__(self, text, variables):
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0
        self.names = {**_CONSTANTS, **variables}

    def take(self, symbols):
        """The next token, consumed, if it is an operator in symbols."""
        token = self.tokens[self.k]
        if token[0] == "op" and token[1] in symbols:
            self.k += 1
            return token
        return None

    def expect(self, symbol):
        if not self.take(symbol):
            pos = self.tokens[self.k][2]
            raise ExpressionParseError(
                f"expected {symbol!r} at position {pos}", position=pos)

    def run(self):
        with np.errstate(all="ignore"):
            result = self.binary(0)
        kind, value, pos = self.tokens[self.k]
        if kind != "end":
            raise ExpressionParseError(
                f"unexpected token {value!r} at position {pos}", position=pos)
        return result

    def binary(self, level):
        if level == len(_BINARY):
            return self.unary()
        ops = _BINARY[level]
        value = self.binary(level + 1)
        while token := self.take(ops):
            _, sym, pos = token
            rhs = self.binary(level + 1)
            if sym == "/" and np.any(np.asarray(rhs) == 0.0):
                raise ExpressionDomainError(
                    f"division by zero at a node (operator at position {pos})")
            value = ops[sym](value, rhs)
        return value

    def unary(self):
        pos = self.tokens[self.k][2]
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionParseError(
                f"expression nested deeper than {MAX_NESTING} levels at "
                f"position {pos}", position=pos)
        if sign := self.take("+-"):
            value = self.unary()
            value = value if sign[1] == "+" else -value
        else:
            value = self.atom()
            if power := self.take("^"):
                value = _finite(np.power(value, self.unary()),
                                f"power produced a non-finite value "
                                f"(operator at position {power[2]})")
        self.depth -= 1
        return value

    def atom(self):
        kind, value, pos = self.tokens[self.k]
        self.k += 1
        if kind == "num":
            return value
        if kind == "ident" and not self.take("("):
            if value not in self.names:
                raise ExpressionParseError(
                    f"unknown identifier {value!r} at position {pos}",
                    position=pos)
            return self.names[value]
        if kind == "ident" and value not in _FUNCTIONS:
            raise ExpressionParseError(
                f"unknown function {value!r} at position {pos}", position=pos)
        if kind != "ident" and value != "(":
            raise ExpressionParseError(
                f"expected a number, name or '(' at position {pos}",
                position=pos)
        inner = self.binary(0)
        self.expect(")")
        if kind != "ident":
            return inner
        return _finite(_FUNCTIONS[value](inner),
                       f"{value}() produced a non-finite value at a node "
                       f"(position {pos})")


def evaluate_expression(text: str, grid: SphericalGrid) -> ScalarField:
    """Evaluate an expression of theta and phi node-wise over the grid, on
    the theta column and phi row (broadcast only where the two mix)."""
    variables = {"theta": grid.thetas[:, None], "phi": grid.phis[None, :]}
    value = _Evaluator(text, variables).run()
    arr = np.broadcast_to(np.asarray(value, dtype=float), grid.shape).copy()
    return ScalarField(grid, _finite(arr, "expression is non-finite at "
                                          "some node"))
