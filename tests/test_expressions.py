import numpy as np
import pytest

from helpers import DEEP_EXPRESSIONS, WIDE_PATCH

from sphereflow import SphericalGrid, evaluate_expression
from sphereflow.errors import ExpressionDomainError, ExpressionParseError
from sphereflow.expressions import MAX_NESTING


@pytest.fixture()
def grid():
    return SphericalGrid(*WIDE_PATCH, 33, 33)


def _at(grid, f, theta, phi):
    i = int(np.argmin(np.abs(grid.thetas - theta)))
    j = int(np.argmin(np.abs(grid.phis - phi)))
    return f.values[i, j]


def test_basic_expressions(grid):
    f = evaluate_expression("2 + 0.1*cos(theta)", grid)
    assert _at(grid, f, np.pi / 2, 0.3) == pytest.approx(2.0, abs=1e-12)

    f2 = evaluate_expression("sin(theta)*sin(phi)", grid)
    assert _at(grid, f2, np.pi / 2, np.pi / 2) == pytest.approx(1.0, abs=1e-12)

    const = evaluate_expression("pi/2 - e^0", grid)
    np.testing.assert_allclose(const.values, np.pi / 2 - 1.0)


def test_operator_precedence_and_power(grid):
    f = evaluate_expression("2 + 3*2^2", grid)
    assert f.values[0, 0] == pytest.approx(14.0)
    g = evaluate_expression("-2^2", grid)  # unary minus binds outside power
    assert g.values[0, 0] == pytest.approx(-4.0)
    h = evaluate_expression("2^-1", grid)
    assert h.values[0, 0] == pytest.approx(0.5)


def test_division_by_zero_is_domain_error(grid):
    with pytest.raises(ExpressionDomainError):
        evaluate_expression("1/(theta-theta)", grid)


def test_nonfinite_power_is_domain_error(grid):
    with pytest.raises(ExpressionDomainError):
        evaluate_expression("(0-1)^0.5", grid)


def test_parse_errors_carry_position(grid):
    with pytest.raises(ExpressionParseError) as err:
        evaluate_expression("2 + * 3", grid)
    assert err.value.position == 4
    with pytest.raises(ExpressionParseError):
        evaluate_expression("sin(theta", grid)
    with pytest.raises(ExpressionParseError) as err2:
        evaluate_expression("2 + bogus", grid)
    assert "bogus" in str(err2.value)
    with pytest.raises(ExpressionParseError):
        evaluate_expression("tan(theta)", grid)  # unknown function
    with pytest.raises(ExpressionParseError):
        evaluate_expression("2 $ 3", grid)
    with pytest.raises(ExpressionParseError, match="unexpected token") as err3:
        evaluate_expression("1 2", grid)  # two numbers, no operator
    assert err3.value.position == 2


@pytest.mark.parametrize("text,message", [
    ("exp(1000)", r"exp\(\) produced a non-finite value"),
    ("1e400", "non-finite at some node"),
])
def test_overflow_is_domain_error(grid, text, message):
    with pytest.raises(ExpressionDomainError, match=message):
        evaluate_expression(text, grid)


def test_evaluation_is_deterministic(grid):
    a = evaluate_expression("exp(0.2*theta)*sin(phi) - theta^2", grid)
    b = evaluate_expression("exp(0.2*theta)*sin(phi) - theta^2", grid)
    np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.parametrize("name, position", [
    ("parentheses", MAX_NESTING), ("signs", MAX_NESTING),
    ("powers", 2 * MAX_NESTING)])
def test_nesting_past_the_cap_is_a_parse_error(grid, name, position):
    with pytest.raises(ExpressionParseError) as err:
        evaluate_expression(DEEP_EXPRESSIONS[name], grid)
    assert err.value.position == position
    assert f"nested deeper than {MAX_NESTING} levels at position {position}" \
        in str(err.value)


def test_nesting_up_to_the_cap_evaluates(grid):
    depth = MAX_NESTING - 1  # the outermost level is the expression itself
    f = evaluate_expression("(" * depth + "1" + ")" * depth, grid)
    assert np.all(f.values == 1.0)
    g = evaluate_expression("-" * depth + "1", grid)
    assert np.all(g.values == (-1.0) ** depth)
    # the cap counts open levels, not the terms of a flat sum
    h = evaluate_expression("+".join(["(1)"] * 3 * MAX_NESTING), grid)
    assert np.all(h.values == 3.0 * MAX_NESTING)
