import numpy as np
import pytest

from helpers import DEEP_EXPRESSIONS, WIDE_PATCH

from sphereflow import SphericalGrid, evaluate_expression
from sphereflow.errors import ExpressionDomainError, ExpressionParseError
from sphereflow.expressions import MAX_NESTING, _Evaluator


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


def _full_mesh_evaluation(text, grid):
    """evaluate_expression with theta and phi bound to the full node meshes."""
    value = _Evaluator(text, {"theta": grid.theta_mesh, "phi": grid.phi_mesh}).run()
    arr = np.broadcast_to(np.asarray(value, dtype=float), grid.shape).copy()
    if np.any(~np.isfinite(arr)):
        raise ExpressionDomainError("expression is non-finite at some node")
    return arr


_MESH_EXPRESSIONS = [
    "2 + 0.1*cos(theta)",                                    # theta only
    "1.6 + 0.1*cos(theta) - exp(0.3*theta)^2/sin(theta)",
    "-0.1*(0.1*(2 + 0.1*cos(theta))*sin(theta)^2 + 2*(3 - 0.5*(2 + 0.1*cos(theta))^2)"
    "*cos(theta)) + 2*(3 - 0.5*(2 + 0.1*cos(theta))^2)*(2 + 0.1*cos(theta))",
    "0.5*sin(2*phi) + phi^2",                                # phi only
    "exp(0.2*theta)*sin(phi) - theta^2/(1 + phi)",           # mixed
    "pi/2 - e^0",                                            # constant
    "1/(theta - theta)",                                     # division by zero
    "1/sin(phi)",
    "theta/(phi - phi)",
    "(0 - theta)^0.5",                                       # non-finite power
    "exp(1000*theta)",                                       # non-finite exp()
    "1e400*theta",                                           # non-finite result
]


@pytest.mark.parametrize("text", _MESH_EXPRESSIONS)
@pytest.mark.parametrize("shape,periodic", [((9, 9), False), ((33, 33), False),
                                            ((65, 17), False), ((20, 48), True)])
def test_column_and_row_evaluation_matches_the_full_mesh(text, shape, periodic):
    # theta and phi are bound to the theta column and the phi row: the same
    # bytes as evaluating on the full meshes, and the same error where that
    # one fails
    span = (0.0, 2 * np.pi) if periodic else (0.0, np.pi / 2)
    g = SphericalGrid(np.pi / 3, 2 * np.pi / 3, *span, *shape, phi_periodic=periodic)
    try:
        want = _full_mesh_evaluation(text, g)
    except ExpressionDomainError as err:
        with pytest.raises(ExpressionDomainError) as got:
            evaluate_expression(text, g)
        assert str(got.value) == str(err)
        return
    got = evaluate_expression(text, g).values
    assert got.shape == g.shape and got.flags.writeable
    assert got.tobytes() == want.tobytes()


# The language's edges: a value, or an error's class and message (and, for
# a parse error, its position).  A number token is the longest decimal with
# an optional exponent, so "2e" is the number 2 and the name e; "1." and
# ".5e1" are numbers; signs stack and bind outside a power, which is
# right-associative.
_PARSE, _DOMAIN = ExpressionParseError, ExpressionDomainError
_EDGES = [
    ("2e", _PARSE, "unexpected token 'e' at position 1"),
    ("1_0", _PARSE, "unexpected token '_0' at position 1"),
    ("0x10", _PARSE, "unexpected token 'x10' at position 1"),
    ("\xa01", 1.0, None),                                # no-break space
    (".5e1", 5.0, None),
    ("1.", 1.0, None),
    ("+-+1", -1.0, None),
    ("2^3^2", 512.0, None),
    ("-2^-2", -0.25, None),
    ("sin 1", _PARSE, "unknown identifier 'sin' at position 0"),
    ("theta(1)", _PARSE, "unknown function 'theta' at position 0"),
    ("", _PARSE, "expected a number, name or '(' at position 0"),
    ("1+", _PARSE, "expected a number, name or '(' at position 2"),
    ("cos(", _PARSE, "expected a number, name or '(' at position 4"),
    ("phi^", _PARSE, "expected a number, name or '(' at position 4"),
    ("(1", _PARSE, "expected ')' at position 2"),
    ("1 $", _PARSE, "unexpected character '$' at position 2"),
    ("1/0", _DOMAIN, "division by zero at a node (operator at position 1)"),
    ("2*(0-1)^0.5", _DOMAIN,
     "power produced a non-finite value (operator at position 7)"),
]


@pytest.mark.parametrize("text, want, message", _EDGES)
def test_language_edges(grid, text, want, message):
    if isinstance(want, float):
        assert np.all(evaluate_expression(text, grid).values == want)
        return
    with pytest.raises(want) as err:
        evaluate_expression(text, grid)
    assert type(err.value) is want and str(err.value) == message
    if want is _PARSE:
        assert message.endswith(f"at position {err.value.position}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, message", [
    ("theta*1e300*1e300", "expression is non-finite at some node"),
    ("0^-1", "power produced a non-finite value (operator at position 1)"),
    ("(theta-theta)^-1",
     "power produced a non-finite value (operator at position 13)"),
    ("theta-1e400+1e400", "expression is non-finite at some node"),
])
def test_domain_errors_raise_no_numpy_warning(grid, text, message):
    # numpy's overflow, divide and invalid warnings stay inside the
    # evaluator: with warnings as errors the domain error still comes out
    with pytest.raises(ExpressionDomainError) as err:
        evaluate_expression(text, grid)
    assert str(err.value) == message
