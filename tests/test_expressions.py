"""Safe expression compiler used for config-supplied coefficient laws."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, reject, settings
from hypothesis import strategies as st

from phenopart.expressions import compile_expression, differentiate


def test_arithmetic_matches_numpy():
    f = compile_expression("x1 - x1**3 - 0.1*I1", ["x1", "I1"])
    x = np.linspace(-2, 2, 41)
    I = np.linspace(0, 1, 41)
    np.testing.assert_array_equal(f(x, I), x - x * x * x - 0.1 * I)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_small_integer_powers_are_products(k):
    x = np.linspace(-2, 2, 41)
    want = x
    for _ in range(k - 1):
        want = want * x
    np.testing.assert_array_equal(compile_expression(f"x**{k}", ["x"])(x), want)


@pytest.mark.parametrize("source, want", [
    ("x**2.5", lambda x, y: x ** 2.5),
    ("x**-1", lambda x, y: x ** -1),
    ("x**7", lambda x, y: x ** 7),
    ("x**y", lambda x, y: x ** y),
])
def test_other_exponents_go_through_pow(source, want):
    x = np.linspace(0.1, 3.0, 41)
    y = np.linspace(-2.0, 5.0, 41)
    np.testing.assert_array_equal(
        compile_expression(source, ["x", "y"])(x, y), want(x, y))


def test_functions_and_constants():
    f = compile_expression("exp(-0.5*x**2)/sqrt(2*pi)", ["x"])
    x = np.array([-1.0, 0.0, 2.5])
    np.testing.assert_allclose(
        f(x), np.exp(-0.5 * x ** 2) / np.sqrt(2 * np.pi), rtol=1e-15)
    g = compile_expression("e", [])
    assert g() == np.e


def test_where_minimum_maximum():
    f = compile_expression("where(x, maximum(x, 0.5), minimum(x, -0.5))",
                           ["x"])
    x = np.array([-2.0, 0.0, 0.1, 3.0])
    np.testing.assert_array_equal(
        f(x), np.where(x, np.maximum(x, 0.5), np.minimum(x, -0.5)))


def test_unary_and_division():
    f = compile_expression("-x / (1 + x)", ["x"])
    assert f(1.0) == -0.5
    assert f(np.array([3.0]))[0] == -0.75


@pytest.mark.parametrize("bad", [
    "__import__('os')",
    "x.real",
    "x[0]",
    "lambda y: y",
    "x if x > 0 else -x",
    "x > 0",
    "open('f')",
    "unknown_name + 1",
    "sin",
    "x; y",
    "sin(x, y)",
    "where(x, y)",
])
def test_rejects_non_arithmetic(bad):
    with pytest.raises(ValueError):
        compile_expression(bad, ["x", "y"])


@pytest.mark.parametrize("source, sub", [
    ("x + (-8)**(1/3)", "(-8) ** (1 / 3)"),
    ("x + 1/0", "1 / 0"),
    ("x + 1e308*10", "1e+308 * 10"),
    ("x * 10.0**400", "10.0 ** 400"),
    ("x + log(-1)", "log(-1)"),
    ("x * exp(1000)", "exp(1000)"),
], ids=["complex", "zero-division", "inf", "overflow", "nan", "numpy-inf"])
def test_constant_that_is_not_finite_real_is_rejected(source, sub):
    """Constant subexpressions are evaluated once, when compiled, and must
    be finite real numbers."""
    with pytest.raises(ValueError, match=re.escape(repr(sub))):
        compile_expression(source, ["x"])


def test_folded_constants_keep_their_bits():
    f = compile_expression("x*(1/3) + 2**0.5 - sin(1)*x**(2/3) + pi**2",
                           ["x"])
    x = np.linspace(0.1, 3.0, 41)
    np.testing.assert_array_equal(
        f(x), x * (1 / 3) + 2 ** 0.5 - np.sin(1.0) * x ** (2 / 3)
        + np.pi * np.pi)


def test_variable_order_is_positional():
    f = compile_expression("a - b", ["a", "b"])
    assert f(3.0, 1.0) == 2.0
    g = compile_expression("a - b", ["b", "a"])
    assert g(3.0, 1.0) == -2.0


# ---------------------------------------------------------------------------
# the exact derivative


_X = np.array([-2.0, -0.5, 0.0, 0.5, 0.75, 2.0])
_Y = np.array([0.5, -0.5, 0.0, 0.5, 1.0, -1.0])
_POS = np.array([0.25, 0.5, 1.0, 2.5])


@pytest.mark.parametrize("source, x, want", [
    ("sin(x)", _X, np.cos),
    ("cos(x)", _X, lambda x: -np.sin(x)),
    ("tan(x)", _X, lambda x: 1 / np.cos(x) ** 2),
    ("exp(x)", _X, np.exp),
    ("log(x)", _POS, lambda x: 1 / x),
    ("sqrt(x)", _POS, lambda x: 0.5 / np.sqrt(x)),
    ("tanh(x)", _X, lambda x: 1 - np.tanh(x) ** 2),
    # 0 at the kink
    ("abs(x)", _X, np.sign),
    ("sin(3*x)", _X, lambda x: np.cos(3 * x) * 3),
    ("x**3", _X, lambda x: 3 * (x * x)),
    ("pi*x + e", _X, lambda x: np.full_like(x, np.pi)),
])
def test_function_rules_are_exact(source, x, want):
    d = differentiate(compile_expression(source, ["x"]), "x")
    np.testing.assert_array_equal(np.broadcast_to(d(x), x.shape), want(x))


@pytest.mark.parametrize("source, wrt, want", [
    ("x*y", "x", lambda x, y: y),
    ("x/y", "x", lambda x, y: 1 / y),
    ("y/x", "x", lambda x, y: -y / (x * x)),
    # ties follow the first argument
    ("minimum(x, y)", "x", lambda x, y: np.where(x <= y, 1.0, 0.0)),
    ("minimum(x, y)", "y", lambda x, y: np.where(x <= y, 0.0, 1.0)),
    ("maximum(x, y)", "x", lambda x, y: np.where(x >= y, 1.0, 0.0)),
    ("maximum(x, y)", "y", lambda x, y: np.where(x >= y, 0.0, 1.0)),
    # the branch taken; the condition is not differentiated
    ("where(x - 0.5, x**2, 3*x)", "x",
     lambda x, y: np.where(x - 0.5, 2 * x, 3.0)),
])
def test_two_argument_rules_and_ties(source, wrt, want):
    d = differentiate(compile_expression(source, ["x", "y"]), wrt)
    np.testing.assert_array_equal(d(_X, _Y), want(_X, _Y))


def test_power_rule_needs_log_only_for_a_variable_exponent():
    f = compile_expression("x**y", ["x", "y"])
    dx, dy = differentiate(f, "x"), differentiate(f, "y")
    assert "log" not in dx.source
    np.testing.assert_array_equal(dx(_POS, _POS), _POS * _POS ** (_POS - 1))
    np.testing.assert_array_equal(dy(_POS, _POS), _POS ** _POS * np.log(_POS))
    assert "log" not in differentiate(
        compile_expression("x**2.5 + x**-1", ["x"]), "x").source


def test_derivative_folds_zeros_and_ones():
    f = compile_expression("x1 - x1**3 - 0.1*I1", ["x1", "I1"])
    assert differentiate(f, "x1").source == "1 - 3 * x1 ** 2"
    assert differentiate(f, "I1").source == "-0.1"
    with pytest.raises(ValueError):
        differentiate(f, "x2")


_UNARY = ["sin", "cos", "tan", "exp", "log", "sqrt", "tanh", "abs"]


def _expressions():
    """(source, kinks): a random expression over x and y, and the sources
    whose zeros are its kinks (abs arguments, minimum/maximum ties, where
    conditions), poles (divisors, cos under tan, the base of x**-1) or
    domain edges (log and sqrt arguments, the base of a real power)."""
    leaves = st.one_of(
        st.sampled_from(["x", "y"]),
        st.sampled_from(["x", "y", "pi", "e"]),
        st.floats(0.25, 4.0).map(lambda c: repr(round(c, 3)))).map(
            lambda s: (s, ()))

    def extend(sub):
        def unary(fn, u):
            edge = {"abs": u[0], "log": u[0], "sqrt": u[0],
                    "tan": f"cos({u[0]})"}.get(fn)
            return (f"{fn}({u[0]})", u[1] + ((edge,) if edge else ()))

        def binary(u, op, v):
            return (f"({u[0]}) {op} ({v[0]})",
                    u[1] + v[1] + ((v[0],) if op == "/" else ()))

        def integer_power(u, k):
            return (f"({u[0]})**{k}", u[1] + ((u[0],) if k < 0 else ()))

        def power(u, v):
            # a real power needs a positive base
            return (f"abs({u[0]}) ** ({v[0]})", u[1] + v[1] + (u[0],))

        def extremum(fn, u, v):
            return (f"{fn}({u[0]}, {v[0]})",
                    u[1] + v[1] + (f"({u[0]}) - ({v[0]})",))

        def where(c, u, v):
            return (f"where({c[0]}, {u[0]}, {v[0]})",
                    c[1] + u[1] + v[1] + (c[0],))

        return st.one_of(
            st.builds(unary, st.sampled_from(_UNARY), sub),
            st.builds(binary, sub, st.sampled_from("+-*/"), sub),
            st.builds(integer_power, sub, st.sampled_from([2, 3, 4, -1])),
            st.builds(power, sub, st.sampled_from([("2.5", ()), ("y", ())])),
            st.builds(power, sub, sub),
            st.builds(extremum, st.sampled_from(["minimum", "maximum"]),
                      sub, sub),
            st.builds(where, sub, sub, sub),
        )

    return st.recursive(leaves, extend, max_leaves=6)


@settings(max_examples=1000,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(expr=_expressions(), wrt=st.sampled_from(["x", "y"]),
       x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0))
def test_derivative_matches_central_difference(expr, wrt, x, y):
    source, kinks = expr
    try:
        f = compile_expression(source, ["x", "y"])
    except ValueError:
        # a constant subexpression is not a finite real number
        reject()
    step = 1e-5
    # the stencil moves the variable differentiated, the other stays put
    offsets = np.array([-step, -step / 10, 0.0, step / 10, step])
    at = {"x": np.full(5, x), "y": np.full(5, y)}
    at[wrt] = at[wrt] + offsets
    with np.errstate(all="ignore"):
        values = np.broadcast_to(f(at["x"], at["y"]), (5,))
        assume(np.isrealobj(values) and np.all(np.abs(values) < 1e6))
        for kink in kinks:
            k = compile_expression(kink, ["x", "y"])(at["x"], at["y"])
            # no kink at or near the stencil's points
            assume(np.isrealobj(k) and (np.all(k > 1e-3)
                                        or np.all(k < -1e-3)))
        d = np.broadcast_to(differentiate(f, wrt)(at["x"], at["y"]),
                            (5,))[2]
    coarse = (values[4] - values[0]) / (2 * step)
    fine = (values[3] - values[1]) / (step / 5)
    tol = 10 * step * (1 + abs(fine))
    # a pole or a domain edge near the point: the two differences disagree
    assume(abs(coarse - fine) <= tol)
    assert abs(d - fine) <= tol, (source, wrt, x, y, d, fine)
