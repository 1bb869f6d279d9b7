"""Safe arithmetic expression compiler for config-supplied coefficient laws.

Supports numeric literals, the declared variable names, +, -, *, /, **,
unary minus, and a small set of elementwise functions.  Anything else in the
source raises ValueError at compile time; nothing is ever passed to eval().

A power `u ** k` whose exponent k is a positive integer literal up to 4 is
evaluated as repeated multiplication, left to right (`(u*u)*u`), which is
several times cheaper than numpy's per-element pow.  Every other exponent
(a float such as 2.5, a negative or larger integer, an expression) goes
through pow.

Every subexpression made only of constants is evaluated once, when it is
compiled, to the value an evaluation would give; a value that is not a
finite real number (such as `(-8)**(1/3)`, `1/0` or `1e308*10`) raises
ValueError naming that subexpression.

`differentiate(f, name)` returns the exact partial derivative of a compiled
expression with respect to one of its variables, itself a compiled
expression over the same variables.  It applies the sum, product, quotient,
chain and power rules (Griewank & Walther, *Evaluating Derivatives*, SIAM,
2008) and folds the constants 0 and 1 as it goes, so the derivative of a
polynomial law costs about as much as a hand-written one.  A constant
exponent uses the power rule alone; `u ** v` with an exponent that depends
on the variable uses log(u).  Where a function has no derivative:

- abs has derivative 0 at 0;
- minimum and maximum follow their first argument on a tie;
- where differentiates the branch it takes (the condition is not
  differentiated).
"""

from __future__ import annotations

import ast
import operator
from typing import Callable, Sequence

import numpy as np

_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}

_UNARYOPS = {
    ast.USub: operator.neg,
    ast.UAdd: operator.pos,
}

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "abs": np.abs,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "where": np.where,
}

# arguments each function takes; the others take one
_ARITY = {"minimum": 2, "maximum": 2, "where": 3,
          "less_equal": 2, "greater_equal": 2}

# functions that only derivatives call; the source grammar does not have them
_DERIVATIVE_FUNCTIONS = {
    "sign": np.sign,
    "less_equal": np.less_equal,
    "greater_equal": np.greater_equal,
}

_CONSTANTS = {
    "pi": np.pi,
    "e": np.e,
}

# the largest integer exponent evaluated as repeated multiplication
_MAX_PRODUCT_POWER = 4


def compile_expression(source: str, variables: Sequence[str]) -> Callable:
    """Compile `source` into f(*values) where values follow `variables` order."""
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {source!r}: {exc}") from exc
    return _compile(tree.body, tuple(variables), _FUNCTIONS, source)


def differentiate(f: Callable, variable: str) -> Callable:
    """Exact partial derivative d f / d `variable` of a compiled expression,
    compiled over the same variables (the others are held fixed)."""
    if variable not in f.variables:
        raise ValueError(
            f"cannot differentiate with respect to {variable!r}; "
            f"variables: {f.variables}")
    tree = _derivative(f.tree, variable)
    return _compile(tree, f.variables, {**_FUNCTIONS, **_DERIVATIVE_FUNCTIONS},
                    ast.unparse(tree))


def _compile(tree: ast.expr, names: tuple, functions: dict,
             source: str) -> Callable:
    index = {name: i for i, name in enumerate(names)}

    def build(node):
        fn = build_node(node)
        if any(isinstance(n, ast.Name) and n.id in index
               for n in ast.walk(node)):
            return fn
        value = _constant_value(fn, node, source)
        return lambda args: value

    def build_node(node):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                value = float(node.value)
                return lambda args: value
            raise ValueError(f"non-numeric constant {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id in index:
                i = index[node.id]
                return lambda args: args[i]
            if node.id in _CONSTANTS:
                value = _CONSTANTS[node.id]
                return lambda args: value
            raise ValueError(f"unknown name {node.id!r}; variables: {names}")
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _BINOPS:
                raise ValueError(f"operator {type(node.op).__name__} not allowed")
            op = _BINOPS[type(node.op)]
            left = build(node.left)
            k = _literal(node.right)
            if (op is operator.pow and type(k) is int
                    and 1 <= k <= _MAX_PRODUCT_POWER):
                return _repeated_product(left, k)
            right = build(node.right)
            return lambda args: op(left(args), right(args))
        if isinstance(node, ast.UnaryOp):
            if type(node.op) not in _UNARYOPS:
                raise ValueError(f"operator {type(node.op).__name__} not allowed")
            op = _UNARYOPS[type(node.op)]
            operand = build(node.operand)
            return lambda args: op(operand(args))
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in functions:
                raise ValueError("only the documented elementwise functions are allowed")
            if node.keywords:
                raise ValueError("keyword arguments not allowed in expressions")
            name = node.func.id
            if len(node.args) != _ARITY.get(name, 1):
                raise ValueError(
                    f"{name} takes {_ARITY.get(name, 1)} arguments, "
                    f"got {len(node.args)}")
            fn = functions[name]
            argfns = [build(a) for a in node.args]
            return lambda args: fn(*(f(args) for f in argfns))
        raise ValueError(f"syntax node {type(node).__name__} not allowed")

    body = build(tree)

    def evaluate(*values):
        if len(values) != len(names):
            raise TypeError(f"expression expects {len(names)} values {names}")
        return body(values)

    evaluate.source = source
    evaluate.variables = names
    evaluate.tree = tree
    return evaluate


def _constant_value(fn: Callable, node: ast.expr, source: str):
    """The value of a variable-free subexpression; ValueError unless it is a
    finite real number."""
    where = f"constant {ast.unparse(node)!r} in {source!r}"
    try:
        with np.errstate(all="ignore"):
            value = fn(())
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{where} cannot be evaluated: {exc}") from None
    if np.iscomplexobj(value) or not np.all(np.isfinite(value)):
        raise ValueError(f"{where} is not a finite real number: {value!r}")
    return value


def _repeated_product(base: Callable, k: int) -> Callable:
    def power(args):
        u = base(args)
        out = u
        for _ in range(k - 1):
            out = out * u
        return out

    return power


# ---------------------------------------------------------------------------
# symbolic derivative on the syntax tree


def _literal(node):
    """The value of a numeric literal node, negated or not, else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        v = _literal(node.operand)
        return None if v is None else -v
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    return None


def _is(node, value) -> bool:
    v = _literal(node)
    return v is not None and v == value


_ZERO = ast.Constant(0)
_ONE = ast.Constant(1)
_TWO = ast.Constant(2)


def _fold(op: ast.operator, a, b):
    x, y = _literal(a), _literal(b)
    if x is not None and y is not None and not (type(op) is ast.Div and y == 0):
        return ast.Constant(_BINOPS[type(op)](x, y))
    return ast.BinOp(a, op, b)


def _add(a, b):
    if _is(a, 0):
        return b
    if _is(b, 0):
        return a
    return _fold(ast.Add(), a, b)


def _sub(a, b):
    if _is(b, 0):
        return a
    if _is(a, 0):
        return _neg(b)
    return _fold(ast.Sub(), a, b)


def _mul(a, b):
    if _is(a, 0) or _is(b, 0):
        return _ZERO
    if _is(a, 1):
        return b
    if _is(b, 1):
        return a
    return _fold(ast.Mult(), a, b)


def _div(a, b):
    if _is(a, 0):
        return _ZERO
    if _is(b, 1):
        return a
    return _fold(ast.Div(), a, b)


def _pow(a, b):
    if _is(b, 0):
        return _ONE
    if _is(b, 1):
        return a
    return ast.BinOp(a, ast.Pow(), b)


def _neg(a):
    v = _literal(a)
    if v is not None:
        return ast.Constant(-v)
    if isinstance(a, ast.UnaryOp) and isinstance(a.op, ast.USub):
        return a.operand
    return ast.UnaryOp(ast.USub(), a)


def _call(name: str, *args):
    return ast.Call(ast.Name(name, ast.Load()), list(args), [])


def _where(cond, a, b):
    if _is(a, 0) and _is(b, 0):
        return _ZERO
    return _call("where", cond, a, b)


# f'(u) for each one-argument function
_CHAIN = {
    "sin": lambda u: _call("cos", u),
    "cos": lambda u: _neg(_call("sin", u)),
    "tan": lambda u: _div(_ONE, _pow(_call("cos", u), _TWO)),
    "exp": lambda u: _call("exp", u),
    "log": lambda u: _div(_ONE, u),
    "sqrt": lambda u: _div(ast.Constant(0.5), _call("sqrt", u)),
    "tanh": lambda u: _sub(_ONE, _pow(_call("tanh", u), _TWO)),
    "abs": lambda u: _call("sign", u),
    "sign": lambda u: _ZERO,
}


def _derivative(node, x: str):
    """The tree of d node / d x, with 0 and 1 folded."""
    if isinstance(node, ast.Constant):
        return _ZERO
    if isinstance(node, ast.Name):
        return _ONE if node.id == x else _ZERO
    if isinstance(node, ast.UnaryOp):
        du = _derivative(node.operand, x)
        return _neg(du) if isinstance(node.op, ast.USub) else du
    if isinstance(node, ast.BinOp):
        u, v = node.left, node.right
        du, dv = _derivative(u, x), _derivative(v, x)
        if isinstance(node.op, ast.Add):
            return _add(du, dv)
        if isinstance(node.op, ast.Sub):
            return _sub(du, dv)
        if isinstance(node.op, ast.Mult):
            return _add(_mul(du, v), _mul(u, dv))
        if isinstance(node.op, ast.Div):
            if _is(dv, 0):
                return _div(du, v)
            return _div(_sub(_mul(du, v), _mul(u, dv)), _mul(v, v))
        # power: the exponent's own derivative decides whether log(u) enters
        if _is(dv, 0):
            return _mul(_mul(v, _pow(u, _sub(v, _ONE))), du)
        return _mul(node, _add(_mul(dv, _call("log", u)), _div(_mul(v, du), u)))
    # a call; _compile has checked the name and the arity
    name, args = node.func.id, node.args
    if name in ("minimum", "maximum"):
        tie = "less_equal" if name == "minimum" else "greater_equal"
        return _where(_call(tie, *args),
                      _derivative(args[0], x), _derivative(args[1], x))
    if name == "where":
        return _where(args[0], _derivative(args[1], x), _derivative(args[2], x))
    return _mul(_CHAIN[name](args[0]), _derivative(args[0], x))
