"""Restricted evaluation of closed-form expressions from config files.

Domains, weights and nonlinearities are expression strings (e.g.
``"cbrt(1 - r**2)"``).  The syntax tree of each may hold only number
constants, unary, binary and comparison operators, names that are variables
or allowed names, and calls of an allowed function; every other node is
refused by its type, the same on every Python, so a configuration file
cannot reach arbitrary Python.
"""

from __future__ import annotations

import ast
from functools import lru_cache

import numpy as np

# The allowed names: elementary functions of numpy, and pi and e.
_SAFE_FUNCTIONS = {name: getattr(np, name) for name in (
    "abs", "sqrt", "cbrt", "exp", "log", "sin", "cos", "tan", "sinh", "cosh", "tanh",
    "arctan", "hypot", "minimum", "maximum", "where", "clip", "sign", "pi", "e")}


# The nodes a formula may hold besides names, calls, constants, comparisons and unary
# operators, which are checked by value, and the comparisons it may make.
_NODES = (ast.Expression, ast.BinOp, ast.keyword, ast.Load, ast.unaryop, ast.operator, ast.cmpop)
_COMPARISONS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def parse_expression(expr: str) -> ast.Expression:
    try:
        return ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {expr!r}: {exc.msg}") from exc


def distance_formula(center) -> str:
    """|x - center| as a formula in the coordinates, each number as its ``repr``."""
    return "sqrt({})".format(" + ".join(
        f"({x} - {c!r})**2" for x, c in zip(point_variables(len(center)), center)))


@lru_cache(maxsize=256)
def compile_expression(expr: str, variables: tuple[str, ...]):
    """Compile ``expr`` into a vectorized callable of the named variables.

    It returns a float array in the shape of its (equal-shaped) arguments, a
    constant formula's broadcast (read-only).  Raises ``ValueError`` for bad
    syntax or a node the rule above refuses, at compile time rather than at
    first evaluation.  Each expression is compiled once per process.
    """
    tree = parse_expression(expr)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refused = node.id not in _SAFE_FUNCTIONS and node.id not in variables
        elif isinstance(node, ast.Call):  # of an allowed function, named
            refused = not callable(_SAFE_FUNCTIONS.get(getattr(node.func, "id", None)))
        elif isinstance(node, ast.Constant):
            refused = type(node.value) not in (int, float)
        elif isinstance(node, ast.Compare):  # ``in``, ``is`` and a chain test an array's truth
            refused = len(node.ops) > 1 or not isinstance(node.ops[0], _COMPARISONS)
        elif isinstance(node, ast.UnaryOp):  # and so does ``not``
            refused = isinstance(node.op, ast.Not)
        else:  # a keyword argument is named: ``**`` has none
            refused = not isinstance(node, _NODES) or getattr(node, "arg", "") is None
        if refused:
            raise ValueError(f"{type(node).__name__} {ast.unparse(node)!r} "
                             f"is not allowed in expression {expr!r}")
    code = compile(tree, "<expression>", "eval")

    def evaluator(*args):
        if len(args) != len(variables):
            raise TypeError(f"expression expects {variables}, got {len(args)} arguments")
        # numpy attributes a warning to the globals' ``__name__``: this module's.
        value = np.asarray(eval(code, {"__builtins__": {}, "__name__": __name__},
                                {**_SAFE_FUNCTIONS, **dict(zip(variables, args))}), dtype=float)
        shape = np.shape(args[0])
        return value if value.shape == shape else np.broadcast_to(value, shape)

    return evaluator


def evaluate_expression(expr: str, points: np.ndarray) -> np.ndarray:
    """``expr`` at points of shape (..., N), in the variables of R^N, as an array
    of shape (...); a constant formula is broadcast to it (read-only)."""
    return compile_expression(expr, point_variables(points.shape[-1]))(*np.moveaxis(points, -1, 0))


def point_variables(ndim: int) -> tuple[str, ...]:
    """Coordinate variable names for expressions over R^ndim: x, y, z, x4, ..."""
    names = ["x", "y", "z"]
    if ndim <= 3:
        return tuple(names[:ndim])
    return tuple(names + [f"x{i + 1}" for i in range(3, ndim)])
