"""Restricted evaluation of closed-form expressions from config files.

Domains, weights and nonlinearities may be given as expression strings
(e.g. ``"cbrt(1 - r**2)"``).  They are evaluated against numpy arrays in a
namespace that exposes only elementary math, so a configuration file cannot
reach arbitrary Python.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_SAFE_FUNCTIONS = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "cbrt": np.cbrt,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "arctan": np.arctan,
    "hypot": np.hypot,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "where": np.where,
    "clip": np.clip,
    "sign": np.sign,
    "pi": np.pi,
    "e": np.e,
}


@lru_cache(maxsize=256)
def compile_expression(expr: str, variables: tuple[str, ...]):
    """Compile ``expr`` into a vectorized callable of the named variables.

    Raises ``ValueError`` for bad syntax, a lambda or comprehension, or a name
    that is neither a variable nor an allowed function, at compile time rather
    than at first evaluation.  Each expression is compiled once per process.
    """
    try:
        code = compile(expr, "<expression>", "eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {expr!r}: {exc.msg}") from exc
    for name in code.co_names:
        if name not in _SAFE_FUNCTIONS and name not in variables:
            raise ValueError(f"name {name!r} is not allowed in expression {expr!r}")
    if any(isinstance(c, type(code)) for c in code.co_consts):  # its names are not in co_names
        raise ValueError(f"lambdas and comprehensions are not allowed in expression {expr!r}")

    def evaluator(*args):
        if len(args) != len(variables):
            raise TypeError(f"expression expects {variables}, got {len(args)} arguments")
        ns = dict(zip(variables, args))
        return eval(code, {"__builtins__": {}}, {**_SAFE_FUNCTIONS, **ns})

    return evaluator


def evaluate_expression(expr: str, points: np.ndarray) -> np.ndarray:
    """``expr`` at points of shape (..., N), in the variables of R^N."""
    evaluator = compile_expression(expr, point_variables(points.shape[-1]))
    return np.asarray(evaluator(*np.moveaxis(points, -1, 0)), dtype=float)


def point_variables(ndim: int) -> tuple[str, ...]:
    """Coordinate variable names for expressions over R^ndim: x, y, z, x4, ..."""
    names = ["x", "y", "z"]
    if ndim <= 3:
        return tuple(names[:ndim])
    return tuple(names + [f"x{i + 1}" for i in range(3, ndim)])
