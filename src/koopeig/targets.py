"""Tiny expression language for target observables and data functions.

Deliberately limited to named builtins instead of a general parser:
sums of terms, where a term is a number, a scaled monomial in x1/x2 (or in
the manifold parameter s), a gaussian bump, or sin/cos of the parameter.

Examples accepted for targets:     "gaussian(3, 10)", "x1^2*x2", "2*x2 + 1"
Examples accepted for data h(s):   "1", "s", "s^2", "0.5*s + 2", "sin(s)"

The parsed functions take batches: a target maps a (d, N) array of states
to (N,) complex values, and a data function maps an (N,) array of
parameters to (N,) complex values. A value that is not finite (``s^-1`` at
s = 0) is a ConfigError naming the expression's field.
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

from .errors import ConfigError

__all__ = ["parse_target", "parse_data_fn"]

_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_GAUSSIAN = re.compile(r"^gaussian\(\s*([^,]+)\s*,\s*([^)]+)\s*\)$")
_POWER = re.compile(r"^(?P<var>[a-zA-Z]\w*)(\^(?P<pow>[+-]?\d+\.?\d*))?$")
_TRIG = re.compile(r"^(?P<fn>sin|cos)\(\s*(?P<var>[a-zA-Z]\w*)\s*\)$")
# A "+" between terms: not the sign of an exponent, as in 1e+3 or x1^+2.
_PLUS = re.compile(r"(?<![\d.][eE])(?<!\^)\+")


def _number(token: str, where: str) -> float:
    if not _NUMBER.match(token):
        raise ConfigError(f"expected a number, got {token!r}", field=where)
    return float(token)


def _variable(var: str, variables: dict, where: str):
    if var not in variables:
        raise ConfigError(f"unknown variable {var!r}", field=where)
    return variables[var]


def _parse_factor(token: str, variables: dict, where: str) -> Callable[[np.ndarray], np.ndarray]:
    """The factor as a function of the batch: a number, sin/cos or a power of a variable."""
    token = token.strip()
    if _NUMBER.match(token):
        c = float(token)
        return lambda x: c
    m = _TRIG.match(token)
    if m:
        fn = np.sin if m.group("fn") == "sin" else np.cos
        idx = _variable(m.group("var"), variables, where)
        return lambda x: fn(x[idx])
    m = _POWER.match(token)
    if m:
        idx = _variable(m.group("var"), variables, where)
        p = float(m.group("pow")) if m.group("pow") else 1.0
        return lambda x: np.power(x[idx].astype(complex), p)
    raise ConfigError(f"cannot parse factor {token!r}", field=where)


def _parse_term(term: str, variables: dict, where: str) -> Callable[[np.ndarray], np.ndarray]:
    term = term.strip()
    if not term:
        raise ConfigError("empty term", field=where)
    m = _GAUSSIAN.match(term)
    if m:
        amp = _number(m.group(1).strip(), where)
        width = _number(m.group(2).strip(), where)
        if width <= 0:
            raise ConfigError("gaussian width must be positive", field=where)
        return lambda x: amp * np.exp(-sum(np.square(x[idx]) for idx in variables.values()) / width)

    tokens = term.split("*")
    if not all(token.strip() for token in tokens):
        hint = "; powers are written with ^, not **" if "**" in term else ""
        raise ConfigError(f"empty factor in term {term!r}{hint}", field=where)
    factors = [_parse_factor(token, variables, where) for token in tokens]

    def evaluate(x):
        out = 1.0 + 0.0j
        for factor in factors:
            out = out * factor(x)
        return out

    return evaluate


def _parse_sum(expr: str, variables: dict, where: str) -> Callable[[np.ndarray], np.ndarray]:
    """The sum of the expression's terms; ``variables`` maps each name to its
    index into the argument."""
    if not isinstance(expr, str) or not expr.strip():
        raise ConfigError("expression must be a non-empty string", field=where)
    terms = [_parse_term(t, variables, where) for t in _PLUS.split(expr)]
    index = next(iter(variables.values()))  # any variable has the batch's shape

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.broadcast_to(sum(t(x) for t in terms), x[index].shape).astype(complex)
        if not np.all(np.isfinite(out)):
            raise ConfigError(f"{expr!r} is not finite at every sample", field=where)
        return out

    return evaluate


def parse_target(expr: str, dim: int = 2, where: str = "target") -> Callable[[np.ndarray], np.ndarray]:
    """Observable q(x) over the state space: (d, N) states to (N,) values."""
    variables = {f"x{i + 1}": i for i in range(dim)}
    return _parse_sum(expr, variables, where)


def parse_data_fn(expr: str, where: str = "h") -> Callable[[np.ndarray], np.ndarray]:
    """Data function h(s) over the manifold parameter: (N,) parameters to (N,) values."""
    # The parameter is the whole argument: x[...] is x itself.
    return _parse_sum(expr, {"s": ...}, where)
