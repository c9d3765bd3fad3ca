"""Flat key/value configuration files and the expression grammar.

A config file holds one ``key = value`` pair per line; ``#`` starts a
comment.  ``id = exN`` expands a built-in example, and any further keys
override its fields.  Function-valued entries (sigma, alpha, source, f_left,
f_right, initial) use a small expression grammar over the variable (``x`` or
``v``), numeric constants, ``+ - * / ^``, parentheses, and

    piecewise(b1, b2, ... ; e1, e2, ..., e_last)

which evaluates e_i on [b_{i-1}, b_i) and e_last from the final breakpoint on
(right-continuous at the breaks).
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

from .errors import ConfigError
from .experiments import ExperimentSpec, builtin_spec

__all__ = ["compile_expression", "load_config"]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),;]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ConfigError(f"cannot tokenize expression at ...{text[pos:pos+12]!r}")
        pos = m.end()
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num"))))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", None))
    return tokens


class _Parser:
    """Recursive descent over: expr := term (+|- term)*; term := unary (*|/ unary)*;
    unary := [-+] unary | power; power := atom [^ unary]."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ConfigError(f"expected {value or kind}, found {tok[1]!r}")
        if value is not None and tok[1] != value:
            raise ConfigError(f"expected {value!r}, found {tok[1]!r}")
        self.i += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ConfigError(f"unexpected trailing token {self.peek()[1]!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.unary())
        if self.peek() == ("op", "+"):
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            return ("pow", node, self.unary())
        return node

    def atom(self):
        kind, val = self.peek()
        if kind == "num":
            self.take()
            return ("const", val)
        if kind == "name":
            self.take()
            if val in ("x", "v"):
                return ("var",)
            if val == "piecewise":
                return self.piecewise()
            raise ConfigError(f"unknown identifier {val!r} (only x, v, piecewise allowed)")
        if (kind, val) == ("op", "("):
            self.take()
            node = self.expr()
            self.take("op", ")")
            return node
        raise ConfigError(f"unexpected token {val!r}")

    def piecewise(self):
        self.take("op", "(")
        breaks = [self.expr()]
        while self.peek() == ("op", ","):
            self.take()
            breaks.append(self.expr())
        self.take("op", ";")
        exprs = [self.expr()]
        while self.peek() == ("op", ","):
            self.take()
            exprs.append(self.expr())
        self.take("op", ")")
        if len(exprs) != len(breaks) + 1:
            raise ConfigError(
                f"piecewise needs one more expression ({len(exprs)}) than breakpoints ({len(breaks)})")
        return ("piecewise", breaks, exprs)


def _evaluate(node, t):
    op = node[0]
    if op == "const":
        return node[1]
    if op == "var":
        return t
    if op == "neg":
        return -_evaluate(node[1], t)
    if op == "add":
        return _evaluate(node[1], t) + _evaluate(node[2], t)
    if op == "sub":
        return _evaluate(node[1], t) - _evaluate(node[2], t)
    if op == "mul":
        return _evaluate(node[1], t) * _evaluate(node[2], t)
    if op == "div":
        return _evaluate(node[1], t) / _evaluate(node[2], t)
    if op == "pow":
        return _evaluate(node[1], t) ** _evaluate(node[2], t)
    if op == "piecewise":
        breaks = [_evaluate(b, t) for b in node[1]]
        vals = [_evaluate(e, t) for e in node[2]]
        out = np.asarray(vals[-1], dtype=float) + np.zeros_like(np.asarray(t, dtype=float))
        for b, v in zip(reversed(breaks), reversed(vals[:-1])):
            out = np.where(np.asarray(t) < b, v, out)
        return out if out.ndim else float(out)
    raise ConfigError(f"unknown node {op!r}")


def compile_expression(text: str) -> Callable[[float], float]:
    """Compile an expression of one variable (spelled ``x`` or ``v``)."""
    node = _Parser(_tokenize(text)).parse()

    def fn(t):
        return _evaluate(node, t)

    fn.expression = text
    return fn


_FUNCTION_KEYS = ("sigma", "alpha", "source", "f_left", "f_right", "initial")
_FLOAT_KEYS = ("eps", "x_min", "x_max", "cfl", "theta_lim", "dt_override", "kernel_constant")
_INT_KEYS = ("quadrature",)
_STR_KEYS = ("scheme", "bc_mode", "reconstruction", "quad_kind", "collision", "diffusion_solver")
_ALIASES = {
    "bc": "bc_mode",
    "quad": "quadrature",
    "g": "source",
}


def _parse_lines(path: str):
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if not key or not value:
                raise ConfigError(f"{path}:{lineno}: empty key or value")
            entries[_ALIASES.get(key, key)] = (value, lineno)
    return entries


def load_config(path: str) -> ExperimentSpec:
    """Load and validate an experiment configuration file."""
    entries = _parse_lines(path)
    overrides = {}
    run_id = "custom"
    if "id" in entries:
        run_id = entries.pop("id")[0]

    for key, (value, lineno) in entries.items():
        try:
            if key in _FUNCTION_KEYS:
                fn = compile_expression(value)
                try:
                    probe = fn(0.5)
                except ZeroDivisionError as exc:
                    raise ConfigError(f"division by zero at the domain midpoint: {exc}")
                if not np.isfinite(probe):
                    raise ConfigError("expression is not finite on the domain")
                overrides[key] = fn
            elif key in _FLOAT_KEYS:
                overrides[key] = float(value)
            elif key in _INT_KEYS:
                overrides[key] = int(value)
            elif key in _STR_KEYS:
                overrides[key] = value
            elif key == "times":
                overrides[key] = tuple(float(v) for v in value.split(","))
            elif key == "cells":
                overrides[key] = tuple(int(v) for v in value.split(","))
            elif key == "kernel":
                kind, _, arg = value.partition(":")
                if kind.strip() != "isotropic":
                    raise ConfigError("kernel must be 'isotropic:<constant>' or use kernel_file")
                overrides["collision"] = "penalized"
                overrides["kernel_constant"] = float(arg)
            elif key == "kernel_file":
                table = np.genfromtxt(value, delimiter=",")
                overrides["collision"] = "penalized"
                overrides["kernel_table"] = table
            else:
                raise ConfigError(f"unknown key {key!r}")
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None
        except (ValueError, OSError) as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None

    try:
        if run_id != "custom":
            spec = builtin_spec(run_id, **overrides)
        else:
            if "eps" not in overrides or "sigma" not in overrides:
                raise ConfigError("custom runs must set at least eps and sigma")
            spec = ExperimentSpec(id=run_id, **overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    _validate_spec_functions(spec, path)
    if any(t <= 0 for t in spec.times):
        raise ConfigError(f"{path}: times: output times must be positive")
    return spec


def _validate_spec_functions(spec: ExperimentSpec, path: str) -> None:
    xs = np.linspace(spec.x_min, spec.x_max, 7)
    for name in ("sigma", "alpha", "source", "initial"):
        fn = getattr(spec, name)
        if callable(fn):
            vals = np.array([float(fn(x)) for x in xs])
            if not np.all(np.isfinite(vals)):
                raise ConfigError(f"{path}: {name}: not finite on the domain")
            if name in ("sigma", "alpha") and np.any(vals < 0):
                raise ConfigError(f"{path}: {name}: negative on the domain")
