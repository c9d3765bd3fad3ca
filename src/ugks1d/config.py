"""Flat key/value configuration files and the expression grammar.

A config file holds one ``key = value`` pair per line; ``#`` starts a
comment.  ``id = exN`` expands a built-in example, and any further keys
override its fields.  Function-valued entries (sigma, alpha, source, f_left,
f_right, initial) use a small expression grammar over the variable (``x`` or
``v``), numeric constants, ``+ - * / ^``, parentheses, and

    piecewise(b1, b2, ... ; e1, e2, ..., e_last)

which evaluates e_i on [b_{i-1}, b_i) and e_last from the final breakpoint on
(right-continuous at the breaks).

Python's parser reads the grammar.  ``_TOKEN_RE`` gates the text, and its
tokens are spelled as Python: numbers as float literals, ``v`` as ``x``, ``^``
as ``**`` (which binds tighter than unary minus and groups to the right) and
``piecewise(b...; e...)`` as ``piecewise((b...,), (e...,))``.  Any parsed node
but ``+ - * / **``, unary ``+ -``, a float, ``x`` and a piecewise call on
tuples of n and n + 1 items is a ConfigError; the rest runs with no builtins.
"""

from __future__ import annotations

import ast
import re
from typing import Callable

import numpy as np

from .errors import ConfigError, InvalidKernelError
from .experiments import ExperimentSpec, _build_quadrature, _operator, builtin_spec

__all__ = ["compile_expression", "load_config"]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),;]))"
)
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _as_python(text: str) -> str:
    """Spell the expression's tokens as Python source, one space apart so
    that no two tokens merge (``* *`` stays two tokens, not ``**``)."""
    out, closers = [], []   # closers: what each open parenthesis closes with
    pos = 0
    while text[pos:].strip():
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ConfigError(f"cannot tokenize expression at ...{text[pos:pos+12]!r}")
        pos = m.end()
        num, name, op = m.group("num", "name", "op")
        if num is not None:
            out.append(num + "." if num.isdigit() else num)
        elif name is not None:
            if name not in ("x", "v", "piecewise"):
                raise ConfigError(f"unknown identifier {name!r} (only x, v, piecewise allowed)")
            out.append("piecewise" if name == "piecewise" else "x")
        elif op == "(":
            closers.append(",))" if out[-1:] == ["piecewise"] else ")")
            out.append("((" if closers[-1] == ",))" else "(")
        elif op == ")":
            out.append(closers.pop() if closers else ")")
        elif op == ";":
            if closers[-1:] != [",))"]:
                raise ConfigError("';' outside piecewise(...)")
            out.append(",), (")
        else:
            out.append("**" if op == "^" else op)
    return " ".join(out)


def _check(tree: ast.Expression) -> None:
    """Raise ConfigError at the first node outside the grammar's whitelist."""
    held = set()   # a piecewise call's name and its two tuples
    for node in ast.walk(tree.body):   # breadth first: a call before its arguments
        if id(node) in held:
            continue
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id == "piecewise"
                    and not node.keywords and len(node.args) == 2
                    and all(isinstance(a, ast.Tuple) for a in node.args)):
                raise ConfigError("only piecewise(b1, ... ; e1, ...) may be called")
            breaks, exprs = (len(a.elts) for a in node.args)
            if exprs != breaks + 1:
                raise ConfigError(
                    f"piecewise needs one more expression ({exprs}) than breakpoints ({breaks})")
            held.update(map(id, (node.func, *node.args)))
        elif not (isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS)
                  or isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub))
                  or isinstance(node, ast.Constant) and type(node.value) is float
                  or isinstance(node, ast.Name) and node.id == "x"
                  or isinstance(node, (ast.operator, ast.unaryop, ast.expr_context))):
            raise ConfigError(f"not in the expression grammar: {ast.unparse(node)!r}")


def _piecewise(t, breaks, vals):
    out = np.asarray(vals[-1], dtype=float) + np.zeros_like(np.asarray(t, dtype=float))
    for b, v in zip(reversed(breaks), reversed(vals[:-1])):
        out = np.where(np.asarray(t) < b, v, out)
    return out if out.ndim else float(out)


def compile_expression(text: str) -> Callable[[float], float]:
    """Compile an expression of one variable (spelled ``x`` or ``v``)."""
    try:
        tree = ast.parse(_as_python(text), mode="eval")
        _check(tree)
        code = compile(tree, "<config expression>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):   # Python's parser and compiler recurse on the nesting depth
        raise ConfigError("expression nested too deeply") from None

    def fn(t):
        return eval(code, {"__builtins__": {}, "x": t,
                           "piecewise": lambda breaks, vals: _piecewise(t, breaks, vals)})

    return fn


_FUNCTION_KEYS = ("sigma", "alpha", "source", "f_left", "f_right", "initial")
_FLOAT_KEYS = ("eps", "x_min", "x_max", "cfl", "dt_override", "kernel_constant")
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
                overrides[key] = compile_expression(value)
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
        except (ConfigError, ValueError, OSError) as exc:
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
    if spec.collision == "penalized":   # the run's operator: a bad kernel fails before any sampling
        key = next(k for k in ("kernel_file", "kernel", "kernel_constant") if k in entries)
        try:
            _operator(spec, _build_quadrature(spec))
        except InvalidKernelError as exc:
            raise ConfigError(f"{path}:{entries[key][1]}: {key}: {exc}") from None
    return spec


def _validate_spec_functions(spec: ExperimentSpec, path: str) -> None:
    """Each function must give a finite real number at seven points across
    the domain (an inflow at v = 0.5), and sigma and alpha no negative one."""
    xs = np.linspace(spec.x_min, spec.x_max, 7).tolist()   # Python floats raise, not warn
    for name in _FUNCTION_KEYS:
        fn = getattr(spec, name)
        if not callable(fn):
            continue
        try:
            vals = np.array([float(fn(p)) for p in ((0.5,) if name.startswith("f_") else xs)])
        except (ArithmeticError, TypeError) as exc:   # a zero division, an overflow, a complex power
            raise ConfigError(f"{path}: {name}: not a finite real number on the domain: {exc}") from None
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"{path}: {name}: not a finite real number on the domain")
        if name in ("sigma", "alpha") and np.any(vals < 0):
            raise ConfigError(f"{path}: {name}: negative on the domain")
