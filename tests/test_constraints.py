"""The package's fixed constraints, read from its source: every import is
from the standard library or the package itself, the arithmetic is exact
(no float, no ``math`` function other than the integer ones, true division
only of a Fraction), an internal error is raised as ``SurfbraidError``, and
every name the package exports has a caller."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "surfbraid").glob("*.py"))
# the functions of math that take and return integers
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def violations(source: str) -> list[str]:
    """Each place in ``source`` that breaks a constraint, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", None)
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            modules = []
        for module in modules:
            top = module.split(".")[0]
            if top not in sys.stdlib_module_names and top != "surfbraid":
                found.append(f"line {line}: import of {module}")
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {line}: literal {node.value!r}")
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "math" and node.attr not in INTEGER_MATH:
            found.append(f"line {line}: math.{node.attr}")
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(f"line {line}: math.{alias.name}" for alias in node.names
                         if alias.name not in INTEGER_MATH)
        if isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {line}: the name float")
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            found.append(f"line {line}: /=")
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and not (
            isinstance(node.left, ast.Call) and isinstance(node.left.func, ast.Name)
            and node.left.func.id == "Fraction"
        ):
            found.append(f"line {line}: true division of {ast.unparse(node.left)}")
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            message = node.exc.args[0]
            if isinstance(message, ast.JoinedStr) and message.values:
                message = message.values[0]
            if isinstance(message, ast.Constant) and str(message.value).startswith("internal error") \
                    and ast.unparse(node.exc.func) != "SurfbraidError":
                found.append(f"line {line}: internal error raised as {ast.unparse(node.exc.func)}")
    return found


def test_every_module_is_read():
    assert len(SOURCES) >= 10 and any(p.name == "__init__.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_keeps_the_constraints(path):
    assert violations(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "import numpy",
    "import os, sympy.matrices",
    "from hypothesis import given",
    "x = 0.5",
    "x = 1e3",
    "x = 2j",
    "x = float(y)",
    "f = float",
    "x = a / b",
    "x = 1 / Fraction(3)",
    "x = Fraction(a) / b / c",
    "x /= 2",
    "r = math.sqrt(n)",
    "x = math.pi",
    "from math import log",
    "from math import gcd, floor",
    "raise ParameterError('internal error: lost a row')",
    "raise errors.ParseError(f'internal error at {i}')",
])
def test_each_breach_is_found(source):
    assert len(violations(source)) == 1


@pytest.mark.parametrize("source", [
    "from __future__ import annotations",
    "import functools, re",
    "g = math.gcd(a, b) * math.isqrt(n)",
    "from math import comb, lcm",
    "from fractions import Fraction",
    "from .braid import relators",
    "from surfbraid.errors import ParseError",
    "q = Fraction(a) / b",
    "q = a // b",
    "s = 'a 0.5 / b'",
    "raise SurfbraidError('internal error: lost a row')",
    "raise SurfbraidError(f'internal error at {i}')",
    "raise ParameterError('degree must be non-negative')",
    "raise ParameterError",
])
def test_exact_code_passes(source):
    assert violations(source) == []


def exported_names() -> list[str]:
    """Every name ``surfbraid/__init__.py`` imports."""
    tree = ast.parse((ROOT / "src" / "surfbraid" / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def module_references(source: str) -> set[str]:
    """The names and attributes read in a module, each outside the
    top-level def or class of that name."""
    found = set()
    for stmt in ast.parse(source).body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name is not None and name != own:
                found.add(name)
    return found


def uncalled(exports, modules, scripts) -> list[str]:
    """The exports that no module source reads and no script (a demo or
    the benchmark, which also rebinds the package's functions by
    attribute-name strings) names as a whole word."""
    used = set().union(*map(module_references, modules))
    used |= {word for text in scripts for word in re.findall(r"\w+", text)}
    return [name for name in exports if name not in used]


def test_every_export_has_a_caller():
    # a public name that no module, demo or benchmark calls is code that
    # only its own tests run
    modules = [path.read_text() for path in SOURCES if path.name != "__init__.py"]
    scripts = [path.read_text() for pattern in ("demos/*.py", "bench/*.py")
               for path in ROOT.glob(pattern)]
    assert len(exported_names()) > 50
    assert uncalled(exported_names(), modules, scripts) == []


@pytest.mark.parametrize("modules, scripts", [
    ([], []),
    (["def f(n):\n    return f(n - 1)"], []),
    (["class f:\n    def m(self):\n        return f()"], []),
    (["def g():\n    pass"], ["print('fx', f_)"]),
    (["# f is called nowhere\nx = 'f'"], []),
])
def test_an_uncalled_export_is_found(modules, scripts):
    assert uncalled(["f"], modules, scripts) == ["f"]


@pytest.mark.parametrize("modules, scripts", [
    (["def f():\n    pass\n\ndef g():\n    return f()"], []),
    (["import m\nh = m.f"], []),
    ([], ["from surfbraid import f"]),
    ([], ["setattr(surfbraid, 'f', traced)"]),
])
def test_a_called_export_passes(modules, scripts):
    assert uncalled(["f"], modules, scripts) == []
