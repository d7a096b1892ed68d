"""Checks on the package source itself, read with ``ast``, and on its imports."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "uatest"


def unread_parameters(source: str) -> list[tuple[int, str, str]]:
    """(line, function, parameter) of every function parameter that the
    function's body never reads; ``self``, ``cls`` and dunder methods are
    exempt. A nested function's reads count for the functions around it."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(node.lineno, node.name, p) for p in params
                   if p not in ("self", "cls") and p not in read]
    return unread


def test_unread_parameters_are_found():
    source = ("def f(a, b, *args, c, **kw):\n    return a + kw['x']\n"
              "class C:\n    def m(self, x):\n        pass\n    def __exit__(self, *exc):\n        pass\n"
              "def outer(n):\n    def inner():\n        return n\n    return inner\n")
    assert unread_parameters(source) == [(1, "f", "b"), (1, "f", "c"), (1, "f", "args"),
                                         (4, "m", "x")]


def test_every_function_parameter_is_read():
    unread = [f"{path.name}:{line} {func}({param})" for path in sorted(SRC.glob("*.py"))
              for line, func, param in unread_parameters(path.read_text())]
    assert unread == []


def unreferenced_private(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(file, line, name) of every function, method and class of ``sources``
    (source text by file name) whose name starts with a single ``_`` and
    that no name, attribute or import in any of them reads."""
    defined, read = [], set()
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((file, node.lineno, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [d for d in defined if d[2] not in read]


def test_unreferenced_private_definitions_are_found():
    a = ("def _called():\n    pass\ndef _dead():\n    pass\n"
         "class _Dead:\n    def _method(self):\n        pass\n    def __init__(self):\n"
         "        _called()\n"
         "def _imported():\n    pass\ndef public():\n    pass\n")
    b = "from a import _imported\nx._method()\n"
    assert unreferenced_private({"a.py": a, "b.py": b}) == [("a.py", 3, "_dead"),
                                                            ("a.py", 5, "_Dead")]


def test_every_private_definition_is_referenced():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [f"{file}:{line} {name}" for file, line, name in unreferenced_private(sources)] == []


def private_imports(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(file, line, name) of every name starting with a single ``_`` that a
    ``from ... import`` of ``sources`` (source text by file name) imports
    from another module."""
    return [(file, node.lineno, alias.name) for file, source in sources.items()
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


def test_private_imports_are_found():
    a = ("from __future__ import annotations\nfrom .b import _hidden, shown\n"
         "from .c import (\n    _other as other,\n    __version__,\n)\nimport _thread\n")
    assert private_imports({"a.py": a, "b.py": "def _hidden():\n    pass\n"}) == [
        ("a.py", 2, "_hidden"), ("a.py", 3, "_other")]


def test_no_module_imports_a_private_name():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [f"{file}:{line} {name}" for file, line, name in private_imports(sources)] == []


def test_cli_import_leaves_out_scipy_stats():
    # the runtime needs numpy only: importing scipy would cost every run more
    # time and memory than its tests; scipy is the tests' reference
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    for module in ("uatest", "uatest.cli"):
        code = (f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]", (module, out.stdout)


def scipy_imports(source: str) -> list[int]:
    """The line of every ``import`` or ``from ... import`` of ``source`` that
    names scipy or a scipy submodule."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "scipy" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "scipy"]


def test_scipy_imports_are_found():
    source = ("import numpy\nimport scipy\nfrom scipy.special import ndtr\n"
              "import scipy.stats as sps\nfrom . import scipy_like\nfrom scipyx import y\n"
              "def f():\n    from scipy import special\n")
    assert scipy_imports(source) == [2, 3, 4, 8]


def test_no_module_imports_scipy():
    assert [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            for line in scipy_imports(path.read_text())] == []


def test_a_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    # under the project's test settings, which turn warnings into errors, a
    # failing @given test is a failure with its falsifying example, not an
    # INTERNALERROR that ends the session before the next test runs
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
        """))
    out = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
                          "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
                          "test_two.py"], cwd=tmp_path, capture_output=True, text=True)
    report = out.stdout + out.stderr
    assert out.returncode == 1, report
    assert "INTERNALERROR" not in report
    assert "FAILED test_two.py::test_fails" in report
    assert "Falsifying example: test_fails(" in report
    assert out.stdout.strip().splitlines()[-1].startswith("1 failed, 1 passed"), report
