"""What each import loads.

The package ``__init__`` imports no submodule, so a caller loads only the
modules it uses.  The modules form a stack: each imports only from lower
layers.  Each case that loads modules starts a fresh interpreter: in this
one the test suite has imported every module already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SUBMODULES = sorted(
    f"vncalc.{p.stem}" for p in (SRC / "vncalc").glob("*.py") if not p.stem.startswith("__")
)


def fresh_value(statement: str, expression: str):
    """The value, through JSON, of expression in a fresh interpreter that
    has run statement."""
    probe = f"import json, sys\n{statement}\nprint(json.dumps({expression}))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded_after(statement: str) -> set[str]:
    """The names in ``sys.modules`` of a fresh interpreter that has run statement."""
    return set(fresh_value(statement, "sorted(sys.modules)"))


def package_modules(names: set[str]) -> set[str]:
    return {name for name in names if name == "vncalc" or name.startswith("vncalc.")}


# The layers of the package, from the bottom up; the ``__init__``
# docstring states the same stack.
RANK = {
    "errors": 0,
    "words": 1,
    "element": 2,
    "constructions": 3,
    "search": 3,
    "render": 3,
    "expressions": 4,
    "verify": 4,
    "cli": 5,
    "__main__": 6,
}


def relative_imports(path: Path) -> set[str]:
    """The submodules that a source file imports relatively, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
            found.update(names)
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in (SRC / "vncalc").glob("*.py")} - {"__init__"}
    assert modules == set(RANK)


def test_each_module_imports_only_from_lower_layers():
    upward = [
        f"{path.stem} -> {target}"
        for path in sorted((SRC / "vncalc").glob("*.py"))
        if path.stem != "__init__"
        for target in sorted(relative_imports(path))
        if RANK[target] >= RANK[path.stem]
    ]
    assert upward == []


def test_the_package_imports_no_submodule():
    assert package_modules(loaded_after("import vncalc")) == {"vncalc"}


def test_the_element_kernel_loads_only_what_it_imports():
    loaded = loaded_after("import vncalc.element")
    assert package_modules(loaded) == {"vncalc", "vncalc.errors", "vncalc.words", "vncalc.element"}
    # The Kraft-sum message reduces its fraction with math.gcd.
    assert not {"fractions", "decimal"} & loaded


def test_the_cli_still_loads_every_module_it_uses():
    assert package_modules(loaded_after("import vncalc.cli")) == {"vncalc", *SUBMODULES}


def test_the_element_kernel_loads_no_dataclass_machinery():
    """The record classes are written out, so no class code is generated at
    import and ``dataclasses``, with the ``inspect`` it imports, stays out."""
    assert not {"dataclasses", "inspect"} & loaded_after("import vncalc.element")


@pytest.mark.parametrize("module", ["vncalc.constructions", "vncalc.expressions"])
def test_the_constructions_load_no_search_layer(module):
    """``search`` is a sibling of ``constructions``, so neither it nor the
    ``dataclasses`` and ``inspect`` that its ``Ball`` needs are loaded."""
    assert not {"vncalc.search", "dataclasses", "inspect"} & loaded_after(f"import {module}")


def test_the_cli_decorates_only_ball_as_a_dataclass():
    """``search.Ball`` stays a dataclass, for callers of ``dataclasses.replace``;
    every other record class is written out."""
    counting = (
        "import dataclasses\n"
        "decorated = []\n"
        "plain = dataclasses.dataclass\n"
        "def counting(cls=None, **flags):\n"
        "    def wrap(cls):\n"
        "        decorated.append(f'{cls.__module__}.{cls.__qualname__}')\n"
        "        return plain(cls, **flags)\n"
        "    return wrap if cls is None else wrap(cls)\n"
        "dataclasses.dataclass = counting\n"
        "import vncalc.cli"
    )
    assert fresh_value(counting, "decorated") == ["vncalc.search.Ball"]
