"""Every public name the package defines is used somewhere.

A public function, method or class of ``src/vncalc`` must be named in the
package, the tests or the benchmark outside the line that defines it;
otherwise it is dead code, to be deleted or given a caller.  Names are
matched as whole words, so a name that only appears inside a longer
identifier does not count.  This file is not searched.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vncalc"
SEARCHED = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")

_IDENTIFIER = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")
_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(path: Path):
    """(qualified name, name, def line) for module-level functions and
    classes and the methods of module-level classes."""
    tree = ast.parse(path.read_text(), str(path))
    for node in tree.body:
        if not isinstance(node, _DEFINITION) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFINITION) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno


def test_every_public_name_is_used_outside_its_definition():
    this = Path(__file__).resolve()
    uses: Counter = Counter()
    lines: dict[Path, list[str]] = {}
    for top in SEARCHED:
        for path in sorted(top.rglob("*.py")):
            if path.resolve() == this:
                continue
            text = path.read_text()
            lines[path] = text.splitlines()
            uses.update(_IDENTIFIER.findall(text))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, name, lineno in public_definitions(path):
            on_def_line = _IDENTIFIER.findall(lines[path][lineno - 1]).count(name)
            # The search is by name, not by binding: another definition or
            # attribute of the same name counts as a use.
            if uses[name] <= on_def_line:
                dead.append(f"{path.relative_to(ROOT)}:{lineno} {qualified}")
    assert dead == []
