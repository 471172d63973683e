"""Every public name the package defines is used by the program, or is
listed with a reason in the README's ``## Python API`` section.

A public function, method or class of ``src/vncalc`` counts as used only
when code in ``src/vncalc`` other than ``__init__.py``, or in
``perfbench/``, refers to it: a re-export or a test alone keeps nothing
alive.  A name that only tests or the re-export use must be listed in
the README's ``## Python API`` section, one ``- `name`: reason`` line
each, and the list names nothing else.  Uses are read from each file's
syntax tree (names, attributes and imports, also inside f-strings), so a
mention in a docstring or a comment does not count.  The search is by
name, not by binding: another definition or attribute of the same name
counts as a use.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vncalc"
README = ROOT / "README.md"

_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_API_ENTRY = re.compile(r"- `([A-Za-z_][A-Za-z0-9_.]*)`: (\S.*)")


def public_definitions() -> set[tuple[str, str]]:
    """(qualified name, name) for the package's module-level functions and
    classes and the methods of its module-level classes."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, _DEFINITION) or node.name.startswith("_"):
                continue
            found.add((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFINITION) and not item.name.startswith("_"):
                        found.add((f"{node.name}.{item.name}", item.name))
    return found


def referenced_names(path: Path) -> set[str]:
    """Every name, attribute and imported name the file's code refers to."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def program_files():
    """The library and the benchmark, without the package's re-exports."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield path
    yield from sorted((ROOT / "perfbench").rglob("*.py"))


def unused_definitions() -> set[str]:
    """Qualified public names of ``src/vncalc`` that no program file refers to."""
    uses = set().union(*map(referenced_names, program_files()))
    return {qualified for qualified, name in public_definitions() if name not in uses}


def listed_api() -> dict[str, str]:
    """The README's ``## Python API`` entries: qualified name -> reason."""
    _, _, section = README.read_text().partition("\n## Python API\n")
    section = section.split("\n## ", 1)[0]
    entries = {}
    for line in section.splitlines():
        if line.startswith("- "):
            match = _API_ENTRY.fullmatch(line)
            assert match, f"Python API entry without a one-line reason: {line!r}"
            entries[match[1]] = match[2]
    return entries


def test_uses_are_read_from_code_and_f_strings_not_prose(tmp_path):
    """A call made only inside an f-string counts; a docstring or a comment
    that names a function does not."""
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Mentions refine."""\n'
        "# expand_to_level\n"
        'print(f"{report.verdict_text()} {w.parent()}")\n'
    )
    assert referenced_names(source) == {"print", "report", "verdict_text", "w", "parent"}


def test_every_public_name_is_used_or_listed_with_a_reason():
    unused = unused_definitions()
    listed = listed_api()
    defined = {qualified for qualified, _ in public_definitions()}
    unlisted = sorted(unused - listed.keys())
    assert not unlisted, f"only tests or the re-export use these; delete or list them: {unlisted}"
    undefined = sorted(listed.keys() - defined)
    assert not undefined, f"the README's Python API lists undefined names: {undefined}"
    in_use = sorted(listed.keys() - unused)
    assert not in_use, f"the README's Python API lists names the program uses: {in_use}"
