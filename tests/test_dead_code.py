"""Every definition in ``src/vncalc`` is live: the program needs it, or the
README's ``## Python API`` section lists it with a reason.

A definition is a module-level function, class or assigned name, or a
non-dunder method or property of a module-level class, public or
private.  Liveness spreads from these roots:

- ``perfbench/``;
- the package's module-level code that is neither a definition nor an
  import: decorators, class fields, ``__main__.py`` and the
  ``__name__ == "__main__"`` blocks (so an import in ``__init__`` is not
  a use);
- the names the README's ``## Python API`` lists, one ``- `name`: reason``
  line each.

A live definition makes live what it refers to: a function's signature
and body, a class's bases and dunder methods, an assigned name's value
(such as a ``_memo_* = lru_cache(...)`` line).  Names are resolved as
Python binds them: through the module's own definitions and its
``from ... import`` statements, with a function's parameters and local
variables shadowing both.  ``mod.name`` names a module's definition,
``Class.name`` and ``self.name`` a member of that class.  Any other
``.name`` is matched by name against every class's members, but a
method counts only when it is called, ``.name(...)``, and a property
only when ``.name`` is read: a parameter, a field, a stored attribute or
``self.x.append(...)`` keeps no method alive.  A definition's references
to itself, and a cycle of definitions that only refer to each other,
keep nothing alive.  Uses are read from the syntax tree, so f-strings
count and docstrings and comments do not.

The gate fails on a dead definition, on a listed name that is not
defined, and on a listed name that the program needs without the list.
Since imports are not uses, it also fails on a name that an import
statement binds in a package module other than ``__init__.py`` and that
nothing in that module reads.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vncalc"
README = ROOT / "README.md"

_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITION = (*_FUNCTION, ast.ClassDef)
_API_ENTRY = re.compile(r"- `([A-Za-z_][A-Za-z0-9_.]*)`: (\S.*)")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_property(node) -> bool:
    return any(
        getattr(d, "id", getattr(d, "attr", None)) in ("property", "cached_property")
        for d in node.decorator_list
    )


def _assigned_name(node) -> str | None:
    """The name a module-level ``name = value`` statement defines, if any."""
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        target = node.target
    else:
        return None
    if isinstance(target, ast.Name) and not _is_dunder(target.id):
        return target.id
    return None


def _scope_locals(node) -> set[str]:
    """The names a function or lambda binds itself: its parameters, and the
    names its body stores or defines outside nested functions and classes."""
    args = node.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    todo = list(node.body) if isinstance(node.body, list) else [node.body]
    while todo:
        child = todo.pop()
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Load):
            names.add(child.id)
        if isinstance(child, _DEFINITION):
            names.add(child.name)
        elif not isinstance(child, ast.Lambda):
            todo.extend(ast.iter_child_nodes(child))
    return names


class Program:
    """The package's definitions and the references between them.

    ``package`` is the package's directory; ``roots`` are further files,
    all of whose code is a root, such as the benchmark's.  A definition is
    keyed by (module, qualified name); a package module, where a name
    resolves to one, by its name alone.
    """

    def __init__(self, package: Path, roots=()):
        self.package = package.name
        self.modules = {
            path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(package.glob("*.py"))
        }
        self.definitions: set[tuple[str, str]] = set()
        self.members: dict[str, list[tuple[tuple[str, str], bool]]] = {}
        for module, tree in self.modules.items():
            for node in tree.body:
                name = node.name if isinstance(node, _DEFINITION) else _assigned_name(node)
                if name is None:
                    continue
                self.definitions.add((module, name))
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, _FUNCTION) and not _is_dunder(item.name):
                        key = (module, f"{node.name}.{item.name}")
                        self.definitions.add(key)
                        self.members.setdefault(item.name, []).append((key, _is_property(item)))
        self.imports = {module: self._imports(tree) for module, tree in self.modules.items()}
        self.edges: dict[tuple[str, str] | None, set[tuple[str, str]]] = {None: set()}
        for module, tree in self.modules.items():
            self._read_module(module, tree)
        for path in roots:
            tree = ast.parse(path.read_text(), str(path))
            self._refer(None, str(path), self._imports(tree), tree.body)

    # -- reading ---------------------------------------------------------

    def _imports(self, tree) -> dict[str, set]:
        """Name -> what the file's ``from ... import`` statements, anywhere
        in it, bind the name to in the package: a module's name, or
        (module, imported name)."""
        bound: dict[str, set] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                module = node.module or ""
            elif node.module == self.package or (node.module or "").startswith(self.package + "."):
                module = node.module[len(self.package) + 1 :]
            else:
                continue
            for alias in node.names:
                if not module and alias.name in self.modules:
                    target = alias.name
                else:
                    target = (module or "__init__", alias.name)
                bound.setdefault(alias.asname or alias.name, set()).add(target)
        return bound

    def _read_module(self, module: str, tree) -> None:
        imports = self.imports[module]
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            name = _assigned_name(node)
            if name is not None:
                self._refer((module, name), module, imports, [node])
                continue
            if not isinstance(node, _DEFINITION):
                self._refer(None, module, imports, [node])
                continue
            key = (module, node.name)
            self._refer(None, module, imports, node.decorator_list)
            if isinstance(node, _FUNCTION):
                self._refer(key, module, imports, function=node)
                continue
            self._refer(key, module, imports, [*node.bases, *node.keywords])
            for item in node.body:
                if not isinstance(item, _FUNCTION):
                    self._refer(None, module, imports, [item], cls=node.name)
                    continue
                self._refer(None, module, imports, item.decorator_list, cls=node.name)
                owner = key if _is_dunder(item.name) else (module, f"{node.name}.{item.name}")
                self._refer(owner, module, imports, function=item, cls=node.name)

    def _refer(self, owner, module, imports, nodes=(), function=None, cls=None) -> None:
        """Add what ``nodes``, and ``function``'s signature and body, refer to
        as uses by ``owner`` (``None`` for a root)."""
        refs = _References(self, module, imports, cls)
        for node in nodes:
            refs.visit(node)
        if function is not None:
            refs.function(function)
        self.edges.setdefault(owner, set()).update(refs.found)

    # -- resolving -------------------------------------------------------

    def resolve(self, module: str, name: str, imports) -> set:
        """What a free name in the module refers to: definitions and modules."""
        if (module, name) in self.definitions:
            return {(module, name)}
        out = set()
        for target in imports.get(name, ()):
            if isinstance(target, str):
                out.add(target)
            elif target[0] in self.modules:
                out |= self.resolve(*target, self.imports[target[0]])
        return out

    def member(self, owner, attr: str) -> set[tuple[str, str]]:
        """The definitions ``owner.attr`` names, for a module or a class."""
        if isinstance(owner, str):
            found = self.resolve(owner, attr, self.imports[owner])
            return {key for key in found if not isinstance(key, str)}
        return {(owner[0], f"{owner[1]}.{attr}")} & self.definitions

    # -- liveness --------------------------------------------------------

    def live(self, listed=()) -> set[tuple[str, str]]:
        """The definitions reachable from the roots and the listed names."""
        listed = set(listed)
        seen: set[tuple[str, str]] = set()
        todo = [*self.edges[None], *(key for key in self.definitions if key[1] in listed)]
        while todo:
            key = todo.pop()
            if key not in seen:
                seen.add(key)
                todo.extend(self.edges.get(key, ()))
        return seen

    def dead(self, listed=()) -> set[str]:
        return {f"{m}.{q}" for m, q in self.definitions - self.live(listed)}

    def unused_imports(self) -> set[str]:
        """``module.name`` for each name that an import statement binds in a
        module other than ``__init__`` and that no code in the module reads;
        ``from __future__`` imports bind no name."""
        unused = set()
        for module, tree in self.modules.items():
            if module == "__init__":
                continue
            bound, read = set(), set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    bound |= {a.asname or a.name.partition(".")[0] for a in node.names}
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound |= {a.asname or a.name for a in node.names}
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
            unused |= {f"{module}.{name}" for name in bound - read}
        return unused


class _References(ast.NodeVisitor):
    """The definitions that one piece of code refers to."""

    def __init__(self, program: Program, module: str, imports, cls: str | None):
        self.program, self.module, self.imports, self.cls = program, module, imports, cls
        self.scopes: list[set[str]] = []
        self.called: set[int] = set()
        self.found: set[tuple[str, str]] = set()

    def _free(self, name: str) -> bool:
        return not any(name in scope for scope in self.scopes)

    def function(self, node) -> None:
        """Visit a function's signature and body, not its decorators."""
        self.visit(node.args)
        if node.returns is not None:
            self.visit(node.returns)
        self.scopes.append(_scope_locals(node))
        for stmt in node.body:
            self.visit(stmt)
        self.scopes.pop()

    def visit_FunctionDef(self, node) -> None:
        for decorator in node.decorator_list:
            self.visit(decorator)
        self.function(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node) -> None:
        self.visit(node.args)
        self.scopes.append(_scope_locals(node))
        self.visit(node.body)
        self.scopes.pop()

    def visit_Call(self, node) -> None:
        self.called.add(id(node.func))
        self.generic_visit(node)

    def visit_Name(self, node) -> None:
        if isinstance(node.ctx, ast.Load) and self._free(node.id):
            found = self.program.resolve(self.module, node.id, self.imports)
            self.found |= {key for key in found if not isinstance(key, str)}

    def visit_Attribute(self, node) -> None:
        self.generic_visit(node)
        if not isinstance(node.ctx, ast.Load) or _is_dunder(node.attr):
            return
        value, owners = node.value, ()
        if isinstance(value, ast.Name):
            if self.cls is not None and value.id in ("self", "cls"):
                owners = {(self.module, self.cls)}
            elif self._free(value.id):
                owners = self.program.resolve(self.module, value.id, self.imports)
        # A member of a known module or class is that member; a field, an
        # inherited member or any other object's attribute goes by name.
        exact = set().union(*(self.program.member(owner, node.attr) for owner in owners))
        if exact:
            self.found |= exact
            return
        called = id(node) in self.called
        for key, is_property in self.program.members.get(node.attr, ()):
            if is_property or called:
                self.found.add(key)


def program_roots():
    return sorted((ROOT / "perfbench").rglob("*.py"))


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


def sample_program(tmp_path, **modules) -> Program:
    """A package of the given module sources, with no further roots."""
    package = tmp_path / "pkg"
    package.mkdir()
    for name, source in modules.items():
        (package / f"{name}.py").write_text(source)
    return Program(package)


def test_uses_are_read_from_code_and_f_strings_not_prose(tmp_path):
    """A call made only inside an f-string counts; a docstring or a comment
    that names a function does not."""
    program = sample_program(
        tmp_path,
        mod=(
            '"""Mentions refine."""\n'
            "# expand_to_level\n"
            "def refine(): pass\n"
            "def expand_to_level(): pass\n"
            "class Report:\n"
            "    def verdict_text(self): pass\n"
            "def report(): return Report()\n"
            'print(f"{report().verdict_text()}")\n'
        ),
    )
    assert program.dead() == {"mod.refine", "mod.expand_to_level"}


def test_functions_that_only_call_each_other_are_dead(tmp_path):
    """So are one that only calls itself, a memo of it that nothing reads,
    and one whose name a local variable shadows."""
    program = sample_program(
        tmp_path,
        mod=(
            "def ping(k): return pong(k - 1) if k else 0\n"
            "def pong(k): return ping(k - 1) if k else 1\n"
            "from functools import cache\n"
            "def countdown(k): return countdown(k - 1) if k else 0\n"
            "_memo_countdown = cache(countdown)\n"
            "def sign(): return 1\n"
            "def parity(xs):\n"
            "    sign = len(xs) % 2\n"
            "    return sign\n"
            "print(parity([]))\n"
        ),
    )
    assert program.dead() == {
        "mod.ping",
        "mod.pong",
        "mod.countdown",
        "mod._memo_countdown",
        "mod.sign",
    }


def test_a_name_that_is_not_a_call_keeps_no_method_alive(tmp_path):
    """A parameter, a dataclass field and ``self.x.append(...)`` named like a
    method do not keep it alive; a call on any object, a property read, a
    ``Class.name`` call and an imported name do."""
    program = sample_program(
        tmp_path,
        shapes=(
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Grid:\n"
            "    level: int\n"
            "    names: list\n"
            "    def record(self, name):\n"
            "        self.names.append(name)\n"
            "        return self.level\n"
            "    @property\n"
            "    def area(self): return self.level ** 2\n"
            "    @classmethod\n"
            "    def build(cls, level): return cls(level, [])\n"
            "class Tree:\n"
            "    def level(self): pass\n"
            "    def names(self): pass\n"
            "    def area(self): pass\n"
            "def walk(level, record): return level + record\n"
        ),
        run=(
            "from .shapes import Grid, Tree, walk\n"
            "g = Grid.build(walk(1, 2))\n"
            "Tree()\n"
            "g.record('x')\n"
            "print(g.area, g.level)\n"
        ),
    )
    assert program.dead() == {"shapes.Tree.level", "shapes.Tree.names", "shapes.Tree.area"}


def test_an_import_that_nothing_in_its_module_reads_is_unused(tmp_path):
    """A dotted import binds its first name, an alias binds the alias, and
    annotations and f-strings read names; a docstring, a comment, another
    module's read and the ``__init__`` re-exports do not."""
    program = sample_program(
        tmp_path,
        __init__="from .mod import helper\n",
        mod=(
            "from __future__ import annotations\n"
            '"""Uses functools."""\n'
            "import functools\n"
            "import os.path\n"
            "import re as regex\n"
            "from itertools import chain, islice\n"
            "from .other import helper, spare\n"
            "# islice\n"
            "def run(xs: os.PathLike) -> list:\n"
            '    return f"{list(chain(xs))}" + helper()\n'
        ),
        other="import functools\ndef helper(): return functools.reduce\ndef spare(): pass\n",
    )
    assert program.unused_imports() == {"mod.functools", "mod.regex", "mod.islice", "mod.spare"}


def test_every_import_is_read_in_its_module():
    unused = sorted(Program(PACKAGE).unused_imports())
    assert not unused, f"nothing in their modules reads these imports; delete them: {unused}"


def test_listed_names_keep_their_private_helpers_live():
    program = Program(PACKAGE, program_roots())
    helpers = {"element._expand_at", "element.RefinementWitness", "element._check_images"}
    assert helpers <= program.dead()
    assert not helpers & program.dead(listed_api())
    assert helpers & program.dead(["canonicalize", "make_element"]) == {
        "element._expand_at",
        "element.RefinementWitness",
    }


def test_every_definition_is_live_or_listed_with_a_reason():
    program = Program(PACKAGE, program_roots())
    listed = listed_api()
    dead = sorted(program.dead(listed))
    assert not dead, f"nothing in the program needs these; delete or list them: {dead}"
    defined = {qualified for _, qualified in program.definitions}
    undefined = sorted(listed.keys() - defined)
    assert not undefined, f"the README's Python API lists undefined names: {undefined}"
    in_use = sorted(listed.keys() & {qualified for _, qualified in program.live()})
    assert not in_use, f"the README's Python API lists names the program uses: {in_use}"
