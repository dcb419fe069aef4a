"""Every public function and class of the package has a user, the
package root exports exactly the README tour, and no module of ``src/`` or
``tests/`` imports a name it never reads.

A user is a code reference in ``src/mvfilters`` (other than the name's own
definition and body, and other than a bare re-export) or a ``python`` block
of the README.  Docstrings and comments do not count, and neither do the
tests: a name that only tests call belongs in the tests.  Nor does the
benchmark tracer: ``perfbench/spans.py`` names the functions it wraps as
strings, and a name whose only user is the tracer is listed in ``ALLOWED``.

The root binds a name a second time, so it keeps only the ``mv.`` names that
the README's ``python`` blocks read; everything else is imported from the
module that defines it.
"""

import ast
import re
import types
from pathlib import Path

import mvfilters

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mvfilters"

# public names kept without a user, with the reason
_SPAN_TARGET = (
    "a perfbench/spans.py target; deletion waits for a benchmark change"
)
ALLOWED = {
    "densechain.oracle_plus": _SPAN_TARGET,
    "densechain.oracle_sqto": _SPAN_TARGET,
    "densechain.random_proper_cut": _SPAN_TARGET,
}


def _references(tree):
    """(top-level def enclosing the use or None, name) for each code use.

    Names and attributes count; import aliases and strings do not.
    """
    out = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if owner is None and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name
            if isinstance(child, ast.Name):
                out.add((inner, child.id))
            elif isinstance(child, ast.Attribute):
                out.add((inner, child.attr))
            visit(child, inner)

    visit(tree, None)
    return out


def _readme_python_sources() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def _readme_python_blocks() -> list[ast.Module]:
    return [ast.parse(block) for block in _readme_python_sources()]


def _public_definitions(root=SRC, pattern="*.py"):
    for path in sorted(root.glob(pattern)):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node.name


def unused_public_names() -> list[str]:
    used: set[tuple[str, str | None, str]] = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = path.stem
        used.update(
            (module, owner, name) for owner, name in _references(tree)
        )
    outside = set()
    for tree in _readme_python_blocks():
        outside.update(name for _, name in _references(tree))

    unused = []
    for module, name in _public_definitions():
        if name in outside:
            continue
        if any(n == name and not (m == module and owner == name)
               for m, owner, n in used):
            continue
        unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_has_a_user():
    # an allowance goes too once its name gains a user or is deleted
    assert sorted(unused_public_names()) == sorted(ALLOWED)


def test_readme_tour_runs_on_a_root_of_exactly_its_names():
    namespace: dict = {}
    for source in _readme_python_sources():
        exec(compile(source, "README.md", "exec"), namespace)
    read = {
        node.attr
        for tree in _readme_python_blocks()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "mv"
    }
    exported = {
        name for name, value in vars(mvfilters).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert namespace["mv"] is mvfilters
    assert exported == read


def test_tests_share_code_through_conftest_and_the_oracles():
    """No module of ``tests/`` imports a ``test_*`` module, and every public
    name of ``tests/oracles.py`` is read by some test module."""
    imports, read = [], set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        is_test = path.name.startswith("test_")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imports.append((path.name, node.module or ""))
                if is_test and node.module == "oracles":
                    read.update(alias.name for alias in node.names)
            elif is_test and isinstance(node, ast.Attribute) and (
                    isinstance(node.value, ast.Name) and node.value.id == "oracles"):
                read.add(node.attr)
    assert [(p, m) for p, m in imports if m.startswith("test_")] == []
    defined = {name for module, name in _public_definitions(ROOT / "tests", "oracles.py")}
    assert sorted(defined - read) == []


def unused_imports() -> list[str]:
    """``path:line name`` for each name that a module of ``src/`` or
    ``tests/`` imports and never reads.  A package ``__init__`` is left out:
    its imports are the package's exports, which the tour test pins."""
    out = []
    for path in sorted([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        out.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return out


def test_no_module_imports_a_name_it_never_reads():
    assert unused_imports() == []
