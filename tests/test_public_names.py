"""Every public function and class of the package has a user.

A user is a code reference in ``src/mvfilters`` (other than the name's own
definition and body, and other than a bare re-export), a ``python`` block of
the README, or ``perfbench/spans.py``, whose span targets name functions as
strings.  Docstrings and comments do not count, and neither do the tests: a
name that only tests call belongs in the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mvfilters"

# public names kept without a user, with the reason
ALLOWED = {
    "densechain.oracle_member": "ROADMAP item 5",
}


def _docstring_nodes(tree):
    """The constant nodes that are docstrings of the module, a class or a def."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(body[0].value)
    return out


def _references(tree, strings: bool = False):
    """(top-level def enclosing the use or None, name) for each code use.

    Names and attributes count; import aliases do not.  With ``strings``,
    every dotted part of a non-docstring string constant counts too.
    """
    docs = _docstring_nodes(tree) if strings else set()
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
            elif (strings and isinstance(child, ast.Constant)
                  and isinstance(child.value, str) and child not in docs):
                out.update((inner, part) for part in child.value.split("."))
            visit(child, inner)

    visit(tree, None)
    return out


def _readme_python_blocks() -> list[ast.Module]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    return [ast.parse(block) for block in blocks]


def _public_definitions():
    for path in sorted(SRC.glob("*.py")):
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
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    outside.update(name for _, name in _references(spans, strings=True))

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
