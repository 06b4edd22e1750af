"""The package holds what its commands, statement checks and benchmark reach.

Every public top-level function or class of ``src/starkit`` that no other
code of the package refers to is pinned below with the reason it stays.
Reference implementations that only the tests compare against live in
``tests/helpers.py``, so a test-only addition to the package fails here
until it moves there or is named here on purpose."""
from __future__ import annotations

import ast
from pathlib import Path

import starkit

PACKAGE = Path(starkit.__file__).resolve().parent

# public definitions no code of the package refers to, and why each stays
KEPT = {
    "full_subcategory": "perfbench/run.py builds the sweep's covers with it",
    "enumerate_ideals": "perfbench/run.py walks every ideal of the sweep with it",
    "enumerate_reflexive_graphs": "reflexive graphs are the paper's object, listed for users",
    "ideal_closure": "the smallest ideal on given generators, the documented way to make one",
}


def unreferenced_public_definitions(package: Path) -> set[str]:
    """The public top-level functions and classes of the package's modules
    that no code of the package names, outside their own bodies; imports
    and strings do not count as references."""
    trees = [ast.parse(path.read_text("utf-8")) for path in sorted(package.glob("*.py"))]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    referred = set()
    for tree in trees:
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    referred.add(name)
    return defined - referred


def test_every_unreferenced_public_definition_is_pinned():
    assert unreferenced_public_definitions(PACKAGE) == set(KEPT)


def test_the_scan_sees_an_unreferenced_definition(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    return 1\n\n\n"
                                   "def unused():\n    return used() + unused()\n")
    (tmp_path / "b.py").write_text("from .a import unused\nimport a\nX = a.used\n")
    assert unreferenced_public_definitions(tmp_path) == {"unused"}
