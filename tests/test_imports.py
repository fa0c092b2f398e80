"""Every module-level import in src/galilei is used by the module that makes it,
and every function in it has a caller outside its own definition."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

import galilei

MODULES = sorted(Path(galilei.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["b (line 2)",
                                                                           "os (line 1)"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


# tests that exercise the library as a whole, so a name they call is not test-only
WHOLE_LIBRARY_TESTS = [Path(__file__).parent / n for n in ("test_acceptance.py", "test_ledger.py")]

# functions kept with no such caller, each for a stated reason
UNCALLED_ALLOWED = {
    "Poly.reduce_relation": "the reference route of test_rotation_element_group_and_covariance",
    "beta.normalize_equivalence": "the census of invariant systems planned in ROADMAP.md needs it",
    "covariance.find_lambda_space": "computes the Lambda space behind test_covariance's lemma tests",
    "catalog.dkp_spin0_printed": "printed data behind test_printed_kd3_unscrambles_to_algebra_set",
    "catalog.dkp_spin0_hermitizer": "printed data behind test_printed_kd3_unscrambles_to_algebra_set",
}


def definitions(path):
    """(qualified name, name, first line, last line) of every top-level
    function and public method in a module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            yield f"{path.stem}.{node.name}", node.name, node.lineno, node.end_lineno
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def import_lines(source: str) -> set:
    """The line numbers that import statements span."""
    return {k for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for k in range(node.lineno, node.end_lineno + 1)}


def uncalled(paths=MODULES, callers=WHOLE_LIBRARY_TESTS) -> list:
    """Functions whose name appears nowhere in ``paths`` outside their own
    definition, nor anywhere in ``callers`` outside an import statement."""
    seen = defaultdict(set)  # word -> {(path, line)}
    for path in [*paths, *callers]:
        source = path.read_text()
        skip = import_lines(source) if path in callers else set()
        for k, line in enumerate(source.splitlines(), 1):
            if k in skip:
                continue
            for word in re.findall(r"\w+", line):
                seen[word].add((path, k))
    out = []
    for path in paths:
        for qual, name, first, last in definitions(path):
            if all(p == path and first <= k <= last for p, k in seen[name]):
                out.append(qual)
    return sorted(out)


def test_uncalled_checker(tmp_path):
    lib, caller = tmp_path / "lib.py", tmp_path / "caller.py"
    lib.write_text("def used():\n    return 1\n\n\ndef lonely():\n    return lonely()\n\n\n"
                   "class K:\n    def method(self):\n        return used()\n\n"
                   "    def _private(self):\n        pass\n")
    caller.write_text("K().method()\n")
    assert uncalled([lib], [caller]) == ["lib.lonely"]
    assert uncalled([lib], []) == ["K.method", "lib.lonely"]
    # a name a caller only imports is not called
    caller.write_text("from lib import (\n    K,\n    lonely,\n)\nK().method()\n")
    assert uncalled([lib], [caller]) == ["lib.lonely"]


def test_every_function_has_a_caller():
    assert uncalled() == sorted(UNCALLED_ALLOWED)
