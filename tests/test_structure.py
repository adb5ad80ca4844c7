"""Three promises that no sample of runs can show, checked on the source.

python -O runs exactly the code that plain Python runs when no module has
an assert statement or reads __debug__, and numpy is the only runtime
dependency when every import names the standard library, numpy or the
package itself.  Every closed-form inverse is solved under the inversion
engine's rules when only inversion._bisect reads Comparator.exact_inverse,
and a family's closed-form Cramer inverse reaches the engine only that way
when only inversion.cramer_of reads the family record's cramer_inverse.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "cgfbounds").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def nodes(paths):
    """(file name, node) for every node of each file's syntax tree."""
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_package_runs_the_same_under_python_o():
    # -O strips assert statements and makes __debug__ False
    found = [f"{name}:{node.lineno}" for name, node in nodes(PACKAGE)
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert PACKAGE
    assert found == []


def test_package_and_demos_import_only_stdlib_numpy_and_cgfbounds():
    # imports inside functions too; a relative import stays in the package
    allowed = set(sys.stdlib_module_names) | {"numpy", "cgfbounds"}
    found = []
    for name, node in nodes(PACKAGE + DEMOS):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{name}:{node.lineno} {module}" for module in modules
                  if module.split(".")[0] not in allowed]
    assert DEMOS
    assert found == []


def reads(module, function, attr):
    """(whether module's function reads attr; "file:line" of each read
    elsewhere).  A dataclass field, a parameter or a keyword argument named
    attr reads nothing; x.attr and getattr(x, "attr") do."""
    tree = list(nodes(PACKAGE))
    inside = {id(inner) for name, node in tree
              if name == module and isinstance(node, ast.FunctionDef)
              and node.name == function for inner in ast.walk(node)}
    found = [(name, node) for name, node in tree
             if isinstance(node, ast.Attribute) and node.attr == attr
             or isinstance(node, ast.Constant) and node.value == attr]
    return (any(id(node) in inside for _, node in found),
            [f"{name}:{node.lineno}" for name, node in found
             if id(node) not in inside])


def test_only_the_engine_reads_exact_inverse():
    assert reads("inversion.py", "_bisect", "exact_inverse") == (True, [])


def test_only_cramer_of_reads_cramer_inverse():
    assert reads("inversion.py", "cramer_of", "cramer_inverse") == (True, [])
