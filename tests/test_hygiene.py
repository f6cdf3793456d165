"""Source hygiene: every name a module imports is used in that module.

The check walks the AST of the package and of the tests.  A name counts
as used when the module reads it anywhere (an attribute chain such as
np.zeros reads np) or lists it in __all__, which is how the package
re-exports its public names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "subpar").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by the imports in `source` that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_detected():
    src = "import math\nimport numpy as np\nfrom os import path, sep\n__all__ = ['sep']\nnp.zeros(1)\n"
    assert unused_imports(src) == ["math", "path"]


def test_no_unused_imports():
    found = [f"{p.relative_to(ROOT)}: {name}"
             for p in SOURCES for name in unused_imports(p.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
