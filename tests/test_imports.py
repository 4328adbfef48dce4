"""Every name a module under src/bowl/ imports is used in that module, and
only `bowl.rng.ordered_map` starts processes.

pyflakes-style, from the syntax tree alone: an imported name counts as used
when it appears as a Name anywhere in the module (annotations included).
`__init__.py` is left out, since its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bowl"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_modules_found():
    assert {"cli.py", "gibbs.py", "simulate.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_detects_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import inf, pi\nx = np.zeros(1) + pi\n"
    assert unused_imports(source) == ["line 1: os", "line 3: inf"]


def names(source: str) -> set[str]:
    """Every identifier the module names: imported, bare, or as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_process_pool_only_in_rng():
    pools = [p.name for p in sorted(SRC.glob("*.py")) if "ProcessPoolExecutor" in names(p.read_text())]
    assert pools == ["rng.py"]
    assert names("import concurrent.futures\nconcurrent.futures.ProcessPoolExecutor()\n") >= {"ProcessPoolExecutor"}


def linalg_uses(source: str) -> set[str]:
    """Names a module reaches through numpy.linalg: `np.linalg.X` or `from numpy.linalg import X`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            if node.value.attr == "linalg":
                found.add(node.attr)
    return found


def test_numpys_lapack_gufuncs_only_in_distributions():
    gufuncs = [p.name for p in sorted(SRC.glob("*.py")) if "_umath_linalg" in names(p.read_text())]
    assert gufuncs == ["distributions.py"]
    for module in ("distributions.py", "gibbs.py"):  # the sweep factors through distributions' helpers
        assert not linalg_uses((SRC / module).read_text()) & {"solve", "cholesky"}, module
    assert linalg_uses("import numpy as np\nnp.linalg.solve(a, b)\n") == {"solve"}
    assert linalg_uses("from numpy.linalg import cholesky, LinAlgError\n") == {"cholesky", "LinAlgError"}
