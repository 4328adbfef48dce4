"""Every name a module under src/bowl/ imports is used in that module,
only `bowl.rng.map_batches` starts processes, only `bowl.distributions`
reaches numpy's private names, only `bowl verify` loads scipy.stats,
scipy.integrate and scipy.linalg, and only `bowl.cli._write_artifacts`
creates, writes or renames a file.

pyflakes-style, from the syntax tree alone: an imported name counts as used
when it appears as a Name anywhere in the module (annotations included).
`__init__.py` is left out, since its imports are the package's exports.
"""

import ast
import json
import os
import subprocess
import sys
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


# numpy may move its private names in any release, which would break `import bowl`; these are the ones in use.
NUMPY_PRIVATE = {"numpy._core.multiarray.count_nonzero", "numpy._core.umath._extobj_contextvar",
                 "numpy._core.umath._make_extobj", "numpy.linalg._umath_linalg"}


def numpy_private_names(source: str) -> set[str]:
    """Dotted numpy names with a private part that a module imports or reaches as `np._x` (dunders aside)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "numpy":
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            parts, value = [node.attr], node.value
            while isinstance(value, ast.Attribute):
                parts.insert(0, value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id in ("np", "numpy"):
                found.add(".".join(["numpy", *parts]))
    return {name for name in found if name.partition(".")[0] == "numpy"
            and any(part.startswith("_") and not part.endswith("__") for part in name.split("."))}


def test_numpys_private_names_only_in_distributions():
    users = {p.name: found for p in sorted(SRC.glob("*.py")) if (found := numpy_private_names(p.read_text()))}
    assert users == {"distributions.py": NUMPY_PRIVATE}
    sample = ("import numpy as np\nimport numpy._core.numeric\nfrom numpy.linalg import norm, _umath_linalg\n"
              "np.random._pcg64.x\nnp.__version__\nnp.linalg.norm\n")
    assert numpy_private_names(sample) == {"numpy._core.numeric", "numpy.linalg._umath_linalg", "numpy.random._pcg64"}

def imported_modules(source: str, module_level: bool = False) -> set[str]:
    """Dotted names a module imports, relative imports resolved inside `bowl`.

    `from X import y` gives both X and X.y, since y may be a submodule. With
    module_level, imports inside a function body (which run only when it is
    called) are left out.
    """
    tree = ast.parse(source)
    deferred = set()
    if module_level:
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred.update(id(node) for node in ast.walk(fn))
    found = set()
    for node in ast.walk(tree):
        if id(node) in deferred:
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            base = ".".join(filter(None, ["bowl" if node.level else None, node.module]))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


VERIFY_ONLY = ("scipy.stats", "scipy.integrate", "scipy.linalg")


def test_only_verify_loads_scipy_stats_integrate_and_linalg():
    users = [p.name for p in sorted(SRC.glob("*.py"))
             if any(name.startswith(VERIFY_ONLY) for name in imported_modules(p.read_text()))]
    assert users == ["verify.py"]
    eager = [p.name for p in sorted(SRC.glob("*.py"))
             if "bowl.verify" in imported_modules(p.read_text(), module_level=True)]
    assert eager == []
    assert imported_modules("from scipy import stats\n") >= {"scipy.stats"}
    assert imported_modules("from scipy.linalg import lapack\n") >= {"scipy.linalg"}
    assert imported_modules("from . import verify\n", module_level=True) >= {"bowl.verify"}
    assert "bowl.verify" not in imported_modules("def f():\n    from .verify import run_all\n", module_level=True)


# Calls that create, write or rename a file whatever their arguments; `open` and
# `fdopen` count only with a writing mode, and `replace` and `open` on `os` too.
FILE_WRITERS = {"mkstemp", "mkdtemp", "NamedTemporaryFile", "TemporaryFile", "write_text", "write_bytes",
                "savetxt", "save", "rename", "touch", "copyfile", "move"}


def writes_a_file(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else None
    if name in FILE_WRITERS or (owner == "os" and name in ("replace", "open")):
        return True
    if name not in ("open", "fdopen"):
        return False
    at = 0 if isinstance(func, ast.Attribute) and owner != "os" else 1  # Path.open(mode) vs open(path, mode)
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[at:at + 1]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set(mode.value) & set("wax+"))


def file_writers(source: str, module: str) -> set[str]:
    """`module.function` for each function that calls a file writer, or `module` for top-level code."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = f"{module}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if isinstance(child, ast.Call) and writes_a_file(child):
                found.add(inner)
            visit(child, inner)

    visit(ast.parse(source), module)
    return found


def test_only_the_artifact_writer_writes_files():
    writers = set().union(*(file_writers(p.read_text(), p.stem) for p in SRC.glob("*.py")))
    assert writers == {"cli._write_artifacts"}
    source = """
import os
def reads(p, fd):
    open(p)
    open(p, "r", newline="")
    p.open()
    os.fdopen(fd)
    "a_b".replace("_", "-")
def opens_for_append(p):
    p.open("a")
def fdopen_for_writing(fd):
    os.fdopen(fd, mode="wb")
def renames(a, b):
    os.replace(a, b)
def makes_a_temp_file():
    return tempfile.mkstemp()
def mode_unknown(p, mode):
    with open(p, mode) as fh:
        pass
Path("x").write_text("top level")
"""
    assert file_writers(source, "m") == {"m.opens_for_append", "m.fdopen_for_writing", "m.renames",
                                         "m.makes_a_temp_file", "m.mode_unknown", "m"}


BOUNDARY_SCRIPT = """
import json
import sys
from pathlib import Path

import numpy as np

import bowl.cli
from bowl.pseudo_model import reward_transform
from bowl.simulate import ScenarioSpec, generate_scenario_raw

out = Path(sys.argv[1])
x, a, raw_rewards, _ = generate_scenario_raw(ScenarioSpec(1, 40, seed=3, p=3), 0)
body = np.column_stack([x, a, reward_transform(raw_rewards)[0]])
np.savetxt(out / "train.csv", body, delimiter=",", header="x1,x2,x3,a,r", comments="")
runs = [
    ["fit", "--data", str(out / "train.csv"), "--draws", "30", "--burn-in", "10", "--chains", "2",
     "--jobs", "1", "--out-dir", str(out / "fit")],
    ["predict", "--draws", str(out / "fit" / "draws.csv"), "--grid", "--grid-res", "3",
     "--out-dir", str(out / "pred")],
    ["reproduce", "--scenario", "1", "--n", "30", "--reps", "1", "--methods", "owl,bowl-normal",
     "--heatmap-n", "30", "--grid-res", "3", "--jobs", "1", "--out-dir", str(out / "rep")],
]
for argv in runs:
    assert bowl.cli.main(argv) == 0, argv
print(json.dumps([name for name in ("scipy.stats", "scipy.integrate", "scipy.linalg", "bowl.verify")
                  if name in sys.modules]))
"""


def test_fit_predict_reproduce_never_load_scipy_stats_or_linalg(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", BOUNDARY_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
    assert (tmp_path / "rep" / "heatmap.csv").is_file()
