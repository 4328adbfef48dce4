"""Every name the benchmark's traced run wraps exists in the program.

`perfbench/bench_trace.py` replaces each `(module, attribute)` in its
`WRAPPED` table with a timing wrapper. A rename under `src/bowl/` would
otherwise surface only when the benchmark's own tests run. The table is
read from the file's syntax tree, so the benchmark code is not imported.
The benchmark's tiny runs also run here, in a process of their own.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_TRACE = ROOT / "perfbench" / "bench_trace.py"


def wrapped_names() -> list[tuple[str, str]]:
    for node in ast.parse(BENCH_TRACE.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPPED"]:
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no WRAPPED table in {BENCH_TRACE}")


WRAPPED = wrapped_names()


def test_table_found():
    assert ("bowl.simulate", "fit_owl_linear") in WRAPPED


@pytest.mark.parametrize("module, attr", WRAPPED, ids=[f"{module}.{attr}" for module, attr in WRAPPED])
def test_wrapped_name_is_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_benchmark_tiny_runs_pass():
    # Every workload end to end, traced and not, and the tracer's restore check. The sleep-bounded
    # self-time test is left out: host load can break its bounds.
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/test_perfbench.py",
         "-k", "tiny or restores"],
        cwd=ROOT, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0 and re.search(r"\b5 passed\b", result.stdout), result.stdout + result.stderr
