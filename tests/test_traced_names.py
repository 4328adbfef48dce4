"""Every name the benchmark's traced run wraps exists in the program.

`perfbench/bench_trace.py` replaces each `(module, attribute)` in its
`WRAPPED` table with a timing wrapper. A rename under `src/bowl/` would
otherwise surface only when the benchmark's own tests run. The table is
read from the file's syntax tree, so the benchmark code is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH_TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py"


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
