"""The byte gate: every artifact `tests/hashset.py` makes keeps the sha256 in tests/data/hashes.json.

A change that means to change bytes rebuilds the record in the same commit:
run the script as its docstring says and write its output to tests/data/hashes.json.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_every_artifact_keeps_its_recorded_sha256(tmp_path):
    path = [str(TESTS.parent / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(path))
    made = subprocess.run([sys.executable, str(TESTS / "hashset.py")], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert made.returncode == 0, made.stderr
    got, want = json.loads(made.stdout), json.loads((TESTS / "data" / "hashes.json").read_text())
    differing = [f"{name}: recorded {want['sha256'].get(name)}, made {got['sha256'].get(name)}"
                 for name in sorted(want["sha256"].keys() | got["sha256"].keys())
                 if want["sha256"].get(name) != got["sha256"].get(name)]
    versions = [f"{lib}: recorded {want['versions'].get(lib)}, here {got['versions'].get(lib)}"
                for lib in sorted(want["versions"].keys() | got["versions"].keys())
                if want["versions"].get(lib) != got["versions"].get(lib)]
    assert not differing, "\n".join([f"{len(differing)} artifact(s) changed bytes:", *differing, *versions])
