"""Make the byte-identity artifact set in the current directory and print its sha256 record as JSON.

The record holds the sha256 of each of the 45 files and the numpy, scipy and
BLAS versions that made them; tests/data/hashes.json is this script's output.
Run it in a new empty directory, printing elsewhere:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=<repo>/src python <repo>/tests/hashset.py > <elsewhere>/hashes.json

It makes its own inputs with bowl.simulate.generate_scenario_raw at rep 0:
train.csv is scenario 1, n=800, p=10, seed 20 (columns x1..x10, a, r);
query.csv is the features of scenario 1, n=20,000, seed 21; query-notes.csv
is the first 3,000 rows of query.csv with a blank, '# note' or quoted note
line after every 97th row. Every cell is written with repr, and every bowl
path is relative, so predict's '# config=' echo does not depend on the
directory. Then it runs fit, reproduce, predict and verify in-process.
"""
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from bowl.cli import main
from bowl.simulate import ScenarioSpec, generate_scenario_raw


def write_csv(path, header, rows, every=None):
    lines = [",".join(header)]
    for k, row in enumerate(rows):
        lines.append(",".join(map(repr, row)))
        if every and k % every == every - 1:
            lines.append(["", "# note", '"# quoted note"'][(k // every) % 3])
    Path(path).write_text("\n".join(lines) + "\n")


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(list(argv))
    assert code == 0, (argv, code)
    return out.getvalue()


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": importlib.metadata.version("scipy"),
            "blas": f"{blas['name']} {blas['version']}"}


def make_artifacts():
    x, a, r, _ = generate_scenario_raw(ScenarioSpec(1, 800, seed=20), 0)
    write_csv("train.csv", [f"x{j}" for j in range(1, 11)] + ["a", "r"], np.column_stack([x, a, r]).tolist())
    q = generate_scenario_raw(ScenarioSpec(1, 20000, seed=21), 0)[0]
    write_csv("query.csv", [f"x{j}" for j in range(1, 11)], q.tolist())
    write_csv("query-notes.csv", [f"x{j}" for j in range(1, 11)], q[:3000].tolist(), every=97)

    fit = ["fit", "--data", "train.csv", "--draws", "200", "--burn-in", "60", "--chains", "2"]
    for jobs in ("1", "2"):
        for prior in ("normal", "ep", "ss"):
            run(*fit, "--prior", prior, "--seed", "5", "--jobs", jobs, "--out-dir", f"fit-{prior}-{jobs}")
        run(*fit, "--prior", "ep", "--no-intercept", "--seed", "6", "--jobs", jobs, "--out-dir", f"fit-epni-{jobs}")
        for scen in ("1", "2"):
            run("reproduce", "--scenario", scen, "--n", "100", "--reps", "2", "--heatmap-n", "100", "--seed", "7",
                "--jobs", jobs, "--out-dir", f"rep-s{scen}-{jobs}")
    for seed in ("21", "22", "23"):
        run("fit", "--data", "train.csv", "--draws", "300", "--burn-in", "60", "--chains", "2", "--prior", "ss",
            "--seed", seed, "--jobs", "1", "--out-dir", f"fit-ss-seed{seed}")
    run("predict", "--draws", "fit-ep-1/draws.csv", "--query", "query.csv", "--out-dir", "pred-query")
    run("predict", "--draws", "fit-ep-1/draws.csv", "--query", "query-notes.csv", "--out-dir", "pred-query-notes")
    run("predict", "--draws", "fit-ep-1/draws.csv", "--grid", "--grid-res", "33", "--out-dir", "pred-grid")
    Path("verify.txt").write_text(run("verify", "--seed", "0"))


if __name__ == "__main__":
    make_artifacts()
    hashes = {}
    for root, _, files in sorted(os.walk(".")):
        for name in sorted(files):
            path = os.path.join(root, name)
            hashes[path] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    json.dump({"versions": versions(), "sha256": dict(sorted(hashes.items()))}, sys.stdout, indent=1)
    print()
