"""The three benchmark workloads: set-up, one pass of operations, and output checks.

Every operation is an in-process `bowl.cli.main` call. Its inputs are made
in set-up from the workload seed with `bowl.simulate.generate_scenario_raw`;
the seed is also passed to the program as `--seed`. Each pass runs every
operation of its workload once and checks each output before the next one;
only the `main` call itself is timed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.special import ndtr

import bowl.cli
from bench_calibrate import adjusted, reference_loop
from bowl.simulate import ScenarioSpec, generate_scenario_raw

PRIORS = ("normal", "ep", "ss")
METHODS = ("owl", "bowl-normal", "bowl-ep", "bowl-ss")
PROB_TOL = 1e-12


@dataclass(frozen=True)
class Sizes:
    """Input sizes. FULL is what the benchmark measures; TINY is for its tests."""

    fit_n: int = 800
    fit_chains: int = 2
    fit_draws: int = 200
    fit_burn_in: int = 60
    reproduce_n: int = 100
    reproduce_reps: int = 2
    reproduce_heatmap_n: int = 100
    reproduce_grid_res: int = 33
    warmup_draws: int = 20
    warmup_reps: int = 2
    query_rows: int = 20_000
    grid_res: int = 33
    setup_repeats: int = 3


FULL = Sizes()
TINY = Sizes(fit_n=60, fit_draws=40, fit_burn_in=10, reproduce_n=40, reproduce_reps=2,
             reproduce_heatmap_n=40, reproduce_grid_res=5, warmup_draws=10,
             query_rows=300, grid_res=5, setup_repeats=2)


@dataclass
class Op:
    """One timed program call and what its output check found."""

    kind: str
    seconds: float
    ref_seconds: float  # reference loop around the call, see bench_calibrate
    attempted: int
    failed: int = 0
    units: int = 0  # work units counted toward work_per_s
    failures: list[str] = field(default_factory=list)

    @property
    def adjusted_seconds(self) -> float:
        return adjusted(self.seconds, self.ref_seconds)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + count)
        self.failures.append(message)


def call_main(argv: list[str], calibrate: bool = False) -> tuple[int, float, float]:
    """Run `bowl` in-process with its stdout discarded.

    Returns (exit code, seconds, reference seconds). With `calibrate` the
    reference is the mean time of the reference loop just before and just
    after the call; without it, 0.
    """
    sink = io.StringIO()
    ref = reference_loop() if calibrate else 0.0
    with contextlib.redirect_stdout(sink):
        t0 = perf_counter()
        rc = bowl.cli.main(argv)
        seconds = perf_counter() - t0
    if calibrate:
        ref = 0.5 * (ref + reference_loop())
    return rc, seconds, ref


def fit_argv(data: Path, prior: str, sizes: Sizes, seed: int, out: Path, draws: int,
             burn_in: int) -> list[str]:
    return ["fit", "--data", str(data), "--prior", prior, "--chains", str(sizes.fit_chains),
            "--jobs", "1", "--draws", str(draws), "--burn-in", str(burn_in),
            "--seed", str(seed), "--out-dir", str(out)]


def write_training_csv(path: Path, n: int, seed: int) -> None:
    features, actions, raw_rewards, _ = generate_scenario_raw(
        ScenarioSpec(scenario_id=1, n_train=n, seed=seed), 0
    )
    p = features.shape[1]
    header = ",".join([f"x{j}" for j in range(1, p + 1)] + ["a", "r"])
    table = np.column_stack([features, actions, raw_rewards])
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt="%.17g")


def read_artifact(path: Path) -> tuple[dict, list[str], np.ndarray]:
    """(config echo, header, numeric body) of a numeric `bowl` CSV artifact."""
    with open(path) as fh:
        config = json.loads(fh.readline()[len("# config="):])
        header = fh.readline().strip().split(",")
    body = np.loadtxt(path, delimiter=",", skiprows=2, comments=None, ndmin=2)
    return config, header, body


def reference_prob(x: np.ndarray, state: dict, chunk: int = 1024) -> np.ndarray:
    """Vectorized posterior-predictive P(+1) for raw features: mean over draws of Phi(x'b)."""
    design = np.column_stack([np.ones(len(x)), x]) if state["intercept"] else x
    beta = state["beta"]
    out = np.empty(design.shape[0])
    for lo in range(0, design.shape[0], chunk):
        out[lo:lo + chunk] = ndtr(design[lo:lo + chunk] @ beta.T).mean(axis=1)
    return out


def check_predictions(op: Op, got: np.ndarray, expected_prob: np.ndarray) -> None:
    """prob_plus against the vectorized reference; action and certainty against prob_plus."""
    prob, action, certainty = got[:, -3], got[:, -2], got[:, -1]
    err = np.abs(prob - expected_prob)
    if not np.all(err <= PROB_TOL):
        op.fail(f"{op.kind}: prob_plus differs from the reference by up to {np.nanmax(err):.3g}")
    if not np.array_equal(action, np.where(prob >= 0.5, 1.0, -1.0)):
        op.fail(f"{op.kind}: action disagrees with prob_plus")
    if not np.array_equal(certainty, np.maximum(prob, 1.0 - prob)):
        op.fail(f"{op.kind}: certainty disagrees with prob_plus")


class FitCli:
    """`bowl fit` on an n=800, p=10 scenario-1 CSV, once per prior, two chains, one job."""

    name = "fit-cli"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes
        self.first_bytes: dict[str, bytes] = {}

    def set_up(self, work: Path, seed: int) -> dict:
        s = self.sizes
        data = work / "train.csv"
        write_training_csv(data, s.fit_n, seed)
        # A short fit per prior, so lazy initialisation is not timed in the passes.
        for prior in PRIORS:
            rc, _, _ = call_main(fit_argv(data, prior, s, seed, work / "warmup", s.warmup_draws,
                                          s.warmup_draws // 2))
            if rc != 0:
                raise RuntimeError(f"set-up fit with prior {prior} exited {rc}")
        return {"data": data, "seed": seed, "out": work.parent / "fit"}

    def run_pass(self, state: dict) -> list[Op]:
        s = self.sizes
        ops = []
        for prior in PRIORS:
            out = state["out"] / prior
            rc, seconds, ref = call_main(
                fit_argv(state["data"], prior, s, state["seed"], out, s.fit_draws, s.fit_burn_in),
                calibrate=True
            )
            op = Op(kind=f"fit_{prior}", seconds=seconds, ref_seconds=ref, attempted=1,
                    units=s.fit_chains * s.fit_draws)
            if rc != 0:
                op.fail(f"{op.kind}: exit code {rc}")
            else:
                self.check(op, prior, out / "draws.csv")
            ops.append(op)
        return ops

    def check(self, op: Op, prior: str, path: Path) -> None:
        chains = self.sizes.fit_chains
        raw = path.read_bytes()
        first = self.first_bytes.setdefault(prior, raw)
        if raw != first:
            op.fail(f"{op.kind}: draws.csv differs from the first fit with the same seed")
        config, header, body = read_artifact(path)
        kept = int(config["n_draws"]) - int(config["burn_in"])
        if config["n_chains"] != chains or body.shape[0] != chains * kept:
            op.fail(f"{op.kind}: {body.shape[0]} draw rows, expected {chains} x {kept}")
            return
        if not np.array_equal(body[:, 0], np.repeat(np.arange(chains), kept)):
            op.fail(f"{op.kind}: chain column out of order")
        beta = body[:, [i for i, h in enumerate(header) if h.startswith("beta_")]]
        if not np.all(np.isfinite(beta)):
            op.fail(f"{op.kind}: non-finite beta draws")
        gamma_cols = [i for i, h in enumerate(header) if h.startswith("gamma_")]
        if prior == "ss":
            gamma = body[:, gamma_cols]
            if gamma.shape != beta.shape or not np.all(np.isin(gamma, (0.0, 1.0))):
                op.fail(f"{op.kind}: gamma columns missing or not 0/1")
            elif np.any(beta[gamma == 0.0] != 0.0):
                op.fail(f"{op.kind}: beta nonzero where gamma is 0")
        elif gamma_cols:
            op.fail(f"{op.kind}: unexpected gamma columns")


class ReproduceSmall:
    """`bowl reproduce` on scenario 1 at n=100 with all four methods."""

    name = "reproduce-small"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def argv(self, seed: int, out: Path, n: int, reps: int, heatmap_n: int,
             grid_res: int) -> list[str]:
        return ["reproduce", "--scenario", "1", "--n", str(n), "--reps", str(reps),
                "--methods", ",".join(METHODS), "--heatmap-n", str(heatmap_n),
                "--grid-res", str(grid_res), "--jobs", "1", "--seed", str(seed),
                "--out-dir", str(out)]

    def set_up(self, work: Path, seed: int) -> dict:
        s = self.sizes
        # The inputs are the seed and sizes; a short study runs every method
        # once, so lazy initialisation is not timed.
        rc, _, _ = call_main(self.argv(seed, work / "warmup", s.reproduce_n // 2, s.warmup_reps,
                                       s.reproduce_heatmap_n // 2, 5))
        if rc != 0:
            raise RuntimeError(f"set-up reproduce exited {rc}")
        return {"seed": seed, "out": work.parent / "reproduce"}

    def run_pass(self, state: dict) -> list[Op]:
        s = self.sizes
        out = state["out"]
        rc, seconds, ref = call_main(self.argv(state["seed"], out, s.reproduce_n,
                                               s.reproduce_reps, s.reproduce_heatmap_n,
                                               s.reproduce_grid_res), calibrate=True)
        # One operation per replication x method cell, plus the uncertainty-study fit.
        op = Op(kind="reproduce", seconds=seconds, ref_seconds=ref,
                attempted=s.reproduce_reps * len(METHODS) + 1)
        if rc != 0:
            op.fail(f"reproduce: exit code {rc}", op.attempted)
            return [op]
        self.check(op, out)
        return [op]

    def check(self, op: Op, out: Path) -> None:
        reps = self.sizes.reproduce_reps
        with open(out / "raw_rates.csv", newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
        rates = {(r[0], int(r[3])): float(r[4]) for r in rows}
        bad = {(m, k) for m in METHODS for k in range(reps)
               if not 0.0 <= rates.get((m, k), float("nan")) <= 1.0}
        full_reps = reps - len({k for _, k in bad})
        op.units = full_reps
        if bad:
            op.fail(f"reproduce: {len(bad)} replication x method cells without a rate in [0, 1]",
                    len(bad))
        with open(out / "tables.csv", newline="") as fh:
            table = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
        ok = {r[0]: int(r[5]) for r in table}
        for m in METHODS:
            if ok.get(m) != reps and not any(bm == m for bm, _ in bad):
                op.fail(f"reproduce: n_reps_ok for {m} is {ok.get(m)}, expected {reps}")
        k = self.sizes.reproduce_grid_res
        _, _, heat = read_artifact(out / "heatmap.csv")
        prob = heat[:, 2]
        if (heat.shape != (k * k, 5) or not np.all((prob >= 0.0) & (prob <= 1.0))
                or not np.array_equal(heat[:, 4], np.maximum(prob, 1.0 - prob))):
            op.fail("reproduce: heatmap.csv malformed")


class PredictBulk:
    """`bowl predict` on a 20,000-row query CSV and on a 33x33 grid, from set-up ep draws."""

    name = "predict-bulk"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def set_up(self, work: Path, seed: int) -> dict:
        s = self.sizes
        data = work / "train.csv"
        write_training_csv(data, s.fit_n, seed)
        fit_dir = work / "fit"
        rc, _, _ = call_main(fit_argv(data, "ep", s, seed, fit_dir, s.fit_draws, s.fit_burn_in))
        if rc != 0:
            raise RuntimeError(f"set-up fit exited {rc}")
        query_x = generate_scenario_raw(
            ScenarioSpec(scenario_id=1, n_train=s.query_rows, seed=seed), 1
        )[0]
        query = work / "query.csv"
        header = ",".join(f"x{j}" for j in range(1, query_x.shape[1] + 1))
        np.savetxt(query, query_x, delimiter=",", header=header, comments="", fmt="%.17g")
        config, header, body = read_artifact(fit_dir / "draws.csv")
        beta = body[:, [i for i, h in enumerate(header) if h.startswith("beta_")]]
        return {"seed": seed, "draws": fit_dir / "draws.csv", "query": query, "query_x": query_x,
                "beta": beta, "intercept": bool(config["intercept"]),
                "out": work.parent / "predict"}

    def run_pass(self, state: dict) -> list[Op]:
        base = ["predict", "--draws", str(state["draws"]), "--seed", str(state["seed"]),
                "--out-dir", str(state["out"])]
        rc, seconds, ref = call_main(base + ["--query", str(state["query"])], calibrate=True)
        query = Op(kind="predict_query", seconds=seconds, ref_seconds=ref, attempted=1)
        if rc != 0:
            query.fail(f"predict_query: exit code {rc}")
        else:
            self.check_query(query, state)
        k = self.sizes.grid_res
        rc, seconds, ref = call_main(base + ["--grid", "--grid-res", str(k)], calibrate=True)
        grid = Op(kind="predict_grid", seconds=seconds, ref_seconds=ref, attempted=1)
        if rc != 0:
            grid.fail(f"predict_grid: exit code {rc}")
        else:
            self.check_grid(grid, state)
        return [query, grid]

    def check_query(self, op: Op, state: dict) -> None:
        x = state["query_x"]
        _, _, got = read_artifact(state["out"] / "recommendations.csv")
        if got.shape != (x.shape[0], x.shape[1] + 3) or not np.array_equal(got[:, :-3], x):
            op.fail(f"predict_query: {got.shape[0]} output rows do not echo the "
                    f"{x.shape[0]} queries")
            return
        op.units = x.shape[0]
        if "query_prob" not in state:
            state["query_prob"] = reference_prob(x, state)
        check_predictions(op, got, state["query_prob"])

    def check_grid(self, op: Op, state: dict) -> None:
        k = self.sizes.grid_res
        _, _, got = read_artifact(state["out"] / "certainty_grid.csv")
        ticks = np.linspace(-1.0, 1.0, k)
        coords = np.column_stack([np.repeat(ticks, k), np.tile(ticks, k)])
        if got.shape != (k * k, 5) or not np.array_equal(got[:, :2], coords):
            op.fail(f"predict_grid: expected {k * k} lattice rows in row-major order")
            return
        x = np.zeros((k * k, state["beta"].shape[1] - int(state["intercept"])))
        x[:, :2] = coords
        check_predictions(op, got, reference_prob(x, state))


WORKLOADS = {w.name: w for w in (FitCli, ReproduceSmall, PredictBulk)}
