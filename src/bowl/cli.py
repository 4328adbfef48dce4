"""Command-line front end: fit, predict, reproduce, verify.

Exit codes: 0 ok, 1 verification failure, 2 input or OS error, 3
numerical failure. Each subcommand hands all of its artifacts to one
writer, `_write_artifacts`, which renames them into place only once every
one is written, so a failing run leaves none of them; every artifact
embeds the configuration and seed that produced it in a leading strict
JSON `# config=` comment line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .diagnostics import effective_sample_size, split_rhat
from .gibbs import GibbsConfig, GibbsNumericalError, PosteriorDraws, run_chain
from .prediction import certainty_grid, check_grid_resolution, coefficient_magnitudes, recommend
from .pseudo_model import (
    DataError,
    ExponentialPowerPrior,
    NormalPrior,
    SpikeSlabPrior,
    load_dataset_csv,
    read_numeric_csv,
)
from .simulate import METHODS, ScenarioSpec, check_methods, run_experiment, uncertainty_study

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL = 3

GRID_HEADER = ["x_j1", "x_j2", "prob_plus", "action", "certainty"]
ROW_BLOCK = 1024  # prediction rows converted to Python scalars at a time


def _write_artifacts(out_dir: Path, artifacts: dict) -> None:
    """Write each artifact's text chunks to its own temp file in `out_dir`, then rename them all into place.

    `artifacts` maps a file name to its chunks, streamed as they come. No file
    is renamed until every one is written, and any failure removes every temp
    file, so a run leaves all of its artifacts or none.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    temps = {}
    try:
        for name, chunks in artifacts.items():
            fd, temps[name] = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.", suffix=".tmp")
            with os.fdopen(fd, "w", newline="") as fh:
                fh.writelines(chunks)
        for name, tmp in temps.items():
            os.replace(tmp, out_dir / name)
    except BaseException:
        for tmp in temps.values():
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
    print(f"wrote {', '.join(artifacts)} in {out_dir}")


def _csv_text(config: dict, header: list[str], lines):
    """Lines of a CSV artifact: the `# config=` echo as strict JSON, the header, then `lines`, one per row."""
    yield "# config=" + json.dumps(config, sort_keys=True, allow_nan=False) + "\n"
    yield ",".join(header) + "\n"
    yield from lines


def _csv_lines(config: dict, header: list[str], rows):
    """`_csv_text` of rows of Python scalars (`.tolist()`), each cell written with str.

    For a float that is its repr, the shortest text that reads back to the same bits.
    """
    return _csv_text(config, header, (",".join(map(str, row)) + "\n" for row in rows))


def _read_config_comment(path: Path) -> dict:
    with open(path, encoding="utf-8-sig") as fh:
        first = fh.readline().strip()
    if not first.startswith("# config="):
        raise DataError(f"{path}: missing '# config=' metadata line")
    try:
        config = json.loads(first[len("# config=") :])
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed '# config=' line ({exc})") from None
    if not isinstance(config, dict):
        raise DataError(f"{path}: the '# config=' line is not a JSON object")
    return config


def _parse_draws_csv(path: Path) -> tuple[PosteriorDraws, dict]:
    """Beta draws of a `bowl fit` draws.csv, checked against its config echo, and that echo."""
    config = _read_config_comment(path)
    header, body = read_numeric_csv(path)
    beta_cols = [i for i, name in enumerate(header) if name.startswith("beta_")]
    if header[:2] != ["chain", "draw"] or not beta_cols:
        raise DataError(f"{path}: expected columns chain, draw, then beta_*")
    try:
        counts = {name: config[name] for name in ("n_draws", "burn_in", "n_chains", "seed")}
        for name, value in counts.items():
            if type(value) is not int:  # JSON's 2.0, "2" and true are not counts
                raise TypeError(f"{name} must be a JSON integer, got {json.dumps(value)}")
        gibbs_config = GibbsConfig(**counts)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad n_draws, burn_in, n_chains or seed in config ({exc})") from None
    intercept = config.get("intercept", False)
    if type(intercept) is not bool:
        raise DataError(f"{path}: intercept in config must be true or false, got {json.dumps(intercept)}")
    if intercept != (header[beta_cols[0]] == "beta_intercept"):
        raise DataError(f"{path}: config says intercept is {json.dumps(intercept)}, "
                        f"but the first beta column is {header[beta_cols[0]]}")
    n_chains, kept = gibbs_config.n_chains, gibbs_config.n_draws - gibbs_config.burn_in
    if body.shape[0] != n_chains * kept:
        raise DataError(f"{path}: {body.shape[0]} draw rows, config says {n_chains} x {kept}")
    chain = np.repeat(np.arange(n_chains), kept)
    draw = np.tile(np.arange(gibbs_config.burn_in, gibbs_config.n_draws), n_chains)
    if not (np.array_equal(body[:, 0], chain) and np.array_equal(body[:, 1], draw)):
        raise DataError(f"{path}: chain and draw columns are not in the order bowl fit writes them")
    columns = config.get("columns")
    if not (type(columns) is list and all(type(name) is str for name in columns)):
        raise DataError(f"{path}: columns in config must be a JSON list of strings, got {json.dumps(columns)}")
    names = ["intercept"] * intercept + columns
    expected = ["chain", "draw"] + [f"beta_{name}" for name in names]
    if config.get("prior") == "ss":
        expected += [f"gamma_{name}" for name in names]
    if header != expected:
        raise DataError(f"{path}: the config needs the columns {','.join(expected)}, got {','.join(header)}")
    draws = PosteriorDraws(
        beta=body[:, beta_cols].reshape(n_chains, kept, len(beta_cols)),
        intercept=intercept,
    )
    return draws, config


def _finite_or_none(value: float) -> float | None:
    """A float for strict JSON: a NaN or infinite value becomes null."""
    return value if np.isfinite(value) else None


def _prior_from_args(args) -> NormalPrior | ExponentialPowerPrior | SpikeSlabPrior:
    for name in ("mu0", "sigma0_sq", "nu", "pi"):  # every one is echoed, read by the prior or not
        if not np.isfinite(getattr(args, name)):
            raise DataError(f"--{name.replace('_', '-')} must be finite, got {getattr(args, name)}")
    if args.prior == "normal":
        return NormalPrior(mu0=args.mu0, sigma0_sq=args.sigma0_sq)
    if args.prior == "ep":
        return ExponentialPowerPrior(nu=args.nu)
    return SpikeSlabPrior(nu=args.nu, pi_incl=args.pi)


def cmd_fit(args) -> int:
    out_dir = Path(args.out_dir)
    data, shift = load_dataset_csv(args.data, rho=args.rho)
    config = GibbsConfig(
        n_draws=args.draws, burn_in=args.burn_in, n_chains=args.chains, seed=args.seed
    )
    prior = _prior_from_args(args)
    feature_names = [f"x{j}" for j in range(1, data.p + 1)]
    coef_names = (["intercept"] if args.intercept else []) + feature_names
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable out dir fails before the first sweep
    draws = run_chain(data, prior, config, jobs=args.jobs, intercept=args.intercept)

    echo = {
        "command": "fit",
        "prior": args.prior,
        "mu0": args.mu0,
        "sigma0_sq": args.sigma0_sq,
        "nu": args.nu,
        "pi": args.pi,
        "rho": args.rho,
        "n_draws": args.draws,
        "burn_in": args.burn_in,
        "n_chains": args.chains,
        "seed": args.seed,
        "intercept": args.intercept,
        "reward_shift": shift,
        "columns": feature_names,
    }

    header = ["chain", "draw"] + [f"beta_{name}" for name in coef_names]
    if draws.gamma is not None:
        header += [f"gamma_{name}" for name in coef_names]
    kept = config.n_draws - config.burn_in
    gamma = draws.gamma if draws.gamma is not None else np.empty((config.n_chains, kept, 0))
    rows = (
        [c, config.burn_in + k, *beta, *flags]
        for c in range(config.n_chains)
        for k, (beta, flags) in enumerate(zip(draws.beta[c].tolist(), gamma[c].tolist()))
    )

    stacked = draws.stacked_beta
    ess = {
        name: effective_sample_size(draws.beta[:, :, j])
        for j, name in enumerate(coef_names)
    }
    rhat = (
        {name: _finite_or_none(split_rhat(draws.beta[:, :, j])) for j, name in enumerate(coef_names)}
        if config.n_chains >= 2
        else None
    )
    mags = coefficient_magnitudes(draws)
    summary = {
        "config": echo,
        "seed": args.seed,
        "retained_per_chain": kept,
        "n_chains": config.n_chains,
        "reward_shift": shift,
        "posterior_mean": {name: float(v) for name, v in zip(coef_names, stacked.mean(axis=0))},
        "coefficient_magnitudes": {name: float(v) for name, v in zip(feature_names, mags)},
        "ess": ess,
        "split_rhat": rhat,
    }
    if draws.gamma is not None:
        summary["gamma_inclusion"] = {
            name: float(v)
            for name, v in zip(coef_names, draws.stacked_gamma.mean(axis=0))
        }
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    _write_artifacts(out_dir, {"draws.csv": _csv_lines(echo, header, rows), "summary.json": [text + "\n"]})
    return EXIT_OK


def _prediction_lines(x: np.ndarray, prob: np.ndarray, action: np.ndarray, certainty: np.ndarray):
    """One text line per query or lattice node: its features, prob_plus, action, certainty.

    The arrays become Python scalars `ROW_BLOCK` rows at a time, so the
    writer's memory does not grow with the number of rows. Floats are written
    with repr, as `_csv_lines` writes them; where certainty is prob_plus
    (prob_plus >= 0.5, the same float) its text is prob_plus's.
    """
    for start in range(0, len(prob), ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        for xi, p, a, c in zip(x[block].tolist(), prob[block].tolist(), action[block].tolist(),
                               certainty[block].tolist()):
            p_text = repr(p)
            yield f"{','.join(map(repr, xi))},{p_text},{a},{p_text if c == p else repr(c)}\n"


def cmd_predict(args) -> int:
    draws, config = _parse_draws_csv(Path(args.draws))
    n_raw = draws.beta.shape[-1] - draws.intercept
    echo = {"command": "predict", "draws": str(args.draws), "source_config": config}

    if args.grid:
        j1, j2 = args.grid_dims
        if not (1 <= j1 <= n_raw and 1 <= j2 <= n_raw and j1 != j2):
            raise DataError(f"--grid-dims must be two different feature indices in 1..{n_raw}, got {j1} {j2}")
        coords, *preds = certainty_grid(draws, (j1 - 1, j2 - 1), args.grid_res)
        echo["grid_dims"] = list(args.grid_dims)
        echo["grid_res"] = args.grid_res
        name, lines = "certainty_grid.csv", _csv_text(echo, GRID_HEADER, _prediction_lines(coords, *preds))
    else:
        header, queries = read_numeric_csv(args.query)
        expected = [f"x{j}" for j in range(1, n_raw + 1)]
        if header != expected:
            raise DataError(f"{args.query}: query columns must be exactly {','.join(expected)}")
        body = _prediction_lines(queries, *recommend(draws, queries))
        name, lines = "recommendations.csv", _csv_text(echo, expected + GRID_HEADER[2:], body)
    _write_artifacts(Path(args.out_dir), {name: lines})
    return EXIT_OK


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out_dir)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]

    echo = {
        "command": "reproduce",
        "scenario": args.scenario,
        "n": args.n,
        "reps": args.reps,
        "methods": methods,
        "seed": args.seed,
        "heatmap_n": args.heatmap_n,
        "grid_res": args.grid_res,
    }

    # Every input is checked before the first fit, the heatmap fit's included.
    if len(set(args.n)) < len(args.n):
        raise DataError(f"--n lists a training size twice: {' '.join(map(str, args.n))}")
    specs = [ScenarioSpec(args.scenario, n_train, n_reps=args.reps, seed=args.seed) for n_train in args.n]
    ScenarioSpec(args.scenario, args.heatmap_n, seed=args.seed)
    check_grid_resolution(args.grid_res)
    check_methods(methods)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable out dir fails before the first fit

    table_rows = []
    raw_rows = []
    for n_train, spec in zip(args.n, specs):
        result = run_experiment(spec, methods, jobs=args.jobs)
        for method, rep, message in result.failures:
            print(f"warning: {method} (n={n_train}) rep {rep} failed and is left out of its rate: "
                  f"{message}", file=sys.stderr)
        for cell in result.cells:
            table_rows.append([cell.method, args.scenario, n_train, cell.mean_rate, cell.mc_se, cell.n_reps_ok])
            for rep, rate in enumerate(cell.rates.tolist()):
                raw_rows.append([cell.method, args.scenario, n_train, rep, rate])
    coords, *preds, mags = uncertainty_study(
        scenario_id=args.scenario,
        n_train=args.heatmap_n,
        seed=args.seed,
        resolution=args.grid_res,
    )
    key = ["method", "scenario", "n_train"]
    _write_artifacts(out_dir, {
        "tables.csv": _csv_lines(echo, key + ["mean_rate", "mc_se", "n_reps_ok"], table_rows),
        "raw_rates.csv": _csv_lines(echo, key + ["rep", "rate"], raw_rows),
        "heatmap.csv": _csv_text(echo, GRID_HEADER, _prediction_lines(coords, *preds)),
        "coefficient_magnitudes.csv": _csv_lines(
            echo, ["feature", "magnitude"], [[f"x{j + 1}", m] for j, m in enumerate(mags.tolist())]),
    })
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_all  # scipy.stats and scipy.integrate load only here

    checks = run_all(tol=args.tol, seed=args.seed)
    any_failed = False
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
        any_failed = any_failed or not check.passed
    return EXIT_VERIFY_FAIL if any_failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bowl",
        description="Bayesian outcome-weighted learning for individualized treatment rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--seed": dict(type=int, default=0, help="64-bit master seed"),
        "--jobs": dict(type=int, default=os.cpu_count() or 1,
                       help="parallelism for chains and replications (at least 1)"),
        "--out-dir": dict(default=".", help="directory for output artifacts"),
    }

    def add_shared(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p_fit = sub.add_parser("fit", help="fit a Bayesian ITR on a CSV dataset")
    add_shared(p_fit, "--seed", "--jobs", "--out-dir")
    p_fit.add_argument("--data", required=True, help="CSV with columns x1..xp,a,r")
    p_fit.add_argument("--prior", choices=("normal", "ep", "ss"), default="normal")
    p_fit.add_argument("--mu0", type=float, default=0.0)
    p_fit.add_argument("--sigma0-sq", dest="sigma0_sq", type=float, default=1.0)
    p_fit.add_argument("--nu", type=float, default=0.8)
    p_fit.add_argument("--pi", type=float, default=0.5)
    p_fit.add_argument("--rho", type=float, default=0.5)
    p_fit.add_argument("--draws", type=int, default=500)
    p_fit.add_argument("--burn-in", dest="burn_in", type=int, default=150)
    p_fit.add_argument("--chains", type=int, default=1)
    p_fit.add_argument("--intercept", action=argparse.BooleanOptionalAction, default=True)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="recommend treatments from saved draws")
    add_shared(p_pred, "--out-dir")
    p_pred.add_argument("--seed", type=int, default=0,
                        help="ignored (prediction is deterministic); the predict-bulk benchmark passes it")
    p_pred.add_argument("--draws", required=True, help="draws.csv from a fit")
    target = p_pred.add_mutually_exclusive_group(required=True)
    target.add_argument("--query", help="CSV of feature rows x1..xp")
    target.add_argument("--grid", action="store_true", help="evaluate a certainty lattice instead")
    p_pred.add_argument("--grid-dims", type=int, nargs=2, default=(1, 2), metavar=("J1", "J2"),
                        help="1-based feature indices spanning the lattice")
    p_pred.add_argument("--grid-res", type=int, default=33)
    p_pred.set_defaults(func=cmd_predict)

    p_rep = sub.add_parser("reproduce", help="rerun the simulation study")
    add_shared(p_rep, "--seed", "--jobs", "--out-dir")
    p_rep.add_argument("--scenario", type=int, choices=(1, 2), required=True)
    p_rep.add_argument("--n", type=int, nargs="+", default=[100, 200, 400, 800],
                       help="training sizes")
    p_rep.add_argument("--reps", type=int, default=200)
    p_rep.add_argument("--methods", default=",".join(METHODS))
    p_rep.add_argument("--heatmap-n", dest="heatmap_n", type=int, default=1000)
    p_rep.add_argument("--grid-res", dest="grid_res", type=int, default=33)
    p_rep.set_defaults(func=cmd_reproduce)

    p_ver = sub.add_parser("verify", help="run the numerical identity checks")
    add_shared(p_ver, "--seed")
    p_ver.add_argument("--tol", type=float, default=1e-6,
                       help="tolerance for the scale-mixture identity and spike-and-slab log-odds checks")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "jobs" in args and args.jobs < 1:
            raise DataError(f"--jobs must be at least 1, got {args.jobs}")
        if args.seed < 0:
            raise DataError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (OSError, ValueError) as exc:  # DataError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except GibbsNumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
