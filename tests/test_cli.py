import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import bowl.simulate
from bowl import verify
from bowl.cli import ROW_BLOCK, _parse_draws_csv, main
from bowl.gibbs import GibbsNumericalError, PosteriorDraws
from bowl.prediction import recommend
from bowl.pseudo_model import read_numeric_csv
from bowl.simulate import ScenarioSpec, _fit_seed, generate_scenario


def write_scenario_csv(path, n=60, seed=3, p=10):
    data, _ = generate_scenario(ScenarioSpec(1, n, seed=seed, p=p), 0)
    header = [f"x{j}" for j in range(1, p + 1)] + ["a", "r"]
    lines = [",".join(header)]
    for i in range(data.n):
        cells = [repr(float(v)) for v in data.features[i]]
        cells += [str(int(data.actions[i])), repr(float(data.rewards[i]))]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return data


def query_features(m, p=10):
    return generate_scenario(ScenarioSpec(1, m, seed=4, p=p), 1)[0].features


def reject_constant(token):
    raise AssertionError(f"non-standard JSON token {token}")


def no_run(*args, **kwargs):
    raise AssertionError("sampling started before the input and out dir were checked")


class TestFit:
    def test_retains_expected_rows_and_summary(self, tmp_path, capsys):
        csv = tmp_path / "train.csv"
        write_scenario_csv(csv)
        out = tmp_path / "out"
        rc = main(["fit", "--data", str(csv), "--prior", "normal", "--seed", "7",
                   "--out-dir", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["retained_per_chain"] == 350
        assert summary["config"]["seed"] == 7
        assert "ess" in summary and summary["split_rhat"] is None
        body = (out / "draws.csv").read_text().splitlines()
        assert body[0].startswith("# config=")
        assert len(body) == 2 + 350  # comment + header + retained rows

    def test_missing_reward_column_exit_2(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("x1,x2,a\n0.5,0.2,1\n")
        rc = main(["fit", "--data", str(csv), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "r" in capsys.readouterr().err

    def test_two_chains_differ_but_rerun_is_bitwise_identical(self, tmp_path):
        csv = tmp_path / "train.csv"
        write_scenario_csv(csv, n=40)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            rc = main(["fit", "--data", str(csv), "--chains", "2", "--draws", "60",
                       "--burn-in", "20", "--seed", "11", "--out-dir", str(out)])
            assert rc == 0
        draws_a = (out_a / "draws.csv").read_bytes()
        assert draws_a == (out_b / "draws.csv").read_bytes()
        rows = np.loadtxt(out_a / "draws.csv", delimiter=",", skiprows=2, comments=None)
        chain0 = rows[rows[:, 0] == 0][:, 2:]
        chain1 = rows[rows[:, 0] == 1][:, 2:]
        assert not np.array_equal(chain0, chain1)
        summary = json.loads((out_a / "summary.json").read_text())
        assert summary["split_rhat"] is not None

    def test_too_few_draws_for_rhat_write_strict_json_null(self, tmp_path):
        # Three kept draws per chain is below split-Rhat's four, so every R-hat is NaN.
        csv = tmp_path / "train.csv"
        write_scenario_csv(csv, n=40, p=4)
        out = tmp_path / "out"
        assert main(["fit", "--data", str(csv), "--chains", "2", "--draws", "4", "--burn-in", "1",
                     "--jobs", "1", "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
        assert summary["split_rhat"] == dict.fromkeys(["intercept", "x1", "x2", "x3", "x4"])

    def test_stuck_disagreeing_chains_write_null_rhat(self, tmp_path, monkeypatch):
        csv = tmp_path / "train.csv"
        write_scenario_csv(csv, n=40, p=4)
        stuck = np.stack([np.full((10, 5), 1.0), np.full((10, 5), 2.0)])  # constant, unequal chains
        monkeypatch.setattr("bowl.cli.run_chain", lambda *args, **kwargs: PosteriorDraws(stuck, None, True))
        out = tmp_path / "out"
        assert main(["fit", "--data", str(csv), "--chains", "2", "--draws", "12", "--burn-in", "2",
                     "--out-dir", str(out)]) == 0
        text = (out / "summary.json").read_text()
        assert "Infinity" not in text
        rhat = json.loads(text, parse_constant=reject_constant)["split_rhat"]
        assert rhat == dict.fromkeys(["intercept", "x1", "x2", "x3", "x4"])

    def test_directory_as_data_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("bowl.cli.run_chain", no_run)
        assert main(["fit", "--data", str(tmp_path), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err and "Traceback" not in err

    def test_file_as_out_dir_exit_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        csv = tmp_path / "train.csv"
        write_scenario_csv(csv, n=40)
        monkeypatch.setattr("bowl.cli.run_chain", no_run)
        assert main(["fit", "--data", str(csv), "--out-dir", str(csv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(csv) in err and "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--draws", "10", "--burn-in", "10"], ["--prior", "ep", "--nu", "0"]])
    def test_bad_input_makes_no_out_dir(self, flags, tmp_path, capsys):
        csv = tmp_path / "train.csv"
        write_scenario_csv(csv, n=40)
        out = tmp_path / "out"
        assert main(["fit", "--data", str(csv), *flags, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--prior", "ep", "--nu", "1e200"], "the slab variance nu^2 sigma_j^2 is not finite and positive (check nu"),
        (["--mu0", "inf"], "--mu0 must be finite, got inf"),
        (["--mu0", "nan"], "--mu0 must be finite, got nan"),
        (["--prior", "ss", "--nu", "inf"], "--nu must be finite, got inf"),
        (["--sigma0-sq", "1e-320"], "the prior precision 1/sigma0_sq is not finite and positive (check sigma0_sq)"),
        (["--prior", "ss", "--nu", "1e-200"], "the slab precision 1/(nu^2 sigma_j^2) is not finite and positive"),
        (["--prior", "ep", "--nu", "inf"], "--nu must be finite, got inf"),
        (["--rho", "1e-300"], "its square, is not finite and positive (check rho and the rewards)"),
        (["--sigma0-sq", "inf"], "--sigma0-sq must be finite, got inf"),
        (["--prior", "normal", "--pi", "nan"], "--pi must be finite, got nan"),  # echoed, though unread
        (["--mu0", "1e300", "--sigma0-sq", "1e-10"], "the prior linear term mu0/sigma0_sq is not finite (check mu0"),
    ])
    def test_hyperparameter_breaking_a_constant_exits_2_before_sampling(self, flags, message, tmp_path, capsys,
                                                                         recwarn, monkeypatch):
        csv = tmp_path / "train.csv"
        write_scenario_csv(csv, n=60, p=3)
        monkeypatch.setattr("bowl.gibbs._run_single_chain", no_run)
        out = tmp_path / "out"
        assert main(["fit", "--data", str(csv), "--draws", "20", "--burn-in", "5", *flags,
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert [str(w.message) for w in recwarn] == []
        assert not out.exists() or not any(out.iterdir())

    def test_failure_after_the_draws_writes_nothing(self, tmp_path, capsys, monkeypatch):
        csv = tmp_path / "train.csv"
        write_scenario_csv(csv, n=40, p=3)

        def fail(draws):
            raise ValueError("synthetic failure after sampling")

        monkeypatch.setattr("bowl.cli.coefficient_magnitudes", fail)
        out = tmp_path / "out"
        assert main(["fit", "--data", str(csv), "--draws", "20", "--burn-in", "5", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: synthetic failure after sampling\n"
        assert list(out.iterdir()) == []

    def test_spike_slab_summary_has_inclusion(self, tmp_path):
        csv = tmp_path / "train.csv"
        write_scenario_csv(csv, n=40)
        out = tmp_path / "out"
        rc = main(["fit", "--data", str(csv), "--prior", "ss", "--draws", "60",
                   "--burn-in", "20", "--out-dir", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "gamma_inclusion" in summary

    def test_no_intercept_round_trips_through_predict(self, tmp_path):
        csv = tmp_path / "train.csv"
        write_scenario_csv(csv, n=40, p=4)
        fit = tmp_path / "fit"
        assert main(["fit", "--data", str(csv), "--prior", "ep", "--no-intercept", "--draws", "60",
                     "--burn-in", "20", "--jobs", "1", "--out-dir", str(fit)]) == 0
        names = [f"x{j}" for j in range(1, 5)]
        assert (fit / "draws.csv").read_text().splitlines()[1] == ",".join(
            ["chain", "draw"] + [f"beta_{name}" for name in names]
        )
        summary = json.loads((fit / "summary.json").read_text())
        assert list(summary["posterior_mean"]) == list(summary["coefficient_magnitudes"]) == names
        draws, config = _parse_draws_csv(fit / "draws.csv")
        assert draws.intercept is False and config["intercept"] is False
        assert draws.beta.shape == (1, 40, 4)

        x = query_features(25, p=4)
        query = tmp_path / "query.csv"
        query.write_text("\n".join([",".join(names)] + [",".join(map(repr, row)) for row in x.tolist()]) + "\n")
        assert main(["predict", "--draws", str(fit / "draws.csv"), "--query", str(query),
                     "--out-dir", str(tmp_path / "pred")]) == 0
        body = np.loadtxt(tmp_path / "pred" / "recommendations.csv", delimiter=",", skiprows=2, comments=None)
        assert body.shape == (25, 4 + 3)
        np.testing.assert_allclose(body[:, 4], ndtr(x @ draws.stacked_beta.T).mean(axis=1), rtol=1e-13)

        assert main(["predict", "--draws", str(fit / "draws.csv"), "--grid", "--grid-res", "3",
                     "--out-dir", str(tmp_path / "pred")]) == 0
        grid = np.loadtxt(tmp_path / "pred" / "certainty_grid.csv", delimiter=",", skiprows=2, comments=None)
        # Without an affine term the rule is exactly undecided at the origin, node 4 of the 3 x 3 lattice.
        assert grid.shape == (9, 5) and tuple(grid[4, :3]) == (0.0, 0.0, 0.5)


class TestPredict:
    @pytest.fixture()
    def fitted(self, tmp_path):
        csv = tmp_path / "train.csv"
        write_scenario_csv(csv, n=40)
        out = tmp_path / "fit"
        assert main(["fit", "--data", str(csv), "--draws", "80", "--burn-in", "20",
                     "--chains", "2", "--jobs", "1", "--seed", "2", "--out-dir", str(out)]) == 0
        return out / "draws.csv"

    @staticmethod
    def rejects(argv, path, capsys):
        """`bowl predict` exits 2 and its message names the offending file."""
        assert main(["predict"] + argv) == 2
        assert str(path) in capsys.readouterr().err

    @staticmethod
    def edited_draws(fitted, tmp_path, edit):
        """A copy of draws.csv with `edit` applied to its list of data rows."""
        lines = fitted.read_text().splitlines()
        path = tmp_path / "edited_draws.csv"
        path.write_text("\n".join(lines[:2] + edit(lines[2:])) + "\n")
        return path

    @pytest.mark.parametrize("m", [ROW_BLOCK, 2 * ROW_BLOCK + 1])
    def test_rows_in_blocks_give_the_bytes_of_whole_arrays(self, fitted, tmp_path, m):
        """recommendations.csv for exactly one block of query rows, and for two blocks and one row, equals
        the file written from the whole arrays converted to Python scalars at once."""
        query = tmp_path / "query.csv"
        header = [f"x{j}" for j in range(1, 11)]
        np.savetxt(query, query_features(m), delimiter=",", header=",".join(header), comments="")
        out = tmp_path / "pred"
        assert main(["predict", "--draws", str(fitted), "--query", str(query), "--out-dir", str(out)]) == 0

        draws, config = _parse_draws_csv(fitted)
        x = read_numeric_csv(query)[1]
        columns = (x.tolist(), *(column.tolist() for column in recommend(draws, x)))
        echo = {"command": "predict", "draws": str(fitted), "source_config": config}
        lines = ["# config=" + json.dumps(echo, sort_keys=True), ",".join(header + ["prob_plus", "action", "certainty"])]
        lines += [",".join(map(str, [*xi, p, a, c])) for xi, p, a, c in zip(*columns)]
        assert len(lines) == m + 2
        assert (out / "recommendations.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_nonfinite_draw_exit_2(self, fitted, tmp_path, capsys):
        for bad in ("nan", "inf", "-inf"):
            def edit(rows):
                cells = rows[5].split(",")
                cells[3] = bad
                return rows[:5] + [",".join(cells)] + rows[6:]

            path = self.edited_draws(fitted, tmp_path, edit)
            self.rejects(["--draws", str(path), "--grid", "--out-dir", str(tmp_path)], path, capsys)

    def test_missing_draw_rows_exit_2(self, fitted, tmp_path, capsys):
        path = self.edited_draws(fitted, tmp_path, lambda rows: rows[:-2])
        self.rejects(["--draws", str(path), "--grid", "--out-dir", str(tmp_path)], path, capsys)

    def test_chain_and_draw_columns_checked(self, fitted, tmp_path, capsys):
        def swap_chains(rows):  # chain 1's rows first
            return rows[60:] + rows[:60]

        def skip_a_draw(rows):  # the same row count, one draw index repeated
            return rows[:1] + rows[:1] + rows[2:]

        for edit in (swap_chains, skip_a_draw):
            path = self.edited_draws(fitted, tmp_path, edit)
            self.rejects(["--draws", str(path), "--grid", "--out-dir", str(tmp_path)], path, capsys)

    def test_malformed_query_exit_2(self, fitted, tmp_path, capsys):
        header = ",".join(f"x{j}" for j in range(1, 11))
        row = ",".join(["0.1"] * 10)
        bodies = {
            "non_numeric": row + "\n" + row.replace("0.1", "abc", 1),
            "ragged": row + "\n" + row + ",0.2",
            "short": row + "\n0.1,0.2",
            "nonfinite": row.replace("0.1", "nan", 1),
            "header_only": "",
        }
        for name, body in bodies.items():
            query = tmp_path / f"{name}.csv"
            query.write_text(header + "\n" + body + "\n")
            self.rejects(["--draws", str(fitted), "--query", str(query),
                          "--out-dir", str(tmp_path)], query, capsys)

    def test_query_rerun_byte_identical_and_equal_to_recommend(self, fitted, tmp_path):
        x = query_features(300)
        query = tmp_path / "query.csv"
        lines = [",".join(f"x{j}" for j in range(1, 11))]
        lines += [",".join(repr(v) for v in row) for row in x.tolist()]
        query.write_text("\n".join(lines) + "\n")
        outs = [tmp_path / "pa", tmp_path / "pb"]
        for out in outs:
            assert main(["predict", "--draws", str(fitted), "--query", str(query),
                         "--out-dir", str(out)]) == 0
        raw = [(out / "recommendations.csv").read_bytes() for out in outs]
        assert raw[0] == raw[1]
        body = np.loadtxt(outs[0] / "recommendations.csv", delimiter=",", skiprows=2,
                          comments=None)
        prob, action, certainty = recommend(_parse_draws_csv(fitted)[0], x)
        np.testing.assert_array_equal(body[:, :10], x)
        np.testing.assert_array_equal(body[:, 10], prob)
        np.testing.assert_array_equal(body[:, 11], action)
        np.testing.assert_array_equal(body[:, 12], certainty)
        # The action column is written as the integers 1 and -1.
        actions = {line.split(",")[11] for line in raw[0].decode().splitlines()[2:]}
        assert actions <= {"1", "-1"}

    def test_grid_row_count(self, fitted, tmp_path):
        out = tmp_path / "pred"
        rc = main(["predict", "--draws", str(fitted), "--grid", "--grid-res", "33",
                   "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "certainty_grid.csv").read_text().splitlines()
        assert lines[1] == "x_j1,x_j2,prob_plus,action,certainty"
        assert len(lines) == 2 + 33 * 33

    def test_query_certainty_in_range(self, fitted, tmp_path):
        query = tmp_path / "query.csv"
        header = ",".join(f"x{j}" for j in range(1, 11))
        query.write_text(header + "\n" + ",".join(["0.1"] * 10) + "\n")
        out = tmp_path / "pred"
        rc = main(["predict", "--draws", str(fitted), "--query", str(query),
                   "--out-dir", str(out)])
        assert rc == 0
        rows = (out / "recommendations.csv").read_text().splitlines()
        certainty = float(rows[2].split(",")[-1])
        action = float(rows[2].split(",")[-2])
        assert 0.5 <= certainty <= 1.0
        assert action in (-1.0, 1.0)

    def test_directory_as_query_exit_2(self, fitted, tmp_path, capsys):
        query = tmp_path / "queries"
        query.mkdir()
        assert main(["predict", "--draws", str(fitted), "--query", str(query),
                     "--out-dir", str(tmp_path / "pred")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err and "Traceback" not in err
        assert not (tmp_path / "pred").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--grid", "--query", "query.csv"], "argument --query: not allowed with argument --grid"),
        ([], "one of the arguments --query --grid is required"),
    ], ids=["both", "neither"])
    def test_exactly_one_of_query_and_grid(self, fitted, tmp_path, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:  # argparse rejects the flags before any file is read
            main(["predict", "--draws", str(fitted), *flags, "--out-dir", str(tmp_path / "pred")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "pred").exists()

    def test_query_dimension_mismatch_exit_2(self, fitted, tmp_path):
        query = tmp_path / "query.csv"
        query.write_text("x1,x2\n0.1,0.2\n")
        assert main(["predict", "--draws", str(fitted), "--query", str(query),
                     "--out-dir", str(tmp_path)]) == 2

    def test_malformed_config_line_exit_2(self, fitted, tmp_path, capsys):
        lines = fitted.read_text().splitlines()
        for name, config in (("not_json", "{n_draws: 80}"), ("not_object", "[1, 2]")):
            path = tmp_path / f"{name}.csv"
            path.write_text("\n".join(["# config=" + config] + lines[1:]) + "\n")
            self.rejects(["--draws", str(path), "--grid", "--out-dir", str(tmp_path)], path, capsys)

    def test_zero_draws_file_exit_2(self, tmp_path):
        empty = tmp_path / "draws.csv"
        empty.write_text('# config={"intercept": false, "n_chains": 1}\nchain,draw,beta_x1\n')
        assert main(["predict", "--draws", str(empty), "--grid",
                     "--out-dir", str(tmp_path)]) == 2


class TestReproduce:
    def test_fixed_seed_byte_identical_and_jobs_invariant(self, tmp_path):
        args = ["reproduce", "--scenario", "1", "--n", "60", "--reps", "2",
                "--methods", "owl", "--seed", "5", "--heatmap-n", "80",
                "--grid-res", "5"]
        outs = []
        for name, jobs in (("r1", "1"), ("r2", "1"), ("r4", "2")):
            out = tmp_path / name
            assert main(args + ["--jobs", jobs, "--out-dir", str(out)]) == 0
            outs.append(out)
        for artifact in ("tables.csv", "raw_rates.csv", "heatmap.csv",
                         "coefficient_magnitudes.csv"):
            ref = (outs[0] / artifact).read_bytes()
            assert ref == (outs[1] / artifact).read_bytes(), artifact
            assert ref == (outs[2] / artifact).read_bytes(), artifact

    def test_single_table_row_shape(self, tmp_path):
        out = tmp_path / "rep"
        rc = main(["reproduce", "--scenario", "2", "--n", "50", "--reps", "2",
                   "--methods", "owl,bowl-normal", "--seed", "9", "--heatmap-n", "60",
                   "--grid-res", "4", "--out-dir", str(out)])
        assert rc == 0
        lines = (out / "tables.csv").read_text().splitlines()
        assert lines[1] == "method,scenario,n_train,mean_rate,mc_se,n_reps_ok"
        assert len(lines) == 2 + 2  # two methods, one n
        raw = (out / "raw_rates.csv").read_text().splitlines()
        assert len(raw) == 2 + 2 * 2

    def test_failed_rep_is_nan_and_explained(self, tmp_path, monkeypatch, capsys):
        args = ["reproduce", "--scenario", "1", "--n", "50", "--reps", "3",
                "--methods", "owl,bowl-normal", "--seed", "5", "--heatmap-n", "60",
                "--grid-res", "4", "--jobs", "1"]
        assert main(args + ["--out-dir", str(tmp_path / "clean")]) == 0
        real_run_chain = bowl.simulate.run_chain
        failing_seed = _fit_seed(5, 1, 1)  # bowl-normal, rep 1

        def fail_one_rep(data, prior, config, **kwargs):
            if config.seed == failing_seed:
                raise GibbsNumericalError("synthetic failure", chain=0, iteration=7)
            return real_run_chain(data, prior, config, **kwargs)

        monkeypatch.setattr("bowl.simulate.run_chain", fail_one_rep)
        capsys.readouterr()
        assert main(args + ["--out-dir", str(tmp_path / "failed")]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1
        assert "bowl-normal" in warnings[0] and "rep 1" in warnings[0]
        assert "chain 0, iteration 7: synthetic failure" in warnings[0]

        clean = (tmp_path / "clean" / "raw_rates.csv").read_text().splitlines()
        failed = (tmp_path / "failed" / "raw_rates.csv").read_text().splitlines()
        assert len(clean) == len(failed) == 2 + 2 * 3
        for before, after in zip(clean[2:], failed[2:]):
            if after.startswith("bowl-normal,1,50,1,"):
                assert after.endswith(",nan") and not before.endswith(",nan")
            else:
                assert after == before
        table = (tmp_path / "failed" / "tables.csv").read_text().splitlines()
        assert [row.split(",")[-1] for row in table[2:]] == ["3", "2"]  # n_reps_ok: owl, bowl-normal

    def test_heatmap_fit_failure_writes_nothing(self, tmp_path, capsys, monkeypatch):
        def fail(**kwargs):
            raise GibbsNumericalError("synthetic failure", chain=0, iteration=3)

        monkeypatch.setattr("bowl.cli.uncertainty_study", fail)
        out = tmp_path / "out"
        assert main(["reproduce", "--scenario", "1", "--n", "40", "--reps", "1", "--methods", "owl",
                     "--jobs", "1", "--out-dir", str(out)]) == 3
        assert "numerical failure: chain 0, iteration 3: synthetic failure" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_zero_reps_exit_2(self, tmp_path, capsys):
        assert main(["reproduce", "--scenario", "1", "--reps", "0",
                     "--out-dir", str(tmp_path)]) == 2
        assert "n_reps" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags, message", [
        (["--n", "60", "--heatmap-n", "0"], "n_train, n_test and n_reps must be positive"),
        (["--n", "60", "--grid-res", "1"], "grid resolution must be at least 2"),
        (["--n", "60", "0"], "n_train, n_test and n_reps must be positive"),
    ])
    def test_bad_input_exits_2_before_any_fit(self, flags, message, tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran before every input was checked")

        monkeypatch.setattr("bowl.cli.run_experiment", no_fit)
        monkeypatch.setattr("bowl.cli.uncertainty_study", no_fit)
        out = tmp_path / "out"  # not made: every input is checked before the out dir
        assert main(["reproduce", "--scenario", "1", "--reps", "1", *flags, "--out-dir", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_file_as_out_dir_exit_2_before_any_fit(self, tmp_path, capsys, monkeypatch):
        for name in ("bowl.cli.run_experiment", "bowl.cli.uncertainty_study", "bowl.simulate.run_chain"):
            monkeypatch.setattr(name, no_run)
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main(["reproduce", "--scenario", "1", "--n", "60", "--reps", "1", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
        assert out.read_text() == "not a directory\n"

    def test_unknown_method_exit_2(self, tmp_path, capsys):
        assert main(["reproduce", "--scenario", "1", "--reps", "1",
                     "--methods", "qlearning", "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "unknown method 'qlearning'; choose from owl, bowl-normal, bowl-ep, bowl-ss" in err
        assert not any(tmp_path.iterdir())

    def test_repeated_method_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("bowl.cli.run_experiment", no_run)
        assert main(["reproduce", "--scenario", "1", "--reps", "1",
                     "--methods", "owl,bowl-ep,owl", "--out-dir", str(tmp_path / "out")]) == 2
        assert "error: method 'owl' is listed twice" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestJobs:
    @pytest.mark.parametrize("argv", [
        ["fit", "--data", "unused.csv", "--chains", "2", "--jobs", "0"],
        ["reproduce", "--scenario", "1", "--reps", "1", "--jobs", "-3"],
        ["predict", "--draws", "unused.csv", "--grid", "--jobs", "0"],
    ])
    def test_jobs_below_one_exit_2(self, argv, tmp_path, capsys):
        argv = argv + ["--out-dir", str(tmp_path)]
        if argv[0] == "predict":  # predict runs in one process and has no --jobs flag
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --jobs 0" in capsys.readouterr().err
        else:
            assert main(argv) == 2
            assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["verify", "--jobs", "1"], ["verify", "--out-dir", "."]])
    def test_verify_takes_no_jobs_or_out_dir(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestVerify:
    def test_full_run_passes(self, monkeypatch, capsys):
        # Criteria 2 and 3 run these two sampling checks at full size and seed 0; here
        # they are stubbed, and the three cheap checks run for real.
        seeds = {}
        for name in ("check_beta_conditional_moments", "check_gibbs_vs_exact"):
            def stub(seed, name=name):
                seeds.setdefault(name, []).append(seed)
                return verify.CheckResult(name, True, "stubbed")

            monkeypatch.setattr(verify, name, stub)
        assert main(["verify", "--seed", "0"]) == 0
        assert seeds == {"check_beta_conditional_moments": [0], "check_gibbs_vs_exact": [0]}
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 5 and out.count("stubbed") == 2
        for name in ("scale-mixture identity", "half-order GIG moments", "spike-and-slab Schur log odds"):
            assert f"[PASS] {name}: " in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-6"])
    def test_tolerance_not_finite_and_positive_exits_2_before_any_check(self, tol, monkeypatch, capsys):
        for name in ("check_scale_mixture_identity", "check_gig_moments", "check_beta_conditional_moments",
                     "check_ss_log_odds", "check_gibbs_vs_exact"):
            monkeypatch.setattr(verify, name, no_run)
        assert main(["verify", f"--tol={tol}"]) == 2
        assert capsys.readouterr().err == f"error: tol must be finite and positive, got {float(tol)}\n"

    def test_absurd_tolerance_fails(self, monkeypatch, capsys):
        # The two sampling checks ignore --tol and run at full size in criteria 2 and 3.
        for name in ("check_beta_conditional_moments", "check_gibbs_vs_exact"):
            stub = verify.CheckResult(name, True, "stubbed")
            monkeypatch.setattr(verify, name, lambda seed, stub=stub: stub)
        assert main(["verify", "--tol", "1e-300"]) == 1
        assert "[FAIL]" in capsys.readouterr().out


# Each numeric flag takes its valid value or, for up to two flags at a time (and
# for each `--grid-dims` value), one of EXTREMES. The `--flag=value` form lets a
# negative value through argparse; an integer flag parses only "0" of these.
EXTREMES = ["0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1e300", "-1e300", "inf", "-inf", "nan"]


def run_argv(argv) -> tuple[int, str]:
    """(exit code, stderr) of `bowl.cli.main(argv)`, argparse's SystemExit counted as its code.

    Every warning raised in the call is shown on that stderr as Python shows it
    outside pytest, which would otherwise capture it.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return code, shown + err.getvalue()


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """A 40-row and a 60-row p=3 training CSV, a fit's draws.csv and a 5-row query CSV."""
    root = tmp_path_factory.mktemp("argv")
    write_scenario_csv(root / "train.csv", n=40, p=3)
    write_scenario_csv(root / "train60.csv", n=60, p=3)
    assert run_argv(["fit", "--data", str(root / "train.csv"), "--draws", "12", "--burn-in", "4",
                     "--jobs", "1", "--out-dir", str(root / "fit")])[0] == 0
    np.savetxt(root / "query.csv", query_features(5, p=3), delimiter=",", header="x1,x2,x3", comments="")
    return root


FIT_FLAGS = {"--mu0": "0.3", "--sigma0-sq": "1.0", "--nu": "0.8", "--pi": "0.5", "--rho": "0.5",
             "--draws": "12", "--burn-in": "4", "--chains": "2", "--seed": "3", "--jobs": "1"}
PREDICT_FLAGS = {"--grid-res": "4", "--seed": "0"}
REPRODUCE_FLAGS = {"--n": "30", "--reps": "1", "--heatmap-n": "30", "--grid-res": "3", "--seed": "1",
                   "--jobs": "1"}


@st.composite
def argvs(draw):
    """An argv whose input paths start with "{inputs}/", for the `small_inputs` directory."""
    command = draw(st.sampled_from(["fit", "predict", "reproduce"]))
    if command == "fit":
        data = draw(st.sampled_from(["train.csv", "train60.csv"]))
        argv = ["fit", "--data", f"{{inputs}}/{data}", "--prior", draw(st.sampled_from(["normal", "ep", "ss"]))]
        flags = FIT_FLAGS
    elif command == "predict":
        argv = ["predict", "--draws", "{inputs}/fit/draws.csv"]
        argv += draw(st.sampled_from([["--grid"], ["--query", "{inputs}/query.csv"]]))
        argv += ["--grid-dims", draw(st.sampled_from(["1", *EXTREMES])), draw(st.sampled_from(["3", *EXTREMES]))]
        flags = PREDICT_FLAGS
    else:
        argv = ["reproduce", "--scenario", "1", "--methods", "owl,bowl-normal"]
        flags = REPRODUCE_FLAGS
    broken = draw(st.lists(st.sampled_from(list(flags)), max_size=2, unique=True))
    return argv + [f"{flag}={draw(st.sampled_from(EXTREMES)) if flag in broken else valid}"
                   for flag, valid in flags.items()]


# A finite mu0 that overflows the first lambda draw's chi = (w * margin)^2: exit 3, no numpy warning.
MU0_OVERFLOW = ["fit", "--data", "{inputs}/train60.csv", "--prior", "normal"] + [
    f"{flag}={'1e300' if flag == '--mu0' else valid}" for flag, valid in FIT_FLAGS.items()]


class TestArgvProperty:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argv=argvs())
    @example(argv=MU0_OVERFLOW)
    @example(argv=MU0_OVERFLOW + ["--jobs=2"])  # the failing chain runs in a worker process
    def test_exit_code_stderr_and_out_dir(self, small_inputs, argv):
        argv = [arg.replace("{inputs}", str(small_inputs)) for arg in argv]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code, err = run_argv(argv + ["--out-dir", str(out)])
            left = sorted(p.name for p in out.iterdir()) if out.exists() else []
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        assert "RuntimeWarning" not in err, (argv, err)
        if code == 3:
            assert err.startswith("numerical failure: ") and err.count("\n") == 1, (argv, err)
        if code != 0:
            assert left == [], (argv, code, left)
