import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from periodickf import (
    filter_series,
    par_to_dict,
    random_stationary_par,
    save_model,
    simulate,
    solve_dple,
)
from periodickf.cli import _read_observations, main
from periodickf.linalg import rel_err
from conftest import ROOT, pinned_state_model, random_stationary_model

PAR2_5 = ROOT / "demos" / "models" / "par2_5.json"


@pytest.fixture
def model_file(tmp_path):
    model = random_stationary_model(110, r=3, S=2, m=1)
    path = tmp_path / "model.json"
    save_model(model, path)
    return model, str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_obs(tmp_path, y, header=None):
    path = tmp_path / "y.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows([[repr(float(v)) for v in row] for row in y])
    return str(path)


class TestValidate:
    def test_valid_model(self, model_file, capsys):
        _, path = model_file
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_valid_par(self, tmp_path, capsys):
        par = random_stationary_par(S=2, p=2, seed=1)
        path = tmp_path / "par.json"
        path.write_text(json.dumps(par_to_dict(par)))
        assert main(["validate", str(path)]) == 0

    def test_par_checked_once(self, tmp_path, monkeypatch):
        import periodickf.cli
        import periodickf.model
        path = tmp_path / "par.json"
        path.write_text(json.dumps(par_to_dict(
            random_stationary_par(S=2, p=2, seed=1))))
        calls = []
        original = periodickf.model.validate_par

        def counting(par):
            calls.append(par)
            return original(par)

        monkeypatch.setattr(periodickf.model, "validate_par", counting)
        monkeypatch.setattr(periodickf.cli, "validate_par", counting)
        assert main(["validate", str(path)]) == 0
        assert len(calls) == 1

    def test_violations_listed(self, tmp_path, capsys):
        model = random_stationary_model(111, r=2, S=2, m=1)
        model.Q[1] = -np.eye(2)
        path = tmp_path / "bad.json"
        save_model(model, path)
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "Q[2]" in out and "positive semidefinite" in out

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/model.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unparseable_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"S": oops')
        assert main(["validate", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_wrong_schema(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"S": 2, "r": 1}))
        assert main(["validate", str(path)]) == 2


class TestSimulate:
    def test_writes_observation_columns(self, model_file, tmp_path):
        _, path = model_file
        out = tmp_path / "y.csv"
        assert main(["simulate", path, "-n", "5", "--seed", "3",
                     "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["y1"] and len(rows) == 5

    def test_states_flag_adds_columns(self, model_file, tmp_path):
        _, path = model_file
        out = tmp_path / "xy.csv"
        assert main(["simulate", path, "-n", "4", "--states",
                     "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["y1", "x1", "x2", "x3"]
        assert all(len(row) == 4 for row in rows)

    def test_matches_library_draw(self, model_file, tmp_path):
        model, path = model_file
        out = tmp_path / "y.csv"
        main(["simulate", path, "-n", "6", "--seed", "9", "-o", str(out)])
        _, rows = read_csv(out)
        _, y = simulate(model, 6, seed=9)
        got = np.array([[float(c) for c in row] for row in rows])
        assert np.array_equal(got, y)  # repr round-trips exactly

    def test_zero_steps(self, model_file, tmp_path):
        _, path = model_file
        out = tmp_path / "empty.csv"
        assert main(["simulate", path, "-n", "0", "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["y1"] and rows == []

    def test_negative_steps_is_usage_error(self, model_file):
        _, path = model_file
        assert main(["simulate", path, "-n", "-3"]) == 2


class TestFilter:
    def test_columns_and_running_loglik(self, model_file, tmp_path):
        model, path = model_file
        data = write_obs(tmp_path, simulate(model, 20, seed=5)[1],
                         header=["y1"])
        out = tmp_path / "f.csv"
        assert main(["filter", path, data, "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "e1", "omega1", "loglik"]
        assert [row[0] for row in rows] == [str(t) for t in range(1, 21)]
        ref = filter_series(model, simulate(model, 20, seed=5)[1])
        assert float(rows[-1][3]) == pytest.approx(ref.loglik, rel=1e-12)

    def test_sigma_trace_columns(self, model_file, tmp_path):
        model, path = model_file
        data = write_obs(tmp_path, simulate(model, 8, seed=6)[1])
        out = tmp_path / "f.csv"
        assert main(["filter", path, data, "--sigma-trace",
                     "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[-3:] == ["sigma1", "sigma2", "sigma3"]
        ref = filter_series(model, simulate(model, 8, seed=6)[1],
                            sigma_trace=True)
        got = float(rows[0][4])
        assert got == pytest.approx(ref.sigma_trace[0][0, 0], rel=1e-12)

    def test_compare_column_is_running_max(self, model_file, tmp_path):
        model, path = model_file
        data = write_obs(tmp_path, simulate(model, 30, seed=7)[1])
        out = tmp_path / "f.csv"
        assert main(["filter", path, data, "--engine", "chand31",
                     "--init", "stationary", "--compare", "kalman",
                     "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[-1] == "dev_vs_kalman"
        devs = [float(row[-1]) for row in rows]
        assert devs == sorted(devs)  # running maximum never decreases
        assert devs[-1] < 1e-8

    def test_compare_engine_with_itself_is_zero(self, model_file, tmp_path):
        model, path = model_file
        data = write_obs(tmp_path, simulate(model, 5, seed=8)[1])
        out = tmp_path / "f.csv"
        assert main(["filter", path, data, "--compare", "kalman",
                     "-o", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(float(row[-1]) == 0.0 for row in rows)

    def test_empty_data_file(self, model_file, tmp_path):
        _, path = model_file
        data = tmp_path / "none.csv"
        data.write_text("y1\n")
        out = tmp_path / "f.csv"
        assert main(["filter", path, str(data), "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[0] == "t" and rows == []

    def test_wrong_column_count(self, model_file, tmp_path, capsys):
        _, path = model_file
        data = write_obs(tmp_path, np.zeros((4, 2)))
        assert main(["filter", path, data]) == 2
        assert "observation column" in capsys.readouterr().err

    def test_ragged_rows_name_the_first_odd_row(self, tmp_path, capsys):
        model = str(ROOT / "demos" / "models" / "stationary_s2.json")
        data = tmp_path / "y.csv"
        data.write_text("1.0\n2.0,3.0\n0.5\n")
        assert main(["filter", model, str(data)]) == 2
        err = capsys.readouterr().err
        assert "row 2 has 2 observation column(s), expected 1" in err
        assert "non-numeric" not in err
        # rows count from the header line
        data.write_text("y1\n1.0\n0.5\n2.0,3.0\n")
        assert main(["filter", model, str(data)]) == 2
        assert "row 4 has 2 " in capsys.readouterr().err

    def test_non_numeric_data(self, model_file, tmp_path, capsys):
        _, path = model_file
        data = tmp_path / "y.csv"
        data.write_text("y1\n1.0\nbroken\n")
        assert main(["filter", path, str(data)]) == 2

    def test_non_numeric_cell_is_located(self, model_file, tmp_path, capsys):
        _, path = model_file
        data = tmp_path / "y.csv"
        data.write_text("1.0\n2.x\n")
        assert main(["filter", path, str(data)]) == 2
        err = capsys.readouterr().err
        assert "row 2, column 1" in err and "'2.x'" in err

    def test_mistyped_first_observation_is_located(self, tmp_path, capsys):
        # a first row with a cell that starts like a number is data, not
        # a header
        data = tmp_path / "y.csv"
        data.write_text("1.x\n2.0\n")
        assert main(["filter", str(PAR2_5), str(data)]) == 2
        err = capsys.readouterr().err
        assert "row 1, column 1" in err and "'1.x'" in err

    def test_header_row_is_skipped(self, tmp_path):
        data = tmp_path / "y.csv"
        data.write_text("y\n1.0\n")
        assert _read_observations(data, 1).tolist() == [[1.0]]

    def test_nonstationary_model_exits_one(self, tmp_path, capsys):
        model = random_stationary_model(112, r=2, S=2, m=1)
        model.F = [2.0 * f for f in model.F]
        path = tmp_path / "exploding.json"
        save_model(model, path)
        data = write_obs(tmp_path, np.zeros((3, 1)))
        code = main(["filter", str(path), data, "--engine", "chand31",
                     "--init", "stationary"])
        assert code == 1
        assert "NotStationary" in capsys.readouterr().err

    def test_singular_start_names_the_cause(self, tmp_path, capsys):
        # the Q = 0 model of TestEngineInitFailure: chand-minv cannot
        # invert its zero middle factor, and the cause is what is named
        model = random_stationary_model(95, r=2, S=2, m=1)
        model.Q = [np.zeros_like(q) for q in model.Q]
        path = tmp_path / "noiseless.json"
        save_model(model, path)
        data = write_obs(tmp_path, np.zeros((6, 1)))
        assert main(["filter", str(path), data, "--engine", "chand-minv",
                     "--init", "stationary"]) == 1
        assert capsys.readouterr().err.startswith("MSingular: ")

    def test_invalid_state_space_model_is_usage_error(self, tmp_path,
                                                      capsys):
        model = random_stationary_model(114, r=2, S=2, m=1)
        model.Q[0] = np.eye(1)
        path = tmp_path / "m.json"
        save_model(model, path)
        data = write_obs(tmp_path, np.zeros((3, 1)))
        assert main(["filter", str(path), data]) == 2
        assert capsys.readouterr().err == \
            "error: invalid model: Q[1] must be a 2x2 matrix\n"

    def test_singular_step_is_located(self, tmp_path, capsys):
        path = tmp_path / "pinned.json"
        save_model(pinned_state_model(), path)
        data = write_obs(tmp_path, np.zeros((6, 2)))
        assert main(["filter", str(path), data]) == 1
        err = capsys.readouterr().err
        assert err.startswith("OmegaNotPD: ")
        assert "during step t=4 (season 2)" in err

    def test_unknown_engine_is_usage_error(self, model_file, tmp_path):
        _, path = model_file
        data = write_obs(tmp_path, np.zeros((2, 1)))
        assert main(["filter", path, data, "--engine", "warp"]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_observation_is_located(self, model_file, tmp_path,
                                               capsys, bad):
        _, path = model_file
        data = tmp_path / "y.csv"
        data.write_text(f"y1\n1.0\n0.5\n{bad}\n2.0\n")
        assert main(["filter", path, str(data)]) == 2
        err = capsys.readouterr().err
        assert "t=3, column 1" in err and bad in err


class TestDple:
    def test_json_payload(self, model_file, tmp_path):
        model, path = model_file
        out = tmp_path / "w.json"
        assert main(["dple", path, "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["S"] == 2 and payload["r"] == 3
        assert payload["monodromy_spectral_radius"] < 1.0
        assert payload["residuals"]["lift"] <= 1e-10
        assert payload["residuals"]["propagation"] <= 1e-10
        W = [np.array(w) for w in payload["W"]]
        lib = solve_dple(model)
        assert all(np.allclose(a, b, atol=1e-12) for a, b in zip(W, lib))

    def test_propagation_residual_is_the_wrap_around(self, model_file,
                                                     tmp_path):
        # the solve propagates W_1 to W_2 .. W_S; the one propagation it
        # does not form is the wrap-around W_S -> W_1
        model, path = model_file
        out = tmp_path / "w.json"
        assert main(["dple", path, "-o", str(out)]) == 0
        W = solve_dple(model)
        F, G, _, Q, _ = model.at(model.S)
        assert json.loads(out.read_text())["residuals"]["propagation"] == \
            rel_err(W[0], F @ W[-1] @ F.T + G @ Q @ G.T)

    def test_csv_long_format(self, model_file, tmp_path):
        _, path = model_file
        out = tmp_path / "w.csv"
        assert main(["dple", path, "--format", "csv", "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["season", "row", "col", "value"]
        assert len(rows) == 2 * 3 * 3 + 2  # S r^2 entries + two residuals
        assert rows[-2][0] == "lift_residual"
        assert rows[-1][0] == "propagation_residual"

    def test_nonstationary_exits_one(self, tmp_path, capsys):
        model = random_stationary_model(113, r=2, S=1, m=1)
        model.F = [3.0 * f for f in model.F]
        path = tmp_path / "m.json"
        save_model(model, path)
        assert main(["dple", str(path)]) == 1
        assert "NotStationary" in capsys.readouterr().err


class TestBench:
    def test_par_text_report(self, capsys):
        assert main(["bench", "--par", "2", "5", "7",
                     "--periods", "2"]) == 0
        out = capsys.readouterr().out
        assert "kalman" in out and "chand-minv" in out
        assert "alpha=2" in out

    def test_model_file_csv(self, model_file, tmp_path):
        _, path = model_file
        out = tmp_path / "b.csv"
        assert main(["bench", path, "--format", "csv",
                     "--engines", "kalman,chand31", "-o", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[0] == "engine" and len(rows) == 2

    def test_r_sweep_reports_slopes(self, capsys):
        assert main(["bench", "--par", "2", "1", "7", "--r-sweep", "6,12",
                     "--engines", "kalman,chand31", "--periods", "1"]) == 0
        out = capsys.readouterr().out
        assert "log-log slope [kalman]:" in out

    def test_model_and_par_conflict(self, model_file, capsys):
        _, path = model_file
        assert main(["bench", path, "--par", "2", "5", "7"]) == 2
        assert main(["bench"]) == 2

    def test_bad_engine_list(self, capsys):
        assert main(["bench", "--par", "2", "3", "7",
                     "--engines", "kalman,alchemy"]) == 2
        for empty in (",", " "):
            assert main(["bench", "--par", "2", "3", "7",
                         "--engines", empty]) == 2
        assert "no engine given" in capsys.readouterr().err

    def test_r_sweep_requires_par(self, model_file):
        _, path = model_file
        assert main(["bench", path, "--r-sweep", "4,8"]) == 2

    def test_bad_sweep_values(self):
        assert main(["bench", "--par", "2", "1", "7",
                     "--r-sweep", "4,eight"]) == 2
        assert main(["bench", "--par", "2", "1", "7",
                     "--r-sweep", "0"]) == 2

    def test_empty_sweep_is_usage_error(self, capsys):
        assert main(["bench", "--par", "2", "3", "1", "--r-sweep", ","]) == 2
        assert "needs positive integers" in capsys.readouterr().err

    @pytest.mark.parametrize("args, named", [
        (["--par", "0", "2", "7"], "S must be a positive integer, got 0"),
        (["--par", "2", "0", "7"], "p must be a positive integer, got 0"),
        (["--par", "-1", "1", "7", "--r-sweep", "4"],
         "S must be a positive integer, got -1"),
    ])
    def test_bad_par_dimension_is_named(self, args, named, capsys):
        assert main(["bench", *args]) == 2
        assert capsys.readouterr().err == \
            f"error: invalid PAR model: {named}\n"

    def test_nonpositive_periods_is_usage_error(self):
        assert main(["bench", "--par", "2", "3", "7", "--periods", "0"]) == 2


class TestInvalidPar:
    VIOLATION = "sigma2[2] must be positive"

    @pytest.fixture
    def par_file(self, tmp_path):
        path = tmp_path / "par.json"
        path.write_text(json.dumps({"S": 2, "p": 1, "phi": [[0.5], [0.3]],
                                    "sigma2": [1, -1]}))
        return str(path)

    @pytest.mark.parametrize("command", ["simulate", "filter", "dple",
                                         "bench"])
    def test_loaders_exit_two(self, command, par_file, tmp_path, capsys):
        extra = {"simulate": ["-n", "3"],
                 "filter": [write_obs(tmp_path, np.zeros((3, 1)))]}
        assert main([command, par_file, *extra.get(command, [])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: invalid PAR model: {self.VIOLATION}")

    def test_validate_lists_violation(self, par_file, capsys):
        assert main(["validate", par_file]) == 1
        assert capsys.readouterr().out.startswith(self.VIOLATION)


class TestEntryPoints:
    def test_module_help(self):
        proc = subprocess.run([sys.executable, "-m", "periodickf", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "validate" in proc.stdout and "bench" in proc.stdout

    def test_console_script(self, model_file):
        _, path = model_file
        proc = subprocess.run(["periodickf", "validate", path],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ok"

    def test_no_arguments_is_usage_error(self):
        assert main([]) == 2
