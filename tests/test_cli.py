import argparse
import concurrent.futures
import json
import warnings

import numpy as np
import pytest

from cubegreen import cli, extremal, kernel, montecarlo, quadrature, rankstats
from cubegreen.cli import build_parser, main
from cubegreen.extremal import ConvergenceError
from cubegreen.families import subsets_of_size, upward_closure


def echoed(text):
    """An option's value as its error message shows it: the repr of its
    first 60 characters, and its length when it is longer."""
    return repr(text) if len(text) <= 60 else f"{text[:60]!r}… ({len(text)} characters)"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestBasicCommands:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "cubegreen" in capsys.readouterr().out

    def test_family_enumerate(self, capsys):
        rep = run_json(capsys, "family", "--enumerate", "--m", "3")
        assert rep["result"]["count"] == 19

    def test_coeffs_known_margins(self, capsys):
        rep = run_json(capsys, "coeffs", "--family-known-margins-V", "",
                       "--m", "3")
        assert rep["result"]["a"]["{1,2,3}"] == -2

    def test_green_eval(self, capsys):
        rep = run_json(capsys, "green-eval", "--family-empty", "--m", "2",
                       "--x", "0.2,0.5", "--xi", "0.3,0.7")
        assert rep["result"]["value"] == pytest.approx(0.1)

    def test_green_eval_pillow_m16_corner(self, capsys):
        x, xi = np.full(16, 0.9), np.full(16, 0.95)
        rep = run_json(capsys, "green-eval", "--family-all", "--m", "16",
                       "--x", ",".join(map(str, x)), "--xi", ",".join(map(str, xi)))
        want = float(np.prod(np.minimum(x, xi) - x * xi))
        assert rep["result"]["value"] == pytest.approx(want, rel=1e-12)

    def test_m16_report_echoes_family_flag(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        x = ",".join(["0.9"] * 16)
        code, _, err = run_cli(capsys, "green-eval", "--family-all", "--m", "16",
                               "--x", x, "--xi", x, "--out-file", str(out))
        assert code == 0, err
        assert out.stat().st_size < 4096
        assert json.loads(out.read_text())["config"]["family"] == ["--family-all"]

    def test_family_flag_replays(self, capsys):
        argv = ["lambda", "--m", "3", "--measure", "diagonal"]
        for flag in (["--family", "[[1,2],[1,2,3]]"], ["--family-known-margins-V", "1"],
                     ["--family-all"], ["--family-empty"]):
            rep = run_json(capsys, *argv, *flag)
            assert rep["config"]["family"] == flag
            replay = run_json(capsys, *argv, *rep["config"]["family"])
            assert replay["result"] == rep["result"]

    def test_family_read_from_a_file(self, capsys, tmp_path):
        # the m = 16 closure of the 8-subsets: 39 203 members, about 1.2 MB of JSON
        fam = upward_closure(subsets_of_size(16, 8), 16)
        path = tmp_path / "family.json"
        path.write_text(json.dumps(fam.to_coord_lists()))
        assert len(fam) == 39203 and path.stat().st_size > 10**6
        x, xi = np.linspace(0.2, 0.95, 16), np.linspace(0.9, 0.3, 16)
        flag = ["--family", f"@{path}"]
        rep = run_json(capsys, "green-eval", "--m", "16", *flag,
                       "--x", ",".join(map(repr, x.tolist())),
                       "--xi", ",".join(map(repr, xi.tolist())))
        assert rep["config"]["family"] == flag
        assert rep["result"]["value"] == kernel.green_kernel(fam).evaluate(x, xi)

    def test_family_file_missing_is_io_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "lambda", "--m", "2",
                                 "--family", f"@{tmp_path / 'absent.json'}")
        assert code == 1 and out == ""
        assert err.startswith("io-error:") and "absent.json" in err

    def test_family_file_with_bad_json_names_the_option(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text("[[1,2],")
        code, out, err = run_cli(capsys, "lambda", "--m", "2", "--family", f"@{path}")
        assert code == 2 and out == ""
        # the reason is the parser's, on the file's text
        assert err == (f"error: --family {echoed('@' + str(path))}: "
                       f"Expecting value: line 1 column 8 (char 7)\n")

    def test_family_command_shares_family_group(self, capsys):
        rep = run_json(capsys, "family", "--family-all", "--m", "2")
        assert rep["result"]["family"] == [[1], [2], [1, 2]]
        with pytest.raises(SystemExit):
            main(["family", "--family-all", "--enumerate", "--m", "2"])
        with pytest.raises(SystemExit):
            main(["family", "--m", "2"])

    def test_statistic_choices_are_the_registry(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for command, dest in (("stat", "name"), ("simulate", "stat")):
            action = next(a for a in sub.choices[command]._actions if a.dest == dest)
            assert tuple(action.choices) == rankstats.STATISTICS

    def test_lambda_diagonal(self, capsys):
        rep = run_json(capsys, "lambda", "--family-known-margins-V", "",
                       "--m", "2", "--measure", "diagonal")
        assert rep["result"]["inverse_lambda"] == pytest.approx(90.0, abs=1e-8)

    def test_solve_with_eval_points(self, capsys):
        rep = run_json(capsys, "solve", "--family-known-margins-V", "",
                       "--m", "2", "--eval-at", "0.5,0.5",
                       "--eval-at", "0.25,0.75")
        omega = rep["result"]["omega"]
        assert len(omega) == 2
        x1, x2 = 0.5, 0.5
        raw = x1 * x2 * ((2 - x1) * (2 - x2) + x1 + x2 - 3)
        lam = rep["result"]["lambda"]
        assert omega[0]["omega"] == pytest.approx(raw / (4 * lam), rel=1e-10)

    def test_efficiency(self, capsys):
        rep = run_json(capsys, "efficiency", "--V", "", "--m", "2",
                       "--measure", "diagonal+antidiagonal")
        assert rep["result"]["efficiency_coefficient"] == pytest.approx(
            24.0, abs=1e-6)

    def test_eigen(self, capsys):
        rep = run_json(capsys, "eigen", "--family-all", "--m", "2",
                       "--grid-n", "24")
        assert rep["result"]["value"] == pytest.approx(np.pi**-4, rel=1e-3)

    def test_eigen_reports_iterations(self, capsys):
        rep = run_json(capsys, "eigen", "--family-all", "--m", "3",
                       "--grid-n", "16")
        assert set(rep["result"]) == {"value", "error", "coarse", "fine"}
        assert rep["result"]["value"] == pytest.approx(np.pi**-6, rel=1e-3)
        diag = rep["diagnostics"]
        assert set(diag) == {"coarse_iterations", "fine_iterations"}
        assert all(isinstance(v, int) and v >= 1 for v in diag.values())

    def test_parser_reused_without_state(self, capsys):
        assert build_parser() is not build_parser()
        argv = ["lambda", "--family-empty", "--m", "2"]
        rep = run_json(capsys, *argv, "--method", "quadrature")
        assert rep["config"]["method"] == "quadrature"
        rep = run_json(capsys, *argv)
        assert rep["config"]["method"] == "auto"


class TestStatCommand:
    @pytest.fixture
    def csv_path(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.1,0.2\n0.4,0.5\n0.9,0.8\n")
        return str(path)

    def test_footrule(self, capsys, csv_path):
        rep = run_json(capsys, "stat", "--name", "footrule",
                       "--input", csv_path)
        assert rep["result"]["value"] == 0.0

    def test_rho_with_rank_pit(self, capsys, csv_path):
        rep = run_json(capsys, "stat", "--name", "rho", "--input", csv_path,
                       "--rank-pit")
        assert rep["result"]["value"] == pytest.approx(1.0)
        assert rep["config"]["rank_pit"] is True

    def test_stat_B(self, capsys, csv_path):
        rep = run_json(capsys, "stat", "--name", "B", "--input", csv_path,
                       "--V", "1,2")
        X = np.array([[0.1, 0.2], [0.4, 0.5], [0.9, 0.8]])
        expected = np.prod(1 - X, axis=1).mean() - 0.25
        assert rep["result"]["value"] == pytest.approx(expected, abs=1e-14)

    def test_config_echoes_only_the_options_read(self, capsys, csv_path):
        argv = ["--input", csv_path, "--V", "1", "--p", "3", "--grid-n", "5"]
        for name in ("rho", "gini", "footrule"):
            cfg = run_json(capsys, "stat", "--name", name, *argv)["config"]
            assert list(cfg) == ["name", "input", "n", "m", "rank_pit"]
        cfg = run_json(capsys, "stat", "--name", "Bhat", *argv)["config"]
        assert "V" not in cfg and (cfg["p"], cfg["grid_n"]) == (3, 5)
        cfg = run_json(capsys, "stat", "--name", "B", *argv)["config"]
        assert (cfg["V"], cfg["p"], cfg["grid_n"]) == ("{1}", 3, 5)

    @pytest.mark.parametrize("name", rankstats.STATISTICS)
    def test_config_echoes_the_options_in_registry_order(self, capsys, csv_path, name):
        cfg = run_json(capsys, "stat", "--name", name, "--input", csv_path)["config"]
        assert list(cfg) == ["name", "input", "n", "m", *rankstats.REGISTRY[name].options,
                             "rank_pit"]

    @pytest.mark.parametrize("grid_n", ["0", "-3"])
    def test_grid_n_out_of_range(self, capsys, csv_path, grid_n):
        for name in ("Bhat", "B", "rho", "gini", "footrule"):
            code, out, err = run_cli(capsys, "stat", "--name", name, "--input", csv_path,
                                     "--p", "2", "--grid-n", grid_n)
            assert code == 2 and out == ""
            assert err.startswith("error:") and "grid_n" in err

    @pytest.mark.parametrize("name", rankstats.STATISTICS)
    def test_p_below_one(self, capsys, csv_path, name):
        code, out, err = run_cli(capsys, "stat", "--name", name, "--input", csv_path,
                                 "--p", "0")
        assert code == 2 and out == ""
        assert err == "error: p must be a positive integer\n"

    def test_no_m_option(self, capsys, csv_path):
        # m is read from the data
        with pytest.raises(SystemExit) as exc:
            main(["stat", "--name", "rho", "--input", csv_path, "--m", "5"])
        assert exc.value.code == 2
        assert "--m" in capsys.readouterr().err

    def test_oversized_lattice(self, capsys, tmp_path):
        path = tmp_path / "m7.csv"
        np.savetxt(path, np.random.default_rng(0).random((10, 7)), delimiter=",")
        code, out, err = run_cli(capsys, "stat", "--name", "Bhat", "--input", str(path),
                                 "--p", "2")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "cells" in err

    def test_gini_of_one_observation_exits_2(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("0.3,0.4\n")
        code, out, err = run_cli(capsys, "stat", "--name", "gini", "--input", str(path))
        assert code == 2 and out == ""
        assert "two observations" in err

    def test_first_row_with_a_comment_is_counted(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.1,0.2 # first\n0.3,0.4\n0.5,0.6\n")
        rep = run_json(capsys, "stat", "--name", "rho", "--input", str(path))
        assert rep["result"]["n"] == rep["config"]["n"] == 3

    @pytest.mark.parametrize("text", ["", "x,y\n"])
    def test_no_data_rows_is_one_error_line(self, capsys, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the test
            code, out, err = run_cli(capsys, "stat", "--name", "rho", "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"error: the input {str(path)!r} has no data rows\n"

    @pytest.mark.parametrize("name", ["rho", "B"])
    def test_too_many_columns_named_by_the_input(self, capsys, tmp_path, name):
        path = tmp_path / "wide.csv"
        np.savetxt(path, np.random.default_rng(1).random((5, 17)), delimiter=",")
        code, out, err = run_cli(capsys, "stat", "--name", name, "--input", str(path),
                                 "--V", "1")
        assert code == 2 and out == ""
        assert err == (f"error: --input {echoed(str(path))} (17 columns): dimension must be "
                       f"an integer in [2, 16], got 17\n")

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "stat", "--name", "rho",
                               "--input", "/nonexistent/x.csv")
        assert code == 1
        assert "io-error" in err


class TestSimulateCommand:
    def test_cov_report(self, capsys):
        rep = run_json(capsys, "simulate", "--mode", "cov", "--V", "1,2",
                       "--m", "2", "--n", "50", "--R", "200",
                       "--seed", "3", "--grid-n", "2")
        assert rep["result"]["max_dev_in_se"] < 6.0
        assert len(rep["result"]["theoretical"]) == 4

    def test_cov_needs_V(self, capsys, monkeypatch):
        def no_config(*args, **kwargs):
            raise AssertionError("a simulation config was built")

        monkeypatch.setattr(cli, "SimConfig", no_config)
        code, out, err = run_cli(capsys, "simulate", "--mode", "cov", "--m", "2",
                                 "--n", "20", "--R", "100")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--V" in err

    def test_threads_times_lattice_refused_before_the_pool(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        # 2 blocks of 50 replications; Bhat at p = 2 on 7 midpoints per axis
        # builds (7 + 1)^2 = 64 cells per dataset, and two threads 128
        monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 50 * 8 * 20 * 2)
        monkeypatch.setattr(rankstats, "_CELL_CAP", 100)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        argv = ["simulate", "--mode", "nulldist", "--stat", "Bhat", "--p", "2", "--grid-n", "7",
                "--m", "2", "--n", "20", "--R", "100", "--seed", "2"]
        code, out, err = run_cli(capsys, *argv, "--threads", "2")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--threads" in err
        # one thread builds one lattice at a time, within the cap
        run_json(capsys, *argv, "--threads", "1")

    def test_nulldist_deterministic_across_threads(self, capsys):
        reports = []
        for threads in ("1", "4"):
            rep = run_json(capsys, "simulate", "--mode", "nulldist",
                           "--stat", "rho", "--m", "2", "--n", "30",
                           "--R", "200", "--seed", "11",
                           "--threads", threads)
            rep.pop("timing")
            reports.append(rep)
        reports[0]["config"].pop("threads")
        reports[1]["config"].pop("threads")
        assert reports[0] == reports[1]

    def test_nulldist_p2_deterministic_across_threads(self, capsys):
        results = []
        for stat, threads in (("Bhat", "1"), ("Bhat", "2"), ("B", "1"), ("B", "2")):
            rep = run_json(capsys, "simulate", "--mode", "nulldist", "--stat", stat,
                           "--p", "2", "--m", "2", "--n", "30", "--R", "100",
                           "--seed", "5", "--threads", threads)
            results.append(rep["result"])
        assert results[0] == results[1] and results[2] == results[3]

    def test_nulldist_honours_grid_n(self, capsys, monkeypatch):
        def no_grid(*args):
            raise AssertionError("nulldist built an interior grid")

        monkeypatch.setattr(cli, "interior_lattice", no_grid)
        monkeypatch.setattr(montecarlo, "interior_lattice", no_grid)
        argv = ["simulate", "--mode", "nulldist", "--stat", "Bhat", "--p", "2", "--m", "2",
                "--n", "30", "--R", "100", "--seed", "5"]
        rep = run_json(capsys, *argv, "--grid-n", "8")
        default = run_json(capsys, *argv)
        cfg = montecarlo.SimConfig(seed=5, n=30, replications=100, m=2)
        want = montecarlo.null_distribution(cfg, "Bhat", p=2, grid_n=8)
        assert rep["config"]["grid_n"] == 8 and default["config"]["grid_n"] is None
        assert rep["result"] == {"mean": want.mean, "variance": want.variance,
                                 "variance_se": want.variance_se,
                                 "quantiles": {str(q): v for q, v in want.quantiles.items()}}
        assert rep["result"] != default["result"]

    def test_grid_modes_default_to_4_points_per_axis(self, capsys):
        rep = run_json(capsys, "simulate", "--mode", "tiedcov", "--m", "2", "--n", "20",
                       "--R", "100", "--seed", "1")
        assert rep["config"]["grid_n"] == 4 and len(rep["result"]["theoretical"]) == 16

    @pytest.mark.parametrize("argv", [
        ["--mode", "cov", "--m", "16", "--grid-n", "4", "--V", ""],
        ["--mode", "field", "--m", "8", "--grid-n", "4"],
    ])
    def test_grid_too_large_for_memory(self, capsys, argv):
        # 4^16 and 4^8 grid points: refused before the grid is built
        code, out, err = run_cli(capsys, "simulate", *argv)
        assert code == 2 and out == ""
        assert "reduce grid_n" in err

    @pytest.mark.parametrize("threads", ["0", "-1", str(10**6)])
    def test_threads_out_of_range(self, capsys, monkeypatch, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        code, out, err = run_cli(capsys, "simulate", "--mode", "nulldist", "--stat", "rho",
                                 "--n", "20", "--R", "100", "--threads", threads)
        assert code == 2 and out == ""
        assert "threads must be between 1 and 64" in err

    @pytest.mark.parametrize("mode", ["cov", "tiedcov", "field", "nulldist"])
    @pytest.mark.parametrize("grid_n", ["0", "-2"])
    def test_grid_n_refused_naming_it(self, capsys, monkeypatch, mode, grid_n):
        def drawn(*args):
            raise AssertionError("something was drawn")

        monkeypatch.setattr(montecarlo, "_uniform_block", drawn)
        monkeypatch.setattr(montecarlo, "substream", drawn)
        code, out, err = run_cli(capsys, "simulate", "--mode", mode, "--V", "1",
                                 "--stat", "rho", "--grid-n", grid_n)
        assert code == 2 and out == ""
        assert err == f"error: --grid-n must be an integer >= 1, got {grid_n}\n"

    @pytest.mark.parametrize("mode", ["cov", "tiedcov", "field", "nulldist"])
    @pytest.mark.parametrize("m", ["1", "17", "100000"])
    def test_m_out_of_range_refused_naming_it(self, capsys, monkeypatch, mode, m):
        def built(*args, **kwargs):
            raise AssertionError("something was built or drawn")

        for name in ("_uniform_block", "substream", "interior_lattice"):
            monkeypatch.setattr(montecarlo, name, built)
        monkeypatch.setattr(cli, "interior_lattice", built)
        monkeypatch.setattr(cli, "SimConfig", built)
        # cov needs --V; an m out of range is not blamed on it
        V = ["--V", "{1}"] if mode == "cov" else []
        code, out, err = run_cli(capsys, "simulate", "--mode", mode, "--m", m, *V,
                                 "--stat", "rho", "--n", "20", "--R", "100")
        assert code == 2 and out == ""
        assert err == f"error: --m: dimension must be an integer in [2, 16], got {m}\n"

    @pytest.mark.parametrize("mode", ["cov", "tiedcov"])
    def test_replications_times_grid_refused_before_drawing(self, capsys, monkeypatch, mode):
        def drawn(*args):
            raise AssertionError("something was drawn")

        monkeypatch.setattr(montecarlo, "_uniform_block", drawn)
        monkeypatch.setattr(rankstats, "_CELL_CAP", 100 * 4 - 1)
        code, out, err = run_cli(capsys, "simulate", "--mode", mode, "--V", "1", "--m", "2",
                                 "--n", "10", "--R", "100", "--grid-n", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: --R 100 replications on 4 grid points keep 400 "
                              "process values, above the cap of 399")

    def test_replications_times_grid_at_the_cap_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(rankstats, "_CELL_CAP", 100 * 4)
        rep = run_json(capsys, "simulate", "--mode", "tiedcov", "--m", "2", "--n", "10",
                       "--R", "100", "--grid-n", "2")
        assert len(rep["result"]["empirical"]) == 4

    def test_field_mode_reads_no_sample_options(self, capsys):
        argv = ["simulate", "--mode", "field", "--m", "2", "--grid-n", "2", "--count", "3",
                "--seed", "6"]
        default = run_json(capsys, *argv)
        assert list(default["config"]) == ["mode", "m", "seed", "grid_n", "V", "count"]
        for extra in (["--R", "10"], ["--n", "0"], ["--threads", "0"]):
            rep = run_json(capsys, *argv, *extra)
            assert rep["config"] == default["config"]
            assert rep["result"] == default["result"]

    def test_field_mode(self, capsys):
        rep = run_json(capsys, "simulate", "--mode", "field", "--m", "2",
                       "--grid-n", "2", "--count", "5", "--seed", "1")
        draws = np.asarray(rep["result"]["draws"])
        assert draws.shape == (5, 4)

    def test_csv_output(self, capsys, tmp_path):
        out = tmp_path / "cov.csv"
        code, _, err = run_cli(capsys, "simulate", "--mode", "tiedcov",
                               "--m", "2", "--n", "40", "--R", "150",
                               "--seed", "2", "--grid-n", "2",
                               "--output", "csv", "--out-file", str(out))
        assert code == 0, err
        text = out.read_text()
        assert "# empirical" in text and "# theoretical" in text


class TestErrorHandling:
    def test_malformed_family_json(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--family", "not json",
                               "--m", "2")
        assert code == 2
        assert err.startswith("error:")

    def test_empty_family_json(self, capsys):
        code, out, err = run_cli(capsys, "lambda", "--family", "", "--m", "2")
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_non_monotone_family(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--family", "[[1]]",
                               "--m", "2")
        assert code == 2

    def test_power_iteration_failure(self, capsys, monkeypatch):
        def fail(kernel, grid_n):
            raise ConvergenceError("power iteration did not converge")
        monkeypatch.setattr(extremal, "principal_eigenvalue", fail)
        code, out, err = run_cli(capsys, "eigen", "--family-all", "--m", "2")
        assert code == 2 and out == ""
        assert err == "error: power iteration did not converge\n"

    @pytest.mark.parametrize("option, text", [
        ("--family", "[" * 5000 + "]" * 5000),
        ("--measure", '{"variant": "sum", "parts": [{"measure": ' * 400 + '"diagonal"'
         + "}]}" * 400),
    ], ids=["family", "measure"])
    def test_deeply_nested_json_exits_2_naming_the_option(self, capsys, tmp_path, option,
                                                           text):
        out_file = tmp_path / "report.json"
        code, out, err = run_cli(capsys, "lambda", "--m", "2", option, text,
                                 *(["--family-all"] if option == "--measure" else []),
                                 "--out-file", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        # the value is echoed cut to its first 60 characters and its length
        assert err.startswith(f"error: {option} {echoed(text)}: "
                              "maximum recursion depth exceeded")
        assert err.count("\n") == 1 and len(err) < 200

    @pytest.mark.parametrize("command, option, text", [
        ("lambda", "--family", "[" + ",".join(map(str, range(1, 3001))) + "]"),
        ("lambda", "--family", "[[" + ",".join(map(str, range(1, 3001))) + "]]"),
        ("lambda", "--family", '[["' + "a" * 2000 + '"]]'),
        ("lambda", "--family", "[[1" + "0" * 3000 + "]]"),
        ("lambda", "--family-known-margins-V", "{" + "a" * 2000 + "}"),
        ("lambda", "--family-known-margins-V", "a" * 2000),
        ("lambda", "--measure", '{"variant": "points", "points": [[0.1, 0.2]], "weights": ['
         + ",".join(f'"{k}"' for k in range(2000)) + "]}"),
        ("lambda", "--measure",
         '{"variant": "sum", "parts": [[' + ",".join(map(str, range(3000))) + "]]}"),
        ("lambda", "--measure", '{"variant": "' + "a" * 2000 + '"}'),
        ("lambda", "--measure", "[" + ",".join(map(str, range(3000))) + "]"),
        ("solve", "--eval-at", "a" * 2000),
        ("green-eval", "--x", "a" * 2000),
    ], ids=["family-flat", "family-range", "family-string", "family-long-int", "V-braces",
            "V-plain", "points-weights", "sum-parts", "variant", "measure-array",
            "eval-at", "x"])
    def test_long_values_are_cut_in_the_reason_too(self, capsys, tmp_path, command, option,
                                                    text):
        # the value the reason names is cut by the same 60-character rule
        # as the option's text, so the line stays short
        family = [] if option.startswith("--family") else ["--family-all"]
        point = ["--xi", "0.1,0.2"] if option == "--x" else []
        out_file = tmp_path / "report.json"
        code, out, err = run_cli(capsys, command, "--m", "2", *family, *point, option, text,
                                 "--out-file", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err.startswith(f"error: {option} {echoed(text)}: ")
        assert err.count("\n") == 1 and len(err) < 300

    def test_recursion_error_exits_2(self, capsys, monkeypatch):
        def deep(fam):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(cli, "compute_coefficients", deep)
        code, out, err = run_cli(capsys, "coeffs", "--family-all", "--m", "2")
        assert code == 2 and out == ""
        assert err == "error: maximum recursion depth exceeded\n"

    def test_bad_measure_name(self, capsys):
        code, _, err = run_cli(capsys, "lambda", "--family-empty", "--m", "2",
                               "--measure", "gauss")
        assert code == 2

    def test_timing_present_and_isolated(self, capsys):
        rep = run_json(capsys, "coeffs", "--family-all", "--m", "2")
        assert "seconds" in rep["timing"]
        assert "seconds" not in json.dumps(rep["config"]) + json.dumps(rep["result"])


class TestOutputFormats:
    @pytest.mark.parametrize("mode", ["cov", "tiedcov", "nulldist"])
    def test_replication_rate_under_timing_only(self, capsys, mode):
        argv = ["simulate", "--mode", mode, "--V", "", "--stat", "rho", "--m", "2",
                "--n", "20", "--R", "200", "--seed", "3", "--grid-n", "2"]
        outs = [run_cli(capsys, *argv)[1] for _ in range(2)]
        reps = [json.loads(out) for out in outs]
        assert list(reps[0]) == ["config", "result", "timing"]
        assert list(reps[0]["timing"]) == ["seconds", "replications_per_second"]
        assert reps[0]["timing"]["replications_per_second"] >= 200 / reps[0]["timing"]["seconds"]
        # config and result replay byte for byte
        assert len({out[:out.rindex(', "timing": ')] for out in outs}) == 1

    def test_field_reports_no_replication_rate(self, capsys):
        rep = run_json(capsys, "simulate", "--mode", "field", "--m", "2", "--grid-n", "2",
                       "--count", "3")
        assert list(rep["timing"]) == ["seconds"]

    def test_report_is_one_json_line(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--mode", "tiedcov", "--m", "2", "--n", "20",
                               "--R", "100", "--seed", "1", "--grid-n", "2")
        assert code == 0 and out.endswith("}\n") and out.count("\n") == 1
        assert list(json.loads(out)) == ["config", "result", "timing"]

    @pytest.mark.parametrize("argv", [
        ["family", "--enumerate", "--m", "2"],
        ["stat", "--name", "rho", "--input", "{csv}"],
        ["simulate", "--mode", "nulldist", "--stat", "rho", "--n", "20", "--R", "100"],
    ])
    def test_csv_refused_without_a_matrix(self, capsys, tmp_path, argv):
        data = tmp_path / "data.csv"
        data.write_text("0.1,0.5\n0.3,0.2\n0.7,0.9\n")
        out_file = tmp_path / "out.csv"
        argv = [str(data) if a == "{csv}" else a for a in argv]
        code, out, err = run_cli(capsys, *argv, "--output", "csv")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--output csv" in err
        code, out, err = run_cli(capsys, *argv, "--output", "csv", "--out-file", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()

    def test_csv_matrices_are_the_json_matrices(self, capsys):
        argv = ["simulate", "--mode", "field", "--m", "2", "--grid-n", "2", "--count", "3",
                "--seed", "4"]
        draws = run_json(capsys, *argv)["result"]["draws"]
        code, out, _ = run_cli(capsys, *argv, "--output", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# draws"
        assert [[float(v) for v in line.split(",")] for line in lines[1:]] == draws


class TestFieldCount:
    class Drawn(Exception):
        pass

    @pytest.fixture
    def no_draw(self, monkeypatch):
        def drawn(*args):
            raise self.Drawn

        monkeypatch.setattr(montecarlo, "substream", drawn)

    @pytest.mark.parametrize("count", ["0", "-1", str(2 ** 21 + 1), str(10 ** 12)])
    def test_count_refused_before_drawing(self, capsys, no_draw, count):
        # 16 grid points: count * 16 above 2^25 values is refused
        code, out, err = run_cli(capsys, "simulate", "--mode", "field", "--m", "2",
                                 "--grid-n", "4", "--count", count)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--count" in err

    def test_count_at_the_cap_reaches_the_draw(self, capsys, no_draw):
        with pytest.raises(self.Drawn):
            main(["simulate", "--mode", "field", "--m", "2", "--grid-n", "4",
                  "--count", str(2 ** 21)])


class TestSubsetSyntax:
    """Every option naming a subset reads it with `families.parse_subset`."""

    FORMS = ("1,2", "{1,2}", "[1,2]")

    @pytest.fixture
    def commands(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.1,0.2\n0.4,0.5\n0.9,0.8\n")
        return {
            "efficiency": ["efficiency", "--m", "3", "--V"],
            "stat": ["stat", "--name", "B", "--input", str(path), "--V"],
            "simulate": ["simulate", "--mode", "cov", "--m", "2", "--n", "20",
                         "--R", "100", "--seed", "5", "--grid-n", "2", "--V"],
            "known-margins": ["lambda", "--m", "3", "--family-known-margins-V"],
        }

    @pytest.mark.parametrize("command", ["efficiency", "stat", "simulate", "known-margins"])
    def test_forms_agree(self, capsys, commands, command):
        reps = [run_json(capsys, *commands[command], text) for text in self.FORMS]
        assert all(rep["result"] == reps[0]["result"] for rep in reps)
        for text, rep in zip(self.FORMS, reps):
            if command == "known-margins":
                assert rep["config"]["family"] == ["--family-known-margins-V", text]
            else:
                assert rep["config"]["V"] == "{1,2}"

    @pytest.mark.parametrize("command", ["efficiency", "stat", "simulate", "known-margins"])
    @pytest.mark.parametrize("text", ["{1,x}", "[1,", "0"])
    def test_bad_subset_exits_2(self, capsys, tmp_path, commands, command, text):
        out_file = tmp_path / "report.json"
        code, out, err = run_cli(capsys, *commands[command], text,
                                 "--out-file", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["efficiency", "stat", "simulate", "known-margins",
                                         "family"])
    @pytest.mark.parametrize("coords", ["1.9, true", "true", "2.0", '"1"'])
    def test_non_integer_coordinates_exit_2_naming_the_option(
            self, capsys, tmp_path, commands, command, coords):
        # a JSON coordinate is never truncated: [1.9, true] once read as {1}
        if command == "family":
            argv, text = ["lambda", "--m", "3", "--family"], f"[[{coords}], [1, 2, 3]]"
        else:
            argv, text = commands[command], f"[{coords}]"
        out_file = tmp_path / "report.json"
        code, out, err = run_cli(capsys, *argv, text, "--out-file", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err.startswith(f"error: {argv[-1]} {text!r}: coordinate ")
        assert err.endswith(" is not an integer\n")

    @pytest.mark.parametrize("argv", [
        ["lambda", "--m", "20", "--family", "[[1]]"],
        ["lambda", "--m", "20", "--family-known-margins-V", "{1}"],
        ["efficiency", "--m", "20", "--V", "{1}"],
        ["efficiency", "--m", "20"],
    ])
    def test_bad_dimension_is_not_blamed_on_the_option(self, capsys, argv):
        # only an error in the option's own text carries the option's name
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        m = argv[argv.index("--m") + 1]
        assert err == f"error: dimension must be an integer in [2, 16], got {m}\n"


class TestOneLambdaHandler:
    """`lambda` is the `solve` handler without the omega samples, under the
    refusal rule: lambda = 0, or a lambda whose reciprocal overflows."""

    def test_lambda_is_solve_without_omega(self, capsys):
        argv = ["--m", "3", "--family-known-margins-V", "1", "--measure", "diagonal"]
        lam = run_json(capsys, "lambda", *argv)
        sol = run_json(capsys, "solve", *argv)
        assert lam["config"] == sol["config"]
        assert list(lam["result"]) == ["lambda", "inverse_lambda"]
        assert sol["result"] == {**lam["result"], "omega": []}

    @pytest.mark.parametrize("command", ["lambda", "solve"])
    def test_pillow_m16_lambda(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--m", "16", "--family-all")
        assert code == 0, err
        assert '"lambda": 5.408789293239539e-18' in out

    @pytest.mark.parametrize("command", ["lambda", "solve"])
    def test_mass_on_a_vanishing_face_exits_2(self, capsys, tmp_path, command):
        out_file = tmp_path / "report.json"
        code, out, err = run_cli(capsys, command, "--m", "2", "--family-all", "--measure",
                                 '{"variant": "points", "points": [[1, 0.5]]}',
                                 "--out-file", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err == ("error: lambda = 0 is not positive; measure sits where the kernel "
                       "vanishes\n")

    @pytest.mark.parametrize("command", [["lambda", "--family-empty"],
                                         ["solve", "--family-empty"],
                                         ["efficiency", "--V", "1"]])
    def test_lambda_whose_reciprocal_overflows_exits_2(self, capsys, tmp_path, command):
        out_file = tmp_path / "report.json"
        code, out, err = run_cli(capsys, *command, "--m", "2", "--measure",
                                 '{"variant": "points", "points": [[1e-160, 1e-160]]}',
                                 "--out-file", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err.startswith("error: lambda = ") and "1/lambda overflows" in err

    @pytest.mark.parametrize("command", [["lambda", "--family-empty"],
                                         ["solve", "--family-empty"],
                                         ["efficiency", "--V", "1"]])
    def test_infinite_lambda_exits_2(self, capsys, tmp_path, command):
        # finite weights whose squares overflow
        out_file = tmp_path / "report.json"
        code, out, err = run_cli(capsys, *command, "--m", "2", "--measure",
                                 '{"variant": "points", "points": [[0.5, 0.5]], '
                                 '"weights": [1e200]}', "--out-file", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err == "error: lambda = inf is not finite; the measure's weights are too large\n"

    @pytest.mark.parametrize("weight, problem", [
        ("1e-320", "lambda = 0 is not positive"),
        ("1e-160", "lambda = 1.24999e-321 is so small that 1/lambda overflows")])
    @pytest.mark.parametrize("command", ["lambda", "solve"])
    def test_tiny_weights_are_blamed_not_the_place(self, capsys, command, weight, problem):
        # G(x, x) = 1/8 at the centre under the sheet: only the weight is small
        code, out, err = run_cli(capsys, command, "--family-empty", "--m", "3", "--measure",
                                 '{"variant": "points", "points": [[0.5, 0.5, 0.5]], '
                                 f'"weights": [{weight}]}}')
        assert code == 2 and out == ""
        assert err == f"error: {problem}; the measure's weights are too small\n"

    @pytest.mark.parametrize("command", [["lambda", "--family-empty"],
                                         ["efficiency", "--V", "1"]])
    def test_unit_mass_near_a_vanishing_face_is_blamed_on_its_place(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--m", "2", "--measure",
                                 '{"variant": "points", "points": [[1e-160, 1e-160]]}')
        assert code == 2 and out == ""
        assert err == ("error: lambda = 9.99989e-321 is so small that 1/lambda overflows; "
                       "measure sits where the kernel nearly vanishes\n")

    def test_overflowed_weights_on_a_vanishing_face_are_too_large(self, capsys):
        # 1e200 * 1e200 overflows, and times the pair on the face x_1 = 1 it is NaN
        measure = ('{"variant": "sum", "parts": ['
                   '{"weight": 1e200, "measure": {"variant": "points", "points": [[0.5, 0.5]]}}, '
                   '{"weight": 1e200, "measure": {"variant": "points", "points": [[1, 0.5]]}}]}')
        code, out, err = run_cli(capsys, "lambda", "--family-all", "--m", "2",
                                 "--measure", measure)
        assert code == 2 and out == ""
        assert err == "error: lambda = nan is not finite; the measure's weights are too large\n"

    def test_coeffs_builds_no_kernel(self, capsys, monkeypatch):
        def no_kernel(*args, **kwargs):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(cli, "green_kernel", no_kernel)
        monkeypatch.setattr(kernel, "green_kernel", no_kernel)
        monkeypatch.setattr(kernel.GreenKernel, "__post_init__", no_kernel)
        family = "[[1,2],[1,2,3],[1,2,4],[3,4],[1,3,4],[2,3,4],[1,2,3,4]]"
        rep = run_json(capsys, "coeffs", "--m", "4", "--family", family)
        assert list(rep["result"]["a"].items()) == [
            ("{1,2}", 1), ("{3,4}", 1), ("{1,2,3}", 0), ("{1,2,4}", 0), ("{1,3,4}", 0),
            ("{2,3,4}", 0), ("{1,2,3,4}", -1)]


class TestPointOptions:
    """Every point the CLI reads lies in I^m, or the run exits 2 naming the
    option and writes nothing."""

    POINT_ARGV = {
        "--x": ["green-eval", "--m", "2", "--family-all", "--xi", "0.5,0.5", "--x={}"],
        "--xi": ["green-eval", "--m", "2", "--family-all", "--x", "0.5,0.5", "--xi={}"],
        "--eval-at": ["solve", "--m", "2", "--family-all", "--eval-at={}"],
        "--measure": ["lambda", "--m", "2", "--family-all",
                      '--measure={{"variant": "points", "points": [[{}]]}}'],
    }

    @pytest.mark.parametrize("option", list(POINT_ARGV))
    @pytest.mark.parametrize("point", ["2,3", "1.0000000000000002,0.5", "0.5,-5e-324",
                                       "nan,0.5", "0.5,inf"])
    def test_outside_exits_2_naming_the_option(self, capsys, tmp_path, option, point):
        out_file = tmp_path / "report.json"
        if option == "--measure":  # JSON spells them NaN and Infinity
            point = point.replace("nan", "NaN").replace("inf", "Infinity")
        argv = [a.format(point) for a in self.POINT_ARGV[option]]
        code, out, err = run_cli(capsys, *argv, "--out-file", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err.startswith(f"error: {option} ") and "is not in [0, 1]" in err

    @pytest.mark.parametrize("option", ["--x", "--xi", "--eval-at"])
    def test_faces_accepted(self, capsys, option):
        argv = [a.format("-0.0,1.0") for a in self.POINT_ARGV[option]]
        run_json(capsys, *argv)

    @pytest.mark.parametrize("spec", [
        "[]", "5",
        '{"variant": "points", "points": [[0.5, 0.5]], "weights": []}',
        '{"variant": "points", "points": [[0.5, 0.5]], "weights": [NaN]}',
        '{"variant": "sum", "parts": [{"weight": NaN, "measure": "diagonal"}]}',
        '{"variant": "points", "points": [[0.5, 0.5]], "weights": [Infinity]}',
        '{"variant": "sum", "parts": [{"weight": Infinity, "measure": "diagonal"}]}',
        '{"variant": "points", "points": 5}',
        '{"variant": "points", "points": [[0.5, 0.5]], "weights": 5}',
        '{"variant": "sum", "parts": 5}',
        '{"variant": "sum", "parts": [5]}',
        '{"variant": "sum", "parts": [{"weight": null, "measure": "diagonal"}]}',
        '{"variant": 5}',
        '{"variant": "points"}',
        '{"variant": "sum", "parts": [{"weight": 2}]}',
        '{"variant": "sum", "parts": [{"weight": "2", "measure": "diagonal"}]}',
        '{"variant": "points", "points": [[0.5, 0.5]], "weights": [true]}',
        '{"variant": "points", "points": [[0.5, true]]}',
        '{"variant": "sum", "parts": []}',
        '{"variant": "points", "points": []}',
    ])
    @pytest.mark.parametrize("command", ["lambda", "solve", "efficiency"])
    def test_bad_measure_spec_exits_2(self, capsys, tmp_path, spec, command):
        out_file = tmp_path / "report.json"
        family = [] if command == "efficiency" else ["--family-all"]
        code, out, err = run_cli(capsys, command, "--m", "2", *family, "--measure", spec,
                                 "--out-file", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err.startswith(f"error: --measure {echoed(spec)}: ")


class TestStrictJson:
    def test_zero_standard_errors_exit_2(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "simulate", "--mode", "cov", "--m", "2", "--n", "1",
                                     "--R", "100", "--V", "", "--grid-n", "2",
                                     "--out-file", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err.startswith("error: max_dev_in_se is undefined: 16 of the 16 standard errors "
                              "are zero")

    def test_non_finite_report_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "compute_coefficients", lambda fam: {1: float("nan")})
        code, out, err = run_cli(capsys, "coeffs", "--m", "2", "--family-all")
        assert code == 2 and out == ""
        assert err.startswith("error: Out of range float values are not JSON compliant")
