"""Edges of the advertised domain: the sample and kept-value caps of the
simulators, the seed range, refusals of counts too large to print in
decimal, and branches no other test reaches."""

import json

import numpy as np
import pytest

from cubegreen import montecarlo, quadrature, rankstats
from cubegreen.cli import main
from cubegreen.families import family_for_known_margins
from cubegreen.kernel import green_kernel
from cubegreen.montecarlo import SimConfig, null_distribution, substream


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class Drawn(Exception):
    """Raised in place of a draw: every check before it passed."""


@pytest.fixture
def no_draw(monkeypatch):
    def drawn(*args):
        raise Drawn

    monkeypatch.setattr(montecarlo, "_uniform_block", drawn)


def at_cap(capsys, monkeypatch, cap, argv):
    """Run argv with the cap patched: the error text, or None when it drew."""
    monkeypatch.setattr(rankstats, "_CELL_CAP", cap)
    try:
        code, out, err = run_cli(capsys, *argv)
    except Drawn:
        return None
    assert code == 2 and out == ""
    return err


class TestSampleCaps:
    # nulldist: n·m = 60·2 = 120 values per replication, 100 kept values
    NULLDIST = ["simulate", "--mode", "nulldist", "--stat", "rho", "--m", "2", "--n", "60",
                "--R", "100"]
    # tiedcov on 2 x 2 points: n·(g^(m-1) + g) = 101·4 = 404 values, R·G = 400 kept
    TIEDCOV = ["simulate", "--mode", "tiedcov", "--m", "2", "--n", "101", "--R", "100",
               "--grid-n", "2"]

    @pytest.mark.parametrize("argv, each", [(NULLDIST, 120), (TIEDCOV, 404)])
    def test_values_per_replication(self, capsys, monkeypatch, no_draw, argv, each):
        assert at_cap(capsys, monkeypatch, each, argv) is None
        n = argv[argv.index("--n") + 1]
        assert at_cap(capsys, monkeypatch, each - 1, argv) == (
            f"error: --n {n} observations need {each} values per replication, above the cap "
            f"of {each - 1}; reduce --n\n")

    def test_values_nulldist_keeps(self, capsys, monkeypatch, no_draw):
        argv = ["simulate", "--mode", "nulldist", "--stat", "rho", "--m", "2", "--n", "20",
                "--R", "200"]
        assert at_cap(capsys, monkeypatch, 200, argv) is None
        assert at_cap(capsys, monkeypatch, 199, argv) == (
            "error: --R 200 replications keep 200 statistic values, above the cap of 199; "
            "reduce --R\n")

    def test_a_billion_observations_are_refused_before_the_draw(self, no_draw):
        cfg = SimConfig(seed=1, n=10 ** 9, replications=100, m=2)
        with pytest.raises(ValueError, match="--n 1000000000 observations need 2000000000 "):
            null_distribution(cfg, "rho")
        # the cap itself, 2^25 values, is drawn
        with pytest.raises(Drawn):
            null_distribution(SimConfig(seed=1, n=2 ** 24, replications=100, m=2), "rho")

    def test_a_billion_replications_are_refused_before_the_draw(self, no_draw):
        cfg = SimConfig(seed=1, n=10, replications=10 ** 9, m=2)
        with pytest.raises(ValueError, match="--R 1000000000 replications keep"):
            null_distribution(cfg, "rho")


class TestSeedRange:
    MODES = [["--mode", "nulldist", "--stat", "rho", "--n", "10", "--R", "100"],
             ["--mode", "cov", "--V", "1", "--n", "10", "--R", "100", "--grid-n", "2"],
             ["--mode", "tiedcov", "--n", "10", "--R", "100", "--grid-n", "2"],
             ["--mode", "field", "--grid-n", "2", "--count", "2"]]

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 1])
    @pytest.mark.parametrize("mode", MODES)
    def test_a_seed_outside_the_key_range_is_refused(self, capsys, no_draw, mode, seed):
        code, out, err = run_cli(capsys, "simulate", "--m", "2", *mode, "--seed", str(seed))
        assert code == 2 and out == ""
        assert err == f"error: --seed must be in [0, 2^64), got {seed}\n"

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    @pytest.mark.parametrize("mode", MODES)
    def test_the_ends_of_the_range_run(self, capsys, mode, seed):
        rep = run_json(capsys, "simulate", "--m", "2", *mode, "--seed", str(seed))
        assert rep["config"]["seed"] == seed

    def test_the_ends_do_not_alias(self, capsys):
        argv = ["simulate", "--mode", "nulldist", "--stat", "rho", "--m", "2", "--n", "10",
                "--R", "100", "--seed"]
        low, high = (run_json(capsys, *argv, s)["result"] for s in ("1", str(2 ** 64 - 1)))
        assert low != high

    @pytest.mark.parametrize("seed, replication, name", [
        (-1, 0, "seed"), (2 ** 64, 0, "seed"), (0, -1, "replication"),
        (0, 2 ** 64, "replication")])
    def test_substream_refuses_what_would_alias(self, seed, replication, name):
        with pytest.raises(ValueError, match=f"^{name} must be in"):
            substream(seed, replication)

    def test_substream_keys_at_the_ends(self):
        top = 2 ** 64 - 1
        assert substream(top, top).bit_generator.state["state"]["key"].tolist() == [top, top]
        assert substream(0, 0).random() == substream(0, 0).random()

    def test_config_refuses_a_negative_seed(self):
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\^64\), got -1$"):
            SimConfig(seed=-1, n=10, replications=100, m=2)


HUGE = str(10 ** 300)


class TestHugeCounts:
    """--grid-n 10^300 at m = 16: the product has 4 801 digits, more than
    Python converts to decimal, so the messages print it as 1.00e4800."""

    def test_eigen(self, capsys):
        code, out, err = run_cli(capsys, "eigen", "--family-all", "--m", "16",
                                 "--grid-n", HUGE)
        assert code == 2 and out == ""
        assert err == ("error: grid_n**m = 1.00e4800 exceeds the Nystrom cap 20000; "
                       "no grid_n >= 8 fits at m >= 5 (8**5 = 32768)\n")

    @pytest.mark.parametrize("mode", [["--mode", "tiedcov"], ["--mode", "field"]])
    def test_simulate(self, capsys, mode):
        code, out, err = run_cli(capsys, "simulate", "--m", "16", *mode, "--grid-n", HUGE)
        assert code == 2 and out == ""
        assert err == ("error: a grid of 1.00e4800 points needs 1.00e4800^2 kernel entries, "
                       "above the cap of 33554432; reduce grid_n or m\n")

    def test_stat(self, capsys, tmp_path):
        path = tmp_path / "m16.csv"
        path.write_text("\n".join(",".join(["0.5"] * 16) for _ in range(3)) + "\n")
        code, out, err = run_cli(capsys, "stat", "--name", "Bhat", "--p", "2", "--input",
                                 str(path), "--grid-n", HUGE)
        assert code == 2 and out == ""
        # (10^300 + 1)^16 cells
        assert err == ("error: the statistic needs a lattice of 1.00e4800 cells, above the "
                       "cap of 33554432; reduce grid_n, n or m, or choose larger V\n")

    def test_nulldist(self, capsys):
        # the threads check leaves a lattice above the cap to the statistic
        code, out, err = run_cli(capsys, "simulate", "--mode", "nulldist", "--stat", "Bhat",
                                 "--p", "2", "--m", "16", "--grid-n", HUGE)
        assert code == 2 and out == ""
        assert err == ("error: the statistic needs a lattice of 1.00e4800 cells, above the "
                       "cap of 33554432; reduce grid_n, n or m, or choose larger V\n")

    def test_nodes_per_axis(self):
        with pytest.raises(ValueError) as exc:
            quadrature.nodes_per_axis(16, 10 ** 300)
        assert str(exc.value) == (f"an integral over I^16 with {HUGE} nodes per axis needs "
                                  f"1.00e4800 point evaluations, above the budget of 4194304")

    # ids by hand: pytest would print each count in decimal
    @pytest.mark.parametrize("count, text", [
        (0, "0"), (10 ** 300 - 1, "9" * 300), (10 ** 300, "1.00e300"),
        (10 ** 300 + 1, "1.00e300"), (2 ** 1000, "1.07e301"), (10 ** 5000 - 1, "9.99e4999"),
        (123456 * 10 ** 400, "1.23e405")],
        ids=["0", "10^300-1", "10^300", "10^300+1", "2^1000", "10^5000-1", "123456e400"])
    def test_count_text(self, count, text):
        assert quadrature.count_text(count) == text


class TestUnreachedBranches:
    def test_cholesky_ridge_escalates_tenfold(self, monkeypatch):
        grid = np.array([[0.2, 0.3], [0.6, 0.5], [0.8, 0.9]])
        kern = green_kernel(family_for_known_margins(0b01, 2))
        G = kern.cross(grid, grid)
        ridge = montecarlo._BASE_RIDGE * np.trace(G) / len(G)
        L = np.linalg.cholesky(G + ridge * 10 * np.eye(len(G)))
        want = substream(4, 0).standard_normal((5, len(G))) @ L.T
        cholesky, calls = np.linalg.cholesky, []

        def fails_once(a):
            calls.append(a)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", fails_once)
        draws = montecarlo.sample_gaussian_field(kern, grid, 5, 4)
        assert len(calls) == 2 and np.array_equal(draws, want)

    def test_cholesky_failing_three_times_exits_2(self, capsys, monkeypatch):
        def fails(a):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fails)
        code, out, err = run_cli(capsys, "simulate", "--mode", "field", "--m", "2",
                                 "--grid-n", "2", "--count", "2")
        assert code == 2 and out == ""
        assert err == "error: Cholesky failed after ridge escalation\n"

    def test_eigen_grid_below_8(self, capsys):
        code, out, err = run_cli(capsys, "eigen", "--family-all", "--grid-n", "7")
        assert code == 2 and out == ""
        assert err == "error: grid_n must be at least 8\n"

    def test_green_eval_point_of_the_wrong_dimension(self, capsys):
        code, out, err = run_cli(capsys, "green-eval", "--family-all", "--m", "2",
                                 "--x", "0.5", "--xi", "0.5,0.5")
        assert code == 2 and out == ""
        assert err == "error: --x '0.5': expected 2 coordinates, got 1\n"

    def test_field_with_V_draws_from_the_known_margins_kernel(self, capsys):
        rep = run_json(capsys, "simulate", "--mode", "field", "--m", "2", "--grid-n", "2",
                       "--count", "3", "--seed", "7", "--V", "1")
        _, points = montecarlo.interior_lattice(2, 2)
        want = montecarlo.sample_gaussian_field(
            green_kernel(family_for_known_margins(0b01, 2)), points, 3, 7)
        assert rep["config"]["V"] == "{1}"
        assert rep["result"]["draws"] == want.tolist()
        pillow = run_json(capsys, "simulate", "--mode", "field", "--m", "2", "--grid-n", "2",
                          "--count", "3", "--seed", "7")
        assert pillow["result"]["draws"] != rep["result"]["draws"]
