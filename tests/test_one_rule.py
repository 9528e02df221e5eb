"""Each rule in one place: the statistic options of `stat` and `simulate
--mode nulldist` from `rankstats.REGISTRY`, one Lebesgue lam of a
known-margins family, one builder of tensor lattice points, and the blame
of a degenerate lam by the measure with unit weights."""

import json

import numpy as np
import pytest

from cubegreen import extremal, montecarlo, quadrature, rankstats
from cubegreen.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def csv2(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("0.1,0.9\n0.4,0.2\n0.7,0.5\n0.3,0.6\n")
    return str(path)


NULLDIST = ["simulate", "--mode", "nulldist", "--m", "2", "--n", "20", "--R", "100",
            "--seed", "3"]


class TestStatisticOptions:
    @pytest.mark.parametrize("name", ["rho", "gini", "footrule", "Bhat"])
    def test_stat_leaves_V_unparsed_when_the_statistic_ignores_it(self, capsys, csv2, name):
        rep = run_json(capsys, "stat", "--name", name, "--input", csv2, "--V", "3")
        assert "V" not in rep["config"]
        want = run_json(capsys, "stat", "--name", name, "--input", csv2)
        assert rep["result"] == want["result"]

    @pytest.mark.parametrize("name", ["rho", "Bhat"])
    def test_nulldist_leaves_V_unparsed_when_the_statistic_ignores_it(self, capsys, name):
        rep = run_json(capsys, *NULLDIST, "--stat", name, "--V", "9")
        want = run_json(capsys, *NULLDIST, "--stat", name)
        assert "V" not in rep["config"] and rep["result"] == want["result"]

    def test_tiedcov_neither_parses_nor_echoes_V(self, capsys):
        argv = ["simulate", "--mode", "tiedcov", "--m", "2", "--n", "20", "--R", "100",
                "--grid-n", "2", "--seed", "3"]
        rep = run_json(capsys, *argv, "--V", "9")
        assert list(rep["config"]) == ["mode", "m", "n", "R", "seed", "grid_n", "threads"]
        assert rep["result"] == run_json(capsys, *argv)["result"]

    @pytest.mark.parametrize("argv", [
        ["stat", "--name", "B", "--input", "{csv}"],
        [*NULLDIST, "--stat", "B"],
        ["simulate", "--mode", "cov", "--m", "2", "--n", "20", "--R", "100"],
        ["simulate", "--mode", "field", "--m", "2", "--grid-n", "2", "--count", "3"],
    ])
    def test_a_bad_V_is_refused_where_it_is_read(self, capsys, csv2, argv):
        argv = [csv2 if a == "{csv}" else a for a in argv]
        code, out, err = run_cli(capsys, *argv, "--V", "3")
        assert code == 2 and out == ""
        assert err == "error: --V '3': coordinate 3 out of range 1..2\n"

    def test_cov_still_needs_V(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--mode", "cov", "--m", "2",
                                 "--n", "20", "--R", "100")
        assert code == 2 and out == ""
        assert err == 'error: --mode cov needs --V, the known margins (--V "" for none)\n'

    @pytest.mark.parametrize("name", rankstats.STATISTICS)
    def test_nulldist_echoes_the_options_in_registry_order(self, capsys, name):
        cfg = run_json(capsys, *NULLDIST, "--stat", name, "--V", "1")["config"]
        assert list(cfg) == ["mode", "m", "n", "R", "seed", "threads", "stat",
                             *rankstats.REGISTRY[name].options, "scale_sqrt_n"]

    def test_nulldist_echoes_the_values_read(self, capsys):
        cfg = run_json(capsys, *NULLDIST, "--stat", "B", "--V", "2", "--p", "2",
                       "--grid-n", "3")["config"]
        assert (cfg["V"], cfg["p"], cfg["grid_n"]) == ("{2}", 2, 3)
        # B without --V reads the empty set, as stat does
        assert run_json(capsys, *NULLDIST, "--stat", "B")["config"]["V"] == "{}"

    def test_nulldist_B_without_V_is_B_with_the_empty_set(self, capsys):
        rep = run_json(capsys, *NULLDIST, "--stat", "B")
        assert rep["result"] == run_json(capsys, *NULLDIST, "--stat", "B", "--V", "")["result"]

    def test_cov_config_keeps_its_order(self, capsys):
        cfg = run_json(capsys, "simulate", "--mode", "cov", "--m", "2", "--n", "20", "--R",
                       "100", "--grid-n", "2", "--V", "1")["config"]
        assert list(cfg) == ["mode", "m", "n", "R", "seed", "grid_n", "threads", "V"]


class TestOneLebesgueLambda:
    def test_every_slope_and_the_normalized_direction_take_it(self, monkeypatch):
        asked = []

        def recorded(V, m):
            asked.append((V, m))
            return 0.25

        monkeypatch.setattr(extremal, "_lebesgue_lambda", recorded)
        monkeypatch.setattr(extremal, "lambda_value", None)  # no other lam is computed
        dep = extremal.pillow_direction(2)
        bahadur = extremal.bahadur_slope_B1(0b10, 2, dep)
        slope = extremal.pitman_slope_spearman(2, dep)
        extremal.spearman_optimal_direction(3, normalize=True)
        assert asked == [(0b10, 2), (0, 2), (0, 3)]
        assert slope.slope_sq == bahadur == (1 / 36) ** 2 / 0.25

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_it_is_the_closed_value(self, m):
        # 4^m lam = (4/3)^m - m/3 - 1 for V empty
        assert extremal._lebesgue_lambda(0, m) == pytest.approx(
            ((4 / 3) ** m - m / 3 - 1) / 4 ** m, rel=1e-14)


class TestUnitWeightBlame:
    @pytest.mark.parametrize("command", ["lambda", "solve"])
    def test_a_tiny_atom_off_the_vanishing_face_blames_the_weights(self, capsys, command):
        # the weight-1 atom sits on the face x_1 = 1, where the pillow vanishes;
        # the 1e-200 atom's lam, 1e-400 G, underflows to 0
        measure = ('{"variant": "points", "points": [[1, 0.5], [0.5, 0.5]], '
                   '"weights": [1, 1e-200]}')
        code, out, err = run_cli(capsys, command, "--family-all", "--m", "2",
                                 "--measure", measure)
        assert code == 2 and out == ""
        assert err == "error: lambda = 0 is not positive; the measure's weights are too small\n"

    def test_tiny_component_weights_are_set_to_1_too(self, capsys):
        measure = ('{"variant": "sum", "parts": [{"weight": 1e-200, "measure": "lebesgue"}, '
                   '{"weight": 1, "measure": {"variant": "points", "points": [[1, 0.5]]}}]}')
        code, out, err = run_cli(capsys, "lambda", "--family-all", "--m", "2",
                                 "--measure", measure)
        assert code == 2
        assert err == "error: lambda = 0 is not positive; the measure's weights are too small\n"


class TestTensorPoints:
    @pytest.mark.parametrize("m, k", [(1, 3), (2, 4), (3, 2), (4, 3)])
    def test_the_three_builders_share_its_points(self, m, k):
        x = np.linspace(0.1, 0.9, k)
        grids = np.meshgrid(*([x] * m), indexing="ij")
        want = np.stack([g.ravel() for g in grids], axis=-1)
        assert np.array_equal(quadrature.tensor_points(x, m), want)
        gauss = quadrature.unit_rule(k)[0]
        assert np.array_equal(quadrature.tensor_rule(m, k)[0],
                              quadrature.tensor_points(gauss, m))
        assert np.array_equal(quadrature.midpoint_grid(m, k)[0],
                              quadrature.tensor_points((np.arange(k) + 0.5) / k, m))
        if m >= 2:
            axes, points = montecarlo.interior_lattice(m, k)
            assert np.array_equal(points, quadrature.tensor_points(axes[0], m))

    def test_the_last_axis_varies_fastest(self):
        assert quadrature.tensor_points(np.array([0.0, 1.0]), 2).tolist() == [
            [0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
