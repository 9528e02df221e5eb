"""The exact text of each refusal above the one cell cap, `rankstats._CELL_CAP`,
one entry past the cap, and a run at the cap.  (The R x G refusal is pinned
in test_cli.py.)"""

import json

import pytest

from cubegreen import quadrature, rankstats
from cubegreen.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def refused(capsys, monkeypatch, cap, argv):
    monkeypatch.setattr(rankstats, "_CELL_CAP", cap)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    return err


def runs(capsys, monkeypatch, cap, argv):
    monkeypatch.setattr(rankstats, "_CELL_CAP", cap)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def csv2(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("0.1,0.9\n0.4,0.2\n0.7,0.5\n0.3,0.6\n")
    return str(path)


@pytest.mark.parametrize("name, V, cells", [("Bhat", "", 5 * 5), ("B", "1", 4 * 4)])
def test_statistic_lattice(capsys, monkeypatch, csv2, name, V, cells):
    # Bhat: (g + 1)^m cells; B: g^|V| n^(m - |V|), here 4 midpoints and 4 rows
    argv = ["stat", "--name", name, "--input", csv2, "--V", V, "--p", "2", "--grid-n", "4"]
    err = refused(capsys, monkeypatch, cells - 1, argv)
    assert err == (f"error: the statistic needs a lattice of {cells} cells, above the cap "
                   f"of {cells - 1}; reduce grid_n, n or m, or choose larger V\n")
    assert runs(capsys, monkeypatch, cells, argv)["result"]["value"] >= 0.0


def test_grid_size(capsys, monkeypatch):
    # 2 interior nodes per axis at m = 2: 4 points, 16 kernel entries; at
    # the cap of 16 the next check refuses the R x G = 400 kept values
    argv = ["simulate", "--mode", "tiedcov", "--m", "2", "--n", "2", "--R", "100",
            "--grid-n", "2"]
    err = refused(capsys, monkeypatch, 15, argv)
    assert err == ("error: a grid of 4 points needs 4^2 kernel entries, above the cap of 15; "
                   "reduce grid_n or m\n")
    assert refused(capsys, monkeypatch, 16, argv).startswith(
        "error: --R 100 replications on 4 grid points keep 400 process values")


def test_field_normals(capsys, monkeypatch):
    # a draw of 4 values on 2 nodes per axis at m = 2 reads 3^2 normals
    argv = ["simulate", "--mode", "field", "--m", "2", "--grid-n", "2", "--count", "1"]
    err = refused(capsys, monkeypatch, 8, argv)
    assert err == ("error: a draw on 2 nodes per axis at m = 2 reads 9 normals, above the cap "
                   "of 8; reduce --grid-n or --m\n")
    assert len(runs(capsys, monkeypatch, 9, argv)["result"]["draws"]) == 1


def test_field_size(capsys, monkeypatch):
    # 5 draws of 4 points: 20 values, each draw's 9 normals within the cap
    argv = ["simulate", "--mode", "field", "--m", "2", "--grid-n", "2", "--count", "5"]
    err = refused(capsys, monkeypatch, 19, argv)
    assert err == ("error: --count 5 draws of 4 points need 20 values, above the cap of 19; "
                   "reduce --count or grid_n\n")
    assert len(runs(capsys, monkeypatch, 20, argv)["result"]["draws"]) == 5


# Bhat at p = 2 on 10 midpoints per axis, two threads
THREADED = ["simulate", "--mode", "nulldist", "--stat", "Bhat", "--p", "2", "--grid-n", "10",
            "--m", "2", "--n", "20", "--R", "100", "--seed", "2", "--threads", "2"]


def test_threads_times_lattice(capsys, monkeypatch):
    # 2 blocks of 50 replications, two threads: two lattices of (10 + 1)^2 cells
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 50 * 8 * 20 * 2)
    err = refused(capsys, monkeypatch, 241, THREADED)
    assert err == ("error: --threads 2 builds 2 lattices of 121 cells at once, above the cap "
                   "of 241; reduce --threads\n")
    assert runs(capsys, monkeypatch, 242, THREADED)["config"]["threads"] == 2


def test_threads_leave_a_lattice_above_the_cap_to_the_statistic(capsys, monkeypatch):
    # one lattice of 121 cells is already above the cap: reducing --threads cannot help
    monkeypatch.setattr(quadrature, "_BLOCK_BYTES", 50 * 8 * 20 * 2)
    err = refused(capsys, monkeypatch, 120, THREADED)
    assert err == ("error: the statistic needs a lattice of 121 cells, above the cap of 120; "
                   "reduce grid_n, n or m, or choose larger V\n")
