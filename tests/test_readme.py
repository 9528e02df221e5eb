"""Every CLI example of the README replays: run twice in process, each run
writes one line of strict JSON (no NaN or Infinity), and the two lines
agree byte for byte up to the `timing` key, which comes last (wall times
live under it only)."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from cubegreen.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[str]:
    text = README.read_text().split("## CLI examples", 1)[1]
    block = text.split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("cubegreen ")]


def _non_finite(name):
    raise AssertionError(f"report holds {name}, which strict JSON has no number for")


def test_readme_has_examples():
    cmds = {shlex.split(line)[1] for line in _examples()}
    assert {"family", "coeffs", "green-eval", "lambda", "solve", "efficiency", "eigen",
            "stat", "simulate"} <= cmds


@pytest.mark.parametrize("line", _examples())
def test_readme_example_replays(line, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    X = np.random.default_rng(3).random((20, 3))
    (tmp_path / "data.csv").write_text(
        "x,y,z\n" + "".join(",".join(map(repr, row)) + "\n" for row in X.tolist()))
    argv = shlex.split(line)[1:]
    runs = []
    for _ in range(2):
        code = main(argv)
        out = capsys.readouterr()
        assert code == 0, out.err
        assert out.out.endswith("\n") and out.out.count("\n") == 1
        report = json.loads(out.out, parse_constant=_non_finite)
        assert list(report)[:2] == ["config", "result"] and list(report)[-1] == "timing"
        runs.append(out.out[:out.out.rindex(', "timing": ')])
    assert runs[0] == runs[1]
