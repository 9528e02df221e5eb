"""The benchmark's traced run wraps cubegreen functions by name.

`perfbench/spans.py` lists them in TARGETS as (module, attribute, ...);
a rename or deletion there would only fail the traced benchmark run, so
this test resolves every target here.  The file is read, not imported,
so nothing is written next to it.
"""

import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    namespace = {"__name__": "spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return [(mod, attr) for mod, attr, _layer, _info in namespace["TARGETS"]]


@pytest.mark.parametrize("module, attr", _targets())
def test_span_target_resolves(module, attr):
    mod = importlib.import_module("cubegreen." + module)
    if "." in attr:
        # methods are wrapped on the class itself, so they must be defined there
        cls_name, meth = attr.split(".")
        assert callable(getattr(mod, cls_name).__dict__.get(meth))
    else:
        assert callable(getattr(mod, attr, None))
