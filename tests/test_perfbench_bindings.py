"""The benchmark's tracer finds every function it reports.

`perfbench/tracing.py` wraps package functions by module and name
(`kernels.canonicalize`, `jsj.abelian_jsj`, ...). A rename or a move that
loses one of those bindings would only show up as a failed traced run of
the benchmark; this test makes it fail here.
"""

import importlib
from pathlib import Path
import sys

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_on_fresh_import(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in [m for m in sys.modules
                 if m == "raagdecomp" or m.startswith("raagdecomp.")]:
        monkeypatch.delitem(sys.modules, name)
    rd = importlib.import_module("raagdecomp")
    importlib.import_module("raagdecomp.cli")
    tracing = importlib.import_module("tracing")
    tracing.Tracer().install(rd)
