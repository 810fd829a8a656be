"""The package's declared surface and the benchmark tracer's bindings.

A deleted function whose name stays in an __all__ list, or whose
binding the benchmark tracer wraps, fails here instead of going
unnoticed: the tracer itself only records a lost binding and carries on.
"""

import importlib
import json
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import homesale

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(homesale.__path__))


@pytest.mark.parametrize("module", ["homesale"] + [f"homesale.{m}" for m in MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_benchmark_tracer_finds_every_binding():
    # install() rebinds module attributes, so it runs in a fresh process
    # rather than leaving wrappers behind in this one
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    script = (f"import json, sys\nsys.path[:0] = {paths!r}\nimport tracing\n"
              "t = tracing.Tracer()\ntracing.install(t)\n"
              "print(json.dumps([t.missing, t.names, tracing.LAYERS]))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, cwd=ROOT)
    missing, spans, layers = json.loads(out.stdout)
    assert missing == []
    # every layer the benchmark reports has at least one span to time
    assert sorted({s.split(".", 1)[0] for s in spans}) == sorted(layers)
