"""The package's declared surface and the benchmark tracer's bindings.

A deleted function whose name stays in an __all__ list, or whose
binding the benchmark tracer wraps, fails here instead of going
unnoticed: the tracer itself only records a lost binding and carries on.
An import that its module no longer reads fails here too.
"""

import ast
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
# imported only so that the benchmark tracer has a binding to wrap
TRACER_ONLY = {"cli": {"simulate_cir"}, "owt": {"expected_utility"},
               "market_sim": {"sample_nhpp"}}


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


@pytest.mark.parametrize("module", ["__init__"] + MODULES)
def test_every_import_is_read(module):
    tree = ast.parse((ROOT / "src" / "homesale" / f"{module}.py").read_text())
    imported = {(a.asname or a.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set(importlib.import_module(
        "homesale" if module == "__init__" else f"homesale.{module}").__all__)
    assert imported - read - exported <= TRACER_ONLY.get(module, set())
