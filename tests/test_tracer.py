"""The benchmark tracer wraps kinoplan functions by name; every traced name
must still resolve, or a traced benchmark run crashes."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_uninstalls():
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for _, module, path in tracer_module.SPANS:
        owner = importlib.import_module(f"kinoplan.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert not hasattr(owner.__dict__[attr], "__wrapped__"), path
