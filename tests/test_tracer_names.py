"""The traced benchmark run wraps functions by name; a rename in margnet
would make `tracer.instrument` raise AttributeError and crash that run."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load_tracer().TRACED
    assert traced
    for _, module_name, path in traced:
        obj = importlib.import_module(module_name)
        for part in path.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, f"{module_name}.{path} is traced but not defined"
        assert callable(obj)

