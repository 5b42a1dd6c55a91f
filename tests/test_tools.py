"""Scripts outside the package must keep importing against the library: the
fixture generators under tools/ (their entry points sit behind `__main__`
guards, so this runs none) and the benchmark's layer tracer, whose targets
name library functions and methods."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_hirzebruch_imports():
    module = _load("make_hirzebruch", TOOLS / "make_hirzebruch.py")
    assert callable(module.main)


def test_benchmark_tracer_targets_resolve():
    tracer = _load("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    assert tracer.TARGETS
    for prefix, modname, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{prefix}: {modname}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), prefix
