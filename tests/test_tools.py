"""The fixture-generator scripts under tools/ must keep importing against the
library; their entry points sit behind `__main__` guards, so this runs none."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_make_hirzebruch_imports():
    spec = importlib.util.spec_from_file_location(
        "make_hirzebruch", TOOLS / "make_hirzebruch.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
