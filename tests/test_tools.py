"""Scripts outside the package must keep importing against the library: the
fixture generators under tools/ (their entry points sit behind `__main__`
guards, so this runs none, but the hirzebruch search must still find the
bundled words) and the benchmark's layer tracer, whose targets
name library functions and methods and whose observers read their
arguments and results."""

import importlib

from helpers_latcover import ROOT, load_script

TOOLS = ROOT / "tools"


def test_make_hirzebruch_imports():
    module = load_script("make_hirzebruch", TOOLS / "make_hirzebruch.py")
    assert callable(module.main)


def test_make_hirzebruch_search_reproduces_the_bundled_words():
    module = load_script("make_hirzebruch", TOOLS / "make_hirzebruch.py")
    bundled = (ROOT / "src" / "latcover" / "presets" / "dm-5-4-1-1-1-6"
               / "subgroups" / "hirzebruch.words").read_text()
    assert module.search() == [line for line in bundled.splitlines()
                               if not line.startswith("#")]


def test_benchmark_tracer_targets_resolve():
    tracer = load_script("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    assert tracer.TARGETS
    for prefix, modname, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{prefix}: {modname}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), prefix


def test_benchmark_tracer_observers_accept_library_results(capsys):
    tracer_module = load_script("perfbench_tracer",
                                ROOT / "perfbench" / "tracer.py")
    from latcover import cli
    preset = "dm-5-4-1-1-1-6"
    hirzebruch = ("--preset", preset, "--subgroup", "hirzebruch")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        codes = [cli.main(["subpres", *hirzebruch]),
                 cli.main(["nq2", *hirzebruch]),
                 cli.main(["certify", *hirzebruch]),
                 cli.main(["nq2", "--preset", preset]),
                 cli.main(["lift", "--preset", preset])]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0, 0, 0]
    sizes = {
        "fpgroups.tietze_reduce": ("in_gens", "in_relators", "in_length",
                                   "out_gens", "out_relators", "out_length"),
        "nq2.class2_quotient": ("wedge_size",),
        "nq2.rf_certificate": (),
    }
    for name, keys in sizes.items():
        stat = tracer.stats[name]
        assert stat["calls"] > 0, name
        for key in keys:
            assert stat.get(key, 0) > 0, f"{name}.{key}"
