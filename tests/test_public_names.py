"""The benchmark's names and the package's exports resolve; commands reach them.

``bench/tracer.py`` patches the functions in its ``TRACED`` table by name
(a dotted name is a method patched on its class), and ``bench/selftest.py``
calls ``Matching.as_dict``.  A name missing from the library would otherwise
show only as a crash of a traced benchmark run, and a command that bypasses
a traced layer only as that layer's metrics reading 0.  The benchmark's own
selftest runs here too.  Each public name is listed once, in the ``__all__``
of the module that defines it, and the package's ``__all__`` joins those
lists.
"""

import importlib
import importlib.util
import subprocess
import sys
from itertools import chain
from pathlib import Path

import stablefrac as sf
from stablefrac import cli

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
DATA = Path(__file__).parent / "data"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    missing = []
    for mod_name, names in _tracer_module().TRACED.items():
        module = importlib.import_module(f"stablefrac.{mod_name}")
        for name in names:
            cls_name, _, attr = name.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            found = attr in vars(owner) if isinstance(owner, type) else \
                callable(getattr(owner, attr, None))
            if not found:
                missing.append(f"{mod_name}.{name}")
    assert missing == []
    assert callable(sf.Matching.as_dict)


def test_exported_names_resolve_once():
    assert len(set(sf.__all__)) == len(sf.__all__)
    assert [name for name in sf.__all__ if not hasattr(sf, name)] == []


MODULES = [importlib.import_module(f"stablefrac.{name}") for name in
           ("model", "stability", "polytope", "strong_stability", "rotations", "hulls")]


def test_module_lists_share_no_name():
    names = list(chain.from_iterable(module.__all__ for module in MODULES))
    assert len(set(names)) == len(names)


def test_each_name_resolves_in_its_own_module():
    """Each listed name is bound in its module, to the object the package
    exports; a listed class or function is defined there."""
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            assert getattr(sf, name) is value
            owner = getattr(value, "__module__", module.__name__)
            assert owner == module.__name__ or not owner.startswith("stablefrac"), name


def test_package_list_joins_the_module_lists():
    assert sf.__all__ == tuple(chain.from_iterable(module.__all__ for module in MODULES))


def test_commands_reach_the_public_layers(capsys):
    """Each command calls the paper's layers by their public names, so the
    benchmark's trace sees the work it does."""
    bench_tracer = _tracer_module()
    market, mid = str(DATA / "example.market"), str(DATA / "mid.frac")
    commands = {"check": ["check", market, mid],
                "decompose": ["decompose", market, mid],
                "verify": ["verify", market, "--samples", "20"]}
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        for name, argv in commands.items():
            tracer.command = name
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    seen = {name: {bench_tracer.NAMES[span[0]] for span in tracer.spans
                   if span[4] == name} for name in commands}
    certify = {"hulls.certify_strongly_stable", "strong_stability.decompose"}
    assert {"polytope.is_extreme_point",
            "strong_stability.strong_stability_check"} <= seen["check"]
    assert certify <= seen["decompose"]
    assert certify | {"hulls.sample_hull", "polytope.is_extreme_point"} <= seen["verify"]


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest ok" in done.stdout
