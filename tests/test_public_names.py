"""The names the benchmark reaches into, and the package's exports, resolve.

``bench/tracer.py`` patches the functions in its ``TRACED`` table by name
(a dotted name is a method patched on its class), and ``bench/selftest.py``
calls ``Matching.as_dict``.  A name missing from the library would otherwise
show only as a crash of a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import stablefrac as sf

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_traced_names_resolve():
    missing = []
    for mod_name, names in _traced().items():
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
