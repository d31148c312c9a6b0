"""The names the benchmark's tracer wraps must exist where it looks them up.

``bench/tracing.py`` replaces functions by name (``PROBES``), reading each
one from its owner's ``__dict__``. A rename or a dropped import in sidkit
would otherwise surface only when the traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_probes():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PROBES


def test_every_probe_target_resolves():
    missing = []
    for module_name, attr, _, _ in _load_probes():
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if name not in owner.__dict__:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
