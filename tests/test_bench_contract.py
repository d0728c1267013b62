"""The benchmark's tracer wraps deepmp functions at named module attributes.

perfbench/tracing.py replaces ``module.attribute`` for every lookup site in
its ``TRACED`` table; a refactor that drops one of those attributes would
only surface as a crash of a traced benchmark run. This test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_lookup_site_resolves():
    traced = load_tracing().TRACED
    assert traced
    missing = []
    for name, (sites, attr, _hook) in traced.items():
        for site in sites:
            if not callable(getattr(importlib.import_module(site), attr, None)):
                missing.append(f"{name}: {site}.{attr}")
    assert not missing, missing
