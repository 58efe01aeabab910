"""The benchmark tracer (perfbench/tracing.py) wraps treesched functions by
(module, attribute) name from outside the package; a refactor that moves or
drops one of those names would otherwise break ``--trace 1`` silently."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(tracing):
    return [(module, attr) for module, attr, *_ in tracing.SPANS] + list(tracing.INVERSION_COUNTERS)


def _current(targets):
    return {(m, a): getattr(importlib.import_module(m), a) for m, a in targets}


def test_every_hook_target_resolves(tracing):
    missing = [
        f"{m}.{a}" for m, a in _targets(tracing) if not hasattr(importlib.import_module(m), a)
    ]
    assert not missing


def test_install_then_uninstall_restores_every_attribute(tracing):
    targets = _targets(tracing)
    before = _current(targets)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _current(targets)
    finally:
        tracer.uninstall()
    assert all(during[t] is not before[t] for t in targets)
    after = _current(targets)
    assert all(after[t] is before[t] for t in targets)
