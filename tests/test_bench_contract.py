"""The names the benchmark tracer in qbench/ relies on still exist.

The per-layer trace (``qbench/run.py --trace 1``) wraps every public
function named in each qfluid module's ``__all__``, wraps the timeline and
velocity-field methods class by class, and attaches its counters by
function name. A stale ``__all__`` entry or a renamed method breaks the
traced run, and a renamed counted function silently reads zero; neither
shows up in any other test. These checks read qbench/ and change nothing
there.
"""

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import qfluid
from qfluid.experiments import ExperimentConfig, _validate_keys

QBENCH = Path(__file__).resolve().parents[1] / "qbench"


def qfluid_modules():
    return [importlib.import_module(f"qfluid.{info.name}")
            for info in pkgutil.iter_modules(qfluid.__path__)]


@pytest.fixture
def qbench(monkeypatch):
    """qbench's modules import each other as top-level names."""
    monkeypatch.syspath_prepend(str(QBENCH))
    for name in ("tracer", "layers", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield
    for name in ("tracer", "layers", "workloads"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("module", qfluid_modules(), ids=lambda m: m.__name__)
def test_every_all_entry_resolves(module):
    missing = [name for name in getattr(module, "__all__", [])
               if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}"


def _snapshot():
    """Every attribute of every qfluid module and of the classes in them."""
    snap = {}
    for module in [qfluid] + qfluid_modules():
        for attr, value in vars(module).items():
            snap[(module.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for name, member in vars(value).items():
                    snap[(module.__name__, f"{attr}.{name}")] = member
    return snap


def test_layer_trace_installs_and_uninstall_restores(qbench):
    layers = importlib.import_module("layers")
    before = _snapshot()
    trace = layers.LayerTrace()
    try:
        installed = _snapshot()
        changed = {key for key in before if installed.get(key) is not before[key]}
        for layer, methods in layers._METHOD_GROUPS.items():
            for cls_name, name in methods:
                assert ("qfluid.ensemble", f"{cls_name}.{name}") in changed, layer
        # every counted function still exists under the name its hook uses
        modules = {name: getattr(qfluid, name) for name in layers._MODULES}
        public = {name for m in modules.values() for name in getattr(m, "__all__", [])}
        for key in trace._hooks(modules):
            if "." in key:
                cls_name, name = key.split(".")
                assert name in vars(getattr(qfluid.ensemble, cls_name)), key
            else:
                assert key in public, key
    finally:
        trace.tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    stale = [key for key in before if after[key] is not before[key]]
    assert not stale, f"not restored: {stale}"


def test_every_workload_config_is_accepted(qbench):
    workloads = importlib.import_module("workloads")
    for name, steps in workloads.WORKLOADS.items():
        for step in steps:
            _validate_keys(ExperimentConfig.from_dict(step.config(workloads.DEFAULT_SEED)))
