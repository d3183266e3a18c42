"""The benchmark harness still finds every entry point its traced mode wraps.

``perfbench/spans.py`` wraps each layer's public entry points by name, on
the class that defines them (``cls.__dict__``).  Renaming or deleting one,
or letting a subclass merely inherit it (``VectorFtl.format``), breaks
``python3 perfbench/run.py --trace 1`` with nothing else in the suite
noticing.  These checks resolve every target without running a workload.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

from perfbench.spans import ENTRY_POINTS, KERNEL_MODULES, LAYERS, Patches, SpanRecorder, install


def _entry_id(entry):
    layer, module, cls, attrs = entry
    return f"{layer}:{cls or module}"


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=_entry_id)
def test_entry_point_resolves(entry):
    layer, module_name, class_name, attrs = entry
    assert layer in LAYERS
    module = importlib.import_module(module_name)
    if class_name is None:
        for attr in attrs:
            assert inspect.isfunction(getattr(module, attr, None)), f"{module_name}.{attr}"
        return
    cls = getattr(module, class_name)
    for attr in attrs:
        assert attr in cls.__dict__, (
            f"{class_name}.{attr} must be defined on {class_name} itself, "
            "not inherited: the traced benchmark wraps it by name"
        )


@pytest.mark.parametrize("module_name", KERNEL_MODULES)
def test_kernel_module_imports_with_public_functions(module_name):
    module = importlib.import_module(module_name)
    public = [
        name
        for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module_name and not name.startswith("_")
    ]
    assert public, f"{module_name} exposes no kernels to wrap"


def test_install_wraps_and_restore_undoes_every_entry_point():
    def current():
        found = {}
        for _, module_name, class_name, attrs in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            for attr in attrs:
                found[(module_name, class_name, attr)] = (
                    owner.__dict__[attr] if class_name else getattr(owner, attr)
                )
        return found

    before = current()
    patches = Patches()
    try:
        install(SpanRecorder(), patches)
        during = current()
        unwrapped = [key for key in before if during[key] is before[key]]
        assert not unwrapped, f"entry points left unwrapped: {unwrapped}"
    finally:
        patches.restore()
    after = current()
    assert all(after[key] is before[key] for key in before)
