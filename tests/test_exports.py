"""The public names: every layer's ``__all__`` and the package re-exports."""

import importlib
import inspect

import pytest

import horoflow

LAYERS = ("manifold", "numerics", "busemann", "transport", "locus", "verify")


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_names_resolve(layer):
    module = importlib.import_module(f"horoflow.{layer}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


def test_package_reexports_layer_names():
    layers = [importlib.import_module(f"horoflow.{layer}") for layer in LAYERS]
    for name, value in vars(horoflow).items():
        if name.startswith("_") or inspect.ismodule(value):
            continue
        homes = [module for module in layers if getattr(module, name, None) is value]
        assert homes, name
        # a layer that declares __all__ lists what the package re-exports from it
        assert any(name in getattr(module, "__all__", (name,)) for module in homes), name
