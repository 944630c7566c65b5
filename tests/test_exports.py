"""Every name a qrw module exports in ``__all__`` exists."""

import importlib

import pytest

MODULES = ["fock", "functions", "linalg", "model", "oracle", "walk"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"qrw.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"qrw.{name}.__all__ names missing attributes: {missing}"
