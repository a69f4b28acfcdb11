"""The package's export lists name only what it holds."""

import importlib
import pkgutil

import pytest

import varlive

MODULES = sorted(info.name for info in pkgutil.iter_modules(varlive.__path__))


@pytest.mark.parametrize("name", ["varlive"] + [f"varlive.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    # a name moved out of a module cannot linger in its export list
    module = importlib.import_module(name)
    assert module.__all__, name
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == [], name
    assert len(set(module.__all__)) == len(module.__all__), name


def test_every_module_is_checked():
    assert set(MODULES) >= {"accept_gen", "analysis", "cli", "dynamic",
                            "experiments", "models", "runio", "runs",
                            "sampler", "specialfn"}
