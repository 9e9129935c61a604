"""Every public name a dops module declares resolves, so removing a
definition cannot leave a stale entry in ``__all__`` behind."""

import importlib
import pkgutil

import pytest

import dops

MODULES = sorted(f"dops.{info.name}" for info in pkgutil.iter_modules(dops.__path__))


def test_every_module_is_listed():
    assert {"dops.cli", "dops.families", "dops.identities", "dops.orthogonality",
            "dops.polynomials", "dops.series"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
