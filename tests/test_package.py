"""The package's import surface: every module's star import and the package itself."""

import importlib
import pkgutil

import pytest

import spheremv

MODULES = sorted(info.name for info in pkgutil.iter_modules(spheremv.__path__))


def test_every_module_is_listed():
    assert MODULES == ["cli", "harmonics", "kernels", "meanfield", "particles", "solver", "specfun"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    # a stale __all__ entry makes the star import raise
    namespace = {}
    exec(f"from spheremv.{name} import *", namespace)
    module = importlib.import_module(f"spheremv.{name}")
    assert set(getattr(module, "__all__", ())) <= namespace.keys()


def test_package_imports():
    package = importlib.reload(spheremv)
    assert package.__version__
