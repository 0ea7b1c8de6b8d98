"""The package's import surface: every module's star import, the package itself, and
which scipy modules an import loads."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
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


SRC = Path(spheremv.__file__).resolve().parent.parent
# scipy.interpolate loads scipy.optimize; only a tabulated custom kernel needs them
DEFERRED = ("scipy.interpolate", "scipy.optimize")


def _deferred_modules_after(code):
    """The DEFERRED modules loaded after running code in a fresh interpreter (this
    process may hold them already)."""
    loaded = f"[m for m in sys.modules if m.startswith({DEFERRED})]"
    script = "\n".join(["import json, sys", code, f"print(json.dumps({loaded}))"])
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_import_loads_no_interpolator():
    assert _deferred_modules_after("import spheremv, spheremv.cli") == []


def test_reading_a_table_loads_the_interpolator():
    table = '{"n": 3, "family": "custom", "profile": [[-1, 1], [0, 0], [1, 1]]}'
    code = f"import spheremv; spheremv.kernel_spec_from_json({table!r})"
    assert "scipy.interpolate" in _deferred_modules_after(code)


def test_table_is_scipys_cubic_spline_bit_for_bit():
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(5)
    t = np.concatenate([[-1.0], np.sort(rng.uniform(-1, 1, 30)), [1.0]])
    g = np.cos(3.0 * t) + t**3
    spec = spheremv.kernel_spec_from_json(
        {"n": 3, "family": "custom", "profile": np.column_stack([t, g]).tolist()}
    )
    spline = CubicSpline(t, g)
    grid = np.linspace(-1, 1, 4001)
    np.testing.assert_array_equal(spec.profile(grid), spline(grid))
    np.testing.assert_array_equal(spec.profile_derivative(grid), spline.derivative()(grid))
