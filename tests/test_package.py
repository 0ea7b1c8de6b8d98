"""The package's import surface: every module's star import, the package itself,
which scipy modules an import loads, and the CLI run as a fresh process."""

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
import spheremv.cli

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


def _fresh_python(*args):
    """Run a fresh interpreter on src/ with args; its completed process, exit code 0."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )


def _modules_after(code, prefixes=DEFERRED):
    """The modules named by prefixes loaded after running code in a fresh
    interpreter (this process may hold them already)."""
    loaded = f"[m for m in sys.modules if m.startswith({prefixes!r})]"
    script = "\n".join(["import json, sys", code, f"print(json.dumps({loaded}))"])
    return json.loads(_fresh_python("-c", script).stdout)


def test_import_loads_no_interpolator():
    assert _modules_after("import spheremv, spheremv.cli") == []


def test_solve_loads_no_linalg():
    # the Gauss-Jacobi rule comes from numpy's eigh: loading scipy.linalg would
    # cost every process about 45 ms and 6.5 MB
    argv = ["solve", "--kernel", '{"n": 3, "family": "onsager"}', "--gamma", "13", "--mode", "2"]
    argv += ["--out", os.devnull]
    code = f"import spheremv, spheremv.cli; assert spheremv.cli.main({argv!r}) == 0"
    assert _modules_after(code, ("scipy.linalg",)) == []


def test_import_builds_no_parser():
    # the parser is built at the first `main` call, so an import pays nothing for it
    script = "import spheremv.cli; print(spheremv.cli._build_parser.cache_info().misses)"
    assert _fresh_python("-c", script).stdout == "0\n"


def test_fresh_process_prints_what_main_prints(capsys):
    argv = ["decompose", "--kernel", '{"n": 3, "family": "onsager"}', "--K", "8"]
    assert spheremv.cli.main(argv) == 0
    in_process = capsys.readouterr().out
    assert _fresh_python("-m", "spheremv.cli", *argv).stdout == in_process


def test_reading_a_table_loads_the_interpolator():
    table = '{"n": 3, "family": "custom", "profile": [[-1, 1], [0, 0], [1, 1]]}'
    code = f"import spheremv; spheremv.kernel_spec_from_json({table!r})"
    assert "scipy.interpolate" in _modules_after(code)


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
