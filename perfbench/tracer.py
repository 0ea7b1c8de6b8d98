"""In-memory span tracer for the spheremv package, installed from outside it.

The package's modules import each other's functions by name, so a function
has one binding per importing module (``harmonics.decompose``,
``meanfield.decompose``, ``kernels.decompose`` ...).  `Tracer.install`
replaces every binding of every public function of the traced layers with
one wrapper, and `Tracer.uninstall` puts the originals back.  Nothing under
``src/`` is edited.

A span is (span id, parent span id, name, start, end); spans stay in memory
and are written by `write_spans` when the run ends.  A span is named after
the layer that defines the function, whichever binding the call went
through.  Self time is a span's duration minus that of its direct child
spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import itertools
import json
import sys
import time
import uuid
from collections import defaultdict

import numpy as np

PACKAGE = "spheremv"
LAYERS = ("specfun", "harmonics", "kernels", "meanfield", "solver", "particles", "cli")

# Scalar helpers called from Python loops (log_gamma about 1.4 M times per
# Onsager scan): a span per call would cost more than the call, so they are
# counted only and their time stays in the caller's self time.
COUNT_ONLY = frozenset(
    {
        "specfun.log_gamma",
        "specfun.gegenbauer_value_at_one",
        "specfun.gegenbauer_norm_sq",
        "harmonics.omega_n",
        "harmonics.c_lambda",
        "harmonics.zonal_norm_constant",
    }
)


class Tracer:
    """Counts calls and records spans of the traced layers while installed."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # [span id, time covered by child spans]
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self):
        parent = self._stack[-1] if self._stack else None
        frame = [next(self._ids), 0.0]
        self._stack.append(frame)
        return parent, frame, time.perf_counter()

    def _close(self, name, parent, frame, start):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        if parent is not None:
            parent[1] += duration
        self.self_s[name] += duration - frame[1]
        self.counts[name] += 1
        self.spans.append((frame[0], parent[0] if parent else -1, name, start, end))

    def _timed(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, *opened)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Harness-level span (set-up, one operation) that parents the package spans."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, *opened)

    def durations_ms(self, name: str) -> list[float]:
        return [1e3 * (end - start) for _, _, n, start, end in self.spans if n == name]

    # -- hooks on return values ------------------------------------------

    def _after_solve(self, args, kwargs, result):
        self.counts["solver.iterations"] += int(result.iterations)
        self.counts["solver.converged"] += int(bool(result.converged))

    def _after_profile_derivative(self, args, kwargs, result):
        self.counts["kernels.pair_evals"] += int(np.size(result))

    def _wrap_gibbs(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def gibbs(op, gamma, values):
            rows, cols = op.conv_matrix.shape
            counts["solver.gibbs_evals"] += 1
            counts["solver.gibbs_flops_computed"] += 2 * rows * cols
            return fn(op, gamma, values)

        return gibbs

    # -- installation --------------------------------------------------

    def _wrapper_for(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._counted(name, fn)
        hooks = {
            "solver.gibbs_fixed_point": self._after_solve,
            "kernels.profile_derivative": self._after_profile_derivative,
        }
        return self._timed(name, fn, hooks.get(name))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self._wrapper_for(f"{layer}.{attr}", value)
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        gibbs_operator = sys.modules[f"{PACKAGE}.solver"].GibbsOperator
        self._patch(
            gibbs_operator,
            "__init__",
            self._timed("solver.GibbsOperator.build", gibbs_operator.__init__),
        )
        self._patch(gibbs_operator, "gibbs", self._wrap_gibbs(gibbs_operator.gibbs))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------

    def write_spans(self, path, header: dict) -> None:
        """Gzipped JSON lines: one header object, then [id, parent, name, start_s, end_s] rows."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, **header}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
