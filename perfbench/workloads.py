"""The benchmark's workloads: inputs made from the seed, timed calls, checks.

A workload is built by its constructor (the set-up, timed as `setup_s`).
`next_op()` returns the calls of one operation as (label, run, check)
triples: the harness times `run()` only, then `check(result)` returns an
error message, or "" when the output is correct.  `final_check()` checks the
state the run ended in, and `figures(calls)` gives the workload's headline
figure from the successful (label, seconds) calls.  Calls into
the package go through module attributes (``solver.find_transition``, not a
bound name), so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
from scipy import special

from spheremv import cli, harmonics, kernels, meanfield, particles, solver, specfun

HERE = Path(__file__).resolve().parent

# Criterion 7's solver settings.
FAST = solver.SolverConfig(K=32, M=48, max_iters=5000)

GAMMA_SHARP_ONSAGER = 32.0 / math.pi  # n = 3, mode 2


class Transition:
    """Criterion 7: certified transition scans, Onsager n=3 and opinion n=3 p=5.

    Deterministic: the seed is not used.  The solver, mean-field, harmonics
    and special-function layers do all the work; particles is idle.
    """

    name = "transition"
    ops_per_trace = 1
    # (kernel, gamma_#, certified bracket recorded at the seed commit)
    CASES = (
        (
            {"n": 3, "family": "onsager"},
            GAMMA_SHARP_ONSAGER,
            (9.337795154936027, 9.342524730089185),
        ),
        (
            {"n": 3, "family": "opinion", "p": 5.0},
            0.2625,  # -1 / W_hat_1 in closed form
            (0.25478880553522026, 0.2549177902410441),
        ),
    )

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        self.smoke = smoke
        self.coeffs = [
            kernels.coefficients(kernels.KernelSpec(**spec), FAST.K) for spec, _, _ in self.CASES
        ]

    def next_op(self):
        ops = []
        for (spec, gamma_sharp, ref), coeffs in zip(self.CASES, self.coeffs):
            # The smoke grid has 5 points; the full scan uses the default 200.
            grid = np.geomspace(0.2 * gamma_sharp, gamma_sharp, 5) if self.smoke else None

            def run(coeffs=coeffs, grid=grid):
                return solver.find_transition(coeffs, gamma_grid=grid, config=FAST)

            def check(report, gamma_sharp=gamma_sharp, ref=ref):
                return self._check(report, gamma_sharp, ref)

            ops.append((spec["family"], run, check))
        return ops

    def _check(self, report, gamma_sharp, ref) -> str:
        if report.gamma_c_bracket is None or report.gamma_sharp is None:
            return f"no bracket: {report.witness}"
        if not math.isclose(report.gamma_sharp, gamma_sharp, rel_tol=1e-12):
            return f"gamma_# {report.gamma_sharp!r} != {gamma_sharp!r}"
        lo, hi = report.gamma_c_bracket
        if not hi < gamma_sharp:
            return f"bracket ({lo}, {hi}) does not lie below gamma_# = {gamma_sharp}"
        if self.smoke:  # a coarse grid moves the bracket but must still enclose gamma_c
            if lo > ref[1] or hi < ref[0]:
                return f"bracket ({lo}, {hi}) misses the reference {ref}"
            return ""
        if report.type != "discontinuous":
            return f"type {report.type!r}, expected 'discontinuous'"
        if not all(math.isclose(x, r, rel_tol=1e-5) for x, r in zip((lo, hi), ref)):
            return f"bracket ({lo}, {hi}) differs from the reference {ref} beyond 5 digits"
        return ""

    def final_check(self) -> list[str]:
        return []

    def figures(self, calls) -> dict:
        """scan_s: wall time to both certified brackets (median per kernel, summed)."""
        per_kernel = {}
        for label, seconds in calls:
            per_kernel.setdefault(label, []).append(seconds)
        return {"scan_s": sum(float(np.median(v)) for v in per_kernel.values())}

    def close(self) -> None:
        pass


def sample_zonal_density(density, count: int, rng: np.random.Generator) -> np.ndarray:
    """Points on S^2 drawn from a zonal density about e_3 by inverse-CDF sampling.

    On S^2 the latitude t = x_3 has density proportional to rho(t), so t is
    drawn from the spectral reconstruction of rho and the azimuth uniformly.
    """
    grid = np.linspace(-1.0, 1.0, 4097)
    pdf = np.maximum(harmonics.reconstruct(density.coeffs, grid), 0.0)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))))
    t = np.interp(rng.random(count) * cdf[-1], cdf, grid)
    phi = 2.0 * math.pi * rng.random(count)
    r = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    x = np.column_stack((r * np.cos(phi), r * np.sin(phi), t))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def free_diffusion_cosine(dt: float, gamma: float, steps: int) -> float:
    """E<x, x'> after `steps` projected Euler-Maruyama steps of free diffusion on S^2.

    A step maps x to (x + s xi) / |x + s xi|, with xi tangent at x and
    s^2 = 2 dt / gamma.  The part of xi along any fixed direction averages
    out by symmetry, so E<x0, x'> = <x0, x> E[(1 + s^2 |xi|^2)^(-1/2)], where
    |xi|^2 is chi-squared with 2 degrees of freedom.  That expectation is
    sqrt(pi) a erfcx(a) with a = 1 / (s sqrt 2), the same at every step.
    """
    a = math.sqrt(gamma / (4.0 * dt))
    return float(math.sqrt(math.pi) * a * special.erfcx(a)) ** steps


class _Simulation:
    """Shared loop of the two particle workloads: `simulate` calls chained on one ensemble.

    Each call's displacement, the mean over particles of 1 - <x, x'> between
    the call's start and end, is kept.  `_displacement_error` compares its
    mean over the calls with free diffusion (`free_diffusion_cosine`), within
    DISPLACEMENT_RTOL of the expected value plus DISPLACEMENT_Z standard
    errors.  A step that does nothing, or drops the noise, fails it.  The
    workloads' other checks start out met by the start sample, so without it
    they would pass such a step.
    """

    steps_per_call = 5
    ops_per_trace = 20

    def _start(self, spec, ensemble, config) -> None:
        self.spec, self.ensemble, self.config = spec, ensemble, config
        self.steps = 0
        self.displacements: list[tuple[float, float]] = []  # (mean, standard error) per call

    def next_op(self):
        def run():
            return particles.simulate(
                self.spec, self.config, self.ensemble.size, init=self.ensemble
            )

        def check(result):
            before, self.ensemble = self.ensemble, result.ensemble
            self.steps += self.config.steps
            d = 1.0 - np.einsum("ij,ij->i", before.positions, self.ensemble.positions)
            self.displacements.append((float(d.mean()), float(d.std(ddof=1) / math.sqrt(d.size))))
            if not np.all(np.isfinite(result.moments)):
                return "non-finite recorded moment"
            return ""

        return [("simulate", run, check)]

    def _displacement_error(self) -> list[str]:
        if not self.displacements:
            return ["no simulate call completed"]
        means, errors = np.array(self.displacements).T
        mean, se = float(means.mean()), float(np.sqrt(np.sum(errors**2)) / len(errors))
        expected = 1.0 - free_diffusion_cosine(self.config.dt, self.config.gamma, self.config.steps)
        tol = self.DISPLACEMENT_RTOL * expected + self.DISPLACEMENT_Z * se
        if not abs(mean - expected) <= tol:
            return [
                f"mean displacement 1 - <x, x'> per call {mean:.6g} vs free diffusion "
                f"{expected:.6g} (tol {tol:.2g}) over {len(means)} calls"
            ]
        return []

    def figures(self, calls) -> dict:
        seconds = sum(s for _, s in calls)
        steps = self.ensemble.size * self.config.steps * len(calls)
        return {"particle_steps_per_s": steps / seconds if seconds else 0.0}

    def close(self) -> None:
        pass


class Particles(_Simulation):
    """Criterion 10 at reduced scale: Onsager n=3, gamma = 1.3 gamma_#, N = 1000.

    The ensemble starts from N points drawn from the solver's stationary
    density, so every step is in the stationary regime where criterion 10
    spends its time.  W' on N^2 pairs plus the drift matmuls dominate; the
    solver works during set-up only.

    The Y_2 check needs a few hundred steps to catch a step without drift,
    since the start sample already meets it; the traced unit has 400.  The
    drift slows a 5-step displacement by about 1 % against free diffusion,
    so that check gets 10 % of slack.
    """

    name = "particles"
    ops_per_trace = 80
    DISPLACEMENT_RTOL, DISPLACEMENT_Z = 0.1, 3.0
    count = 1000
    # Solver's Y_2 moment at the seed commit (criterion 10's target).
    TARGET_AT_SEED = 1.9891582339621043

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        spec = kernels.KernelSpec(n=3, family="onsager")
        gamma = 1.3 * GAMMA_SHARP_ONSAGER
        kernel = kernels.coefficients(spec, FAST.K)
        rule = specfun.gauss_jacobi_rule(3, FAST.M)
        base = (1.0 + 0.3 * harmonics.y_l0(2, 3, rule.nodes)) / harmonics.omega_n(3)
        seed_density = meanfield.make_density(3, rule, np.clip(base, 1e-14, None), FAST.K)
        pde = solver.gibbs_fixed_point(kernel, gamma, seed_density, FAST)
        if not pde.converged:
            raise RuntimeError(f"stationary state did not converge: {pde.message}")
        self.target = float(pde.density.perturbation_coefficients()[2])
        positions = sample_zonal_density(pde.density, self.count, np.random.default_rng([seed, 0]))
        ensemble = particles.ParticleEnsemble(
            n=3, positions=positions, rng=np.random.default_rng([seed, 1])
        )
        config = particles.SimConfig(
            dt=2e-3, steps=self.steps_per_call, gamma=gamma, seed=seed,
            record_every=self.steps_per_call,
        )
        self._start(spec, ensemble, config)

    def final_check(self) -> list[str]:
        errors = self._displacement_error()
        if not math.isclose(self.target, self.TARGET_AT_SEED, rel_tol=1e-8):
            errors.append(f"solver target {self.target!r} != {self.TARGET_AT_SEED!r} at the seed")
        axis = particles.order_axis(self.ensemble)
        summary = particles.empirical_moments(self.ensemble, axis, degrees=(2,))
        moment, se = float(summary.means[0]), float(summary.standard_errors[0])
        tol = 0.05 * abs(self.target) + 3.0 * se  # criterion 10's tolerance
        if not abs(moment - self.target) <= tol:
            errors.append(
                f"Y_2 moment {moment:.4f} vs solver {self.target:.4f} after {self.steps} steps "
                f"(tol {tol:.4f})"
            )
        return errors


def _zero(t):
    return np.zeros_like(t)


class Noise(_Simulation):
    """Criterion 11: inert kernel (W' = 0), gamma = 1, dt = 5e-3, N = 100,000.

    Same `particles.step`, but the O(N^2) drift is skipped: noise, tangent
    projection and renormalisation dominate.  A drift optimisation must show
    no change here.  Without drift the expected displacement is exact, so
    its check allows DISPLACEMENT_Z standard errors only; a step without the
    tangent projection is about 9 standard errors off after one call.
    """

    name = "noise"
    count = 100_000
    # z = 4 is a two-sided false-alarm rate of 6e-5, below KS_P_MIN.
    DISPLACEMENT_RTOL, DISPLACEMENT_Z = 0.0, 4.0
    # Under correct code the KS p-value is uniform on (0, 1), so the threshold
    # is the per-run false-alarm rate; 1e-4 keeps it negligible over the
    # hundreds of runs an evaluation makes while still failing a biased step.
    KS_P_MIN = 1e-4

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        count = 2_000 if smoke else self.count
        spec = kernels.KernelSpec(n=3, family="custom", profile=_zero, profile_derivative=_zero)
        g = np.random.default_rng([seed, 0]).standard_normal((count, 3))
        ensemble = particles.ParticleEnsemble(
            n=3, positions=g / np.linalg.norm(g, axis=1, keepdims=True),
            rng=np.random.default_rng([seed, 1]),
        )
        config = particles.SimConfig(
            dt=5e-3, steps=self.steps_per_call, gamma=1.0, seed=seed,
            record_every=self.steps_per_call,
        )
        self._start(spec, ensemble, config)

    def final_check(self) -> list[str]:
        from scipy.stats import kstest  # imported late: it would add a second to setup_s

        errors = self._displacement_error()
        t = self.ensemble.positions[:, 2]
        p = kstest(t, lambda s: 0.5 * (s + 1.0)).pvalue
        if not p > self.KS_P_MIN:
            errors.append(
                f"latitude KS test against the uniform law: p = {p:.2e} after {self.steps} steps"
            )
        return errors


# The four canonical kernels with gamma_# and its mode, in closed form:
# Onsager 32/pi; transformer n=4 beta=1: -1/W_hat_1 = 1/(2 I_2(1));
# opinion p=5: 21/80; heat eps=0.3: 4 pi exp(2 eps).
CLI_KERNELS = (
    ("onsager", {"n": 3, "family": "onsager"}, GAMMA_SHARP_ONSAGER, 2),
    ("transformer", {"n": 4, "family": "transformer", "beta": 1.0}, float(0.5 / special.iv(2, 1.0)), 1),
    ("opinion", {"n": 3, "family": "opinion", "p": 5.0}, 0.2625, 1),
    ("heat", {"n": 3, "family": "heat", "epsilon": 0.3}, 4.0 * math.pi * math.exp(0.6), 1),
)
# `simulate` on the heat kernel fails at the seed commit (exit 2), so it is
# left out: the benchmark's workloads contain no failing operation.
CLI_SKIP = {("heat", "simulate")}
CLI_SIM_PARTICLES, CLI_SIM_STEPS = 200, 50


def cli_calls(seeds) -> list[tuple[str, list[str]]]:
    """One round of CLI calls as (label, argv); `seeds` yields the simulate seeds."""
    calls = []
    for label, spec, gamma_sharp, mode in CLI_KERNELS:
        kernel = json.dumps(spec)
        g = gamma_sharp
        argvs = {
            "decompose": [],
            "bifurcations": [],
            "spectrum": ["--gamma", repr(1.2 * g)],
            "solve": ["--gamma", repr(1.3 * g), "--mode", str(mode)],
            "branch": [
                "--mode", str(mode), "--gamma-min", repr(1.01 * g),
                "--gamma-max", repr(1.5 * g), "--gamma-steps", "10",
            ],
            "simulate": [
                "--gamma", repr(1.3 * g), "--particles", str(CLI_SIM_PARTICLES),
                "--steps", str(CLI_SIM_STEPS), "--dt", "0.002", "--seed",
            ],
        }
        for command, extra in argvs.items():
            if (label, command) in CLI_SKIP:
                continue
            if command == "simulate":
                extra = extra + [str(next(seeds))]
            calls.append((f"{command}.{label}", [command, "--kernel", kernel] + extra))
    return calls


def parse_cli_output(text: str) -> dict:
    """Split the CLI's CSV artifact into its JSON header, columns and float rows."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError("missing '# {...}' header line")
    header = json.loads(lines[0][2:])
    header.pop("out", None)
    rows = [[float(v) for v in line.split(",")] for line in lines[2:] if line]
    return {"header": header, "columns": lines[1].split(","), "rows": rows}


def _harmonic_sup(n: int, l: int) -> float:
    """sup |Y_{l,0}| = sqrt(dimension of the degree-l harmonics on S^{n-1})."""
    dim = (2 * l + n - 2) * math.comb(l + n - 3, l) / (n - 2)
    return math.sqrt(dim)


def compare_cli_output(got: dict, ref: dict, n: int) -> str:
    """"" when a parsed CLI artifact matches its reference recorded at the seed.

    Physical values must agree to rtol 1e-7.  `iterations` and `residual`
    describe how the solver got there, so only residual <= 1e-9 is required.
    `simulate` output depends on the noise seed and is checked for shape
    and range instead.
    """
    header, ref_header = dict(got["header"]), dict(ref["header"])
    simulate = header.get("command") == "simulate"
    if simulate:
        header.pop("seed", None)
        ref_header.pop("seed", None)
    if header != ref_header:
        return f"header {header} != {ref_header}"
    if got["columns"] != ref["columns"]:
        return f"columns {got['columns']} != {ref['columns']}"
    if len(got["rows"]) != len(ref["rows"]):
        return f"{len(got['rows'])} rows, expected {len(ref['rows'])}"
    for row, ref_row in zip(got["rows"], ref["rows"]):
        for col, value, expected in zip(got["columns"], row, ref_row):
            if not math.isfinite(value):
                return f"non-finite {col}"
            if col == "iterations":
                continue
            if col == "residual":
                if value > 1e-9:
                    return f"residual {value:.2e} > 1e-9"
                continue
            if simulate and col.startswith("moment_"):
                l = int(col.split("_")[1])
                low = 0.0 if l == 1 else -_harmonic_sup(n, l)  # axis oriented along the mean
                if not low <= value <= _harmonic_sup(n, l):
                    return f"{col} = {value} outside [{low}, {_harmonic_sup(n, l)}]"
                continue
            if not math.isclose(value, expected, rel_tol=1e-7, abs_tol=1e-12):
                return f"{col} = {value!r}, reference {expected!r}"
    return ""


class Cli:
    """Rounds of in-process `spheremv.cli.main` calls over the four canonical kernels.

    The only workload where argument parsing, spec loading, output
    formatting and the closed-form coefficients are a large share.  Its
    `solve` and `branch` calls run the solver warm-started.
    """

    name = "cli"
    ops_per_trace = 2
    REFERENCE = HERE / "cli_reference.json"

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        self.rng = np.random.default_rng([seed, 2])
        self.reference = json.loads(self.REFERENCE.read_text(encoding="utf-8"))
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=out_dir))
        self.out = self.tmp / "out.csv"
        self.dims = {label: spec["n"] for label, spec, _, _ in CLI_KERNELS}

    def _seeds(self):
        while True:
            yield int(self.rng.integers(0, 2**31))

    def next_op(self):
        ops = []
        for label, argv in cli_calls(self._seeds()):
            def run(argv=argv):
                self.out.unlink(missing_ok=True)
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    code = cli.main(argv + ["--out", str(self.out)])
                return code, stderr.getvalue()

            def check(result, label=label):
                code, stderr = result
                if code != 0:
                    return f"exit {code}: {stderr.strip()}"
                got = parse_cli_output(self.out.read_text(encoding="utf-8"))
                return compare_cli_output(
                    got, self.reference[label], self.dims[label.split(".")[1]]
                )

            ops.append((label, run, check))
        return ops

    def final_check(self) -> list[str]:
        return []

    def figures(self, calls) -> dict:
        return {}  # this workload's headline figures are call_ms.p50 and .p90 themselves

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Transition, Particles, Noise, Cli)}
