"""Independent oracles shared by the test modules.

Everything here deliberately avoids the package's own quadrature and
transform code paths: inner rules come from scipy, and normalisation
constants are the textbook Gamma-function closed forms.  The exceptions,
`block_solve` and `assert_columns_solve_alone`, run the Picard block path and
check it against the lone (M,) path, which is its reference.
"""

import math

import numpy as np
from scipy.special import roots_chebyt, roots_jacobi, roots_legendre

from spheremv.harmonics import omega_n
from spheremv.kernels import KernelSpec, profile_derivative
from spheremv.solver import _damped_picard, _picard_alone


def c_lambda(lam: float) -> float:
    """1 / int (1-t^2)^{lam-1/2} dt = Gamma(lam+1) / (sqrt(pi) Gamma(lam+1/2)) = |S^{n-2}| / |S^{n-1}|."""
    return math.exp(math.lgamma(lam + 1.0) - 0.5 * math.log(math.pi) - math.lgamma(lam + 0.5))


def gegenbauer_norm_sq(k: int, lam: float) -> float:
    """int [C_k^lam]^2 (1-t^2)^{lam-1/2} dt = pi 2^{1-2 lam} Gamma(k+2 lam) / (k! (k+lam) Gamma(lam)^2)."""
    return math.exp(
        math.log(math.pi) + (1.0 - 2.0 * lam) * math.log(2.0) + math.lgamma(k + 2.0 * lam)
        - math.lgamma(k + 1.0) - math.log(k + lam) - 2.0 * math.lgamma(lam)
    )


def gegenbauer_at_one(k: int, lam: float) -> float:
    """C_k^lam(1) = Gamma(k + 2 lam) / (Gamma(2 lam) k!)."""
    return math.exp(math.lgamma(k + 2.0 * lam) - math.lgamma(2.0 * lam) - math.lgamma(k + 1.0))


def zonal_norm(l: int, n: int) -> float:
    """A_l > 0 such that Y_{l,0} = A_l C_l^{(n-2)/2} has unit norm against sigma / omega_n."""
    lam = 0.5 * (n - 2)
    return 1.0 / math.sqrt(c_lambda(lam) * gegenbauer_norm_sq(l, lam))


def outer_rule(n: int, order: int):
    """Scipy Gauss-Jacobi nodes/weights for the weight (1-t^2)^{(n-3)/2}."""
    alpha = 0.5 * (n - 3)
    return roots_jacobi(order, alpha, alpha)


def azimuthal_rule(n: int, order: int):
    """Nodes/weights/prefactor for integrating f(<v,u>) over u in S^{n-2}.

    int_{S^{n-2}} f(<v,u>) dsigma(u) = pref * sum w_c f(c).
    """
    if n == 3:
        nodes, weights = roots_chebyt(order)  # weight (1-c^2)^{-1/2}
        return nodes, weights, 2.0
    alpha = 0.5 * (n - 4)
    nodes, weights = roots_jacobi(order, alpha, alpha)
    return nodes, weights, omega_n(n - 2)


def brute_force_convolution(profile_fn, density_fn, n: int, t_eval: np.ndarray, order: int = 80):
    """(W * rho)(t) by fully nested quadrature; no spectral machinery involved.

    profile_fn(s) is W at inner product s; density_fn(s) is the zonal
    density (w.r.t. sigma) at latitude s about the symmetry axis.
    """
    s_nodes, s_weights = outer_rule(n, order)
    c_nodes, c_weights, pref = azimuthal_rule(n, order)
    out = np.empty_like(t_eval)
    for i, t in enumerate(t_eval):
        cross = np.sqrt(np.clip((1.0 - s_nodes**2) * (1.0 - t * t), 0.0, None))
        # inner products between x (latitude t) and y (latitude s, azimuth c)
        ips = s_nodes[:, None] * t + cross[:, None] * c_nodes[None, :]
        inner = pref * (profile_fn(np.clip(ips, -1.0, 1.0)) @ c_weights)
        out[i] = float(np.dot(s_weights, density_fn(s_nodes) * inner))
    return out


def brute_force_interaction(profile_fn, density_fn, n: int, order: int = 80) -> float:
    """0.5 * iint W(<x,y>) rho(x) rho(y) dsigma dsigma via nested quadrature.

    The convolution helper already carries y's azimuthal measure, so only
    one omega_{n-1} factor (for x's azimuth) appears here.
    """
    t_nodes, t_weights = outer_rule(n, order)
    conv = brute_force_convolution(profile_fn, density_fn, n, t_nodes, order)
    return 0.5 * omega_n(n - 1) * float(np.dot(t_weights, density_fn(t_nodes) * conv))


def random_smooth_density(n: int, rng: np.random.Generator):
    """Positive normalized zonal density rho(t) = exp(poly(t)) / Z w.r.t. sigma."""
    coeffs = rng.normal(scale=0.4, size=4)

    def unnormalized(t):
        t = np.asarray(t, dtype=float)
        return np.exp(coeffs[0] * t + coeffs[1] * t**2 + coeffs[2] * t**3 + coeffs[3])

    t_nodes, t_weights = outer_rule(n, 120)
    mass = omega_n(n - 1) * float(np.dot(t_weights, unnormalized(t_nodes)))

    def density(t):
        return unnormalized(t) / mass

    return density


# Every family the drift supports, with the dimension it is tested in.
DRIFT_SPECS = [
    KernelSpec(n=4, family="transformer", beta=1.0),
    KernelSpec(n=3, family="onsager"),
    KernelSpec(n=3, family="opinion", p=5.0),
    KernelSpec(n=3, family="heat", epsilon=0.3),
    KernelSpec(
        n=5,
        family="custom",
        profile=lambda t: np.sin(2.0 * t),
        profile_derivative=lambda t: 2.0 * np.cos(2.0 * t),
    ),
]


def dense_drift(spec, x):
    """-(1/N) sum_{j != i} W'(t_ij)(x_j - t_ij x_i), summed term by term over the full N x N matrix."""
    t = x @ x.T
    dw = profile_derivative(spec, t)
    np.fill_diagonal(dw, 0.0)
    terms = dw[:, :, None] * (x[None, :, :] - t[:, :, None] * x[:, None, :])
    return -terms.sum(axis=1) / x.shape[0]


def reference_step(positions, rng, spec, dt, gamma):
    """One projected Euler-Maruyama step written out plainly, as new positions.

    A copy plus the dense drift, np.sum for the tangent projection of the
    noise and np.linalg.norm for the renormalisation; `rng` draws the same
    normals as the step under test.
    """
    new = positions.copy() + dt * dense_drift(spec, positions)
    if math.isfinite(gamma):
        xi = rng.standard_normal(positions.shape)
        xi -= np.sum(xi * positions, axis=1, keepdims=True) * positions
        new = new + math.sqrt(2.0 * dt / gamma) * xi
    return new / np.linalg.norm(new, axis=1, keepdims=True)


def reference_order_axis(positions):
    """Top eigenvector of the second-moment matrix, oriented by <axis, mean> >= 0."""
    _, vecs = np.linalg.eigh(positions.T @ positions / positions.shape[0])
    axis = vecs[:, -1]
    return -axis if np.dot(axis, positions.mean(axis=0)) < 0.0 else axis


def block_solve(op, gamma, block, config):
    """(values, res, steps) of a `_damped_picard` block run to its end: its last yield."""
    *_, (values, res, stopped, steps) = _damped_picard(op, gamma, block, config)
    assert stopped.all()
    return values, res, steps


def assert_columns_solve_alone(op, kernel, gamma, block, config, result):
    """Assert that each column of a block solve is its lone (M,) solve; return the lone solves.

    `result` is (values, res, steps) of the columns of `block` that have left a
    `_damped_picard` block, gamma a float or one value per column.  Each column
    of `block` is solved alone at its gamma with config.max_iters.  Where the
    damped map expands at uniform, q = max_k |1 - tau (1 + gamma W_hat_k)| >= 1,
    a column that runs to that limit unsettled grows the round-off of mat-mat
    against mat-vec at every step (to 1.1e-12 in 15 steps), so it is checked by
    its step count only, which the caller compares with the block's.
    """
    values, res, steps = result
    gammas = np.broadcast_to(np.asarray(gamma, dtype=float), block.shape[1:])
    assert values.shape == block.shape and res.shape == gammas.shape
    alone = []
    for g, start, column, column_res in zip(gammas, block.T, values.T, res):
        lone, lone_res, lone_steps = _picard_alone(op, g, start, config)
        alone.append((lone, lone_res, lone_steps))
        q = np.max(np.abs(1.0 - config.tau * (1.0 + g * kernel.coeffs[1:])), initial=0.0)
        if q >= 1.0 and lone_steps == config.max_iters and not lone_res <= config.tol:
            continue
        np.testing.assert_allclose(column, lone, rtol=1e-12, atol=0.0)
        # a residual is a difference of O(1) values, so its round-off is absolute
        np.testing.assert_allclose(column_res, lone_res, rtol=1e-9, atol=1e-13)
    return alone
