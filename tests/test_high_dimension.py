"""Closed-form coefficients and the engines on high-dimensional spheres against 40-digit oracles.

The oracles are the textbook forms, evaluated with mpmath: the Bessel form
of the transformer coefficients, the Gamma-function products of the
Onsager and opinion coefficients, and the surface area 2 pi^{n/2} / Gamma(n/2)
behind omega_n and the heat amplitude. In multiprecision neither their
overflowing prefactors nor their cancelling Gamma ratios cost accuracy.
"""

import json
import warnings

import mpmath as mp
import pytest

from spheremv.cli import main
from spheremv.harmonics import omega_n
from spheremv.kernels import KernelSpec, closed_form_coefficients
from spheremv.meanfield import entropy, uniform_density
from spheremv.specfun import gauss_jacobi_rule

K = 6
REL = 1e-8
HUGE_N = [3, 10, 10**3, 10**6, 10**9, 10**12, 10**15]


def _transformer_oracle(n, beta, k):
    # -2^{(n-2)/2} beta^{-n/2} Gamma(n/2) I_{k+(n-2)/2}(beta)
    n, beta, lam = mp.mpf(n), mp.mpf(beta), mp.mpf(n - 2) / 2
    return -mp.power(2, lam) * mp.power(beta, -n / 2) * mp.gamma(n / 2) * mp.besseli(k + lam, beta)


def _onsager_oracle(n, k):
    # the lam -> lam + 1/2 connection formula of sqrt(1 - t^2) C_k^lam
    if k % 2:
        return mp.mpf(0)
    half = mp.mpf(1) / 2
    lam = mp.mpf(n - 2) / 2
    mu = lam + half
    head = mp.gamma(lam + 1) * mp.gamma(mu + half) / (mp.gamma(lam + half) * mp.gamma(mu + 1))
    if k == 0:
        return head
    m = k // 2
    num = mu * mp.gamma(mu) * mp.gamma(m - half) * mp.gamma(m + lam) * mp.gamma(2 * lam)
    num *= mp.gamma(2 * m + 1)
    den = 2 * mp.sqrt(mp.pi) * mp.gamma(lam) * mp.gamma(m + 1) * mp.gamma(m + lam + 3 * half)
    den *= mp.gamma(2 * m + 2 * lam)
    return -head * num / den


def _opinion_oracle(n, p, k):
    # -2^{n-2+p} Gamma(n/2) Gamma((n-1)/2 + p) Gamma(p+1) / (sqrt(pi) Gamma(p+1-k) Gamma(n+k-1+p))
    n, p = mp.mpf(n), mp.mpf(p)
    num = mp.power(2, n - 2 + p) * mp.gamma(n / 2) * mp.gamma((n - 1) / 2 + p) * mp.gamma(p + 1)
    return -num * mp.rgamma(p + 1 - k) / (mp.sqrt(mp.pi) * mp.gamma(n + k - 1 + p))


def _assert_matches(values, oracle):
    with mp.workdps(40):
        for k, value in enumerate(values):
            exact = oracle(k)
            if exact == 0:
                assert value == 0.0, k
            else:
                assert abs((mp.mpf(float(value)) - exact) / exact) <= REL, (k, value, exact)


@pytest.mark.parametrize("n", [344, 512, 1000, 10**4, 10**6])
@pytest.mark.parametrize("beta", [1.0, 4.0])
def test_transformer(n, beta):
    values = closed_form_coefficients(KernelSpec(n=n, family="transformer", beta=beta), K).coeffs
    _assert_matches(values, lambda k: _transformer_oracle(n, beta, k))


@pytest.mark.parametrize("n", HUGE_N)
def test_onsager(n):
    values = closed_form_coefficients(KernelSpec(n=n, family="onsager"), K).coeffs
    _assert_matches(values, lambda k: _onsager_oracle(n, k))


@pytest.mark.parametrize("n", HUGE_N)
def test_onsager_mass_mode_is_at_most_one(n):
    # 0 <= sqrt(1 - t^2) <= 1, and W_hat_0 is its mean against a probability weight
    w0 = closed_form_coefficients(KernelSpec(n=n, family="onsager"), 0).coeffs[0]
    assert 0.0 < w0 <= 1.0


@pytest.mark.parametrize("n", HUGE_N)
@pytest.mark.parametrize("p", [2.5, 5.0])
def test_opinion(n, p):
    values = closed_form_coefficients(KernelSpec(n=n, family="opinion", p=p), K).coeffs
    _assert_matches(values, lambda k: _opinion_oracle(n, p, k))


@pytest.mark.parametrize("p", [300.0, 400.0])
def test_opinion_at_large_p(p):
    # both Pochhammer symbols of W_hat_0 overflow here, though W_hat_0 itself does not
    values = closed_form_coefficients(KernelSpec(n=3, family="opinion", p=p), K).coeffs
    _assert_matches(values, lambda k: _opinion_oracle(3, p, k))


def test_opinion_at_large_p_and_n():
    # overflowing Pochhammer symbols again, now where log-Gamma differences cancel
    n, p = 10**12, 2000.0
    values = closed_form_coefficients(KernelSpec(n=n, family="opinion", p=p), K).coeffs
    _assert_matches(values, lambda k: _opinion_oracle(n, p, k))


def test_opinion_overflow_is_reported_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="closed-form coefficient overflow"):
            closed_form_coefficients(KernelSpec(n=3, family="opinion", p=1500.0), K)


def _area(n):
    return 2 * mp.power(mp.pi, mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)


@pytest.mark.parametrize("n", [2, 3, 4, 10, 100, 343, 344, 438])
def test_omega_n(n):
    with mp.workdps(40):
        assert abs((mp.mpf(omega_n(n)) - _area(n)) / _area(n)) <= 1e-12


def test_omega_n_underflows_to_zero():
    assert omega_n(10**6) == 0.0


@pytest.mark.parametrize("n", [3, 343, 344, 438])
def test_heat(n):
    eps = 0.3
    values = closed_form_coefficients(KernelSpec(n=n, family="heat", epsilon=eps), K).coeffs
    with mp.workdps(40):
        oracle = lambda k: -mp.exp(-k * (k + n - 2) * mp.mpf(eps)) / _area(n)
        for k, value in enumerate(values):
            assert abs((mp.mpf(float(value)) - oracle(k)) / oracle(k)) <= 1e-12, k


def test_cli_heat_past_the_double_range_is_numerical_failure(capsys):
    # from n = 439 the heat W_hat_0 = -1/omega_n exceeds double precision
    kernel = json.dumps({"n": 439, "family": "heat", "epsilon": 0.3})
    assert main(["decompose", "--kernel", kernel, "--K", "1"]) == 3
    assert "closed-form coefficient overflow" in json.loads(capsys.readouterr().err)["message"]


def test_cli_bifurcations_at_width_512(capsys):
    kernel = json.dumps({"n": 512, "family": "transformer", "beta": 1})
    code = main(["bifurcations", "--kernel", kernel, "--K", "4", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rows = json.loads(captured.out)["rows"]
    assert [row["k"] for row in rows] == [1, 2, 3, 4]
    with mp.workdps(40):
        for row in rows:
            exact = -1 / _transformer_oracle(512, 1.0, row["k"])
            assert abs((mp.mpf(row["gamma_k"]) - exact) / exact) <= REL


# The engines at transformer widths where omega_n underflows or nearly does.
WIDTHS = [343, 512, 4096]


def _transformer(n):
    return json.dumps({"n": n, "family": "transformer", "beta": 1})


def _json_run(capsys, argv):
    code = main(argv + ["--format", "json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    return json.loads(captured.out)


def _gamma_1(n):
    with mp.workdps(40):
        return float(-1 / _transformer_oracle(n, 1.0, 1))


@pytest.mark.parametrize("n", WIDTHS)
def test_cli_solve_below_gamma_1_returns_uniform(capsys, n):
    argv = ["solve", "--kernel", _transformer(n), "--K", "4", "--M", "8",
            "--gamma", repr(0.5 * _gamma_1(n)), "--mode", "1"]
    row = _json_run(capsys, argv)["rows"][0]
    assert abs(row["amplitude"]) <= 1e-10


@pytest.mark.parametrize("n", WIDTHS)
def test_cli_branch_above_gamma_1_beats_uniform(capsys, n):
    g1 = _gamma_1(n)
    argv = ["branch", "--kernel", _transformer(n), "--K", "4", "--M", "8", "--mode", "1",
            "--gamma-min", repr(1.05 * g1), "--gamma-max", repr(1.5 * g1), "--gamma-steps", "4"]
    rows = _json_run(capsys, argv)["rows"]
    with mp.workdps(40):
        uniform = float(_transformer_oracle(n, 1.0, 0) / 2)  # F(uniform) = W_hat_0 / 2
    assert len(rows) == 4
    assert all(row["residual"] <= 1e-11 and row["free_energy"] < uniform for row in rows)


@pytest.mark.parametrize("n", WIDTHS)
def test_cli_transition_gamma_sharp(capsys, n):
    argv = ["transition", "--kernel", _transformer(n), "--K", "8", "--M", "16"]
    report = _json_run(capsys, argv)
    assert abs(report["gamma_sharp"] - _gamma_1(n)) <= REL * _gamma_1(n)


# The engines at widths where c_lambda, the Jacobi weight total and C_k(1) left
# double precision: the quadrature's own orthonormal recurrence needs none of them.
HUGE_WIDTHS = [4096, 10**6, 10**9, 10**12, 10**15]


@pytest.mark.parametrize("n", HUGE_WIDTHS)
def test_uniform_entropy_is_zero(n):
    assert abs(entropy(uniform_density(n, gauss_jacobi_rule(n, 28), 16))) <= 1e-14


def test_cli_solve_at_width_1e9_with_the_default_truncation(capsys):
    argv = ["solve", "--kernel", _transformer(10**9), "--gamma", "1"]
    row = _json_run(capsys, argv)["rows"][0]
    assert abs(row["amplitude"]) <= 1e-10 and row["residual"] <= 1e-11


def test_cli_solve_at_width_1e15(capsys):
    n = 10**15
    argv = ["solve", "--kernel", _transformer(n), "--K", "16", "--M", "28", "--gamma", "1"]
    row = _json_run(capsys, argv)["rows"][0]
    with mp.workdps(40):
        uniform = float(_transformer_oracle(n, 1.0, 0) / 2)  # F(uniform) = W_hat_0 / 2
    assert abs(row["entropy"]) <= 1e-14
    assert abs(row["free_energy"] - uniform) <= 1e-12


def test_cli_solve_past_the_double_range_is_numerical_failure(capsys):
    # Y_48(1) = sqrt(dim_48) exceeds double precision on S^{2**53 - 1}
    code = main(["solve", "--kernel", _transformer(2**53), "--gamma", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "exceeds double precision" in json.loads(captured.err)["message"]
