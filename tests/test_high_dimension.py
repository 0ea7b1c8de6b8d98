"""Closed-form coefficients on high-dimensional spheres against 40-digit oracles.

The oracles are the textbook forms, evaluated with mpmath: the Bessel form
of the transformer coefficients and the Gamma-function products of the
Onsager and opinion coefficients. In multiprecision neither their
overflowing prefactors nor their cancelling Gamma ratios cost accuracy.
"""

import json

import mpmath as mp
import pytest

from spheremv.cli import main
from spheremv.kernels import KernelSpec, closed_form_coefficients

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
