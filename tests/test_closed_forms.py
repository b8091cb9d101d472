"""Closed-form anchors of the rank-known quantities, at set sizes up to 64.

The reference values use no quadrature and no scipy: harmonic numbers are
summed exactly in fractions and log B(a, b) comes from math.lgamma.

* The entropy of a uniform order statistic is (Wong & Chen, 1990)
  H(U_(u:S)) = log B(u, S-u+1) - (u-1)[psi(u) - psi(S+1)] - (S-u)[psi(S-u+1) - psi(S+1)],
  and at integers psi(a) - psi(b) = H_(a-1) - H_(b-1) in harmonic numbers.
* For a parent f with quantile Q, H(X_(u:S)) = H(U_(u:S)) - E[log f(Q(U_(u:S)))]
  (Ebrahimi, Soofi & Zahedi, 2004).  The exponential has log f(Q(t)) = log(1 - t)
  and the logistic log t + log(1 - t), where E[log U_(u:S)] = psi(u) - psi(S+1) and
  E[log(1 - U_(u:S))] = psi(S-u+1) - psi(S+1).
* The logistic information gain K of one perfect PROS(n, S) cycle is n(S-1)/6 in
  (mu, mu), n(S-1)(pi^2 - 6)/18 in (sigma, sigma) and 0 off the diagonal.
* The exponential information gain K of one perfect PROS(n, S) cycle is
  2(zeta(3) - 1) n(S-1) in (sigma, sigma).
* The Shannon entropy of a PROS sample is its upper bound n H(f) less the KL
  information K(pros, srs).
* The KL information of a PROS sample against a shifted parent is the SRS
  sample's plus K(pros, srs), since the n block weights sum to n at every t.

The last two identities also run on two stress members: a mixture whose
rates differ a hundredfold with almost all its mass on one, and a gamma
whose density diverges at 0.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from prosinfo import (
    family_names,
    k_matrix,
    kl_likelihood_chain,
    kl_pros_srs,
    make_balanced_design,
    make_model,
    shannon,
)

SET_SIZES = (2, 6, 12, 24, 64)
ZETA3 = 1.2020569031595942853997381615114  # Apery's constant, zeta(3)
STRESS = {"exp_mixture(pi=0.999,h=0.01)": ("exp_mixture", {"pi": 0.999, "h": 0.01}),
          "gamma(shape=0.5)": ("gamma", {"shape": 0.5})}


def _model(name: str):
    """The standard member of a family, or a stress member by its STRESS name."""
    family, params = STRESS.get(name, (name, {}))
    return make_model(family, **params)


def _harmonic(k: int) -> Fraction:
    return sum((Fraction(1, j) for j in range(1, k + 1)), Fraction(0))


def _order_statistic_entropy(family: str, u: int, set_size: int) -> float:
    """H(X_(u:S)) of the family's standard member, from the closed forms above."""
    S, h_s = set_size, _harmonic(set_size)
    lower, upper = _harmonic(u - 1) - h_s, _harmonic(S - u) - h_s  # E[log U_(u:S)], E[log(1 - U_(u:S))]
    expected_log_f = {"uniform": Fraction(0), "exponential": upper, "logistic": lower + upper}[family]
    log_beta = math.lgamma(u) + math.lgamma(S - u + 1) - math.lgamma(S + 1)
    return log_beta - float((u - 1) * lower + (S - u) * upper + expected_log_f)


@pytest.mark.parametrize("set_size", SET_SIZES)
@pytest.mark.parametrize("family", ("uniform", "exponential", "logistic"))
def test_rss_shannon_per_subset_matches_the_order_statistic_entropies(family, set_size):
    got = shannon(make_model(family), "rss", set_size).per_subset
    want = [_order_statistic_entropy(family, u, set_size) for u in range(1, set_size + 1)]
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("n, set_size", ((1, 2), (2, 6), (3, 12), (4, 64)))
def test_logistic_k_matrix_matches_its_closed_form(n, set_size):
    got = k_matrix(make_model("logistic"), n, set_size).as_array()
    cells = n * (set_size - 1)
    np.testing.assert_allclose(np.diag(got), [cells / 6.0, cells * (math.pi**2 - 6.0) / 18.0], rtol=1e-12, atol=0.0)
    assert abs(got[0, 1]) <= 1e-12 * got[0, 0] and got[0, 1] == got[1, 0]


@pytest.mark.parametrize("n, set_size", ((1, 2), (2, 6), (3, 12), (4, 64)))
def test_exponential_k_matrix_matches_its_closed_form(n, set_size):
    got = k_matrix(make_model("exponential"), n, set_size).as_array()
    np.testing.assert_allclose(got, [[2.0 * (ZETA3 - 1.0) * n * (set_size - 1)]], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("set_size, n", ((2, 1), (6, 2), (6, 3), (12, 4), (24, 4), (64, 4), (6, 6)))
@pytest.mark.parametrize("family", (*family_names(), *STRESS))
def test_pros_shannon_total_is_the_upper_bound_less_the_kl_information(family, set_size, n):
    model = _model(family)
    report = shannon(model, "pros", n, set_size)
    kl = kl_pros_srs(model, make_balanced_design(set_size, n))
    scale = max(abs(report.total), abs(report.upper_bound), abs(kl))
    assert abs(report.total - (report.upper_bound - kl)) <= 1e-12 * scale


@pytest.mark.parametrize("set_size, n", ((2, 1), (6, 2), (6, 3), (12, 3), (12, 4), (24, 4), (64, 4), (6, 6)))
@pytest.mark.parametrize("family", ("normal", "exponential", "logistic", "extreme_value", "gamma", "exp_mixture",
                                    *STRESS))
def test_pros_likelihood_kl_is_the_srs_kl_plus_the_kl_information(family, set_size, n):
    model, design = _model(family), make_balanced_design(set_size, n)
    k_srs, k_pros, _ = kl_likelihood_chain(model, design)
    kl = kl_pros_srs(model, design)
    assert abs(k_pros - (k_srs + kl)) <= 1e-12 * max(abs(k_srs), abs(k_pros), abs(kl))
