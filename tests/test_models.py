import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats

from prosinfo import (
    Model,
    ModelError,
    family_names,
    fisher_srs_unit,
    make_model,
)
from prosinfo.models import GAMMA_MAX_SHAPE, _GAMMA_TABLE_SHAPES, _expit, _gamma_halley, _ndtr, _ndtri, _xlogx

U_GRID = np.linspace(0.04, 0.96, 20)


def default_models():
    return [make_model(fam) for fam in family_names()]


def test_family_names_sorted_and_complete():
    names = family_names()
    assert list(names) == sorted(names)
    for fam in ("normal", "exponential", "logistic", "extreme_value", "gamma",
                "uniform", "exp_mixture"):
        assert fam in names


def test_evaluate_normal_at_zero():
    model = make_model("normal")
    pdf, cdf = model.pdf(0.0), model.cdf(0.0)
    np.testing.assert_allclose(pdf, 0.398942, atol=1e-6)
    np.testing.assert_allclose(cdf, 0.5, atol=1e-12)


def test_evaluate_exponential_boundary():
    model = make_model("exponential")
    pdf, cdf = model.pdf(0.0), model.cdf(0.0)
    np.testing.assert_allclose(pdf, 1.0)
    np.testing.assert_allclose(cdf, 0.0)


def test_evaluate_outside_support():
    model = make_model("exponential")
    pdf, cdf = model.pdf(-1.0), model.cdf(-1.0)
    assert pdf == 0.0
    assert cdf == 0.0
    assert make_model("uniform").cdf(2.0) == 1.0


def test_exp_mixture_pdf_near_origin():
    model = make_model("exp_mixture", pi=0.3, h=1.0 / 3.0)
    np.testing.assert_allclose(model.pdf(0.0), 0.8, atol=1e-12)
    np.testing.assert_allclose(model.pdf(1e-9), 0.8, atol=1e-8)


@pytest.mark.parametrize("pi", (0.1, 0.5, 0.999))
@pytest.mark.parametrize("h", (0.01, 0.5, 10.0))
def test_exp_mixture_quantile_inverts_cdf_to_ulps(pi, h):
    u = np.concatenate(
        (np.logspace(-300.0, -1.0, 300), np.linspace(0.001, 0.999, 999), 1.0 - np.logspace(-1.0, -16.0, 151))
    )
    x = make_model("exp_mixture", pi=pi, h=h).quantile(u)
    cdf = -(pi * np.expm1(-h * x) + (1.0 - pi) * np.expm1(-x))
    ulps = np.abs(cdf - u) / np.spacing(u)
    assert ulps.max() <= 4.0, (u[np.argmax(ulps)], ulps.max())
    assert np.all(np.diff(x[np.argsort(u)]) >= 0.0)


def test_exp_mixture_quantile_keeps_a_tiny_h():
    # the hazard (1 - q) + h q keeps h where the first component's share q rounds to 1
    pi, h = 0.5, 1e-200
    model = make_model("exp_mixture", pi=pi, h=h)
    u = np.array([1e-6, 0.5, 1.0 - 1e-6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = model.quantile(u)
    np.testing.assert_allclose(model.cdf(x[:2]), u[:2], rtol=1e-13)
    # far in the tail the second component is gone, S(x) = pi e^{-hx}
    np.testing.assert_allclose(x[2], (math.log(pi) - math.log1p(-u[2])) / h, rtol=1e-13)


def test_quantile_exponential_median():
    model = make_model("exponential", sigma=2.0)
    np.testing.assert_allclose(model.quantile(0.5), 2.0 * math.log(2.0), rtol=1e-10)


@pytest.mark.parametrize("fam", family_names())
def test_quantile_inverts_cdf(fam):
    model = make_model(fam)
    for u in U_GRID:
        np.testing.assert_allclose(model.cdf(model.quantile(u)), u, atol=1e-9)


def test_quantile_rejects_boundary():
    for model in default_models():
        for u in (0.0, 1.0, -0.1, 1.1, np.nan, np.array([0.5, np.nan])):
            with pytest.raises(ModelError):
                model.quantile(u)


# each default member's upper tail 1 - F(x), from scipy.stats or its closed form
_UPPER_TAIL = {
    "normal": lambda x: scipy.stats.norm.sf(x),
    "exponential": lambda x: math.exp(-x),
    "logistic": lambda x: scipy.stats.logistic.sf(x),
    "extreme_value": lambda x: math.exp(-math.exp(x)),  # the Gumbel minimum
    "gamma": lambda x: scipy.stats.gamma.sf(x, 2.0),
    "exp_mixture": lambda x: 0.5 * math.exp(-0.5 * x) + 0.5 * math.exp(-x),  # pi = h = 1/2
}


@pytest.mark.parametrize("fam", family_names())
@pytest.mark.parametrize("s", (1e-20, 1e-300, 5e-324))
def test_quantile_reads_the_exact_complement_where_t_rounds_to_one(fam, s):
    # t = 1 - s rounds to 1.0, and no branch of a quantile, taken or not, may warn on it
    model = make_model(fam)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x = model.quantile(1.0, s)
        pair = model.quantile(np.array([0.5, 1.0]), np.array([0.5, s]))
    assert math.isfinite(x) and x >= model.quantile(1.0 - 1e-3) and pair[1] == x
    if fam != "uniform" and s >= np.finfo(float).tiny:  # uniform's quantile there is its support end 1.0
        np.testing.assert_allclose(_UPPER_TAIL[fam](x), s, rtol=1e-12)


@pytest.mark.parametrize("fam", family_names())
def test_nan_gives_nan_on_the_distribution_surface(fam):
    model = make_model(fam)
    x = np.array([model.quantile(0.3), np.nan, model.quantile(0.7)])
    for fn in (model.pdf, model.cdf, model.logpdf):
        got = fn(x)
        assert np.isnan(got[1]) and np.all(np.isfinite(got[[0, 2]])), fn.__name__
        assert math.isnan(fn(np.nan)), fn.__name__


def test_score_cdf_normal_values():
    mu_only = make_model("normal", active=("mu",))
    np.testing.assert_allclose(mu_only.score_cdf(0.0)[0], -0.398942, atol=1e-6)
    sigma_only = make_model("normal", active=("sigma",))
    np.testing.assert_allclose(sigma_only.score_cdf(1.0)[0], -0.241971, atol=1e-6)


@pytest.mark.parametrize("fam", family_names())
def test_score_cdf_matches_finite_difference(fam):
    model = make_model(fam)
    h = 1e-6
    xs = np.array([model.quantile(u) for u in U_GRID])
    got = np.array([model.score_cdf(x) for x in xs])
    for j, name in enumerate(model.active):
        theta = model.value(name)
        hi = model.with_params(**{name: theta + h})
        lo = model.with_params(**{name: theta - h})
        fd = (hi.cdf(xs) - lo.cdf(xs)) / (2.0 * h)
        np.testing.assert_allclose(got[:, j], fd, atol=1e-6, err_msg=f"{fam}:{name}")


@pytest.mark.parametrize("fam", family_names())
def test_score_logpdf_matches_finite_difference(fam):
    model = make_model(fam)
    h = 1e-6
    xs = np.array([model.quantile(u) for u in U_GRID])
    got = np.array([model.score_logpdf(x) for x in xs])
    for j, name in enumerate(model.active):
        theta = model.value(name)
        hi = model.with_params(**{name: theta + h})
        lo = model.with_params(**{name: theta - h})
        fd = (hi.logpdf(xs) - lo.logpdf(xs)) / (2.0 * h)
        np.testing.assert_allclose(got[:, j], fd, atol=1e-5, err_msg=f"{fam}:{name}")


def _model_id(fam, params):
    return "-".join([fam] + [f"{k}={v:g}" for k, v in params.items()])


def _free(fam, **params):
    """The family with every parameter active but gamma's shape, which is fixed by design."""
    names = make_model(fam).param_names
    return make_model(fam, active=tuple(n for n in names if n != "shape"), **params)


# members away from location 0 and scale 1, where the map x = loc + scale z that Model applies is not the identity
NON_STANDARD = [
    ("normal", {"mu": 2.0, "sigma": 3.0}),
    ("logistic", {"mu": -1.0, "sigma": 0.5}),
    ("extreme_value", {"mu": 0.3, "sigma": 1.7}),
    ("exponential", {"sigma": 3.0}),
    ("gamma", {"shape": 2.5, "sigma": 1.3}),
]
SCORE_CASES = [(f, {}) for f in family_names()] + NON_STANDARD + [("uniform", {"loc": -1.0, "scale": 2.5})]


@pytest.mark.parametrize("fam,params", SCORE_CASES, ids=[_model_id(f, p) for f, p in SCORE_CASES])
def test_scores_match_finite_difference_for_every_free_parameter(fam, params):
    model = _free(fam, **params)
    xs = np.asarray(model.quantile(U_GRID))
    for j, name in enumerate(model.active):
        theta = model.value(name)
        h = 1e-6 * (abs(theta) or 1.0)
        hi = model.with_params(**{name: theta + h})
        lo = model.with_params(**{name: theta - h})
        fd_logpdf = (hi.logpdf(xs) - lo.logpdf(xs)) / (2.0 * h)
        fd_cdf = (hi.cdf(xs) - lo.cdf(xs)) / (2.0 * h)
        np.testing.assert_allclose(model.score_logpdf(xs)[:, j], fd_logpdf, atol=1e-5, err_msg=f"{fam}:{name}")
        np.testing.assert_allclose(model.score_cdf(xs)[:, j], fd_cdf, atol=1e-6, err_msg=f"{fam}:{name}")


def _richardson_hessian(model, fn, x):
    """Upper-triangle second parameter derivatives of fn(model, x), by central
    differences of fn itself at steps h, h/2 and h/4, extrapolated twice."""
    names = model.active
    base = [model.value(n) for n in names]
    # relative steps, kept well inside (0, 1) for the mixture weight
    steps = [min(1e-2 * (abs(v) or 1.0), (1.0 - v) / 8.0 if n == "pi" else np.inf) for n, v in zip(names, base)]

    def at(shift):
        moved = {n: v + shift.get(j, 0.0) * steps[j] for j, (n, v) in enumerate(zip(names, base))}
        return np.asarray(fn(model.with_params(**moved), x))

    def central(j, k, s):
        if j == k:
            return (at({j: s}) - 2.0 * at({}) + at({j: -s})) / (s * steps[j]) ** 2
        return (at({j: s, k: s}) - at({j: s, k: -s}) - at({j: -s, k: s}) + at({j: -s, k: -s})) / (
            4.0 * s * s * steps[j] * steps[k]
        )

    def extrapolated(j, k):
        d1, d2, d4 = (central(j, k, s) for s in (1.0, 0.5, 0.25))
        r1, r2 = (4.0 * d2 - d1) / 3.0, (4.0 * d4 - d2) / 3.0
        return (16.0 * r2 - r1) / 15.0

    rows, cols = np.triu_indices(len(names))
    return np.stack([extrapolated(j, k) for j, k in zip(rows, cols)], axis=-1)


HESSIAN_CASES = [(f, {}) for f in family_names() if f != "uniform"] + [
    ("gamma", {"shape": 0.5}),
    ("exp_mixture", {"pi": 0.999, "h": 0.01}),
] + NON_STANDARD


def _second_derivatives(model, x, a=1.0):
    """(d^2 log f, d^2 F) from the -Hessian H(x, a, b) of log f(x) + log w(F(x)), which is linear in
    a = (log w)' and b = (log w)'': d^2 log f is -H(x, 0, 0) and d^2 F is (H(x, 0, 0) - H(x, a, 0)) / a."""
    h00 = model.neg_hessian(x, 0.0, 0.0)
    return -h00, (h00 - model.neg_hessian(x, a, 0.0)) / a


@pytest.mark.parametrize("fam,params", HESSIAN_CASES, ids=[_model_id(f, p) for f, p in HESSIAN_CASES])
def test_second_derivatives_match_difference_oracle(fam, params):
    model = _free(fam, **params)
    x = np.asarray(model.quantile(np.linspace(0.03, 0.97, 15)))
    d2_logf, d2_cdf = _second_derivatives(model, x)
    # the b term is dF dF^T, with dF the score of the cdf
    d_cdf, (rows, cols) = model.score_cdf(x), np.triu_indices(model.p)
    np.testing.assert_allclose(-d2_logf - model.neg_hessian(x, 0.0, 1.0), d_cdf[:, rows] * d_cdf[:, cols],
                               rtol=0, atol=1e-13 * np.max(np.abs(d2_logf)))
    for got, fn in ((d2_logf, Model.logpdf), (d2_cdf, Model.cdf)):
        want = _richardson_hessian(model, fn, x)
        assert got.shape == want.shape == (x.size, model.p * (model.p + 1) // 2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-7 * np.max(np.abs(want)), err_msg=fn.__name__)


def test_gamma_derivatives_hold_where_the_quantile_underflows():
    # at shape 0.5 the quantile is 0.0 below t of about 1e-162 and subnormal just above it; up to t of
    # about 1e-77 it lies below z = 1.5e-154, where the square of z underflows
    model = make_model("gamma", shape=0.5, sigma=2.0)
    assert model.quantile(1e-170) == 0.0 and 0.0 < model.quantile(3e-158) < np.finfo(float).tiny
    # d^2 F is far below the rounding of d^2 log f there, so it is read from the kernel at a large a
    def derivatives(x):
        return (model.score_logpdf(x), model.score_cdf(x), *_second_derivatives(model, x, a=1e150))

    # the limits at x = 0: d log f = -shape / sigma, dF = 0, d^2 log f = shape / sigma^2, d^2 F = 0
    np.testing.assert_array_equal(np.concatenate(derivatives(0.0)), [-0.25, 0.0, 0.125, 0.0])
    # at 0 and at a subnormal x they are those at x = 1e-300, where dF and d^2 F are about 2e-151
    near = derivatives(1e-300)
    for x in (0.0, model.quantile(3e-158)):
        for got, want, atol in zip(derivatives(x), near, (0.0, 1e-150, 0.0, 1e-150)):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=atol)
    # a z of 1e-200 keeps its precision under a change of scale, so differences give an oracle
    x, h = np.array([2e-200]), 1e-6
    for got, fn in ((model.score_logpdf(x), Model.logpdf), (model.score_cdf(x), Model.cdf)):
        fd = (fn(model.with_params(sigma=2.0 + h), x) - fn(model.with_params(sigma=2.0 - h), x)) / (2.0 * h)
        np.testing.assert_allclose(got[:, 0], fd, rtol=1e-6, err_msg=fn.__name__)
    for got, fn in zip(_second_derivatives(model, x, a=1e150), (Model.logpdf, Model.cdf)):
        np.testing.assert_allclose(got, _richardson_hessian(model, fn, x), rtol=1e-7, err_msg=fn.__name__)


@pytest.mark.parametrize("fam", family_names())
def test_pdf_is_cdf_derivative(fam):
    model = make_model(fam)
    h = 1e-6
    for u in U_GRID:
        x = model.quantile(u)
        fd = (model.cdf(x + h) - model.cdf(x - h)) / (2.0 * h)
        np.testing.assert_allclose(model.pdf(x), fd, atol=1e-6)


def test_logistic_pdf_in_both_tails():
    model = make_model("logistic", mu=1.0, sigma=2.0)
    z = np.linspace(-700.0, 700.0, 2801)
    x = 1.0 + 2.0 * z
    want = scipy.stats.logistic.pdf(x, loc=1.0, scale=2.0)
    np.testing.assert_allclose(model.pdf(x), want, rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(model.pdf(1.0 + 2.0 * z), model.pdf(1.0 - 2.0 * z))
    assert make_model("logistic").pdf(40.0) == make_model("logistic").pdf(-40.0) > 0.0


@pytest.mark.parametrize("fam", family_names())
def test_mean_and_var_match_numeric_integrals(fam):
    from prosinfo import integrate_expectation

    model = make_model(fam)
    mean = integrate_expectation(model, lambda x: x)
    second = integrate_expectation(model, lambda x: x * x)
    np.testing.assert_allclose(model.mean(), mean, atol=1e-7)
    np.testing.assert_allclose(model.var(), second - mean * mean, atol=1e-6)
    np.testing.assert_allclose(model.std(), math.sqrt(model.var()), rtol=1e-12)


def test_fisher_unit_closed_forms():
    np.testing.assert_allclose(
        fisher_srs_unit(make_model("normal")).as_array(), np.diag([1.0, 2.0]), atol=1e-9
    )
    np.testing.assert_allclose(
        fisher_srs_unit(make_model("normal", sigma=2.0)).as_array(),
        np.diag([0.25, 0.5]),
        atol=1e-9,
    )
    np.testing.assert_allclose(
        fisher_srs_unit(make_model("exponential")).as_array(), [[1.0]], atol=1e-12
    )
    np.testing.assert_allclose(
        fisher_srs_unit(make_model("logistic", active=("mu",))).as_array(),
        [[1.0 / 3.0]],
        atol=1e-9,
    )
    np.testing.assert_allclose(
        fisher_srs_unit(make_model("gamma")).as_array(), [[2.0]], atol=1e-12
    )


def _location_scale_fisher_oracle(fam, mu, sigma):
    # E[s s^T] on the x-scale from scipy.stats densities and scores written out
    # here: logistic d/dmu log f = tanh(z/2)/sigma, Gumbel-min log f = z - e^z - log sigma
    from scipy import integrate, stats

    def integrand(x):
        z = (x - mu) / sigma
        if fam == "logistic":
            pdf, dmu = stats.logistic.pdf(x, mu, sigma), np.tanh(z / 2.0) / sigma
        else:
            pdf, dmu = stats.gumbel_l.pdf(x, mu, sigma), np.expm1(z) / sigma
        s = np.array([dmu, (z * dmu * sigma - 1.0) / sigma])
        return np.outer(s, s) * pdf

    lo, hi = (-40.0, 40.0) if fam == "logistic" else (-40.0, 6.0)
    return integrate.quad_vec(integrand, mu + lo * sigma, mu + hi * sigma, epsabs=1e-14, epsrel=1e-12)[0]


@pytest.mark.parametrize("fam", ("logistic", "extreme_value"))
@pytest.mark.parametrize("mu,sigma", ((0.0, 1.0), (-1.5, 2.5)))
def test_fisher_unit_location_scale_closed_forms(fam, mu, sigma):
    want = _location_scale_fisher_oracle(fam, mu, sigma)
    got = fisher_srs_unit(make_model(fam, mu=mu, sigma=sigma)).as_array()
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8 * np.max(np.abs(want)))
    scale_only = fisher_srs_unit(make_model(fam, active=("sigma",), mu=mu, sigma=sigma)).as_array()
    np.testing.assert_allclose(scale_only, want[1:, 1:], rtol=1e-8)


def test_fisher_unit_uniform_not_regular():
    with pytest.raises(ModelError):
        fisher_srs_unit(make_model("uniform"))


@pytest.mark.parametrize("fam", ("normal", "logistic"))
def test_fisher_unit_symmetric_families_diagonal(fam):
    fim = fisher_srs_unit(make_model(fam)).as_array()
    assert abs(fim[0, 1]) <= 1e-9


def test_fisher_unit_extreme_value_has_cross_information():
    fim = fisher_srs_unit(make_model("extreme_value")).as_array()
    assert abs(fim[0, 1]) > 0.1


@pytest.mark.parametrize("fam", family_names())
def test_fisher_unit_agrees_with_score_outer_product(fam):
    from prosinfo import integrate_expectation

    model = make_model(fam)
    if fam == "uniform":
        return
    fim = fisher_srs_unit(model).as_array()
    for j in range(model.p):
        for k in range(j, model.p):
            got = integrate_expectation(
                model, lambda x: model.score_logpdf(x)[j] * model.score_logpdf(x)[k]
            )
            np.testing.assert_allclose(fim[j, k], got, atol=2e-6, err_msg=fam)


def test_repeated_active_names_are_rejected():
    with pytest.raises(ModelError, match="distinct"):
        make_model("normal", active=("mu", "mu"))


def test_make_model_validation():
    with pytest.raises(ModelError):
        make_model("weibull")
    with pytest.raises(ModelError):
        make_model("normal", tau=1.0)
    with pytest.raises(ModelError):
        make_model("normal", sigma=0.0)
    with pytest.raises(ModelError):
        make_model("uniform", scale=-1.0)
    with pytest.raises(ModelError):
        make_model("exp_mixture", pi=1.0)
    with pytest.raises(ModelError):
        make_model("exp_mixture", h=0.0)
    with pytest.raises(ModelError):
        make_model("normal", active=())
    with pytest.raises(ModelError):
        make_model("normal", active=("tau",))
    with pytest.raises(ModelError):
        make_model("gamma", active=("shape",))


@pytest.mark.parametrize(
    "family,params",
    (("normal", {"mu": math.nan}), ("normal", {"sigma": math.inf}), ("logistic", {"mu": -math.inf}),
     ("exp_mixture", {"h": math.inf}), ("gamma", {"shape": math.nan})),
)
def test_make_model_rejects_non_finite_params(family, params):
    name = next(iter(params))
    with pytest.raises(ModelError, match=f"parameter '{name}' must be finite"):
        make_model(family, **params)
    with pytest.raises(ModelError, match="must be finite"):
        make_model(family).with_params(**params)
    finite = make_model(family)
    with pytest.raises(ModelError, match="must be finite"):
        Model(family, tuple(math.nan if n == name else v for n, v in zip(finite.param_names, finite.params)), finite.active)


def test_model_introspection():
    model = make_model("normal", mu=0.5)
    assert model.p == 2
    assert model.active == ("mu", "sigma")
    assert model.value("mu") == 0.5
    assert model.label() == "normal(mu=0.5, sigma=1)"
    shifted = model.with_params(mu=-1.0)
    assert shifted.value("mu") == -1.0
    assert model.value("mu") == 0.5  # original untouched


def test_gamma_defaults_and_activity():
    model = make_model("gamma")
    assert model.value("shape") == 2.0
    assert model.active == ("sigma",)
    assert model.p == 1


def test_exp_mixture_moments():
    model = make_model("exp_mixture", pi=0.3, h=1.0 / 3.0)
    np.testing.assert_allclose(model.mean(), 0.3 * 3.0 + 0.7 * 1.0, rtol=1e-9)
    # E[X^2] - E[X]^2 with E[X^2] = 2 pi / h^2 + 2 (1 - pi)
    np.testing.assert_allclose(model.var(), 2.0 * 0.3 * 9.0 + 2.0 * 0.7 - (0.3 * 3.0 + 0.7) ** 2, rtol=1e-12)
    # h^2 overflows or underflows at these rates; the variance does neither where its limit is finite
    np.testing.assert_allclose(make_model("exp_mixture", pi=0.5, h=1e200).std(), math.sqrt(0.75), rtol=1e-15)
    assert make_model("exp_mixture", pi=0.5, h=1e-200).std() == math.inf


def test_standard_member_keeps_shape_and_active_set(monkeypatch):
    from prosinfo import Model

    monkeypatch.setattr(Model, "with_params", None)  # standard() builds its member directly
    for model in (make_model("normal"), make_model("gamma", shape=3.0), make_model("exp_mixture", pi=0.3, h=4.0)):
        assert model.standard()[0] is model and model.standard()[1] == 1.0
    std, scale = make_model("gamma", active=("sigma",), shape=3.0, sigma=1e-20).standard()
    assert (std, scale) == (make_model("gamma", shape=3.0), 1e-20)
    std, scale = make_model("logistic", active=("sigma",), mu=1e6, sigma=2.0).standard()
    assert (std, scale) == (make_model("logistic", active=("sigma",)), 2.0)
    assert make_model("uniform", loc=-3.0, scale=0.5).standard() == (make_model("uniform"), 0.5)


def test_unit_information_outside_the_double_range_is_refused():
    # 2 / sigma^2 overflows at 1e-154 although 1 / sigma^2 does not; at 1e160 it is below the normal doubles
    for sigma in (1e-300, 1e-154, 1e160, 1e300):
        with pytest.raises(ModelError, match="outside the double range"):
            fisher_srs_unit(make_model("normal", sigma=sigma))
    np.testing.assert_allclose(fisher_srs_unit(make_model("normal", sigma=1e-150)).as_array(), np.diag([1e300, 2e300]))


def test_extreme_value_is_min_oriented():
    # smallest-extreme convention: left-skewed, mean below the location mu
    model = make_model("extreme_value")
    gamma_e = 0.5772156649015329
    np.testing.assert_allclose(model.mean(), -gamma_e, atol=1e-9)
    np.testing.assert_allclose(model.var(), math.pi**2 / 6.0, atol=1e-9)
    assert model.cdf(0.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)


def test_evaluate_broadcasts_over_arrays():
    model = make_model("logistic")
    xs = np.linspace(-3.0, 3.0, 7)
    pdf, cdf = model.pdf(xs), model.cdf(xs)
    assert pdf.shape == xs.shape
    np.testing.assert_allclose(cdf, model.cdf(xs))


# -- the gamma quantile: a table start and one certified Halley step ----------

GAMMA_SHAPES = (0.01, 0.5, 1.0, 2.0, 10.0, 100.0, 1e4)
# the complementary oracle below is itself up to 3.2e-15 (14 ulps) off the root
# that a 40-digit mpmath solve gives (shape 1, t = 1e-16), so agreement with it
# is judged to this many ulps beyond gammaincinv's own
ORACLE_ULPS = 16


def _gamma_points() -> np.ndarray:
    """Uniform draws, then Beta(u, S + 1 - u) draws at S = 12, then log-spaced tails in t and 1 - t."""
    rng = np.random.default_rng(19)
    ranks = rng.integers(1, 13, 4096)
    return np.concatenate(
        (rng.random(4096), rng.beta(ranks, 13 - ranks), np.logspace(-300, -1, 300), 1.0 - np.logspace(-16, -1, 151))
    )


def _relative_error(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):  # both are 0.0 where the quantile underflows
        return np.where(got == want, 0.0, np.abs(got / want - 1.0))


@pytest.mark.parametrize("shape", GAMMA_SHAPES)
def test_gamma_quantile_is_as_accurate_as_gammaincinv(shape):
    t = _gamma_points()
    # 1 - t is exact above 1/2, so the upper half inverts the complement
    oracle = np.where(t <= 0.5, sps.gammaincinv(shape, t), sps.gammainccinv(shape, 1.0 - t))
    got = make_model("gamma", shape=shape, sigma=1.0).quantile(t)
    reference = _relative_error(sps.gammaincinv(shape, t), oracle).max()
    err = _relative_error(got, oracle)
    assert err.max() <= reference + ORACLE_ULPS * np.finfo(float).eps, (t[np.argmax(err)], err.max(), reference)


@pytest.mark.parametrize("shape", GAMMA_SHAPES)
def test_gamma_quantile_falls_back_to_gammaincinv_bit_for_bit(shape):
    t = _gamma_points()
    got = make_model("gamma", shape=shape).quantile(t)
    # above 1/2 the fallback inverts the complement 1 - t, which is exact there
    fallback = np.where(t <= 0.5, sps.gammaincinv(shape, t), sps.gammainccinv(shape, 1.0 - t))
    if not _GAMMA_TABLE_SHAPES[0] <= shape <= _GAMMA_TABLE_SHAPES[1]:
        np.testing.assert_array_equal(got, fallback)
        return
    z, certified = _gamma_halley(shape, t, 1.0 - t)
    np.testing.assert_array_equal(got[certified], z[certified])
    np.testing.assert_array_equal(got[~certified], fallback[~certified])
    # every draw is certified; no point below the table's end (t of about 4.2e-18) is
    assert certified[: 2 * 4096].all()
    assert not certified[t < 4.2e-18].any() and certified[t > 4.3e-18].all()


def test_gamma_shape_is_refused_above_its_verified_bound():
    mpmath = pytest.importorskip("mpmath")
    for shape in (10.0 * GAMMA_MAX_SHAPE, 1e8):
        with pytest.raises(ModelError, match="is above 100000, the largest with a verified quantile"):
            make_model("gamma", shape=shape)
        with pytest.raises(ModelError, match="is above 100000"):
            make_model("gamma").with_params(shape=shape)
    # at the bound the quantile lies within 1e-9 of a 40-digit root of P(k, z) = t, at the t it is given
    model = make_model("gamma", shape=GAMMA_MAX_SHAPE)
    with mpmath.workdps(40):
        k = mpmath.mpf(GAMMA_MAX_SHAPE)
        for t in (1e-6, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 1e-6):
            # the series P(k, z) = z^k e^-z / Gamma(k + 1) 1F1(1; k + 1; z), summed to full precision
            def residual(z):
                return mpmath.exp(k * mpmath.log(z) - z - mpmath.loggamma(k + 1)) * mpmath.hyp1f1(
                    1, k + 1, z, maxterms=10**6) - t

            got = model.quantile(t)
            root = mpmath.findroot(residual, mpmath.mpf(got), tol=mpmath.mpf(10) ** -35)
            assert abs(got / root - 1) <= 1e-9, (t, got, root)


def test_gamma_quantile_keeps_the_shape_of_its_argument():
    u = np.random.default_rng(5).random((7, 12))  # Dell-Clutter passes (reps, S) arrays
    for shape in (0.5, 2.0):
        model = make_model("gamma", shape=shape)
        for t in (0.3, 1e-300):  # a certified step, and a point outside the table
            assert type(model.quantile(t)) is float and model.quantile(t) == model.quantile(np.array([t]))[0]
        got = model.quantile(u)
        assert got.shape == u.shape
        np.testing.assert_array_equal(got.ravel(), model.quantile(u.ravel()))


# -- the numpy special functions against scipy.special -------------------------

TINY = np.finfo(float).tiny


def test_ndtri_matches_scipy_in_both_tails():
    lower = np.logspace(-300, math.log10(0.5), 6001)
    upper = 1.0 - np.logspace(-16, math.log10(0.5), 6001)
    for u in (lower, upper):
        np.testing.assert_allclose(_ndtri(u, 1.0 - u), sps.ndtri(u), rtol=1e-14, atol=0.0)
    assert _ndtri(0.5, 0.5) == 0.0
    # the tails read min(u, s): from the exact complement the upper mirrors the lower, also where u rounds to 1
    tail = lower[lower < 0.075]
    np.testing.assert_array_equal(_ndtri(1.0 - tail, tail), -_ndtri(tail, 1.0 - tail))


def test_ndtr_matches_scipy_down_to_its_underflow():
    z = np.linspace(-38.0, 8.3, 40001)
    got, want = _ndtr(z), sps.ndtr(z)
    normal = want >= TINY
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-14, atol=0.0)
    # from z = -37.7 on scipy's erfc flushes e^{-x^2} to 0; the value is subnormal
    assert np.all((got[~normal] >= 0.0) & (got[~normal] < TINY))
    np.testing.assert_array_equal(_ndtr(np.array([-np.inf, -1e300, 1e300, np.inf])), [0.0, 0.0, 1.0, 1.0])


def test_expit_keeps_relative_precision_in_both_tails():
    z = np.linspace(-745.0, 40.0, 40001)
    got, want = _expit(z), sps.expit(z)
    normal = want >= TINY
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-15, atol=0.0)
    # below z = -709.8 scipy's e^{-z} overflows to a result of 0; the value is e^z
    assert np.all((got[~normal] > 0.0) & (got[~normal] < TINY))


def test_xlogx_matches_xlogy():
    w = np.concatenate([[0.0], np.logspace(-320, 0, 2001), np.linspace(0.0, 1.0, 2001)])
    # numpy's vectorised log may differ from the C library's by one ulp
    np.testing.assert_array_max_ulp(_xlogx(w), sps.xlogy(w, w), maxulp=2)
    assert _xlogx(0.0) == 0.0


def test_scipy_special_is_imported_only_by_a_gamma_evaluation(tmp_path):
    # importing scipy.special took half of the package's start-up time, and
    # only the gamma family needs it
    import prosinfo

    src = os.path.dirname(os.path.dirname(prosinfo.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = f"""
import json, sys
import prosinfo as P, prosinfo.cli

def loaded():
    return "scipy.special" in sys.modules

states = [loaded()]
normal, logistic, design = P.make_model("normal"), P.make_model("logistic"), P.make_balanced_design(6, 2)
P.fi_pros_marginal(normal, design)
P.fi_pros_complete(normal, 2, 6, method="mc", reps=2000)
P.shannon(logistic, "pros", 2, 6)
P.renyi(logistic, 0.5, "pros", 2, 6)
P.fisher_srs(P.make_model("exp_mixture"), 3)
P.cli.main(["sample", "--set-size", "6", "--subsets", "2", "--output", {str(tmp_path / "s.csv")!r}])
gamma = P.make_model("gamma")
fi = P.fisher_srs(gamma, 3).as_array()  # a closed form
states.append(loaded())
gamma.quantile(0.5)
states.append(loaded())
print(json.dumps({{"states": states, "fi": fi.tolist()}}))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(out.stdout)
    assert got["states"] == [False, False, True]
    assert got["fi"] == fisher_srs_unit(make_model("gamma")).scaled(3).as_array().tolist()
