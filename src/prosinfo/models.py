"""Parametric distribution families with cdf parameter-derivatives and per-observation Fisher information.

Each family exposes pdf/cdf/quantile plus the two derivative vectors the
information calculations need: d F(x;theta)/d theta (the score of the cdf) and
d log f(x;theta)/d theta.  All formulas are analytic; only the Fisher matrix of
the non-textbook families (logistic, extreme value, exponential mixture) is
obtained by quadrature of the score outer product.

Conventions: the extreme-value family is the Gumbel minimum, F(z) = 1 - exp(-e^z);
the exponential mixture fixes the baseline rate at 1 and is parameterized by
(pi, h), density pi*h*exp(-h*x) + (1-pi)*exp(-x).
"""

from __future__ import annotations

import dataclasses
import math
import typing as tp

import numpy as np
import scipy.special as sps

from . import numerics

_EULER_GAMMA = 0.5772156649015328606

FloatArray = tp.Union[float, np.ndarray]


class ModelError(ValueError):
    """Invalid family, parameter value, or unsupported request."""


@dataclasses.dataclass(frozen=True)
class Model:
    """A parametric continuous distribution with a declared set of unknown parameters.

    :param family: one of normal, exponential, logistic, extreme_value, gamma,
        uniform, exp_mixture.
    :param params: parameter values in the family's declared order.
    :param active: names of the parameters treated as unknown; derivative
        vectors and Fisher matrices are indexed in this order.
    """

    family: str
    params: tuple[float, ...]
    active: tuple[str, ...]

    def __post_init__(self) -> None:
        fam = _family(self.family)
        if len(self.params) != len(fam.param_names):
            raise ModelError(
                f"{self.family} takes parameters {fam.param_names}, got {len(self.params)} values"
            )
        if not self.active:
            raise ModelError("active parameter set must be nonempty")
        for name in self.active:
            if name not in fam.param_names:
                raise ModelError(f"unknown parameter {name!r} for family {self.family!r}")
            if name in fam.never_active:
                raise ModelError(f"parameter {name!r} of family {self.family!r} is fixed by design")
        fam.validate(dict(zip(fam.param_names, self.params)))

    # -- parameter access -------------------------------------------------

    @property
    def param_names(self) -> tuple[str, ...]:
        return _family(self.family).param_names

    def value(self, name: str) -> float:
        try:
            return self.params[self.param_names.index(name)]
        except ValueError:
            raise ModelError(f"family {self.family!r} has no parameter {name!r}") from None

    def with_params(self, **updates: float) -> "Model":
        values = dict(zip(self.param_names, self.params))
        for name, v in updates.items():
            if name not in values:
                raise ModelError(f"family {self.family!r} has no parameter {name!r}")
            values[name] = float(v)
        return Model(self.family, tuple(values[n] for n in self.param_names), self.active)

    def label(self) -> str:
        inner = ", ".join(f"{n}={v:g}" for n, v in zip(self.param_names, self.params))
        return f"{self.family}({inner})"

    @property
    def p(self) -> int:
        return len(self.active)

    # -- distribution surface ---------------------------------------------

    def _ctx(self) -> dict[str, float]:
        return dict(zip(self.param_names, self.params))

    def support(self) -> tuple[float, float]:
        return _family(self.family).support(self._ctx())

    def pdf(self, x: FloatArray) -> FloatArray:
        lo, hi = self.support()
        xa = np.asarray(x, dtype=float)
        inside = (xa >= lo) & (xa <= hi)
        out = np.zeros_like(xa)
        if np.any(inside):
            # closed interval so support endpoints get their boundary density;
            # families whose formula diverges there are clamped to 0, not NaN
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.asarray(_family(self.family).pdf(self._ctx(), xa[inside]))
            out[inside] = np.where(np.isfinite(vals), vals, 0.0)
        return out if np.ndim(x) else float(out)

    def cdf(self, x: FloatArray) -> FloatArray:
        lo, hi = self.support()
        xa = np.asarray(x, dtype=float)
        out = np.empty_like(xa)
        inside = (xa > lo) & (xa < hi)
        out[xa <= lo] = 0.0
        out[xa >= hi] = 1.0
        if np.any(inside):
            out[inside] = np.clip(_family(self.family).cdf(self._ctx(), xa[inside]), 0.0, 1.0)
        return out if np.ndim(x) else float(out)

    def logpdf(self, x: FloatArray) -> FloatArray:
        xa = np.asarray(x, dtype=float)
        out = np.log(np.maximum(self.pdf(xa), np.finfo(float).tiny))
        return out if np.ndim(x) else float(out)

    def quantile(self, u: FloatArray) -> FloatArray:
        ua = np.asarray(u, dtype=float)
        if np.any(ua <= 0.0) or np.any(ua >= 1.0):
            raise ModelError("quantile argument must lie strictly inside (0, 1)")
        out = _family(self.family).quantile(self._ctx(), ua)
        return np.asarray(out) if np.ndim(u) else float(out)

    def score_cdf(self, x: FloatArray) -> np.ndarray:
        """d F(x;theta) / d theta_j for the active parameters, stacked on the last axis."""
        xa = np.asarray(x, dtype=float)
        fam = _family(self.family)
        cols = [fam.cdf_deriv(self._ctx(), name, xa) for name in self.active]
        return np.stack(np.broadcast_arrays(*cols), axis=-1) if len(cols) > 1 else np.asarray(cols[0])[..., None]

    def score_logpdf(self, x: FloatArray) -> np.ndarray:
        """d log f(x;theta) / d theta_j for the active parameters, stacked on the last axis."""
        xa = np.asarray(x, dtype=float)
        fam = _family(self.family)
        cols = [fam.logpdf_deriv(self._ctx(), name, xa) for name in self.active]
        return np.stack(np.broadcast_arrays(*cols), axis=-1) if len(cols) > 1 else np.asarray(cols[0])[..., None]

    def mean(self) -> float:
        return _family(self.family).mean(self._ctx())

    def var(self) -> float:
        return _family(self.family).var(self._ctx())

    def std(self) -> float:
        return math.sqrt(self.var())

    def fisher_srs_unit(self, spec: numerics.QuadratureSpec | None = None) -> numerics.InfoMatrix:
        return fisher_srs_unit(self, spec)


def make_model(family: str, active: tp.Sequence[str] | None = None, **params: float) -> Model:
    """Build a Model from keyword parameter values, filling family defaults."""
    fam = _family(family)
    values = dict(fam.defaults)
    for name, v in params.items():
        if name not in values:
            raise ModelError(f"unknown parameter {name!r} for family {family!r}")
        values[name] = float(v)
    chosen = tuple(active) if active is not None else fam.default_active
    return Model(family, tuple(values[n] for n in fam.param_names), chosen)


def evaluate(model: Model, x: FloatArray) -> tuple[FloatArray, FloatArray]:
    """(pdf, cdf) at x; zero density and clamped cdf outside the support."""
    return model.pdf(x), model.cdf(x)


def quantile(model: Model, u: FloatArray) -> FloatArray:
    return model.quantile(u)


def score_cdf(model: Model, x: FloatArray) -> np.ndarray:
    return model.score_cdf(x)


def require_fi_regular(model: Model) -> None:
    """Raise ModelError for a family without regular Fisher information; every route checks this first."""
    if model.family == "uniform":
        raise ModelError(
            f"fisher information entry ({model.active[0]}, {model.active[0]}) does not exist: "
            "the uniform family is not FI-regular (support depends on the parameters)"
        )


def fisher_srs_unit(model: Model, spec: numerics.QuadratureSpec | None = None) -> numerics.InfoMatrix:
    """Per-observation Fisher information over the active parameters.

    Closed forms where they are textbook material (normal, exponential, gamma);
    quadrature of E[(d log f)(d log f)^T] otherwise.

    :raises ModelError: the family has no regular Fisher information (uniform).
    :raises numerics.NumericsError: the quadrature failed to converge.
    """
    require_fi_regular(model)
    fam = _family(model.family)
    closed = fam.fisher_unit(dict(zip(model.param_names, model.params)))
    if closed is not None:
        idx = [model.param_names.index(n) for n in model.active]
        return numerics.InfoMatrix(np.asarray(closed)[np.ix_(idx, idx)])

    def scores(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return model.score_logpdf(model.quantile(u))[None], np.ones((1, u.size))

    return numerics.InfoMatrix(numerics.integrate_gram(scores, model.p, spec))


# -- family definitions ----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Family:
    param_names: tuple[str, ...]
    defaults: dict[str, float]
    default_active: tuple[str, ...]
    never_active: tuple[str, ...]
    validate: tp.Callable[[dict[str, float]], None]
    support: tp.Callable[[dict[str, float]], tuple[float, float]]
    pdf: tp.Callable[[dict[str, float], np.ndarray], np.ndarray]
    cdf: tp.Callable[[dict[str, float], np.ndarray], np.ndarray]
    quantile: tp.Callable[[dict[str, float], np.ndarray], np.ndarray]
    cdf_deriv: tp.Callable[[dict[str, float], str, np.ndarray], np.ndarray]
    logpdf_deriv: tp.Callable[[dict[str, float], str, np.ndarray], np.ndarray]
    mean: tp.Callable[[dict[str, float]], float]
    var: tp.Callable[[dict[str, float]], float]
    fisher_unit: tp.Callable[[dict[str, float]], np.ndarray | None]


def _require_positive(ctx: dict[str, float], *names: str) -> None:
    for n in names:
        if not ctx[n] > 0.0:
            raise ModelError(f"parameter {n!r} must be strictly positive, got {ctx[n]!r}")


def _normal_pdf(c, x):
    z = (x - c["mu"]) / c["sigma"]
    return np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * c["sigma"])


def _normal_cdf_deriv(c, name, x):
    z = (x - c["mu"]) / c["sigma"]
    f = _normal_pdf(c, x)
    return -f if name == "mu" else -z * f


def _normal_logpdf_deriv(c, name, x):
    z = (x - c["mu"]) / c["sigma"]
    return z / c["sigma"] if name == "mu" else (z * z - 1.0) / c["sigma"]


def _logistic_cdf(c, x):
    return sps.expit((x - c["mu"]) / c["sigma"])


def _logistic_pdf(c, x):
    G = _logistic_cdf(c, x)
    return G * (1.0 - G) / c["sigma"]


def _logistic_cdf_deriv(c, name, x):
    z = (x - c["mu"]) / c["sigma"]
    f = _logistic_pdf(c, x)
    return -f if name == "mu" else -z * f


def _logistic_logpdf_deriv(c, name, x):
    z = (x - c["mu"]) / c["sigma"]
    G = _logistic_cdf(c, x)
    if name == "mu":
        return (2.0 * G - 1.0) / c["sigma"]
    return (z * (2.0 * G - 1.0) - 1.0) / c["sigma"]


def _gumbel_min_cdf(c, x):
    z = (x - c["mu"]) / c["sigma"]
    return -np.expm1(-np.exp(z))


def _gumbel_min_pdf(c, x):
    z = (x - c["mu"]) / c["sigma"]
    return np.exp(z - np.exp(z)) / c["sigma"]


def _gumbel_min_cdf_deriv(c, name, x):
    z = (x - c["mu"]) / c["sigma"]
    f = _gumbel_min_pdf(c, x)
    return -f if name == "mu" else -z * f


def _gumbel_min_logpdf_deriv(c, name, x):
    z = (x - c["mu"]) / c["sigma"]
    ez = np.exp(z)
    if name == "mu":
        return (ez - 1.0) / c["sigma"]
    return (z * (ez - 1.0) - 1.0) / c["sigma"]


def _exponential_pdf(c, x):
    return np.exp(-x / c["sigma"]) / c["sigma"]


def _gamma_pdf(c, x):
    k, s = c["shape"], c["sigma"]
    z = x / s
    return np.exp((k - 1.0) * np.log(z) - z - math.lgamma(k)) / s


def _mixture_pdf(c, x):
    pi, h = c["pi"], c["h"]
    return pi * h * np.exp(-h * x) + (1.0 - pi) * np.exp(-x)


def _mixture_cdf(c, x):
    pi, h = c["pi"], c["h"]
    return -(pi * np.expm1(-h * x) + (1.0 - pi) * np.expm1(-x))


def _mixture_quantile(c, u):
    pi, h = c["pi"], c["h"]
    ua = np.atleast_1d(np.asarray(u, dtype=float))
    lo = np.zeros_like(ua)
    # 1-F(x) <= exp(-min(h,1)x), so this bracket always satisfies F(hi) >= u.
    hi = -np.log1p(-ua) / min(h, 1.0) + 1e-9
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        below = _mixture_cdf(c, mid) < ua
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = 0.5 * (lo + hi)
    return out if np.ndim(u) else float(out[0])


def _mixture_cdf_deriv(c, name, x):
    pi, h = c["pi"], c["h"]
    if name == "pi":
        return np.exp(-x) - np.exp(-h * x)
    return pi * x * np.exp(-h * x)


def _mixture_logpdf_deriv(c, name, x):
    pi, h = c["pi"], c["h"]
    f = _mixture_pdf(c, x)
    if name == "pi":
        return (h * np.exp(-h * x) - np.exp(-x)) / f
    return pi * np.exp(-h * x) * (1.0 - h * x) / f


def _uniform_pdf(c, x):
    return np.full_like(np.asarray(x, dtype=float), 1.0 / c["scale"])


def _uniform_cdf_deriv(c, name, x):
    f = 1.0 / c["scale"]
    if name == "loc":
        return np.full_like(np.asarray(x, dtype=float), -f)
    return -((np.asarray(x, dtype=float) - c["loc"]) / c["scale"]) * f


_FAMILIES: dict[str, _Family] = {
    "normal": _Family(
        param_names=("mu", "sigma"),
        defaults={"mu": 0.0, "sigma": 1.0},
        default_active=("mu", "sigma"),
        never_active=(),
        validate=lambda c: _require_positive(c, "sigma"),
        support=lambda c: (-math.inf, math.inf),
        pdf=_normal_pdf,
        cdf=lambda c, x: sps.ndtr((x - c["mu"]) / c["sigma"]),
        quantile=lambda c, u: c["mu"] + c["sigma"] * sps.ndtri(u),
        cdf_deriv=_normal_cdf_deriv,
        logpdf_deriv=_normal_logpdf_deriv,
        mean=lambda c: c["mu"],
        var=lambda c: c["sigma"] ** 2,
        fisher_unit=lambda c: np.diag([1.0, 2.0]) / c["sigma"] ** 2,
    ),
    "exponential": _Family(
        param_names=("sigma",),
        defaults={"sigma": 1.0},
        default_active=("sigma",),
        never_active=(),
        validate=lambda c: _require_positive(c, "sigma"),
        support=lambda c: (0.0, math.inf),
        pdf=_exponential_pdf,
        cdf=lambda c, x: -np.expm1(-x / c["sigma"]),
        quantile=lambda c, u: -c["sigma"] * np.log1p(-u),
        cdf_deriv=lambda c, name, x: -(x / c["sigma"]) * _exponential_pdf(c, x),
        logpdf_deriv=lambda c, name, x: (x / c["sigma"] - 1.0) / c["sigma"],
        mean=lambda c: c["sigma"],
        var=lambda c: c["sigma"] ** 2,
        fisher_unit=lambda c: np.array([[1.0 / c["sigma"] ** 2]]),
    ),
    "logistic": _Family(
        param_names=("mu", "sigma"),
        defaults={"mu": 0.0, "sigma": 1.0},
        default_active=("mu", "sigma"),
        never_active=(),
        validate=lambda c: _require_positive(c, "sigma"),
        support=lambda c: (-math.inf, math.inf),
        pdf=_logistic_pdf,
        cdf=_logistic_cdf,
        quantile=lambda c, u: c["mu"] + c["sigma"] * (np.log(u) - np.log1p(-u)),
        cdf_deriv=_logistic_cdf_deriv,
        logpdf_deriv=_logistic_logpdf_deriv,
        mean=lambda c: c["mu"],
        var=lambda c: (math.pi * c["sigma"]) ** 2 / 3.0,
        fisher_unit=lambda c: None,
    ),
    "extreme_value": _Family(
        param_names=("mu", "sigma"),
        defaults={"mu": 0.0, "sigma": 1.0},
        default_active=("mu", "sigma"),
        never_active=(),
        validate=lambda c: _require_positive(c, "sigma"),
        support=lambda c: (-math.inf, math.inf),
        pdf=_gumbel_min_pdf,
        cdf=_gumbel_min_cdf,
        quantile=lambda c, u: c["mu"] + c["sigma"] * np.log(-np.log1p(-u)),
        cdf_deriv=_gumbel_min_cdf_deriv,
        logpdf_deriv=_gumbel_min_logpdf_deriv,
        mean=lambda c: c["mu"] - _EULER_GAMMA * c["sigma"],
        var=lambda c: (math.pi * c["sigma"]) ** 2 / 6.0,
        fisher_unit=lambda c: None,
    ),
    "gamma": _Family(
        param_names=("shape", "sigma"),
        defaults={"shape": 2.0, "sigma": 1.0},
        default_active=("sigma",),
        never_active=("shape",),
        validate=lambda c: _require_positive(c, "shape", "sigma"),
        support=lambda c: (0.0, math.inf),
        pdf=_gamma_pdf,
        cdf=lambda c, x: sps.gammainc(c["shape"], x / c["sigma"]),
        quantile=lambda c, u: c["sigma"] * sps.gammaincinv(c["shape"], u),
        cdf_deriv=lambda c, name, x: -(x / c["sigma"]) * _gamma_pdf(c, x),
        logpdf_deriv=lambda c, name, x: (x / c["sigma"] - c["shape"]) / c["sigma"],
        mean=lambda c: c["shape"] * c["sigma"],
        var=lambda c: c["shape"] * c["sigma"] ** 2,
        fisher_unit=lambda c: np.array(
            [
                [float(sps.polygamma(1, c["shape"])), 1.0 / c["sigma"]],
                [1.0 / c["sigma"], c["shape"] / c["sigma"] ** 2],
            ]
        ),
    ),
    "uniform": _Family(
        param_names=("loc", "scale"),
        defaults={"loc": 0.0, "scale": 1.0},
        default_active=("loc",),
        never_active=(),
        validate=lambda c: _require_positive(c, "scale"),
        support=lambda c: (c["loc"], c["loc"] + c["scale"]),
        pdf=_uniform_pdf,
        cdf=lambda c, x: (x - c["loc"]) / c["scale"],
        quantile=lambda c, u: c["loc"] + c["scale"] * u,
        cdf_deriv=_uniform_cdf_deriv,
        logpdf_deriv=lambda c, name, x: np.zeros_like(np.asarray(x, dtype=float)),
        mean=lambda c: c["loc"] + c["scale"] / 2.0,
        var=lambda c: c["scale"] ** 2 / 12.0,
        fisher_unit=lambda c: None,
    ),
    "exp_mixture": _Family(
        param_names=("pi", "h"),
        defaults={"pi": 0.5, "h": 0.5},
        default_active=("pi", "h"),
        never_active=(),
        validate=lambda c: _validate_mixture(c),
        support=lambda c: (0.0, math.inf),
        pdf=_mixture_pdf,
        cdf=_mixture_cdf,
        quantile=_mixture_quantile,
        cdf_deriv=_mixture_cdf_deriv,
        logpdf_deriv=_mixture_logpdf_deriv,
        mean=lambda c: c["pi"] / c["h"] + (1.0 - c["pi"]),
        var=lambda c: 2.0 * c["pi"] / c["h"] ** 2 + 2.0 * (1.0 - c["pi"]) - (c["pi"] / c["h"] + 1.0 - c["pi"]) ** 2,
        fisher_unit=lambda c: None,
    ),
}


def _validate_mixture(c: dict[str, float]) -> None:
    if not 0.0 < c["pi"] < 1.0:
        raise ModelError(f"mixture weight pi must lie in (0, 1), got {c['pi']!r}")
    _require_positive(c, "h")


def _family(name: str) -> _Family:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ModelError(
            f"unknown family {name!r}; choose from {sorted(_FAMILIES)}"
        ) from None


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))
