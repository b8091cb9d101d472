"""Parametric distribution families with cdf parameter-derivatives and per-observation Fisher information.

Each family exposes pdf/cdf/quantile plus the parameter derivatives the
information calculations need: d F(x;theta)/d theta (the score of the cdf),
d log f(x;theta)/d theta, and the Monte Carlo route's closed-form -Hessian of
log f(x) + log w(F(x)) given (log w)' and (log w)''.  Every family is stated
once, at its standard member (location 0, scale 1, the shape as given) and over
its free parameters; Model alone maps it to x = loc + scale z and picks the
active parameters.  A location-scale family states f0, psi = (log f0)' and psi',
and its derivatives follow by the chain rule; the exponential mixture states its
own, and so does gamma, whose chain rule is written out so that it holds down to
z = 0.  All formulas are analytic, and so is every per-observation Fisher matrix
but the exponential mixture's, which comes from score_information, the one
information kernel: it forms, integrates and packs the weighted score Gram from
the (d log f, dF) that Model.quantile_scores keeps at integrate's nodes.  All
information runs on Model.standard, and from_standard maps it back.

The special functions are numpy code but the gamma family's, which import
scipy.special when a gamma model is first evaluated.  The gamma quantile starts
from a per-shape table and takes one certified Halley step on gammainc
(gammaincc in the upper half), falling back to gammaincinv (gammainccinv in
the upper half) where the step is not certified.  Every quantile reads its
upper half from s = 1 - t, which a caller may pass exactly where t rounds to 1.

Conventions: the extreme-value family is the Gumbel minimum, F(z) = 1 - exp(-e^z);
the exponential mixture fixes the baseline rate at 1 and is parameterized by
(pi, h), density pi*h*exp(-h*x) + (1-pi)*exp(-x).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing as tp

import numpy as np

from . import numerics

_EULER_GAMMA = 0.5772156649015328606
_TINY = float(np.finfo(float).tiny)  # the smallest normal double

# Cap on the Newton steps of the exponential-mixture quantile.  From x = 0 it
# converges in at most 13 steps for pi in [0.001, 0.9999] and h in [1e-4, 100];
# the cap only guards against a step that rounding keeps alive.
_NEWTON_STEPS = 50

# The gamma quantile's table: log z at the logit log t - log(1 - t) on [-40, 40] in
# steps of 1/8.  Its cubic Hermite pieces start within 4.7e-8 of z at shape 0.8,
# and closer at larger shapes (1e-8 at 10, 9e-11 at 1e5).
_GAMMA_S_LO, _GAMMA_S_STEP, _GAMMA_NODES = -40.0, 0.125, 641
GAMMA_TABLE_ENTRIES = 16  # bound on the shapes whose gamma quantile table is kept
# The largest gamma shape accepted: the largest decade at which the quantile lies within 1e-9 relative of
# a 40-digit mpmath root at t = 1e-6, 1e-3, 1/2, 1 - 1e-3 and 1 - 1e-6 (6.6e-17 at most).  At 1e6, where
# scipy's gammainc and gammaincinv lose accuracy, it is 1.4e-9 off at t = 1e-6.
GAMMA_MAX_SHAPE = 1e5
# Shapes served by the table.  Below 0.8 scipy's gammaincc is so slow that the table path took 0.75-1.6
# times gammaincinv's time.
_GAMMA_TABLE_SHAPES = (0.8, GAMMA_MAX_SHAPE)
# A Halley step gains about three times the digits it starts with, so a step of
# at most this share of z leaves an error far below rounding
_HALLEY_CERTIFIED = 1e-6

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
            raise ModelError(f"{self.family} takes parameters {fam.param_names}, got {len(self.params)} values")
        for name, v in zip(fam.param_names, self.params):
            if not math.isfinite(v):
                raise ModelError(f"parameter {name!r} must be finite, got {v!r}")
        if not self.active:
            raise ModelError("active parameter set must be nonempty")
        if len(set(self.active)) != len(self.active):
            raise ModelError(f"active parameters must be distinct, got {self.active}")
        for name in self.active:
            if name not in fam.param_names:
                raise ModelError(f"unknown parameter {name!r} for family {self.family!r}")
            if name in fam.never_active:
                raise ModelError(f"parameter {name!r} of family {self.family!r} is fixed by design")
        _, c, _, scale = self._frame()
        fam.validate(c)
        _require_positive(fam.scale, scale)

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

    def standard(self) -> tuple["Model", float]:
        """(the member at location 0 and scale 1 of this shape, the scale); self where that is this model."""
        fam, c, loc, scale = self._frame()
        if loc == 0.0 and scale == 1.0:
            return self, 1.0
        unit = {fam.loc: 0.0, fam.scale: 1.0}
        return Model(self.family, tuple(unit.get(n, v) for n, v in c.items()), self.active), scale

    def label(self) -> str:
        texts = (f"{v:g}" if float(f"{v:g}") == v else repr(float(v)) for v in self.params)  # %g where it reads back
        inner = ", ".join(f"{n}={t}" for n, t in zip(self.param_names, texts))
        return f"{self.family}({inner})"

    @property
    def p(self) -> int:
        return len(self.active)

    # -- distribution surface: the family's standard member, mapped by x = loc + scale z ----------

    def _frame(self) -> tuple["_Family", dict[str, float], float, float]:
        """(family, parameters by name, loc, scale): the one place loc and scale are read, 0 and 1 if absent."""
        fam, c = _family(self.family), dict(zip(self.param_names, self.params))
        return fam, c, c[fam.loc] if fam.loc else 0.0, c[fam.scale] if fam.scale else 1.0

    def support(self) -> tuple[float, float]:
        fam, _, loc, scale = self._frame()
        return loc + scale * fam.support[0], loc + scale * fam.support[1]

    def pdf(self, x: FloatArray) -> FloatArray:
        fam, c, loc, scale = self._frame()
        lo, hi = self.support()
        xa = np.asarray(x, dtype=float)
        inside = (xa >= lo) & (xa <= hi)
        out = np.where(np.isnan(xa), np.nan, 0.0)
        if np.any(inside):
            # closed interval so support endpoints get their boundary density;
            # families whose formula diverges there are clamped to 0, not NaN
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.asarray(fam.pdf(c, (xa[inside] - loc) / scale) / scale)
            out[inside] = np.where(np.isfinite(vals), vals, 0.0)
        return out if np.ndim(x) else float(out)

    def cdf(self, x: FloatArray) -> FloatArray:
        fam, c, loc, scale = self._frame()
        lo, hi = self.support()
        xa = np.asarray(x, dtype=float)
        out = np.full_like(xa, np.nan)  # a NaN x is neither below, inside nor above
        inside = (xa > lo) & (xa < hi)
        out[xa <= lo] = 0.0
        out[xa >= hi] = 1.0
        if np.any(inside):
            out[inside] = np.clip(fam.cdf(c, (xa[inside] - loc) / scale), 0.0, 1.0)
        return out if np.ndim(x) else float(out)

    def logpdf(self, x: FloatArray) -> FloatArray:
        xa = np.asarray(x, dtype=float)
        out = np.log(np.maximum(self.pdf(xa), _TINY))
        return out if np.ndim(x) else float(out)

    def quantile(self, u: FloatArray, s: FloatArray | None = None) -> FloatArray:
        """F^{-1}(u), the upper half read from s = 1 - u: exact where given, so that u may round to 1, else 1.0 - u."""
        ua = np.asarray(u, dtype=float)
        sa = None if s is None else np.asarray(s, dtype=float)
        if np.any(~((ua > 0.0) & ((ua < 1.0) if sa is None else (sa > 0.0)))):
            raise ModelError("quantile argument must lie strictly inside (0, 1)")
        fam, c, loc, scale = self._frame()
        out = loc + scale * fam.quantile(c, ua, sa)
        return np.asarray(out) if np.ndim(u) else float(out)

    def _positions(self) -> list[int]:
        """Where each active parameter sits in the family's free parameters, over which it states every derivative."""
        free = _family(self.family).free
        return [free.index(n) for n in self.active]

    def _scores(self, x: FloatArray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
        """(d log f, dF) for the active parameters, each stacked on axis."""
        fam, c, loc, scale = self._frame()
        xa, pos = np.asarray(x, dtype=float), self._positions()
        partials = fam.standard_partials(c, (xa - loc) / scale)
        return tuple(np.stack([np.broadcast_to(d[i], xa.shape) for i in pos], axis=axis) / scale for d in partials)

    def quantile_scores(self, t: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d log f, dF) at x = F^{-1}(t), s = 1 - t, from one evaluation, kept per model at integrate's nodes:
        contiguous (p, len(t)) arrays, one row per active parameter."""

        def build(_: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return self._scores(self.quantile(t, s), axis=0)

        return numerics.node_memo(self, t, build)

    def score_cdf(self, x: FloatArray) -> np.ndarray:
        """d F(x;theta) / d theta_j for the active parameters, stacked on the last axis."""
        return self._scores(x)[1]

    def score_logpdf(self, x: FloatArray) -> np.ndarray:
        """d log f(x;theta) / d theta_j for the active parameters, stacked on the last axis."""
        return self._scores(x)[0]

    def neg_hessian(self, x: FloatArray, a: FloatArray, b: FloatArray) -> np.ndarray:
        """-(d^2 / dtheta^2) of log f(x) + log w(F(x)) in the active parameters, a = (log w)' and b = (log w)''.

        a and b are taken at t = F(x) and broadcast against x; the p(p+1)/2
        upper-triangle entries are stacked on the last axis in numerics.TRIU order.
        """
        fam, c, loc, scale = self._frame()
        entries = fam.standard_neg_hessian(c, (np.asarray(x, dtype=float) - loc) / scale, a, b)
        pos, tri = self._positions(), list(zip(*numerics.TRIU[len(fam.free)]))
        picked = (tri.index(tuple(sorted((pos[i], pos[j])))) for i, j in zip(*numerics.TRIU[self.p]))
        return np.stack([entries[k] for k in picked], axis=-1) / _sq(scale)

    def mean(self) -> float:
        fam, c, loc, scale = self._frame()
        return loc + scale * fam.mean(c)

    def var(self) -> float:
        fam, c, _, scale = self._frame()
        return _sq(scale) * fam.var(c)

    def std(self) -> float:
        return math.sqrt(self.var())

    def fisher_srs_unit(self) -> numerics.InfoMatrix:
        return fisher_srs_unit(self)


def make_model(family: str, active: tp.Sequence[str] | None = None, **params: float) -> Model:
    """Build a Model from keyword parameter values, filling family defaults."""
    fam = _family(family)
    values = dict(fam.defaults)
    for name, v in params.items():
        if name not in values:
            raise ModelError(f"unknown parameter {name!r} for family {family!r}")
        values[name] = float(v)
    chosen = tuple(active) if active is not None else fam.default_active or fam.free
    return Model(family, tuple(values[n] for n in fam.param_names), chosen)


def require_fi_regular(model: Model) -> None:
    """Raise ModelError for a family without regular Fisher information; every route checks this first."""
    if model.family == "uniform":
        raise ModelError(
            f"fisher information entry ({model.active[0]}, {model.active[0]}) does not exist: "
            "the uniform family is not FI-regular (support depends on the parameters)"
        )


def fisher_srs_unit(model: Model) -> numerics.InfoMatrix:
    """Per-observation Fisher information over the active parameters (see unit_entries)."""
    return numerics.InfoMatrix(unit_entries(model))


def unit_entries(model: Model) -> np.ndarray:
    """The entries of fisher_srs_unit: the standard member's closed form (exp_mixture's: the kernel, v = d log f, w = 1).

    :raises ModelError: the family has no regular Fisher information (uniform),
        or the information lies outside the double range.
    :raises numerics.NumericsError: the quadrature failed to converge.
    """
    require_fi_regular(model)
    fam, c, _, _ = model._frame()
    closed = fam.fisher_unit(c)  # the standard member's, which depends on the shape alone
    if closed is None:
        return score_information(model, lambda t, s: (1.0, None, np.ones((1, t.size))))
    pos = model._positions()
    return from_standard(model, np.asarray(closed)[np.ix_(pos, pos)])


def from_standard(model: Model, entries: np.ndarray) -> np.ndarray:
    """Information entries of model's standard member mapped back to model: each score is the member's over
    model's scale, so the entries are over its square.

    :raises ModelError: the largest mapped entry overflows or falls below the smallest normal double.
    """
    scale = model._frame()[3]
    inv, largest = (1.0 / scale) * (1.0 / scale), float(np.abs(entries).max())
    if largest and not _TINY <= largest * inv < math.inf:
        raise ModelError(f"the Fisher information of {model.label()} lies outside the double range")
    return entries * inv


def score_information(model: Model, coefficients: tp.Callable[[np.ndarray, np.ndarray], tuple]) -> np.ndarray:
    """The information kernel int_0^1 sum_b w_b v_b v_b^T dt, v_b = alpha_b d log f + beta_b dF at F^{-1}(t).

    coefficients maps integrate's nodes (t, s = 1 - t) to (alpha, beta, w), each
    broadcastable to (k, len(t)), one term b per row; a None alpha or beta drops
    its score, and a term whose weight is not positive adds nothing, so its v may
    be non-finite.  On the standard member, v is built as (p, k, len(t)) and the
    p(p+1)/2 entries w v_i v_j, in numerics.TRIU order, are one integrate pass.

    :raises numerics.NumericsError: no convergence, or a non-finite term of positive weight.
    """
    std = model.standard()[0]
    rows, cols = numerics.TRIU[model.p]

    def entries(t: np.ndarray, s: np.ndarray) -> np.ndarray:
        d_logf, d_cdf = std.quantile_scores(t, s)
        alpha, beta, w = coefficients(t, s)
        v = [np.asarray(c) * d[:, None] for c, d in ((alpha, d_logf), (beta, d_cdf)) if c is not None]
        v, w = sum(v[1:], v[0]), np.asarray(w, dtype=float)
        return np.where(w > 0.0, w * v[rows] * v[cols], 0.0).sum(axis=1)

    return from_standard(model, numerics.from_triu(model.p, numerics.integrate(entries)))


# -- special functions in numpy: importing scipy.special takes about 0.3 s ------

# Wichura's AS241, PPND16 (Applied Statistics 37, 1988): numerator and
# denominator coefficients, highest degree first, of |u - 1/2| <= 0.425, then of
# r = sqrt(-log min(u, 1 - u)) - 1.6 for r <= 5 and r - 5 above
_AS241 = (
    ((2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4, 4.5921953931549871457e4,
      1.3731693765509461125e4, 1.9715909503065514427e3, 1.3314166789178437745e2, 3.3871328727963666080e0),
     (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4, 2.1213794301586595867e4,
      5.3941960214247511077e3, 6.8718700749205790830e2, 4.2313330701600911252e1, 1.0)),
    ((7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1, 1.27045825245236838258e0,
      3.64784832476320460504e0, 5.76949722146069140550e0, 4.63033784615654529590e0, 1.42343711074968357734e0),
     (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2, 1.48103976427480074590e-1,
      6.89767334985100004550e-1, 1.67638483018380384940e0, 2.05319162663775882187e0, 1.0)),
    ((2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3, 2.65321895265761230930e-2,
      2.96560571828504891230e-1, 1.78482653991729133580e0, 5.46378491116411436990e0, 6.65790464350110377720e0),
     (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5, 7.86869131145613259100e-4,
      1.48753612908506148525e-2, 1.36929880922735805310e-1, 5.99832206555887937690e-1, 1.0)),
)
# Cephes ndtr.c (Moshier): erf(x) = x T(x^2) / U(x^2) for |x| < 1, and
# erfc(x) = e^{-x^2} P(x) / Q(x) for 1 <= x < 8, e^{-x^2} R(x) / S(x) above
_CEPHES_ERF = (
    ((9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3, 7.00332514112805075473e3,
      5.55923013010394962768e4),
     (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3, 2.26290000613890934246e4,
      4.92673942608635921086e4)),
    ((2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0, 4.86371970985681366614e1,
      1.96520832956077098242e2, 5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3,
      5.57535335369399327526e2),
     (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2, 9.75708501743205489753e2,
      1.82390916687909736289e3, 2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)),
    ((5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0, 6.16021097993053585195e0,
      7.40974269950448939160e0, 2.97886665372100240670e0),
     (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1, 1.70814450747565897222e1,
      9.60896809063285878198e0, 3.36907645100081516050e0)),
)
_SQRTH = math.sqrt(0.5)


def _ndtri(u: np.ndarray, s: np.ndarray | None) -> np.ndarray:
    """Standard normal quantile for u in (0, 1), by AS241: its tails read min(u, s), s = 1 - u (1.0 - u if None)."""
    u = np.asarray(u, dtype=float)
    q = np.ravel(u - 0.5)
    out = q * _rational(_AS241[0], 0.180625 - q * q)
    tails = np.flatnonzero(np.abs(q) > 0.425)  # the tail forms only where they are taken
    if tails.size:
        near = np.ravel(u)[tails]
        r = np.sqrt(-np.log(np.minimum(near, 1.0 - near if s is None else np.ravel(s)[tails])))
        tail = np.where(r <= 5.0, _rational(_AS241[1], r - 1.6), _rational(_AS241[2], r - 5.0))
        out[tails] = np.copysign(tail, q[tails])
    return out.reshape(u.shape)


def _rational(coefs: tuple[tuple[float, ...], ...], v: np.ndarray) -> np.ndarray:
    """P(v) / Q(v) for coefs = (P, Q), each highest degree first, by Horner's rule."""
    num, den = np.full_like(v, coefs[0][0]), np.full_like(v, coefs[1][0])
    for y, c in zip((num, den), coefs):
        for ci in c[1:]:
            y *= v
            y += ci
    return num / den


def _ndtr(z: np.ndarray) -> np.ndarray:
    """Standard normal cdf, as Cephes ndtr: with x = z sqrt(1/2), 1/2 + erf(x)/2 for |x| < sqrt(1/2),
    else erfc(|x|)/2 reflected for x > 0."""
    x = np.asarray(z, dtype=float) * _SQRTH
    a = np.minimum(np.abs(x), 30.0)  # erfc(a) rounds to 0 from 27.3 on; the cap keeps P/Q finite
    erf = a * _rational(_CEPHES_ERF[0], a * a)
    with np.errstate(under="ignore"):
        erfc = np.exp(-a * a) * np.where(a < 8.0, _rational(_CEPHES_ERF[1], a), _rational(_CEPHES_ERF[2], a))
    erfc = np.where(a < 1.0, 1.0 - erf, erfc)
    return np.where(a < _SQRTH, 0.5 + 0.5 * np.copysign(erf, x), np.where(x > 0.0, 1.0 - 0.5 * erfc, 0.5 * erfc))


def _expit(z: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + e^-z), from e^-|z| so that both tails keep relative precision."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


def _log1m(t: np.ndarray, s: np.ndarray | None) -> np.ndarray:
    """log(1 - t): log1p(-t), but log(s) above t = 1/2 where s = 1 - t is given, as t may have rounded to 1 there.

    Without s, 1 - t is exact above 1/2 and log1p(-t) takes the place of log(1 - t), with the same bits.
    """
    if s is None:
        return np.log1p(-t)
    with np.errstate(divide="ignore"):  # log1p(-1) where t rounded to 1, in the branch not taken
        return np.where(t <= 0.5, np.log1p(-t), np.log(s))


def _xlogx(w: np.ndarray) -> np.ndarray:
    """w log w, with its limit 0 at w = 0."""
    w = np.asarray(w, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(w == 0.0, 0.0, w * np.log(w))


def _scipy_special() -> tp.Any:
    """scipy.special, imported on first use: only the gamma family needs it."""
    import scipy.special

    return scipy.special


# -- family definitions ----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Family:
    """A family stated once, at its standard member: location 0, scale 1 and the shape as given.

    Model alone maps the standard variable z to x = loc + scale z, and picks the active parameters.  Each callable
    takes the parameters by name first and reads only the shape: pdf and cdf are f0 and F0 of z,
    quantile is F0^{-1} of (t, s = 1 - t or None), and mean, var and fisher_unit (None where quadrature gives it)
    are the standard member's.  loc and scale name those parameters, None where the family has none.  Every
    derivative runs over free, the parameters that may be active, in param_names order: the shapes, then loc, then
    scale.  psi = (log f0)' and dpsi = psi' give partials and neg_hessian by the chain rule, where not stated.
    """

    loc: str | None
    scale: str | None
    pdf: tp.Callable[[dict[str, float], np.ndarray], np.ndarray]
    cdf: tp.Callable[[dict[str, float], np.ndarray], np.ndarray]
    quantile: tp.Callable[[dict[str, float], np.ndarray, np.ndarray | None], np.ndarray]
    mean: tp.Callable[[dict[str, float]], float]
    var: tp.Callable[[dict[str, float]], float]
    fisher_unit: tp.Callable[[dict[str, float]], np.ndarray | None]
    psi: tp.Callable[[dict[str, float], np.ndarray], FloatArray] | None = None
    dpsi: tp.Callable[[dict[str, float], np.ndarray], FloatArray] | None = None
    # (c, z) -> (d log f, dF) times the scale, each one entry per free parameter
    partials: tp.Callable[[dict[str, float], np.ndarray], tuple[tuple, tuple]] | None = None
    # (c, z, a, b) -> the upper triangle, in numerics.TRIU order, of Model.neg_hessian's -Hessian times the scale squared
    neg_hessian: tp.Callable[[dict[str, float], np.ndarray, FloatArray, FloatArray], tuple] | None = None
    shapes: dict[str, float] = dataclasses.field(default_factory=dict)  # shape parameters and their defaults
    support: tuple[float, float] = (-math.inf, math.inf)
    default_active: tuple[str, ...] | None = None  # every free parameter where None
    never_active: tuple[str, ...] = ()
    validate: tp.Callable[[dict[str, float]], None] = lambda c: None  # the checks of the shape

    @functools.cached_property
    def param_names(self) -> tuple[str, ...]:
        return (*self.shapes, *(n for n in (self.loc, self.scale) if n))

    @functools.cached_property
    def free(self) -> tuple[str, ...]:  # the parameters that may be active
        return tuple(n for n in self.param_names if n not in self.never_active)

    @property
    def defaults(self) -> dict[str, float]:
        return {**self.shapes, **{n: float(n == self.scale) for n in (self.loc, self.scale) if n}}

    def standard_partials(self, c: dict[str, float], z: np.ndarray) -> tuple[tuple, tuple]:
        """The family's partials, else the chain rule through z = (x - loc) / scale: with log f = log f0(z) - log
        scale, F = F0(z) and dz/dtheta_i = -v_i / scale for v = 1 at loc and z at scale, scale d_i log f =
        -(psi v_i + [i = scale]) and scale d_i F = -f0 v_i."""
        if self.partials:
            return self.partials(c, z)
        f0, psi = self.pdf(c, z), self.psi(c, z)
        v = (1.0, z) if self.loc else (z,)
        return tuple(-(psi * vi + (i == len(v) - 1)) for i, vi in enumerate(v)), tuple(-f0 * vi for vi in v)

    def standard_neg_hessian(self, c: dict[str, float], z: np.ndarray, a: FloatArray, b: FloatArray) -> tuple:
        """The family's -Hessian, else (loc, loc), (loc, scale), (scale, scale), or (scale, scale) alone without
        loc.  With v of standard_partials, the Hessian of log f(x) + log w(F(x)) times scale^2 is
        P v_i v_j + Q u_ij + [i = j = scale], u_ij = scale^2 d^2 z / dtheta_i dtheta_j = 0, 1, 2z in those
        entries, P = psi' + a psi f0 + b f0^2 and Q = psi + a f0."""
        if self.neg_hessian:
            return self.neg_hessian(c, z, a, b)
        f0, psi = self.pdf(c, z), self.psi(c, z)
        q = psi + a * f0
        p = self.dpsi(c, z) + a * psi * f0 + b * f0 * f0
        ss = -(p * z * z + 2.0 * q * z + 1.0)
        return (-p, -(p * z + q), ss) if self.loc else (ss,)


def _sq(v: float) -> float:
    """v * v: a Python float overflows to inf here, where v ** 2 raises OverflowError."""
    return v * v


def _require_positive(name: str | None, value: float) -> None:
    if not value > 0.0:
        raise ModelError(f"parameter {name!r} must be strictly positive, got {value!r}")


def _logistic_pdf0(c, z):
    # symmetric in z, so neither tail loses the density to 1 - G rounding to 0
    e = np.exp(-np.abs(z))
    return e / (1.0 + e) ** 2


def _mixture_pdf(c, x):
    pi, h = c["pi"], c["h"]
    return pi * h * np.exp(-h * x) + (1.0 - pi) * np.exp(-x)


def _mixture_cdf(c, x):
    pi, h = c["pi"], c["h"]
    return -(pi * np.expm1(-h * x) + (1.0 - pi) * np.expm1(-x))


def _mixture_sf(c, x):
    return c["pi"] * np.exp(-c["h"] * x) + (1.0 - c["pi"]) * np.exp(-x)


def _mixture_quantile(c, u, s):
    # Newton's method on log S(x) = log(1 - u) from x = 0.  log S is convex and
    # decreasing, so the iterates rise to the root without overshooting.  log S
    # comes from F below the median and from S above it, where F may round to 1
    # (the minimum keeps it from log1p), so both tails keep their relative
    # precision; its slope is minus the hazard, (1 - q) + h q with q = pi e^{-hx}
    # / S = expit(z) the first component's share of the survival, z = logit(pi)
    # + (1 - h) x.  1 - q is taken as expit(-z), so h is not lost where q rounds to 1.
    pi, h = c["pi"], c["h"]
    target = np.ravel(_log1m(u, s))
    x = np.zeros_like(target)
    todo = np.arange(target.size)
    for _ in range(_NEWTON_STEPS):
        xt = x[todo]
        F = _mixture_cdf(c, xt)
        log_sf = np.where(F < 0.5, np.log1p(-np.minimum(F, 0.5)), np.log(_mixture_sf(c, xt)))
        z = math.log(pi / (1.0 - pi)) + (1.0 - h) * xt
        hazard = _expit(-z) + h * _expit(z)
        residual = log_sf - target[todo]
        step = residual / hazard
        x[todo] = xt + step
        # stop once the residual or the step is down to rounding, relative to
        # log(1 - u) or to x; near the bend of log S one ulp of x can move the
        # residual past rounding, so the step alone may never settle
        moving = (np.abs(residual) > 2.0**-50 * np.abs(target[todo])) & (np.abs(step) > 2.0**-50 * x[todo])
        todo = todo[moving]
        if not todo.size:
            break
    return x.reshape(np.shape(u)) if np.ndim(u) else float(x[0])


def _mixture_partials(c, x):
    # with e = e^{-hx}: f = pi h e + (1 - pi) e^{-x} and F = 1 - pi e - (1 - pi) e^{-x}
    pi, h = c["pi"], c["h"]
    e, e1, f = np.exp(-h * x), np.exp(-x), _mixture_pdf(c, x)
    return ((h * e - e1) / f, pi * e * (1.0 - h * x) / f), (e1 - e, pi * x * e)


def _mixture_neg_hessian(c, x, a, b):
    # -(d^2 log f + a d^2 F + b dF dF^T), with d^2 log f = f_ij / f - (d_i log f)(d_j log f), f_{pi pi} = 0,
    # and d^2 F = 0 in (pi, pi), x e in (pi, h) and -pi x^2 e in (h, h)
    pi, h = c["pi"], c["h"]
    e, f = np.exp(-h * x), _mixture_pdf(c, x)
    (lp, lh), (fp, fh) = _mixture_partials(c, x)
    return (lp * lp - b * fp * fp, lp * lh - e * (1.0 - h * x) / f - a * x * e - b * fp * fh,
            lh * lh - pi * e * x * (h * x - 2.0) / f + a * pi * x * x * e - b * fh * fh)


def _gamma_quantile(k: float, t: np.ndarray, s: np.ndarray | None) -> np.ndarray:
    """The z with P(k, z) = t, s = 1 - t: one Halley step from the table start where it is certified, elsewhere
    gammaincinv(k, t) up to t = 1/2 and gammainccinv(k, s) above."""
    special = _scipy_special()
    t1 = np.atleast_1d(t)  # numpy returns scalars, not arrays, from 0-d arithmetic
    s1 = 1.0 - t1 if s is None else np.atleast_1d(s)
    if _GAMMA_TABLE_SHAPES[0] <= k <= _GAMMA_TABLE_SHAPES[1]:
        z, certified = _gamma_halley(k, t1, s1)
    else:
        z, certified = np.empty_like(t1), np.zeros(t1.shape, dtype=bool)
    if not certified.all():
        lower, upper = ~certified & (t1 <= 0.5), ~certified & (t1 > 0.5)
        z[lower] = special.gammaincinv(k, t1[lower])
        z[upper] = special.gammainccinv(k, s1[upper])
    return z.reshape(np.shape(t))


def _gamma_halley(k: float, t: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z1, certified): one Halley step on P(k, z) = t, s = 1 - t, from the table start z0, and where it may stand.

    The residual is P(z0) - t for t <= 1/2, and s - Q(z0) above, so the upper
    tail keeps its relative precision.  A step is certified for t inside the
    table with |z1 - z0| <= _HALLEY_CERTIFIED z0.  There, at the shapes the
    table serves, z0 is finite and at least 1e-22.
    """
    special = _scipy_special()
    coef = _gamma_table(k)
    with np.errstate(over="ignore"):  # t / s is inf where s is subnormal, which lies beyond the table
        x = (np.log(t / s) - _GAMMA_S_LO) / _GAMMA_S_STEP
    inside = (x >= 0.0) & (x <= _GAMMA_NODES - 1)
    x = np.clip(x, 0.0, _GAMMA_NODES - 1)
    i = np.minimum(x.astype(np.intp), _GAMMA_NODES - 2)
    f = x - i
    log_z = coef[0][i] + f * (coef[1][i] + f * (coef[2][i] + f * coef[3][i]))
    z = np.exp(log_z)
    residual = np.empty_like(z)
    flat_t, flat_s, flat_z, flat_r = np.ravel(t), np.ravel(s), z.ravel(), residual.reshape(-1)
    below = flat_t <= 0.5
    lower, upper = np.flatnonzero(below), np.flatnonzero(~below)
    flat_r[lower] = special.gammainc(k, flat_z[lower]) - flat_t[lower]
    flat_r[upper] = flat_s[upper] - special.gammaincc(k, flat_z[upper])
    # Newton's step r / f0 and Halley's correction through f0' / f0 = (k - 1) / z - 1
    newton = residual / np.exp((k - 1.0) * log_z - z - math.lgamma(k))
    z1 = z - newton / (1.0 - 0.5 * newton * ((k - 1.0) / z - 1.0))
    return z1, inside & (np.abs(z1 - z) <= _HALLEY_CERTIFIED * z)


@functools.lru_cache(maxsize=GAMMA_TABLE_ENTRIES)
def _gamma_table(k: float) -> np.ndarray:
    """Cubic coefficients (4, nodes - 1), constant term first, of log z on each table step in s, local variable in [0, 1).

    The nodes come from gammaincinv below s = 0 and from gammainccinv of 1 - t
    above; the slopes d log z / ds = t (1 - t) / (z f0(z)) are exact.
    """
    special = _scipy_special()
    s = _GAMMA_S_LO + _GAMMA_S_STEP * np.arange(_GAMMA_NODES)
    log_t, log_q = -np.log1p(np.exp(-s)), -np.log1p(np.exp(s))
    z = np.where(s <= 0.0, special.gammaincinv(k, np.exp(log_t)), special.gammainccinv(k, np.exp(log_q)))
    y = np.log(z)
    d = _GAMMA_S_STEP * np.exp(log_t + log_q - (k * y - z - math.lgamma(k)))
    y0, y1, d0, d1 = y[:-1], y[1:], d[:-1], d[1:]
    coef = np.stack([y0, d0, 3.0 * (y1 - y0) - 2.0 * d0 - d1, 2.0 * (y0 - y1) + d0 + d1])
    coef.setflags(write=False)
    return coef


def _gamma_terms(c, z):
    # the chain rule with z psi(z) = shape - 1 - z, z^2 psi'(z) = 1 - shape and
    # z f0(z) = z^shape e^-z / Gamma(shape) in closed form: formed as products they overflow, lose z^2
    # to underflow or are 0 * inf below z of about 1.5e-154, which the quantile reaches below t of
    # about 1e-77 at shape 0.5 (it is 0.0 below t of about 1e-162)
    k = c["shape"]
    with np.errstate(divide="ignore"):
        return k, np.exp(k * np.log(z) - z - math.lgamma(k))


def _gamma_partials(c, z):
    k, zf0 = _gamma_terms(c, z)
    return (z - k,), (-zf0,)


def _gamma_neg_hessian(c, z, a, b):
    # the location-free (scale, scale) entry -(P z^2 + 2 Q z + 1) with the closed forms above
    k, zf0 = _gamma_terms(c, z)
    return (-(k - 2.0 * z + a * zf0 * (k + 1.0 - z) + b * zf0 * zf0),)


_FAMILIES: dict[str, _Family] = {
    "normal": _Family(
        "mu", "sigma",
        pdf=lambda c, z: np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi),
        cdf=lambda c, z: _ndtr(z),
        quantile=lambda c, t, s: _ndtri(t, s),
        psi=lambda c, z: -z,
        dpsi=lambda c, z: -1.0,
        mean=lambda c: 0.0,
        var=lambda c: 1.0,
        fisher_unit=lambda c: np.diag([1.0, 2.0]),
    ),
    "exponential": _Family(
        None, "sigma",
        support=(0.0, math.inf),
        pdf=lambda c, z: np.exp(-z),
        cdf=lambda c, z: -np.expm1(-z),
        quantile=lambda c, t, s: -_log1m(t, s),
        psi=lambda c, z: -1.0,
        dpsi=lambda c, z: 0.0,
        mean=lambda c: 1.0,
        var=lambda c: 1.0,
        fisher_unit=lambda c: np.array([[1.0]]),
    ),
    "logistic": _Family(
        "mu", "sigma",
        pdf=_logistic_pdf0,
        cdf=lambda c, z: _expit(z),
        quantile=lambda c, t, s: np.log(t) - _log1m(t, s),
        psi=lambda c, z: -np.tanh(0.5 * z),
        dpsi=lambda c, z: -2.0 * _logistic_pdf0(c, z),
        mean=lambda c: 0.0,
        var=lambda c: _sq(math.pi) / 3.0,
        fisher_unit=lambda c: np.diag([1.0 / 3.0, (math.pi**2 + 3.0) / 9.0]),
    ),
    "extreme_value": _Family(
        "mu", "sigma",
        pdf=lambda c, z: np.exp(z - np.exp(z)),
        cdf=lambda c, z: -np.expm1(-np.exp(z)),
        quantile=lambda c, t, s: np.log(-_log1m(t, s)),
        psi=lambda c, z: 1.0 - np.exp(z),
        dpsi=lambda c, z: -np.exp(z),
        mean=lambda c: -_EULER_GAMMA,
        var=lambda c: _sq(math.pi) / 6.0,
        fisher_unit=lambda c: np.array(
            [[1.0, 1.0 - _EULER_GAMMA], [1.0 - _EULER_GAMMA, (1.0 - _EULER_GAMMA) ** 2 + math.pi**2 / 6.0]]
        ),
    ),
    "gamma": _Family(
        None, "sigma",
        shapes={"shape": 2.0},
        never_active=("shape",),
        validate=lambda c: _validate_gamma(c),
        support=(0.0, math.inf),
        pdf=lambda c, z: np.exp((c["shape"] - 1.0) * np.log(z) - z - math.lgamma(c["shape"])),
        cdf=lambda c, z: _scipy_special().gammainc(c["shape"], z),
        quantile=lambda c, t, s: _gamma_quantile(c["shape"], t, s),
        partials=_gamma_partials,
        neg_hessian=_gamma_neg_hessian,
        mean=lambda c: c["shape"],
        var=lambda c: c["shape"],
        fisher_unit=lambda c: np.array([[c["shape"]]]),
    ),
    "uniform": _Family(
        "loc", "scale",
        default_active=("loc",),
        support=(0.0, 1.0),
        pdf=lambda c, z: np.ones_like(z),
        cdf=lambda c, z: z,
        quantile=lambda c, t, s: t,
        psi=lambda c, z: 0.0,
        dpsi=lambda c, z: 0.0,
        mean=lambda c: 0.5,
        var=lambda c: 1.0 / 12.0,
        fisher_unit=lambda c: None,
    ),
    "exp_mixture": _Family(
        None, None,
        shapes={"pi": 0.5, "h": 0.5},
        validate=lambda c: _validate_mixture(c),
        support=(0.0, math.inf),
        pdf=_mixture_pdf,
        cdf=_mixture_cdf,
        quantile=_mixture_quantile,
        partials=_mixture_partials,
        neg_hessian=_mixture_neg_hessian,
        mean=lambda c: c["pi"] / c["h"] + (1.0 - c["pi"]),
        # pi (2 - pi) / h^2 - 2 pi (1 - pi) / h + 1 - pi^2, never forming h^2 (it overflows or underflows) or inf - inf
        var=lambda c: c["pi"] * ((2.0 - c["pi"]) / c["h"] / c["h"] - 2.0 * (1.0 - c["pi"]) / c["h"]) + 1.0 - _sq(c["pi"]),
        fisher_unit=lambda c: None,
    ),
}


def _validate_gamma(c: dict[str, float]) -> None:
    _require_positive("shape", c["shape"])
    if c["shape"] > GAMMA_MAX_SHAPE:
        raise ModelError(f"gamma shape {c['shape']!r} is above {GAMMA_MAX_SHAPE:g}, the largest with a verified quantile")


def _validate_mixture(c: dict[str, float]) -> None:
    if not 0.0 < c["pi"] < 1.0:
        raise ModelError(f"mixture weight pi must lie in (0, 1), got {c['pi']!r}")
    _require_positive("h", c["h"])


def _family(name: str) -> _Family:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ModelError(
            f"unknown family {name!r}; choose from {sorted(_FAMILIES)}"
        ) from None


def family_names() -> tuple[str, ...]:
    return tuple(sorted(_FAMILIES))
