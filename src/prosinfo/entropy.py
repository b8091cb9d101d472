"""Shannon/Renyi entropy and KL information of SRS, RSS, and PROS samples.

A subset density factors as f(x)·w_r(F(x)), where the block weight w_r is a
Bernstein series in t = F(x).  Each report is one vector integral
(numerics.integrate) with one row per weight: the parent (w = 1 exactly), every
measured subset and, for the lower bound, each of the S ranks of an RSS with
set size S, as rows of block weight tables of w alone (densities.block_table).

Every integral runs on the parent's standard member (Model.standard): an
entropy at scale s is the member's plus log s, row by row, and KL information
does not depend on location or scale, so no location or scale costs precision.

Every integral runs on the quantile scale over the open interval t in (0, 1),
with the parent quantile Q(t, s) and the weight w(t, s) read from t and its
exact complement s = 1 - t.  So the upper tail resolves to s of about 4e-308,
as the lower does to t, also where t rounds to 1:

* Shannon entropy and KL information integrate with the parent log-density
  log f(Q(t)).
* Renyi entropy integrates ∫ f(x)^α w(F(x))^α dx = ∫ f(Q(t))^(α-1) w(t)^α dt,
  whose tails hold mass of order 1 at small α such as 0.03.  An order whose
  integral does not converge raises numerics.NumericsError instead of
  returning a truncated value.

Entropies are reported in nats.  Subsetting is assumed perfect here.
"""

from __future__ import annotations

import dataclasses
import math
import typing as tp

import numpy as np

from . import densities, numerics
from .designs import Design, make_balanced_design
from .models import Model, _xlogx

__all__ = [
    "EntropyError",
    "EntropyReport",
    "shannon",
    "renyi",
    "kl_pros_srs",
    "kl_likelihood_chain",
]

_KINDS = ("srs", "rss", "pros")


class EntropyError(ValueError):
    """Raised for invalid entropy arguments or divergent integrals."""


@dataclasses.dataclass(frozen=True)
class EntropyReport:
    """Total entropy of a sample design plus its per-subset decomposition.

    :param kind: one of ``srs``, ``rss``, ``pros``.
    :param total: entropy of the whole sample, in nats.
    :param per_subset: one contribution per measured subset (per draw for SRS).
    :param lower_bound: (1/m)·H of an RSS that measures all S ranks.
    :param upper_bound: entropy of an SRS of the same size.
    """

    kind: str
    total: float
    per_subset: tuple[float, ...]
    lower_bound: float
    upper_bound: float
    model_label: str
    design_label: str

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise EntropyError(f"kind must be one of {_KINDS}, got {self.kind!r}")


def _resolve(kind: str, n: int, set_size: int | None) -> tuple[str, int, int, tuple[tuple[int, ...], ...]]:
    """Return (report label, n, set size, subsets) for the requested design kind, n and the set size as ints."""
    if kind not in _KINDS:
        raise EntropyError(f"kind must be one of {_KINDS}, got {kind!r}")
    n = numerics.whole(n, "n", 1, EntropyError)
    if set_size is not None:
        set_size = numerics.whole(set_size, "set_size", 1, EntropyError)
    if kind == "srs":
        return f"srs(n={n})", n, 1, tuple((1,) for _ in range(n))
    if kind == "rss":
        if set_size not in (None, n):
            raise EntropyError("rss measures every rank once; set_size must equal n")
        return f"rss(n={n})", n, n, tuple((v,) for v in range(1, n + 1))
    if set_size is None:
        raise EntropyError("pros needs an explicit set_size")
    return f"pros(n={n}, S={set_size})", n, set_size, make_balanced_design(set_size, n).subsets


def _quantile_integrals(set_size: int, subsets: tp.Sequence[tuple[int, ...]], term: tp.Callable) -> np.ndarray:
    """∫ term(t, s, w(t)) dt over (0, 1), s = 1 - t, per weight row w: the parent, each subset, then each RSS rank.
    At S = 1 every row is exactly 1, as the parent's, and read as such rather than from a table."""
    singletons = tuple((u,) for u in range(1, set_size + 1))

    def rows(t: np.ndarray, s: np.ndarray) -> np.ndarray:
        tables = (densities.block_table(set_size, blocks, t, s, 1)[0] if set_size > 1
                  else np.ones((len(blocks), t.size)) for blocks in (subsets, singletons))
        return term(t, s, np.concatenate((np.ones((1, t.size)), *tables)))

    return numerics.integrate(rows)


def _report(model: Model, kind: str, label: str, n: int, set_size: int, values: np.ndarray) -> EntropyReport:
    """Assemble a report from one entropy per row of _quantile_integrals.

    Sandwich: (1/m)·H_S(rss with all S ranks) <= total <= n·H(f).
    """
    if kind == "srs":
        per = tuple(float(values[0]) for _ in range(n))
        total = float(np.sum(per))
        return EntropyReport(kind, total, per, total, total, model.label(), label)
    per = tuple(float(v) for v in values[1 : n + 1])
    total = float(np.sum(per))
    lower = float(np.sum(values[n + 1 :])) / (set_size // n)
    upper = n * float(values[0])
    return EntropyReport(kind, total, per, lower, upper, model.label(), label)


def shannon(model: Model, kind: str = "pros", n: int = 1, set_size: int | None = None) -> EntropyReport:
    """Shannon entropy of an SRS/RSS/PROS sample of n measurements.

    SRS returns n·H(f).  RSS (set size n, every rank measured once) and
    PROS (balanced subsets of a size-``set_size`` set) sum the entropies
    -∫ w_r(t)·[log f(Q(t)) + log w_r(t)] dt of their subset densities f·w_r.
    """
    label, n, set_size, subsets = _resolve(kind, n, set_size)
    std, scale = model.standard()

    def term(t: np.ndarray, s: np.ndarray, w: np.ndarray) -> np.ndarray:
        return -(w * std.logpdf(std.quantile(t, s)) + _xlogx(w))

    values = _quantile_integrals(set_size, subsets, term)
    return _report(model, kind, label, n, set_size, values + math.log(scale))


def renyi(model: Model, alpha: float, kind: str = "pros", n: int = 1, set_size: int | None = None) -> EntropyReport:
    """Renyi entropy of order alpha; only 0 < alpha < 1 is defined here.

    Each block contributes (1/(1-α))·log ∫ f(Q(t))^(α-1) w_r(t)^α dt, the
    integral of f^α w_r(F)^α over the standard member's support on the
    quantile scale.  Orders above 1 are outside the supported range for subset
    densities and are rejected.

    :raises numerics.NumericsError: the integral did not converge, as happens
        at very small orders on an unbounded support, or one underflows to 0,
        as the lower blocks' do at gamma shapes far below 1.
    """
    if not 0.0 < alpha < 1.0:
        raise EntropyError(f"Renyi order must satisfy 0 < alpha < 1 (alpha > 1 unsupported), got {alpha!r}")
    label, n, set_size, subsets = _resolve(kind, n, set_size)
    std, scale = model.standard()

    def term(t: np.ndarray, s: np.ndarray, w: np.ndarray) -> np.ndarray:
        # the density is 0 at a quantile where its formula is not finite: a support end where f diverges, as
        # where the gamma quantile below shape 1 underflows to 0, and f^(α-1) tends to 0 there
        f = std.pdf(std.quantile(t, s))
        return np.where(f > 0.0, f ** (alpha - 1.0), 0.0) * w**alpha

    mass = _quantile_integrals(set_size, subsets, term)
    bad = np.flatnonzero(~(mass > 0.0))  # rows: the parent, each subset, then each rank of the lower bound
    if bad.size:
        raise numerics.NumericsError(f"the Renyi integral of weight row {bad[0]} is {float(mass[bad[0]])!r}, not "
                                     "positive, so its entropy is not finite")
    return _report(model, kind, label, n, set_size, np.log(mass) / (1.0 - alpha) + math.log(scale))


def kl_pros_srs(model: Model, design: Design) -> float:
    """KL information K(L_pros, L_srs) = Σ_r ∫ w_r(t)·log w_r(t) dt.

    The parent density cancels from the log ratio, so the value depends on
    the design alone; it is zero exactly when S = 1.
    """
    if not design.is_balanced:
        raise EntropyError("KL information is defined here for balanced designs")
    blocks = numerics.integrate(lambda t, s: _xlogx(densities.block_table(design.set_size, design.subsets, t, s, 1)[0]))
    return float(np.sum(blocks))


def kl_likelihood_chain(model: Model, design: Design, shift: float = 0.5) -> tuple[float, float, float]:
    """KL of SRS/PROS/RSS* likelihoods against a shifted parent density.

    The second density is g(x) = f(x + shift·σ), whose support contains the
    parent's for left-bounded families.  Returns the ordered triple
    (K_srs, K_pros, K_rss*/m) of Lemma-style lower, middle, upper values for
    a sample of n measurements.  Raises if the KL integral diverges because
    the shifted support no longer covers the parent's.
    """
    if not design.is_balanced:
        raise EntropyError("the likelihood chain is defined for balanced designs")
    model = model.standard()[0]
    delta = shift * model.std()
    S, n = design.set_size, design.n

    probe = np.linspace(1e-6, 1.0 - 1e-6, 257)
    if np.any(np.asarray(model.pdf(np.asarray(model.quantile(probe)) + delta)) <= 0.0):
        raise EntropyError("KL divergence is infinite: the shifted density vanishes on the parent support")

    def term(t: np.ndarray, s: np.ndarray, w: np.ndarray) -> np.ndarray:
        x = model.quantile(t, s)
        return _xlogx(w) + w * (model.logpdf(x) - model.logpdf(x + delta))

    k = _quantile_integrals(S, design.subsets, term)
    return float(n * k[0]), float(np.sum(k[1 : n + 1])), float(np.sum(k[n + 1 :]) / design.m)
