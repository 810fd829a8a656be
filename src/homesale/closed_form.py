"""Closed-form expected discounted payoffs for a seller of an illiquid asset.

Constant-rate, constant-intensity setting.  Buyers arrive as a Poisson
stream with intensity lam, offer values are iid Uniform(p_min, p_max),
and each standing offer is withdrawn after an independent Exponential(mu)
delay.  The seller either waits a horizon T and takes the best surviving
offer above a reservation price, or additionally posts a list price and
sells immediately on the first offer that meets it.

All functions are pure maps of the horizon T, a float or an ndarray of
horizons, and safe to call concurrently.  Each public function checks
its arguments once, on entry, and computes through private kernels
(_listed, _best_survivor, _em1mx_over_x, _withdrawn) that take checked
values and check nothing again.  Each kernel is written once, over the
three namespaces of elementwise operations described at _FLOAT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

__all__ = [
    "MarketParams",
    "withdrawal_fraction",
    "auxiliary_payoff",
    "thinned_payoff",
    "listed_payoff",
    "listed_payoff_exact",
    "asymptotic_listed_payoff",
    "expected_utility",
]

# Below this, x-dividing expressions switch to their series expansions.
SMALL_ARG = 1e-4

# From this x on, exp(-x) < 2^-57 is lost to rounding in every sum it
# enters, so the auxiliary payoff takes its large-x form instead of
# overflowing e^x.
_LARGE_ARG = 40.0


def _require_finite(**kwargs) -> None:
    for name, v in kwargs.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


@dataclass(frozen=True)
class MarketParams:
    """Static market environment.

    lam   -- offer arrivals per unit time
    mu    -- withdrawals per unit time
    r     -- continuously compounded interest rate per unit time
    p_min -- lower edge of the offer-value support
    p_max -- upper edge of the offer-value support
    """

    lam: float
    mu: float
    r: float
    p_min: float
    p_max: float

    def __post_init__(self):
        _require_finite(lam=self.lam, mu=self.mu, r=self.r,
                        p_min=self.p_min, p_max=self.p_max)
        for name in ("lam", "mu", "r"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not (self.p_max > self.p_min > 0):
            raise ValueError(f"need p_max > p_min > 0, got ({self.p_min}, {self.p_max})")


def _check_horizon(T) -> None:
    """T, or every element of an array T, must be finite and positive."""
    if isinstance(T, np.ndarray):  # a NaN reaches both extremes
        _require_finite(T=T.max())
        T = T.min()
    _require_finite(T=T)
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")


# The kernels are written once over a namespace of exp, expm1, where,
# minimum, abs and any: numpy for an ndarray T; for a float, math plus a
# conditional, so that float results never depend on numpy's exp (which
# can differ from math.exp by an ulp); and _EXACT, numpy with math's exp
# and expm1 mapped over a 1-D array, which gives each element the bits
# _FLOAT gives it.  where() has evaluated both its branches, so each
# branch is fed arguments that keep it finite.
_FLOAT = SimpleNamespace(exp=math.exp, expm1=math.expm1, abs=abs, any=bool,
                         where=lambda cond, a, b: a if cond else b,
                         minimum=lambda a, b: b if b < a else a)
_EXACT = SimpleNamespace(
    exp=lambda a: np.fromiter(map(math.exp, a.tolist()), float, a.size),
    expm1=lambda a: np.fromiter(map(math.expm1, a.tolist()), float, a.size),
    abs=np.abs, any=np.any, where=np.where, minimum=np.minimum)


def _ops(T):
    return np if isinstance(T, np.ndarray) else _FLOAT


def _withdrawn(x, ops):
    """1 - (1 - exp(-x))/x at x = mu*T, series-switched below SMALL_ARG."""
    small = x < SMALL_ARG
    xs = ops.where(small, 1.0, x)
    return ops.where(small, x * (0.5 - x * (1.0 / 6.0 - x / 24.0)), 1.0 + ops.expm1(-xs) / xs)


def withdrawal_fraction(T: float | np.ndarray, mu: float) -> float | np.ndarray:
    """Probability that an offer with uniform arrival on [0, T] is gone by T.

    Equals 1 - (1 - exp(-mu T))/(mu T).  A direct evaluation cancels
    catastrophically for small mu*T, so below SMALL_ARG the series
    x/2 - x^2/6 + x^3/24 is used instead; withdrawal_fraction(T, 0) == 0.
    """
    _check_horizon(T)
    _require_finite(mu=mu)
    if mu < 0:
        raise ValueError(f"mu must be non-negative, got {mu}")
    return _withdrawn(mu * T, _ops(T))


def _em1mx_over_x(x, ops):
    """(exp(x) - 1 - x)/x, series-switched near zero."""
    small = ops.abs(x) < SMALL_ARG
    xs = ops.where(small, 1.0, x)
    return ops.where(small, x * (0.5 + x * (1.0 / 6.0 + x / 24.0)), (ops.expm1(xs) - xs) / xs)


def _best_survivor(T, lam, mu, r, lo, hi, ops):
    """auxiliary_payoff for a stream of intensity lam with values uniform
    on (lo, hi); zero when lam == 0."""
    x = lam * T * (1.0 - _withdrawn(mu * T, ops))
    spread = hi - lo
    large = x >= _LARGE_ARG
    xs = ops.minimum(x, _LARGE_ARG)
    below = ops.exp(-r * T - xs) * (hi * ops.expm1(xs) - spread * _em1mx_over_x(xs, ops))
    beyond = ops.exp(-r * T) * (hi - spread / ops.where(large, x, _LARGE_ARG))
    return ops.where(large, beyond, below)


def auxiliary_payoff(T: float | np.ndarray, m: MarketParams) -> float | np.ndarray:
    """Expected discounted payoff when every offer beats the reservation price.

    Offers surviving to T form a thinned Poisson stream: each of the
    Poisson(lam*T) arrivals is still standing with probability
    1 - withdrawal_fraction, independently of its value.  With
    x = lam*T*(1 - withdrawal_fraction) the expected maximum of the
    survivors' uniform values, discounted to time zero, collapses to

        exp(-r*T - x) * (p_max*(e^x - 1) - (p_max - p_min)*(e^x - 1 - x)/x)

    which is the Poisson-summed rank expansion in closed form.  The
    (e^x - 1 - x)/x factor is series-switched near x = 0, so the
    lam*T -> 0 and mu*T -> 0 limits are continuous; no surviving offer
    pays zero.  From _LARGE_ARG on the e^-x terms vanish and the payoff is
    exp(-r*T) * (p_max - (p_max - p_min)/x), which stays finite where
    e^x would overflow.
    """
    _check_horizon(T)
    return _best_survivor(T, m.lam, m.mu, m.r, m.p_min, m.p_max, _ops(T))


def thinned_payoff(T: float | np.ndarray, m: MarketParams, R: float) -> float | np.ndarray:
    """Expected discounted payoff with a private reservation price R, no list.

    Offers below R never matter, so the stream thins to intensity
    lam*(p_max - R)/(p_max - p_min) with values uniform on (R, p_max).
    """
    _check_horizon(T)
    _require_finite(R=R)
    if not (m.p_min <= R <= m.p_max):
        raise ValueError(f"R={R} outside offer support [{m.p_min}, {m.p_max}]")
    lam_thin = m.lam * (m.p_max - R) / (m.p_max - m.p_min)
    return _best_survivor(T, lam_thin, m.mu, m.r, R, m.p_max, _ops(T))


def _listed(T, lam, mu, r, p_min, p_max, R, L, gamma, exact: bool, ops):
    """exp(-gamma*T) times listed_payoff, or listed_payoff_exact when exact
    is true; the sweep calls it on arrays of cells."""
    lam_y = lam * ((p_max - L) / (p_max - p_min))
    # lam_y + r, or 1 where no offer reaches the list: the crossing term
    # is then +0.0 whatever the rate, and the quotient stays finite at r == 0
    rate = ops.where(lam_y > 0.0, lam_y + r, 1.0)
    if exact:
        crossing = ((p_max + L) / 2.0) * lam_y * -ops.expm1(-(lam_y + r) * T) / rate
    else:
        crossing = -ops.expm1(-lam_y * T) * ((p_max + L) / 2.0) * (lam_y / rate)
    # the in-band offers, values in (R, L), at intensity lam*(L - R)/(p_max - p_min)
    in_band = _best_survivor(T, lam * ((L - R) / (p_max - p_min)), mu, r, R, L, ops)
    return ops.exp(-gamma * T) * (crossing + ops.exp(-lam_y * T) * in_band)


def _listed_args(m: MarketParams, R: float, L: float, gamma: float) -> tuple:
    """_listed's (lam, mu, r, p_min, p_max, R, L, gamma), checked as every
    listed form and every sweep cell checks them."""
    _require_finite(gamma=gamma)
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    _require_finite(R=R, L=L)
    if not (m.p_min <= R <= L <= m.p_max):
        raise ValueError(
            f"need p_min <= R <= L <= p_max, got p_min={m.p_min}, R={R}, L={L}, p_max={m.p_max}")
    return m.lam, m.mu, m.r, m.p_min, m.p_max, R, L, gamma


def _checked_listed(T, m: MarketParams, R: float, L: float, gamma: float, exact: bool):
    args = _listed_args(m, R, L, gamma)
    _check_horizon(T)
    return _listed(T, *args, exact, _ops(T))


def listed_payoff(T: float | np.ndarray, m: MarketParams, R: float,
                  L: float) -> float | np.ndarray:
    """Expected discounted payoff with a public list price L and private R.

    Two regions: an offer at or above L sells immediately at its arrival
    (the first such arrival is Exponential(lam*y) with
    y = (p_max - L)/(p_max - p_min)), otherwise the seller runs the
    in-band auction at T.  The above-list region discounts with the
    unconditional factor lam*y/(lam*y + r) times the crossing probability,
    which overstates the discount for crossings that land beyond T; see
    listed_payoff_exact for the exact truncated expectation.
    """
    return _checked_listed(T, m, R, L, 0.0, exact=False)


def listed_payoff_exact(T: float | np.ndarray, m: MarketParams, R: float,
                        L: float) -> float | np.ndarray:
    """listed_payoff with the above-list discount evaluated jointly.

    Replaces P{cross by T} * E[discount] by E[discount * 1{cross by T}]
    = lam*y*(1 - exp(-(lam*y + r)*T))/(lam*y + r).  Coincides with
    listed_payoff at r = 0 and as T -> inf.
    """
    return _checked_listed(T, m, R, L, 0.0, exact=True)


def asymptotic_listed_payoff(m: MarketParams, L: float) -> float:
    """Long-horizon limit of the listed payoff: ((p_max+L)/2) * lam*y/(lam*y+r)."""
    _require_finite(L=L)
    if not (m.p_min <= L <= m.p_max):
        raise ValueError(f"L={L} outside offer support [{m.p_min}, {m.p_max}]")
    lam_y = m.lam * (m.p_max - L) / (m.p_max - m.p_min)
    if lam_y + m.r == 0.0:
        return 0.0
    return ((m.p_max + L) / 2.0) * lam_y / (lam_y + m.r)


def expected_utility(T: float | np.ndarray, m: MarketParams, R: float, L: float,
                     gamma: float, exact: bool = False) -> float | np.ndarray:
    """Impatience-discounted expected payoff exp(-gamma*T) * listed payoff.

    exact selects listed_payoff_exact as the base; the default matches
    the plain listed payoff used for the curve figures.
    """
    return _checked_listed(T, m, R, L, gamma, exact)
