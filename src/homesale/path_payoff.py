"""Expected discounted payoffs along a realized rate path.

The offer stream is a non-homogeneous Poisson process whose intensity is
driven by the rate path and the (non-increasing) list schedule.  The
three conditional payoff evaluations cover a decaying list price, a
constant list price, and no list price at all; each integrates the
published probability structure with nested composite Simpson rules.
Expectations over random rate paths are plain Monte Carlo averages of
the conditional values.

The published crossing branch spreads the first list crossing with
density lam(a)/Lambda(t), which the simulated model does not: there the
first above-list offer is front-loaded.  The no-list payoff has no
crossing branch and is exact.  conditional_payoff_changing_list_exact
and conditional_payoff_constant_list integrate the true first-crossing
density and match simulation for any list schedule and any flat list.

Every Simpson grid has DEFAULT_NODES nodes, read when an evaluation
runs; grids that do not depend on the rate path are built once per
horizon and shared read-only.  The changing-list survivor tail sorts
F(L(a)) and reads each y off suffix sums: O(n log n), within 32 eps of
the O(n^2) (y, a) band product.  Withdrawals follow one law,
ExponentialWithdrawals(mu); mu == 0 means offers never retract.

The rate integral inside the discount factor uses the path's native
grid (trapezoid), so conditional values carry an O(dt^2) path
discretization error on top of the quadrature error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import simpson_nodes
from .stochastic import (DEFAULT_DT, RATE_FLOOR, CirParams, DemandParams,
                         RatePath, simulate_cir, substream)

__all__ = [
    "UniformOffers",
    "ExponentialWithdrawals",
    "PathContext",
    "list_schedule",
    "below_list_probability",
    "surviving_offer_tail",
    "crossing_survival",
    "conditional_payoff_changing_list",
    "conditional_payoff_changing_list_exact",
    "conditional_payoff_constant_list",
    "conditional_payoff_no_list",
    "conditional_payoff",
    "expected_payoff",
]

DEFAULT_NODES = 201

# Treat F(L) this close to one as "no offer can beat the list here".
_SATURATED = 1.0 - 1e-12


@dataclass(frozen=True)
class UniformOffers:
    """Offer values uniform on (p_min, p_max)."""

    p_min: float
    p_max: float

    def __post_init__(self):
        if not (math.isfinite(self.p_max) and self.p_max > self.p_min > 0):
            raise ValueError(f"need finite p_max > p_min > 0, got ({self.p_min}, {self.p_max})")

    def cdf(self, x):
        return np.minimum(np.maximum((np.asarray(x, dtype=float) - self.p_min)
                                     / (self.p_max - self.p_min), 0.0), 1.0)

    def mean_above(self, cut):
        """E[value | value >= cut] for cut < p_max."""
        lo = np.maximum(np.asarray(cut, dtype=float), self.p_min)
        return (lo + self.p_max) / 2.0

    def sample(self, rng: np.random.Generator, size=None):
        return rng.uniform(self.p_min, self.p_max, size)


@dataclass(frozen=True)
class ExponentialWithdrawals:
    """Standing offers retract after an Exponential(mu) delay; mu == 0
    means they never retract (infinite delays, no draw taken)."""

    mu: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ValueError(f"mu must be finite and non-negative, got {self.mu}")

    def cdf(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u > 0, -np.expm1(-self.mu * u), 0.0)

    def sample(self, rng: np.random.Generator, size=None):
        if self.mu == 0:
            return np.full(() if size is None else size, np.inf)
        return rng.exponential(1.0 / self.mu, size)


@dataclass
class PathContext:
    """Everything a conditional payoff evaluation needs.

    list_schedule maps elapsed time to the posted list price; it must be
    non-increasing with values >= reservation, vectorized over numpy
    arrays.  Rates feeding the demand function are clamped below at
    RATE_FLOOR because the intensity is singular at zero.
    """

    path: RatePath
    list_schedule: Callable
    offers: UniformOffers
    withdrawals: ExponentialWithdrawals
    reservation: float
    demand: DemandParams

    def __post_init__(self):
        L0 = float(self.list_schedule(0.0))
        if not (L0 >= self.reservation > 0):
            raise ValueError(f"need L(0) >= reservation > 0, got L0={L0}, R={self.reservation}")

    @property
    def initial_list(self) -> float:
        return float(self.list_schedule(0.0))

    def intensity(self, a):
        r = np.maximum(self.path.rate_at(a), RATE_FLOOR)
        return self.demand.intensity(r, np.asarray(self.list_schedule(a), dtype=float))


def list_schedule(R: float, L0: float, zeta: float):
    """Posted-price trajectory L(T) = R + (L0 - R) * exp(-zeta*T).

    Starts at L0 and decays toward the reservation price; zeta == 0
    keeps the list constant at L0.
    """
    if L0 < R:
        raise ValueError("initial list must be at or above the reservation price")
    if zeta < 0:
        raise ValueError("zeta must be non-negative")

    def schedule(T):
        return R + (L0 - R) * np.exp(-zeta * np.asarray(T, dtype=float))

    return schedule


# The grids below depend on the horizon, the prices and mu, not on the
# rate path.  An evaluation reads one entry of each cache, and
# expected_payoff runs one horizon on every path before the next, so a
# few entries serve any number of paths.
@functools.lru_cache(maxsize=8)
def _arrivals(t: float, withdrawals: ExponentialWithdrawals, n: int) -> tuple:
    """The n Simpson nodes a on [0, t], their weights, the withdrawn share
    withdrawals.cdf(t - a), and the 2n - 1 point grid of the hazard."""
    a, w = simpson_nodes(0.0, t, n)
    grids = a, w, withdrawals.cdf(t - a), np.linspace(0.0, t, 2 * n - 1)
    for g in grids:
        g.flags.writeable = False
    return grids


@functools.lru_cache(maxsize=8)
def _y_grid(L0: float, breaks: tuple[float, ...], n: int) -> tuple:
    """[0, L0] cut at the breaks into panels of width >= 1e-12, for
    _best_standing_integral: the first panel's width; its left end, then
    the n Simpson nodes of each later panel; each later panel's weights.
    With no such panel (L0 < 1e-12), one of width 0 integrates to 0."""
    pts = sorted({0.0, *[min(max(b, 0.0), L0) for b in breaks], L0})
    panels = [(lo, hi) for lo, hi in zip(pts, pts[1:]) if hi - lo >= 1e-12]
    (lo, hi), *rest = panels or [(0.0, 0.0)]
    grids = [simpson_nodes(*p, n) for p in rest]
    y = np.concatenate([[lo], *(x for x, _ in grids)])
    weights = [w for _, w in grids]
    for g in (y, *weights):
        g.flags.writeable = False
    return hi - lo, y, *weights


def _a_grid(ctx: PathContext, t: float):
    """Arrival nodes a on [0, t], their Simpson weights w, the withdrawn
    share held = withdrawals.cdf(t - a), the offer intensity lam(a) and
    Lambda(t) = w @ lam.

    Every evaluation at a horizon t builds this grid first, so the
    horizon check lives here: t must be positive (NaN is rejected).
    """
    if not (t > 0):
        raise ValueError(f"t must be positive, got {t}")
    a, w, held, _ = _arrivals(float(t), ctx.withdrawals, DEFAULT_NODES)
    lam = np.asarray(ctx.intensity(a), dtype=float)
    big_lam = float(w @ lam)
    return a, w, held, lam, big_lam


def below_list_probability(ctx: PathContext, t: float) -> float:
    """Chance that a single offer arriving in [0, t] is below the list.

    Arrival times condition to density lam(a)/Lambda(t), so this is
    (1/Lambda) Int lam(a) F(L(a)) da.
    """
    a, w, _, lam, big_lam = _a_grid(ctx, t)
    if big_lam <= 0.0:
        raise ValueError("cumulative intensity is zero; probability undefined")
    p = float(w @ (lam * ctx.offers.cdf(ctx.list_schedule(a)))) / big_lam
    return min(max(p, 0.0), 1.0)


def surviving_offer_tail(ctx: PathContext, t: float, y):
    """Tail probability that one offer is in [R, L(arrival)), still
    standing at t, and worth more than y.

    Vectorized over y; identically zero for y >= L(0).
    """
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if not (np.isfinite(y_arr).all() and (y_arr >= 0).all()):
        raise ValueError("y must be finite and non-negative")
    a, w, held, lam, big_lam = _a_grid(ctx, t)
    if big_lam <= 0.0:
        raise ValueError("cumulative intensity is zero; probability undefined")
    F_L = np.asarray(ctx.offers.cdf(ctx.list_schedule(a)), dtype=float)
    out = np.where(y_arr >= ctx.initial_list, 0.0,
                   _offer_tail(ctx, w, held, lam, big_lam, F_L)(y_arr))
    return float(out[0]) if np.isscalar(y) or np.asarray(y).ndim == 0 else out


def _offer_tail(ctx: PathContext, w: np.ndarray, held: np.ndarray, lam: np.ndarray,
                big_lam: float, F_L: np.ndarray) -> Callable:
    """surviving_offer_tail as a function of a 1-D y array, on an arrival
    grid the caller has already built (big_lam > 0, y >= 0 unchecked).

    With F_L = F(L(a)) >= F(R) and f = F(max(R, y)), Lambda tail(y) sums
    c (F_L - f), c = lam (1 - held) w, over the nodes with F_L > f: on F
    sorted ascending, G[k] + (F[k] - f) S0[k] at k = searchsorted(F, f,
    "right"), S0 and G the suffix sums of c and (F[m+1] - F[m]) S0[m+1].
    No term is negative, so the tail is exactly non-increasing in y and
    within 32 eps of the band product (4 eps on Table 2 paths).
    """
    c = lam * (1.0 - held) * w
    order = np.argsort(F_L, kind="stable")
    F = np.concatenate((F_L[order], [1.0]))
    S0 = np.concatenate(([0.0], c[order][::-1])).cumsum()[::-1]
    G = np.concatenate(([0.0, 0.0], ((F[1:-1] - F[:-2]) * S0[1:-1])[::-1])).cumsum()[::-1]

    def tail(y_arr):
        f = ctx.offers.cdf(np.maximum(ctx.reservation, y_arr))
        k = F[:-1].searchsorted(f, side="right")
        return np.minimum((G[k] + (F[k] - f) * S0[k]) / big_lam, 1.0)

    return tail


def crossing_survival(ctx: PathContext, t: float, n: int) -> float:
    """Chance that none of n offers beat the list price at arrival.

    n == 0 goes through below_list_probability too (p**0 == 1.0), so
    every n checks the horizon.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return below_list_probability(ctx, t) ** n


def _best_standing_integral(L0: float, breaks: list[float], big_lam: float,
                            tail_fn: Callable, complement: bool = False) -> float:
    """Int_0^{L0} exp(-Lambda * tail(y)) dy with nodes pinned at the kinks.

    The tail is constant in y below the first break (the reservation
    price), so that panel is exact; the others get a Simpson grid each,
    all fed to one tail_fn call.  complement integrates 1 - exp(-Lambda
    tail(y)) instead, through expm1 so that small tails keep precision.
    """
    if complement:
        scalar_f, array_f = (lambda x: -math.expm1(x)), (lambda x: -np.expm1(x))
    else:
        scalar_f, array_f = math.exp, np.exp
    width, y, *weights = _y_grid(L0, tuple(breaks), DEFAULT_NODES)
    x = -big_lam * tail_fn(y)
    total = width * scalar_f(float(x[0]))
    for wy, row in zip(weights, x[1:].reshape(len(weights), DEFAULT_NODES)):
        total += float(wy @ array_f(row))
    return total


def _mean_above_list(ctx: PathContext, L_a: np.ndarray, F_L: np.ndarray) -> np.ndarray:
    """E[offer | offer >= L(a)] per arrival node.

    A list strictly above the offer support admits no crossing at all,
    so those arrival times contribute nothing (the inner integral over
    offer values vanishes).  A list exactly at the top of the support is
    an isolated boundary case and takes the continuous limit p_max;
    zeroing it instead would puncture the integrand and degrade the
    quadrature to first order.
    """
    out = np.where(L_a > ctx.offers.p_max, 0.0, ctx.offers.p_max)
    live = F_L < _SATURATED  # no list above p_max is live
    out[live] = ctx.offers.mean_above(L_a[live])
    return out


def _above_list_hazard(ctx: PathContext, t: float, beat: Callable) -> np.ndarray:
    """H(a) = Int_0^a lam(s) (1 - F(beat(s))) ds at the DEFAULT_NODES
    arrival nodes, beat(s) being the list an offer arriving at s must meet.

    Each gap between neighbouring nodes is one Simpson panel through its
    midpoint, so the running total is a Simpson quadrature as accurate
    as the payoff's own, not a trapezoid over the nodes.
    """
    s = _arrivals(float(t), ctx.withdrawals, DEFAULT_NODES)[3]
    h = (np.asarray(ctx.intensity(s), dtype=float)
         * (1.0 - np.asarray(ctx.offers.cdf(beat(s)), dtype=float)))
    panels = (h[:-2:2] + 4.0 * h[1:-1:2] + h[2::2]) * (s[1] - s[0]) / 3.0
    return np.concatenate(([0.0], np.cumsum(panels)))


def _changing_list(ctx: PathContext, t: float, exact: bool) -> float:
    """The one changing-list body; 0.0 when no offer can arrive by t.

    The above-list and below-list offers are independent thinned Poisson
    streams (marking theorem), so the no-crossing branch -- the chance
    exp(-Int lam (1 - F(L))) that the above-list stream stays empty,
    times the discounted best surviving in-band offer -- is exact.
    exact selects the crossing branch: the first-crossing density
    h(a) exp(-H(a)) with h(a) = lam(a) (1 - F(L(a))), or the published
    lam(a)/Lambda(t) spread scaled by the crossing chance.
    """
    a, w, held, lam, big_lam = _a_grid(ctx, t)
    if big_lam <= 0.0:
        return 0.0
    L_a = np.asarray(ctx.list_schedule(a), dtype=float)
    F_L = np.asarray(ctx.offers.cdf(L_a), dtype=float)
    phi = min(max(float(w @ (lam * F_L)) / big_lam, 0.0), 1.0)
    # a runs from 0 to t exactly: its ends give L(0), L(t) and disc(t);
    # ctx.intensity(a) in _a_grid has checked its span
    cum_a = np.asarray(ctx.path._cumulative(a), dtype=float)
    disc_t = math.exp(-float(cum_a[-1]))
    no_cross = math.exp(big_lam * (phi - 1.0))
    L0 = float(L_a[0])
    integral = _best_standing_integral(
        L0, [ctx.reservation, float(L_a[-1])], big_lam,
        _offer_tail(ctx, w, held, lam, big_lam, F_L))
    best_standing = disc_t * no_cross * (L0 - integral)

    disc_a = np.exp(-cum_a)
    mean_above = _mean_above_list(ctx, L_a, F_L)
    if exact:
        first_cross = lam * (1.0 - F_L) * np.exp(
            -_above_list_hazard(ctx, t, ctx.list_schedule))
        return best_standing + float(w @ (first_cross * disc_a * mean_above))
    crossing = (1.0 - no_cross) * float(w @ (lam * disc_a * mean_above)) / big_lam
    return best_standing + crossing


def conditional_payoff_changing_list(ctx: PathContext, t: float) -> float:
    """Expected discounted payoff at t under a time-varying list price,
    crossing branch as published.

    Two branches: no offer ever beat the list (the seller keeps the best
    surviving in-band offer at t), or some offer crossed and the sale
    happened at the first crossing.  The crossing branch is evaluated
    exactly as published, which spreads the first-crossing time with
    density lam(a)/Lambda(t) and scales it by the crossing chance; the
    simulated first crossing is front-loaded instead, so this value does
    not match simulation once crossings matter.  The validation report
    quantifies the signed gap; conditional_payoff_changing_list_exact is
    the variant that matches.
    """
    return _changing_list(ctx, t, exact=False)


def conditional_payoff_changing_list_exact(ctx: PathContext, t: float) -> float:
    """Expected discounted payoff at t under a time-varying list price,
    matching the simulated model.

    The no-crossing branch is the published one.  Offers beat the list
    at rate h(a) = lam(a) (1 - F(L(a))), so the first crossing has
    density h(a) exp(-H(a)) with H the running integral of h, and the
    crossing branch is Int_0^t h(a) exp(-H(a)) disc(a)
    E[offer | offer >= L(a)] da.  Under a flat list at or above p_max
    nothing crosses and this equals conditional_payoff_constant_list.
    """
    return _changing_list(ctx, t, exact=True)


def conditional_payoff_constant_list(ctx: PathContext, t: float) -> float:
    """Changing-list payoff specialized to a constant list price.

    Uses L = list_schedule(0); the below-list probability collapses to
    F(L) and the survivor tail factorizes into a value band times a
    not-withdrawn weight.  Offers beat L at rate lam(a) (1 - F(L)), so
    the first crossing has density lam(a) (1 - F(L)) exp(-H(a)) with H
    the running hazard of the flat list; a list at p_max or above admits
    no crossing.
    """
    a, w, held, lam, big_lam = _a_grid(ctx, t)
    if big_lam <= 0.0:
        return 0.0
    L = ctx.initial_list
    F_L = float(ctx.offers.cdf(np.array([L]))[0])
    standing_weight = 1.0 - float(w @ (lam * held)) / big_lam
    disc_t = math.exp(-float(ctx.path.cumulative_rate(t)))
    no_cross = math.exp(big_lam * (F_L - 1.0))

    def tail(y):
        band = (ctx.offers.cdf(np.maximum(L, y))
                - ctx.offers.cdf(np.maximum(ctx.reservation, y)))
        return band * standing_weight

    integral = _best_standing_integral(L, [ctx.reservation], big_lam, tail)
    best_standing = disc_t * no_cross * (L - integral)

    crossing = 0.0
    if F_L < _SATURATED:
        mean_above = _mean_above_list(ctx, np.array([L]), np.array([F_L]))[0]
        # ctx.intensity(a) in _a_grid has checked a's span
        disc_a = np.exp(-np.asarray(ctx.path._cumulative(a), dtype=float))
        survive = np.exp(-_above_list_hazard(ctx, t, lambda s: L))
        crossing = mean_above * (1.0 - F_L) * float(w @ (lam * survive * disc_a))
    return best_standing + crossing


def conditional_payoff_no_list(ctx: PathContext, t: float) -> float:
    """Expected discounted payoff at t when no list price is announced.

    The seller simply keeps the best offer above the reservation price
    that is still standing at t.
    """
    _, w, held, lam, big_lam = _a_grid(ctx, t)
    if big_lam <= 0.0:
        return 0.0
    standing_weight = 1.0 - float(w @ (lam * held)) / big_lam
    disc_t = math.exp(-float(ctx.path.cumulative_rate(t)))

    def tail(y):
        return (1.0 - ctx.offers.cdf(np.maximum(ctx.reservation, y))) * standing_weight

    # E[best] = Int_0^inf P(best > y) dy, and P(best > y) vanishes beyond
    # the offer support, so the integral stops at p_max
    return disc_t * _best_standing_integral(ctx.offers.p_max, [ctx.reservation],
                                            big_lam, tail, complement=True)


_MODES = {
    "changing": conditional_payoff_changing_list,
    "constant": conditional_payoff_constant_list,
    "none": conditional_payoff_no_list,
}


def conditional_payoff(ctx: PathContext, t: float, mode: str) -> float:
    """Dispatch to the changing/constant/no-list conditional payoff."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {sorted(_MODES)}, got {mode!r}")
    return _MODES[mode](ctx, t)


def expected_payoff(ctx_factory: Callable[[RatePath], PathContext],
                    cir: CirParams, times, n_paths: int, seed: int,
                    mode: str = "changing",
                    dt: float = None) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo mean of a conditional payoff over independent rate
    paths, at every horizon of the 1-D grid times.

    ctx_factory builds the evaluation context for each simulated path.
    Each replication simulates one path, to the largest horizon, and
    each horizon is evaluated on every path in turn: a shorter path is
    an exact prefix of a longer one from the same substream, so a
    horizon's value does not depend on the rest of the grid.  Returns
    (means, standard errors), one entry per horizon; path i is drawn
    from its own substream of the seed, so adding paths never changes
    earlier ones.  A single path reports path 0 with standard error 0.0.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {sorted(_MODES)}, got {mode!r}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D grid of horizons")
    dt = DEFAULT_DT if dt is None else dt
    conditional = _MODES[mode]

    # row k holds horizon k's path values, contiguous for the reductions;
    # one horizon runs on every path before the next, so it reuses grids
    vals = np.empty((times.size, n_paths))
    if times.size:
        horizon = max(float(times.max()), dt)
        ctxs = [ctx_factory(simulate_cir(cir, horizon, dt, substream(seed, "payoff-path", i)))
                for i in range(n_paths)]
        for k, t in enumerate(times):
            vals[k] = [conditional(ctx, t) for ctx in ctxs]
    means = np.array([np.mean(v) for v in vals])
    if n_paths == 1:
        return means, np.zeros(times.size)
    stderrs = np.array([np.std(v, ddof=1) / math.sqrt(n_paths) for v in vals])
    return means, stderrs
