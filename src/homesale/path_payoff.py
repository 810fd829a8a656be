"""Expected discounted payoffs along a realized rate path.

The offer stream is a non-homogeneous Poisson process whose intensity is
driven by the rate path and the list price.  A PathContext holds the
list as data, (list_price, zeta): it starts at list_price and decays
toward the reservation price at rate zeta, so it never rises.  The three
conditional payoff evaluations cover a decaying list price, a constant
list price, and no list price at all; each integrates the published
probability structure with nested composite Simpson rules.
Expectations over random rate paths are plain Monte Carlo averages of
the conditional values.

The published crossing branch spreads the first list crossing with
density lam(a)/Lambda(t), which the simulated model does not: there the
first above-list offer is front-loaded.  The no-list payoff has no
crossing branch and is exact.  conditional_payoff_changing_list_exact
and conditional_payoff_constant_list (zeta == 0 only) integrate the true
first-crossing density.  The changing-list one matches simulation while
the DEFAULT_NODES grid on [0, t] resolves the list, that is while zeta*t
is small: every pinned context has zeta*t <= 2, but at zeta = 20, t = 20
it reads 166.26 against a simulated 171.33 (z = -96.8; ROADMAP item 7).

A batch is one context and its rate paths.  Each mode has one body,
which evaluates one horizon on a batch: what depends on the horizon
alone (the list, F(L(a)) and its sort order, the Simpson grids, the y
grid and its searchsorted indices) is computed once, and the rate-driven
parts are (paths x nodes) arrays reduced row by row.  A path's value is
the same to the bit in any batch; the one-context public functions are
the one-path case.  Every Simpson grid has DEFAULT_NODES nodes, read
when an evaluation runs; simpson_nodes builds the arrival grid and the
best-standing panels.  The changing-list survivor tail sorts F(L(a)) and
reads each y off suffix sums: O(n log n), within 32 eps of the O(n^2)
(y, a) band product.  Withdrawals follow one law,
ExponentialWithdrawals(mu); mu == 0 means offers never retract.

The rate integral inside the discount factor uses the path's native
grid (trapezoid), so conditional values carry an O(dt^2) path
discretization error on top of the quadrature error.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .stochastic import (DEFAULT_DT, CirParams, DemandParams, RatePath,
                         simulate_cir, substream)

__all__ = [
    "UniformOffers",
    "ExponentialWithdrawals",
    "PathContext",
    "conditional_payoff_changing_list",
    "conditional_payoff_changing_list_exact",
    "conditional_payoff_constant_list",
    "conditional_payoff_no_list",
    "conditional_payoff",
    "expected_payoff",
    "simpson_nodes",
]

DEFAULT_NODES = 201

# Treat F(L) this close to one as "no offer can beat the list here".
_SATURATED = 1.0 - 1e-12


def simpson_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Simpson rule on [a, b].

    n must be odd and >= 3 so the panel count is whole.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd node count >= 3, got {n}")
    if not (np.isfinite(a) and np.isfinite(b)) or b < a:
        raise ValueError(f"bad interval [{a}, {b}]")
    x = np.linspace(a, b, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (b - a) / (n - 1) / 3.0
    return x, w


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

    def from_unit(self, u):
        """numpy's uniform(p_min, p_max) on the unit draws u, bit for bit:
        p_min + (p_max - p_min) * u.  An array u is scaled in place."""
        u *= self.p_max - self.p_min
        u += self.p_min
        return u

    def sample(self, rng: np.random.Generator, size=None):
        return self.from_unit(rng.random(size))


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
        # numpy's exponential(1/mu, size) bit for bit, through the fill kernel
        return rng.standard_exponential(size) * (1.0 / self.mu)


@dataclass(frozen=True)
class PathContext:
    """Everything a conditional payoff evaluation needs.

    The list price starts at list_price (L0) and decays toward the
    reservation price R at rate zeta: list_at(T) = R + (L0 - R)
    exp(-zeta T), so it never rises and never falls below R, and zeta ==
    0 keeps it at L0.  Both are checked here: a finite L0 >= R > 0 and a
    finite zeta >= 0.  The demand clamps the rates it reads below at
    RATE_FLOOR, because the intensity is singular at zero.
    """

    path: RatePath
    list_price: float
    zeta: float
    offers: UniformOffers
    withdrawals: ExponentialWithdrawals
    reservation: float
    demand: DemandParams

    def __post_init__(self):
        L0, R = self.list_price, self.reservation
        if not (math.isfinite(L0) and L0 >= R > 0):
            raise ValueError(f"need finite list_price >= reservation > 0, got L0={L0}, R={R}")
        if not (math.isfinite(self.zeta) and self.zeta >= 0):
            raise ValueError(f"zeta must be finite and non-negative, got {self.zeta}")

    def list_at(self, T):
        """The posted list price T after posting, vectorized over T."""
        R = self.reservation
        return R + (self.list_price - R) * np.exp(-self.zeta * np.asarray(T, dtype=float))

    def intensity(self, a):
        return self.demand.intensity(self.path.rate_at(a), self.list_at(a))


# What the contexts of one expected_payoff chunk must share: all but the path.
_SHARED = operator.attrgetter(*(f.name for f in fields(PathContext) if f.name != "path"))


@dataclass(frozen=True)
class _Arrivals:
    """One horizon's arrival grid on a batch of rate paths.

    ctx carries everything the batch shares; its own path is not read.
    The Simpson nodes a on [0, t], their weights w and the withdrawn
    share held = withdrawals.cdf(t - a) depend on the horizon only.
    lam(a) and Lambda(t) = w @ lam hold one row (entry) per live path, a
    path on which some offer can arrive by t; live marks them in batch
    order and paths lists them.
    """

    t: float
    ctx: PathContext
    paths: list
    a: np.ndarray
    w: np.ndarray
    held: np.ndarray
    lam: np.ndarray
    big_lam: np.ndarray
    live: np.ndarray

    def cumulative(self, x) -> np.ndarray:
        """The integrated rate at the times x in [0, t], one row per live
        path; _arrivals has checked that every path spans [0, t]."""
        return np.array([p._cumulative(x) for p in self.paths])


def _arrivals(ctx: PathContext, paths: list, t: float) -> _Arrivals:
    """The arrival grid of horizon t on the rate paths under ctx.  Every
    evaluation builds it first, so the checks live here: t must be
    positive (NaN is rejected) and every path must span [0, t]."""
    if not (t > 0):
        raise ValueError(f"t must be positive, got {t}")
    t = float(t)
    for p in paths:
        p._check_ends(0.0, t)
    a, w = simpson_nodes(0.0, t, DEFAULT_NODES)
    lam = ctx.demand.intensity(np.array([p._rate(a) for p in paths]), ctx.list_at(a))
    big_lam = np.array([float(w @ row) for row in lam])
    live = big_lam > 0.0
    return _Arrivals(t, ctx, [p for p, keep in zip(paths, live) if keep], a, w,
                     ctx.withdrawals.cdf(t - a), lam[live], big_lam[live], live)


def _evaluate(body: Callable, ctx: PathContext, paths: list, t: float, **kw) -> np.ndarray:
    """The values at horizon t on the rate paths, in batch order: body(arr,
    **kw) gives the live paths' values on the arrival grid arr, and a
    path on which no offer can arrive by t pays 0.0."""
    arr = _arrivals(ctx, paths, t)
    out = np.zeros(len(paths))
    if arr.paths:
        out[arr.live] = body(arr, **kw)
    return out


def _arrival_mean(arr: _Arrivals, x: np.ndarray) -> np.ndarray:
    """The mean of x(a) over one offer's arrival time in [0, t], density
    lam/Lambda: (1/Lambda) Int lam(a) x(a) da per live path."""
    return np.array([float(arr.w @ row) for row in arr.lam * x]) / arr.big_lam


def _offer_tail(arr: _Arrivals, F_L: np.ndarray) -> Callable:
    """The chance that one offer is in [R, L(arrival)), stands at t and is
    worth more than y, for a 1-D y array (y >= 0 unchecked), one row per
    live path.

    With F_L = F(L(a)) >= F(R) and f = F(max(R, y)), Lambda tail(y) sums
    c (F_L - f), c = lam (1 - held) w, over the nodes with F_L > f: on F
    sorted ascending, G[k] + (F[k] - f) S0[k] at k = searchsorted(F, f,
    "right"), S0 and G the suffix sums of c and (F[m+1] - F[m]) S0[m+1].
    F_L, its order and k depend on the horizon only; a cumulative sum
    along a row adds in the same order as on a 1-D array.  No term is
    negative, so the tail is exactly non-increasing in y and within 32
    eps of the band product (4 eps on Table 2 paths).
    """
    ctx = arr.ctx
    c = arr.lam * (1.0 - arr.held) * arr.w
    order = np.argsort(F_L, kind="stable")
    F = np.concatenate((F_L[order], [1.0]))
    zero = np.zeros((len(c), 1))
    S0 = np.concatenate((zero, c[:, order][:, ::-1]), axis=1).cumsum(axis=1)[:, ::-1]
    G = np.concatenate((zero, zero, ((F[1:-1] - F[:-2]) * S0[:, 1:-1])[:, ::-1]),
                       axis=1).cumsum(axis=1)[:, ::-1]

    def tail(y_arr):
        f = ctx.offers.cdf(np.maximum(ctx.reservation, y_arr))
        k = F[:-1].searchsorted(f, side="right")
        return np.minimum((G[:, k] + (F[k] - f) * S0[:, k]) / arr.big_lam[:, None], 1.0)

    return tail


def _best_standing_integral(L0: float, breaks: list[float], big_lam: np.ndarray,
                            tail_fn: Callable, complement: bool = False) -> list[float]:
    """Int_0^{L0} exp(-Lambda * tail(y)) dy with nodes pinned at the kinks,
    per live path: tail_fn maps the y grid to one row per path.

    [0, L0] is cut at the breaks into panels of width >= 1e-12.  The
    tail is constant in y below the first break (the reservation price),
    so that panel is exact (one of width 0 when L0 < 1e-12); the others
    get a Simpson grid each, all fed to one tail_fn call.  complement
    integrates 1 - exp(-Lambda tail(y)) instead, through expm1 so that
    small tails keep precision.
    """
    if complement:
        scalar_f, array_f = (lambda x: -math.expm1(x)), (lambda x: -np.expm1(x))
    else:
        scalar_f, array_f = math.exp, np.exp
    pts = sorted({0.0, *[min(max(b, 0.0), L0) for b in breaks], L0})
    panels = [(lo, hi) for lo, hi in zip(pts, pts[1:]) if hi - lo >= 1e-12]
    (lo, hi), *rest = panels or [(0.0, 0.0)]
    grids = [simpson_nodes(*p, DEFAULT_NODES) for p in rest]
    x = -big_lam[:, None] * tail_fn(np.concatenate([[lo], *(y for y, _ in grids)]))
    # one C-ordered row per path: a dot over a strided row sums in
    # another order than over a contiguous one
    x = np.ascontiguousarray(x)
    totals = []
    for x0, row in zip(x[:, 0], array_f(x[:, 1:])):
        total = (hi - lo) * scalar_f(float(x0))
        for (_, wy), panel in zip(grids, row.reshape(len(grids), DEFAULT_NODES)):
            total += float(wy @ panel)
        totals.append(total)
    return totals


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


def _above_list_hazard(arr: _Arrivals, beat: Callable) -> np.ndarray:
    """H(a) = Int_0^a lam(s) (1 - F(beat(s))) ds at the DEFAULT_NODES
    arrival nodes, one row per live path, beat(s) being the list an offer
    arriving at s must meet.

    Each gap between neighbouring nodes is one Simpson panel through its
    midpoint, so the running total is a Simpson quadrature as accurate
    as the payoff's own, not a trapezoid over the nodes.
    """
    ctx = arr.ctx
    s = np.linspace(0.0, arr.t, 2 * DEFAULT_NODES - 1)
    lam = ctx.demand.intensity(np.array([p._rate(s) for p in arr.paths]),
                               ctx.list_at(s))
    h = lam * (1.0 - ctx.offers.cdf(beat(s)))
    panels = (h[:, :-2:2] + 4.0 * h[:, 1:-1:2] + h[:, 2::2]) * (s[1] - s[0]) / 3.0
    return np.concatenate((np.zeros((len(h), 1)), np.cumsum(panels, axis=1)), axis=1)


def _changing_list(arr: _Arrivals, exact: bool) -> list[float]:
    """The one changing-list body: the live paths' values on arr.

    The above-list and below-list offers are independent thinned Poisson
    streams (marking theorem), so the no-crossing branch -- the chance
    exp(-Int lam (1 - F(L))) that the above-list stream stays empty,
    times the discounted best surviving in-band offer -- is exact.
    exact selects the crossing branch: the first-crossing density
    h(a) exp(-H(a)) with h(a) = lam(a) (1 - F(L(a))), or the published
    lam(a)/Lambda(t) spread scaled by the crossing chance.

    The list and everything it fixes are computed once; the rate-driven
    parts are (paths x nodes) arrays, and every per-path scalar is a 1-D
    dot or a float expression in the order of a one-path evaluation.
    """
    ctx, w, lam = arr.ctx, arr.w, arr.lam
    L_a = ctx.list_at(arr.a)
    F_L = ctx.offers.cdf(L_a)
    # a runs from 0 to t exactly: its ends give L(0), L(t) and disc(t)
    cum_a = arr.cumulative(arr.a)
    L0 = float(L_a[0])
    integrals = _best_standing_integral(L0, [ctx.reservation, float(L_a[-1])],
                                        arr.big_lam, _offer_tail(arr, F_L))
    disc_a = np.exp(-cum_a)
    mean_above = _mean_above_list(ctx, L_a, F_L)
    if exact:
        first_cross = lam * (1.0 - F_L) * np.exp(-_above_list_hazard(arr, ctx.list_at))
        crossing = first_cross * disc_a * mean_above
    else:
        crossing = lam * disc_a * mean_above
    below = np.clip(_arrival_mean(arr, F_L), 0.0, 1.0)  # the chance an offer is below L
    vals = []
    for bl, phi, cum_t, integral, row in zip(arr.big_lam, below, cum_a[:, -1], integrals,
                                             crossing):
        no_cross = math.exp(bl * (phi - 1.0))
        best_standing = math.exp(-float(cum_t)) * no_cross * (L0 - integral)
        if exact:
            vals.append(best_standing + float(w @ row))
        else:
            vals.append(best_standing + (1.0 - no_cross) * float(w @ row) / bl)
    return vals


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
    return float(_evaluate(_changing_list, ctx, [ctx.path], t, exact=False)[0])


def conditional_payoff_changing_list_exact(ctx: PathContext, t: float) -> float:
    """Expected discounted payoff at t under a time-varying list price,
    matching the simulated model.

    The no-crossing branch is the published one.  Offers beat the list
    at rate h(a) = lam(a) (1 - F(L(a))), so the first crossing has
    density h(a) exp(-H(a)) with H the running integral of h, and the
    crossing branch is Int_0^t h(a) exp(-H(a)) disc(a)
    E[offer | offer >= L(a)] da.  Under a flat list at or above p_max
    nothing crosses and this equals conditional_payoff_constant_list.
    The match is measured while zeta*t is small (<= 2 in every pinned
    context): the DEFAULT_NODES grid under-resolves a list that decays
    much faster than t/200, e.g. 166.26 against a simulated 171.33 at
    zeta = 20, t = 20 (ROADMAP item 7).
    """
    return float(_evaluate(_changing_list, ctx, [ctx.path], t, exact=True)[0])


def _constant_list(arr: _Arrivals) -> list[float]:
    """The constant-list body: the live paths' values on arr; see
    conditional_payoff_constant_list."""
    ctx, w = arr.ctx, arr.w
    L = ctx.list_price
    F_L = float(ctx.offers.cdf(np.array([L]))[0])
    standing = 1.0 - _arrival_mean(arr, arr.held)

    def tail(y):
        band = (ctx.offers.cdf(np.maximum(L, y))
                - ctx.offers.cdf(np.maximum(ctx.reservation, y)))
        return band * standing[:, None]

    integrals = _best_standing_integral(L, [ctx.reservation], arr.big_lam, tail)
    crossing = [0.0] * len(arr.paths)
    if F_L < _SATURATED:
        mean_above = _mean_above_list(ctx, np.array([L]), np.array([F_L]))[0]
        disc_a = np.exp(-arr.cumulative(arr.a))
        survive = np.exp(-_above_list_hazard(arr, lambda s: L))
        crossing = [mean_above * (1.0 - F_L) * float(w @ row)
                    for row in arr.lam * survive * disc_a]
    vals = []
    for bl, cum_t, integral, cross in zip(arr.big_lam, arr.cumulative(arr.t), integrals,
                                          crossing):
        no_cross = math.exp(bl * (F_L - 1.0))
        vals.append(math.exp(-float(cum_t)) * no_cross * (L - integral) + cross)
    return vals


def _evaluate_constant(ctx: PathContext, paths: list, t: float) -> np.ndarray:
    """_evaluate on _constant_list; zeta != 0 raises after the horizon check."""
    if t > 0 and ctx.zeta != 0:
        raise ValueError(f"the constant-list payoff needs zeta == 0, got zeta={ctx.zeta}")
    return _evaluate(_constant_list, ctx, paths, t)


def conditional_payoff_constant_list(ctx: PathContext, t: float) -> float:
    """Changing-list payoff specialized to a constant list price.

    Uses L = list_price, so zeta must be 0 (ValueError otherwise, offers
    or none); the below-list probability collapses to F(L) and the
    survivor tail factorizes into a value band times a not-withdrawn
    weight.  Offers beat L at rate lam(a) (1 - F(L)), so the first
    crossing has density lam(a) (1 - F(L)) exp(-H(a)) with H the running
    hazard of the flat list; a list at p_max or above admits no crossing.
    """
    return float(_evaluate_constant(ctx, [ctx.path], t)[0])


def _no_list(arr: _Arrivals) -> list[float]:
    """The no-list body: the live paths' values on arr; see
    conditional_payoff_no_list."""
    ctx = arr.ctx
    standing = 1.0 - _arrival_mean(arr, arr.held)

    def tail(y):
        return (1.0 - ctx.offers.cdf(np.maximum(ctx.reservation, y))) * standing[:, None]

    # E[best] = Int_0^inf P(best > y) dy, and P(best > y) vanishes beyond
    # the offer support, so the integral stops at p_max
    integrals = _best_standing_integral(ctx.offers.p_max, [ctx.reservation],
                                        arr.big_lam, tail, complement=True)
    return [math.exp(-float(cum_t)) * integral
            for cum_t, integral in zip(arr.cumulative(arr.t), integrals)]


def conditional_payoff_no_list(ctx: PathContext, t: float) -> float:
    """Expected discounted payoff at t when no list price is announced.

    The seller simply keeps the best offer above the reservation price
    that is still standing at t.
    """
    return float(_evaluate(_no_list, ctx, [ctx.path], t)[0])


# mode -> batch evaluation: each takes (ctx, paths, t) and returns an array
_MODES = {
    "changing": functools.partial(_evaluate, _changing_list, exact=False),
    "constant": _evaluate_constant,
    "none": functools.partial(_evaluate, _no_list),
}

# Paths simulated and evaluated together: the paths held and one
# horizon's batch arrays have at most this many rows, whatever n_paths is.
_CHUNK = 256


def _mode_body(mode: str):
    """The _MODES entry of mode; ValueError for an unknown mode."""
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {sorted(_MODES)}, got {mode!r}")
    return _MODES[mode]


def conditional_payoff(ctx: PathContext, t: float, mode: str) -> float:
    """Dispatch to the changing/constant/no-list conditional payoff."""
    return float(_mode_body(mode)(ctx, [ctx.path], t)[0])


def expected_payoff(ctx_factory: Callable[[RatePath], PathContext],
                    cir: CirParams, times, n_paths: int, seed: int,
                    mode: str = "changing",
                    dt: float = DEFAULT_DT) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo mean of a conditional payoff over independent rate
    paths, at every horizon of the 1-D grid times.

    ctx_factory builds the evaluation context for each simulated path;
    the contexts must differ only in path (ValueError otherwise).  Each
    replication simulates one path, to the largest horizon: a shorter
    path is an exact prefix of a longer one from the same substream, so
    a horizon's value does not depend on the rest of the grid.  The
    paths are simulated _CHUNK at a time, and each horizon is evaluated
    in one batch of a chunk's first context and its paths, every path's
    value bit for bit its one-path conditional payoff; so only the
    (horizons x paths) values grow with n_paths.  Returns
    (means, standard errors), one entry per horizon; path i is drawn
    from its own substream of the seed, so adding paths never changes
    earlier ones.  A single path reports path 0 with standard error 0.0.
    """
    body = _mode_body(mode)
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D grid of horizons")

    # row k holds horizon k's path values, contiguous for the reductions
    vals = np.empty((times.size, n_paths))
    if times.size:
        horizon = max(float(times.max()), dt)
        for lo in range(0, n_paths, _CHUNK):
            ctxs = [ctx_factory(simulate_cir(cir, horizon, dt,
                                             substream(seed, "payoff-path", i)))
                    for i in range(lo, min(lo + _CHUNK, n_paths))]
            if lo == 0:
                shared = _SHARED(ctxs[0])
            if any(_SHARED(c) != shared for c in ctxs):
                raise ValueError("the contexts of one batch must differ only in path")
            paths = [c.path for c in ctxs]
            for k, t in enumerate(times):
                vals[k, lo:lo + _CHUNK] = body(ctxs[0], paths, t)
    means = np.array([np.mean(v) for v in vals])
    if n_paths == 1:
        return means, np.zeros(times.size)
    stderrs = np.array([np.std(v, ddof=1) / math.sqrt(n_paths) for v in vals])
    return means, stderrs
