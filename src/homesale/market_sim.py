"""Multi-owner price evolution of a single asset.

Each tenure runs occupation -> posting trigger (personal crisis or a
rate-threshold profit opportunity) -> waiting-time optimization -> sale
attempt -> price update, over one realized rate path.  Sale attempts
collect offers from the demand-driven Poisson stream, sell immediately
on a list-price crossing, and otherwise take the best surviving offer
above the reservation price when the committed waiting time runs out.

EvolutionConfig checks every input once, when it is built; past that
point the simulator carries plain floats (an owner is its occupation end
and crisis time, an offer an (arrival, value, withdrawal delay) tuple)
and re-checks none of them.

Evolutions are sequential by nature (each event depends on the last),
but every random draw comes from a substream keyed by logical indices,
so logs are reproducible bit for bit regardless of how surrounding code
schedules work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .closed_form import MarketParams, _require_finite, expected_utility
from .owt import DEFAULT_T_MAX, DEFAULT_TOL, OwtResult, optimal_waiting_time
from .path_payoff import ExponentialWithdrawals, PathContext, UniformOffers
# sample_nhpp is not called here; the benchmark tracer wraps market_sim.sample_nhpp
from .stochastic import (RATE_FLOOR, CirParams, DemandParams, RatePath, _thin,
                         _thinning_candidates, demand_intensity, sample_nhpp,
                         simulate_cir, substream)

__all__ = [
    "SaleOutcome",
    "SaleAttempt",
    "Event",
    "EvolutionLog",
    "EvolutionConfig",
    "PricePoint",
    "draw_occupation",
    "draw_crisis",
    "time_to_posting",
    "compute_owt_frozen",
    "run_sale_attempt",
    "update_prices",
    "run_evolution",
    "expected_price_curve",
]

@dataclass(frozen=True)
class SaleOutcome:
    """Resolution of one attempt.  time is the offset from posting: the
    offer's arrival for a sale at the list price or better, t_star for
    the end-of-waiting-time auction; price and time are NaN for no sale.
    """

    sold: bool
    price: float = math.nan
    time: float = math.nan


@dataclass
class SaleAttempt:
    """The offers that arrived by the resolution time, each an (arrival,
    value, withdrawal delay) tuple with arrival the offset from posting,
    and how the attempt ended."""

    offers: list[tuple[float, float, float]]
    outcome: SaleOutcome


@dataclass
class Event:
    time: float
    kind: str
    price: float = math.nan
    rate: float = math.nan
    demand: float = math.nan
    owner: int = -1
    attempt: int = -1


@dataclass
class EvolutionLog:
    """Time-ordered event record plus the realized rate path."""

    events: list[Event]
    path: RatePath

    def to_event_lines(self) -> list[str]:
        """Canonical line-per-event text for golden-file diffing."""
        out = []
        for e in self.events:
            out.append(
                f"t={e.time:.17g} event={e.kind} price={e.price:.17g} "
                f"rate={e.rate:.17g} demand={e.demand:.17g} "
                f"owner={e.owner} attempt={e.attempt}")
        return out


def draw_occupation(rng: np.random.Generator, lo: float = 4.0, hi: float = 6.0) -> float:
    """Years an owner lives in the house before considering a sale."""
    return float(rng.uniform(lo, hi))


def draw_crisis(rng: np.random.Generator, mean: float = 10.0) -> float:
    """Waiting time until a personal crisis forces a sale (mean in years)."""
    return float(rng.exponential(mean))


def time_to_posting(occupation_end: float, crisis_time: float, path: RatePath,
                    threshold: float, search_end: float) -> tuple[float, str | None]:
    """First moment the asset goes on the market, as (time, cause).

    occupation_end and crisis_time are absolute times on the path's
    clock.  The owner posts at the crisis time (cause "crisis"), or at
    the first grid time at or after the occupation end where the rate is
    at or below the threshold (cause "profit"), whichever comes first.
    If neither happens by search_end (capped at the path horizon) the
    tenure stays open: the result is (that end, None).
    """
    end = min(search_end, path.horizon)
    profit_time = math.inf
    start_idx = int(math.ceil(occupation_end / path.dt - 1e-9))
    if start_idx < path.values.size:
        window = path.values[start_idx:]
        hits = np.nonzero(window <= threshold)[0]
        if hits.size:
            cand = (start_idx + int(hits[0])) * path.dt
            if cand <= end:
                profit_time = cand
    crisis_time = crisis_time if crisis_time <= end else math.inf
    t = min(crisis_time, profit_time)
    if not math.isfinite(t):
        return end, None
    return t, "crisis" if crisis_time <= profit_time else "profit"


# A batch of sale attempts closes once its candidate offers reach this
# count.  It keeps memory bounded when the thinning bound is loose: a rate
# path at RATE_FLOOR thins against about 5,000 offers a year.  On the
# reference scenario 750 attempts at one posting time draw about 1,600
# candidates, so each posting time runs as one batch.
_CHUNK_CANDIDATES = 1 << 13


class _Batch(NamedTuple):
    """Sale attempts run together: the accepted offers of all of them,
    ordered by (rep, arrival) with rep the attempt's index in the batch,
    and one outcome per attempt (price and time NaN where no sale)."""

    rep: np.ndarray
    arrival: np.ndarray
    value: np.ndarray
    delay: np.ndarray
    sold: np.ndarray
    price: np.ndarray
    time: np.ndarray


def _sale_rule(rep: np.ndarray, arrival: np.ndarray, value: np.ndarray,
               delay: np.ndarray, n: int, listed: np.ndarray, R: float,
               t_star: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sold, price, time) for n attempts from their offers, ordered by
    (rep, arrival), with listed the list price at each offer's arrival.

    Immediate sale at an attempt's first offer whose value meets the list
    price at its arrival; otherwise, at t_star, its best offer above R
    that has not been withdrawn; otherwise no sale.
    """
    price = np.full(n, math.nan)
    time = np.full(n, math.nan)
    alive = (value >= R) & (delay >= t_star - arrival)
    best = np.full(n, -math.inf)
    np.maximum.at(best, rep[alive], value[alive])
    sold = best >= R
    price[sold] = best[sold]
    time[sold] = t_star
    # a crossing overrides the deadline auction; the first one per rep wins
    cross = np.flatnonzero(value >= listed)
    rc = rep[cross]
    leads = np.ones(rc.size, dtype=bool)
    leads[1:] = rc[1:] != rc[:-1]
    first = cross[leads]
    won = rep[first]
    sold[won] = True
    price[won] = value[first]
    time[won] = arrival[first]
    return sold, price, time


def _sale_attempts(ctx: PathContext, t_star: float, rngs):
    """Run one sale attempt per generator of rngs and yield them in
    batches of about _CHUNK_CANDIDATES candidate offers.

    Each generator draws, in order: the thinning candidates and their
    acceptance uniforms, then one offer value and one withdrawal delay
    per candidate.  The intensity, its domination check and the sale
    rule then run once per batch, so an attempt's outcome depends only
    on its own generator, never on the batch it falls in.
    """
    if not (t_star > 0):
        raise ValueError("t_star must be positive")
    # the rate is linear between the path's nodes and the list only falls
    r_min = max(float(ctx.path.values.min()), RATE_FLOOR)
    bound = float(ctx.demand.intensity(r_min, float(ctx.list_at(t_star))))
    draws, n_cand = [], 0
    for rng in rngs:
        cands, u = _thinning_candidates(rng, t_star, bound)
        draws.append((cands, u, ctx.offers.sample(rng, cands.size),
                      ctx.withdrawals.sample(rng, cands.size)))
        n_cand += cands.size
        if n_cand >= _CHUNK_CANDIDATES:
            yield _resolve(ctx, t_star, bound, draws)
            draws, n_cand = [], 0
    if draws:
        yield _resolve(ctx, t_star, bound, draws)


def _resolve(ctx: PathContext, t_star: float, bound: float, draws: list) -> _Batch:
    cands, u, value, delay = (np.concatenate(col) for col in zip(*draws))
    rep = np.repeat(np.arange(len(draws)), [d[0].size for d in draws])
    keep = _thin(np.asarray(ctx.intensity(cands), dtype=float), cands, u, bound)
    rep, arrival, value, delay = rep[keep], cands[keep], value[keep], delay[keep]
    sold, price, time = _sale_rule(rep, arrival, value, delay, len(draws),
                                   ctx.list_at(arrival), ctx.reservation, t_star)
    return _Batch(rep, arrival, value, delay, sold, price, time)


def run_sale_attempt(ctx: PathContext, t_star: float,
                     rng: np.random.Generator) -> SaleAttempt:
    """One sale attempt on a local context whose clock starts at posting,
    at the context's reservation price.

    Offers arrive over the whole committed window [0, t_star], thinned
    from a Poisson stream at k1/max(min r on ctx.path's nodes, RATE_FLOOR)
    + k2/L(t_star), which dominates the demand because the rate is
    linear between nodes and the list price only falls.  The stored
    offer list is truncated at the resolution time so the log never
    contains arrivals after the sale.
    """
    (b,) = _sale_attempts(ctx, t_star, [rng])
    if b.sold[0]:
        outcome = SaleOutcome(True, float(b.price[0]), float(b.time[0]))
    else:
        outcome = SaleOutcome(False)
    kept = b.arrival <= (outcome.time if outcome.sold else t_star)
    offers = list(zip(b.arrival[kept].tolist(), b.value[kept].tolist(),
                      b.delay[kept].tolist()))
    return SaleAttempt(offers, outcome)


def update_prices(reservation: float, attempt: SaleAttempt, p_min: float,
                  p_max: float) -> tuple[float, float]:
    """Next-period (reservation, initial list).

    A sale hands the asset over at the agreed price, and the new owner
    would relist from the top of the offer support.  A failed attempt
    splits the difference toward p_min and relists at the old
    reservation price.
    """
    if attempt.outcome.sold:
        return attempt.outcome.price, p_max
    return (reservation + p_min) / 2.0, reservation


@dataclass(frozen=True)
class EvolutionConfig:
    """Everything a long-horizon evolution run needs, checked once here.

    Every float field must be finite.  The prices must satisfy 0 < p_min
    <= initial_reservation <= initial_list <= p_max; every later state
    keeps that order: a sale price lies in [R, p_max], a reprice
    (R + p_min)/2 stays at or above p_min, and a relist happens at the
    old R <= p_max.  Also 0 < occupation_lo <= occupation_hi; crisis_mean,
    rate_threshold, dt, t_max and tol are positive; mu, gamma and zeta
    are non-negative.
    """

    cir: CirParams
    demand: DemandParams
    mu: float = 10.0
    gamma: float = 0.8
    zeta: float = 1.0
    p_min: float = 100.0
    p_max: float = 200.0
    initial_reservation: float = 140.0
    initial_list: float = 200.0
    occupation_lo: float = 4.0
    occupation_hi: float = 6.0
    crisis_mean: float = 10.0
    rate_threshold: float = 0.06
    dt: float = 1.0 / 252.0
    t_max: float = DEFAULT_T_MAX
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        # annotations are strings here (from __future__ import annotations)
        _require_finite(**{f.name: getattr(self, f.name) for f in fields(self)
                           if f.type == "float"})
        if not (0 < self.p_min <= self.initial_reservation <= self.initial_list
                <= self.p_max):
            raise ValueError(
                "need 0 < p_min <= initial_reservation <= initial_list <= p_max, got "
                f"p_min={self.p_min}, initial_reservation={self.initial_reservation}, "
                f"initial_list={self.initial_list}, p_max={self.p_max}")
        if not (0 < self.occupation_lo <= self.occupation_hi):
            raise ValueError(
                "need 0 < occupation_lo <= occupation_hi, got "
                f"occupation_lo={self.occupation_lo}, occupation_hi={self.occupation_hi}")
        for name in ("crisis_mean", "rate_threshold", "dt", "t_max", "tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("mu", "gamma", "zeta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


def compute_owt_frozen(cfg: EvolutionConfig, rate: float, reservation: float,
                       initial_list: float) -> OwtResult:
    """Waiting time committed at posting, under frozen market conditions.

    The seller freezes the rate at its posting-time value and the offer
    intensity at the demand evaluated for the initial list price, then
    maximizes the closed-form expected utility.  This is an ex-ante
    approximation: the realized attempt sees the moving rate and the
    decaying list.
    """
    lam = demand_intensity(max(rate, RATE_FLOOR), initial_list, cfg.demand)
    m = MarketParams(lam, cfg.mu, rate, cfg.p_min, cfg.p_max)
    return optimal_waiting_time(
        lambda T: expected_utility(T, m, reservation, initial_list, cfg.gamma),
        t_max=cfg.t_max, tol=cfg.tol)


def _posting_step(cfg: EvolutionConfig, path: RatePath, post_time: float,
                  R: float, L0: float) -> tuple[float, PathContext]:
    """Commit the waiting time at the rate of post_time (at least tol) and
    build the attempt's context on the path from there."""
    owt = compute_owt_frozen(cfg, float(path.rate_at(post_time)), R, L0)
    t_star = max(owt.t_star, cfg.tol)
    ctx = PathContext(
        path=path.shifted(post_time, t_star),
        list_price=L0,
        zeta=cfg.zeta,
        offers=UniformOffers(cfg.p_min, cfg.p_max),
        withdrawals=ExponentialWithdrawals(cfg.mu),
        reservation=R,
        demand=cfg.demand,
    )
    return t_star, ctx


def _rate_path(cfg: EvolutionConfig, end: float, seed: int) -> RatePath:
    """The seed's CIR path, t_max + 1 years past end so that an attempt
    posted by end runs its whole committed window on it."""
    return simulate_cir(cfg.cir, end + cfg.t_max + 1.0, cfg.dt, substream(seed, "rates"))


def run_evolution(cfg: EvolutionConfig, horizon: float, seed: int) -> EvolutionLog:
    """Simulate the asset's full ownership history over [0, horizon].

    The rate path extends past the horizon by t_max so attempts posted
    near the end can complete; no new tenure or posting starts at or
    after the horizon.  Bit-reproducible per seed.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    path = _rate_path(cfg, horizon, seed)
    events: list[Event] = []

    def emit(time, kind, price=math.nan, demand=math.nan, owner=-1, attempt=-1):
        events.append(Event(time, kind, price, float(path.rate_at(time)),
                            demand, owner, attempt))

    owner_idx = 0
    attempt_idx = 0
    tenure_start = 0.0
    reservation = cfg.initial_reservation
    next_list = cfg.initial_list
    while tenure_start < horizon:
        rng_owner = substream(seed, "owner", owner_idx)
        occupation = draw_occupation(rng_owner, cfg.occupation_lo, cfg.occupation_hi)
        crisis = draw_crisis(rng_owner, cfg.crisis_mean)
        emit(tenure_start, "OccupationStart", price=reservation, owner=owner_idx)
        post_t, cause = time_to_posting(tenure_start + occupation, tenure_start + crisis,
                                        path, cfg.rate_threshold, horizon)
        if cause is None:
            break
        emit(post_t, "CrisisShock" if cause == "crisis" else "ProfitOpportunity",
             owner=owner_idx)

        cur_R, cur_L0 = reservation, next_list
        sold = False
        while not sold and post_t < horizon:
            t_star, ctx = _posting_step(cfg, path, post_t, cur_R, cur_L0)
            emit(post_t, "PostForSale", price=ctx.list_price,
                 demand=float(ctx.intensity(0.0)), owner=owner_idx, attempt=attempt_idx)
            attempt = run_sale_attempt(ctx, t_star,
                                       substream(seed, "offers", owner_idx, attempt_idx))
            resolution = attempt.outcome.time if attempt.outcome.sold else t_star
            for arrival, value, delay in attempt.offers:
                emit(post_t + arrival, "OfferReceived", price=value,
                     demand=float(ctx.intensity(arrival)), owner=owner_idx,
                     attempt=attempt_idx)
                gone = arrival + delay
                if gone < resolution:
                    emit(post_t + gone, "OfferWithdrawn", price=value,
                         owner=owner_idx, attempt=attempt_idx)
            if attempt.outcome.sold:
                sale_t = post_t + attempt.outcome.time
                emit(sale_t, "Sale", price=attempt.outcome.price,
                     owner=owner_idx, attempt=attempt_idx)
                attempt_idx += 1
                owner_idx += 1
                tenure_start = sale_t
                reservation, next_list = update_prices(cur_R, attempt, cfg.p_min,
                                                       cfg.p_max)
                sold = True
            else:
                end_t = post_t + t_star
                emit(end_t, "NoSale", owner=owner_idx, attempt=attempt_idx)
                cur_R, cur_L0 = update_prices(cur_R, attempt, cfg.p_min, cfg.p_max)
                emit(end_t, "Reprice", price=cur_R, owner=owner_idx, attempt=attempt_idx)
                attempt_idx += 1
                post_t = end_t
        if not sold:
            break

    # emission order is causal; the stable sort keeps it for ties
    events.sort(key=lambda e: e.time)
    return EvolutionLog(events, path)


@dataclass(frozen=True)
class PricePoint:
    """Mean realized sale price for attempts posted at a given time.

    Failed attempts carry no price and are excluded from the mean; their
    share is reported instead.
    """

    time: float
    t_star: float
    mean_price: float
    stderr: float
    n_reps: int
    n_sales: int
    no_sale_fraction: float


def expected_price_curve(cfg: EvolutionConfig, times, n_reps: int, seed: int,
                         path: RatePath = None) -> list[PricePoint]:
    """Mean sale price if the asset were posted at each query time.

    Each query runs n_reps independent sale attempts at the configured
    (reservation, list) pair on the same rate path -- no occupation or
    shock machinery.  Replication j of query i draws from its own
    substream, so adding queries or replications never changes others.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if path is None:
        path = _rate_path(cfg, float(times.max()), seed)

    points = []
    for qi, t_post in enumerate(times.tolist()):
        t_star, ctx = _posting_step(cfg, path, t_post, cfg.initial_reservation,
                                    cfg.initial_list)
        rngs = (substream(seed, "price", qi, j) for j in range(n_reps))
        prices = np.concatenate([b.price[b.sold]
                                 for b in _sale_attempts(ctx, t_star, rngs)])
        n_sales = prices.size
        mean = float(np.mean(prices)) if n_sales else math.nan
        stderr = (float(np.std(prices, ddof=1) / math.sqrt(n_sales))
                  if n_sales >= 2 else math.nan)
        points.append(PricePoint(t_post, t_star, mean, stderr, n_reps, n_sales,
                                 1.0 - n_sales / n_reps))
    return points
