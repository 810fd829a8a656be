"""Multi-owner price evolution of a single asset.

Each tenure runs occupation -> posting trigger (personal crisis or a
rate-threshold profit opportunity) -> waiting-time optimization -> sale
attempt -> price update, over one realized rate path.  Sale attempts
collect offers from the demand-driven Poisson stream, sell immediately
on a list-price crossing, and otherwise take the best surviving offer
above the reservation price when the committed waiting time runs out.

Evolutions are sequential by nature (each event depends on the last),
but every random draw comes from a substream keyed by logical indices,
so logs are reproducible bit for bit regardless of how surrounding code
schedules work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import MarketParams, expected_utility
from .owt import DEFAULT_T_MAX, DEFAULT_TOL, OwtResult, optimal_waiting_time
from .path_payoff import (ExponentialWithdrawals, PathContext, UniformOffers,
                          list_schedule)
from .stochastic import (RATE_FLOOR, CirParams, DemandParams, OfferEvent,
                         RatePath, demand_intensity, sample_nhpp, simulate_cir,
                         substream)

__all__ = [
    "OwnerState",
    "SaleOutcome",
    "SaleAttempt",
    "Event",
    "EvolutionLog",
    "PostingDecision",
    "EvolutionConfig",
    "PricePoint",
    "draw_occupation",
    "draw_crisis",
    "time_to_posting",
    "list_schedule",
    "compute_owt_frozen",
    "run_sale_attempt",
    "resolve_attempt",
    "update_prices",
    "run_evolution",
    "expected_price_curve",
]

@dataclass
class OwnerState:
    """One owner's tenure.

    occupation_end and crisis_time are absolute times on the evolution
    clock, both drawn once at purchase.
    """

    occupation_end: float
    crisis_time: float

    def __post_init__(self):
        if self.occupation_end <= 0 or self.crisis_time <= 0:
            raise ValueError("occupation_end and crisis_time must be positive")


@dataclass(frozen=True)
class SaleOutcome:
    """Resolution of one attempt.  time is the offset from posting.

    branch is "list_crossing" for an immediate sale at the list price or
    better, "owt_best" for the end-of-waiting-time auction, None for no
    sale.
    """

    sold: bool
    price: float = math.nan
    time: float = math.nan
    branch: str = None


@dataclass
class SaleAttempt:
    offers: list[OfferEvent]
    outcome: SaleOutcome


@dataclass(frozen=True)
class PostingDecision:
    """When the asset goes on the market and why; cause None means the
    trigger never fired inside the searched window (open tenure)."""

    time: float
    cause: str  # "crisis" | "profit" | None


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


def time_to_posting(owner: OwnerState, path: RatePath, threshold: float,
                    search_end: float = None) -> PostingDecision:
    """First moment the asset goes on the market.

    The owner posts at the crisis time, or at the first grid time at or
    after the occupation end where the rate is at or below the
    threshold, whichever comes first.  If neither happens by search_end
    (default: the path horizon) the tenure stays open.
    """
    if not (threshold > 0):
        raise ValueError("threshold must be positive")
    end = path.horizon if search_end is None else min(search_end, path.horizon)
    profit_time = math.inf
    start_idx = int(math.ceil(owner.occupation_end / path.dt - 1e-9))
    if start_idx < path.values.size:
        window = path.values[start_idx:]
        hits = np.nonzero(window <= threshold)[0]
        if hits.size:
            cand = (start_idx + int(hits[0])) * path.dt
            if cand <= end:
                profit_time = cand
    crisis_time = owner.crisis_time if owner.crisis_time <= end else math.inf
    t = min(crisis_time, profit_time)
    if not math.isfinite(t):
        return PostingDecision(end, None)
    cause = "crisis" if crisis_time <= profit_time else "profit"
    return PostingDecision(t, cause)


def resolve_attempt(offers: list[OfferEvent], schedule, R: float,
                    t_star: float) -> SaleOutcome:
    """Apply the sale rules to a fixed offer list.

    Immediate sale at the first offer whose value meets the list price
    at its arrival; otherwise, at t_star, the best offer above R that
    has not been withdrawn; otherwise no sale.
    """
    for o in offers:
        if o.value >= float(schedule(o.arrival)):
            return SaleOutcome(True, o.value, o.arrival, "list_crossing")
    best = None
    for o in offers:
        if o.value >= R and o.withdrawal_delay >= t_star - o.arrival:
            if best is None or o.value > best:
                best = o.value
    if best is not None:
        return SaleOutcome(True, best, t_star, "owt_best")
    return SaleOutcome(False)


def run_sale_attempt(ctx: PathContext, t_star: float,
                     rng: np.random.Generator) -> SaleAttempt:
    """One sale attempt on a local context whose clock starts at posting,
    at the context's reservation price.

    Offers are generated over the whole committed window [0, t_star];
    the stored offer list is truncated at the resolution time so the log
    never contains arrivals after the sale.
    """
    if not (t_star > 0):
        raise ValueError("t_star must be positive")
    bound = ctx.demand.intensity(RATE_FLOOR, ctx.reservation)
    arrivals = sample_nhpp(ctx.intensity, t_star, bound, rng)
    values = np.asarray(ctx.offers.sample(rng, arrivals.size), dtype=float)
    delays = np.asarray(ctx.withdrawals.sample(rng, arrivals.size), dtype=float)
    offers = [OfferEvent(float(a), float(v), float(d))
              for a, v, d in zip(arrivals, values, delays)]
    outcome = resolve_attempt(offers, ctx.list_schedule, ctx.reservation, t_star)
    horizon = outcome.time if outcome.sold else t_star
    kept = [o for o in offers if o.arrival <= horizon]
    return SaleAttempt(kept, outcome)


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
    """Everything a long-horizon evolution run needs.

    The prices must satisfy 0 < p_min <= initial_reservation <=
    initial_list <= p_max.  Every later state keeps that order: a sale
    price lies in [R, p_max], a reprice (R + p_min)/2 stays at or above
    p_min, and a relist happens at the old R <= p_max.
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
        if not (0 < self.p_min <= self.initial_reservation <= self.initial_list
                <= self.p_max):
            raise ValueError(
                "need 0 < p_min <= initial_reservation <= initial_list <= p_max, got "
                f"p_min={self.p_min}, initial_reservation={self.initial_reservation}, "
                f"initial_list={self.initial_list}, p_max={self.p_max}")


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
        list_schedule=list_schedule(R, L0, cfg.zeta),
        offers=UniformOffers(cfg.p_min, cfg.p_max),
        withdrawals=ExponentialWithdrawals(cfg.mu),
        reservation=R,
        demand=cfg.demand,
    )
    return t_star, ctx


def run_evolution(cfg: EvolutionConfig, horizon: float, seed: int) -> EvolutionLog:
    """Simulate the asset's full ownership history over [0, horizon].

    The rate path extends past the horizon by t_max so attempts posted
    near the end can complete; no new tenure or posting starts at or
    after the horizon.  Bit-reproducible per seed.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    path = simulate_cir(cfg.cir, horizon + cfg.t_max + 1.0, cfg.dt,
                        substream(seed, "rates"))
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
        owner = OwnerState(tenure_start + occupation, tenure_start + crisis)
        emit(tenure_start, "OccupationStart", price=reservation, owner=owner_idx)
        posting = time_to_posting(owner, path, cfg.rate_threshold, search_end=horizon)
        if posting.cause is None:
            break
        emit(posting.time, "CrisisShock" if posting.cause == "crisis" else "ProfitOpportunity",
             owner=owner_idx)

        cur_R, cur_L0 = reservation, next_list
        post_t = posting.time
        sold = False
        while not sold and post_t < horizon:
            t_star, ctx = _posting_step(cfg, path, post_t, cur_R, cur_L0)
            emit(post_t, "PostForSale", price=ctx.initial_list,
                 demand=float(ctx.intensity(0.0)), owner=owner_idx, attempt=attempt_idx)
            attempt = run_sale_attempt(ctx, t_star,
                                       substream(seed, "offers", owner_idx, attempt_idx))
            resolution = attempt.outcome.time if attempt.outcome.sold else t_star
            for o in attempt.offers:
                emit(post_t + o.arrival, "OfferReceived", price=o.value,
                     demand=float(ctx.intensity(o.arrival)), owner=owner_idx,
                     attempt=attempt_idx)
                gone = o.arrival + o.withdrawal_delay
                if gone < resolution:
                    emit(post_t + gone, "OfferWithdrawn", price=o.value,
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
        path = simulate_cir(cfg.cir, float(times.max()) + cfg.t_max + 1.0, cfg.dt,
                            substream(seed, "rates"))

    points = []
    for qi, t_post in enumerate(times.tolist()):
        t_star, ctx = _posting_step(cfg, path, t_post, cfg.initial_reservation,
                                    cfg.initial_list)
        prices = []
        for j in range(n_reps):
            att = run_sale_attempt(ctx, t_star, substream(seed, "price", qi, j))
            if att.outcome.sold:
                prices.append(att.outcome.price)
        n_sales = len(prices)
        mean = float(np.mean(prices)) if n_sales else math.nan
        stderr = (float(np.std(prices, ddof=1) / math.sqrt(n_sales))
                  if n_sales >= 2 else math.nan)
        points.append(PricePoint(t_post, t_star, mean, stderr, n_reps, n_sales,
                                 1.0 - n_sales / n_reps))
    return points
