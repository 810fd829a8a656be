"""Numerical maximization of expected utility over the waiting time.

The utility curve is continuous and unimodal on the horizons of interest
(its derivative changes sign once), so a coarse scan plus golden-section
refinement is enough; no derivatives are required.  Surfaces of the
maximizer over parameter pairs drive the comparative-statics output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .closed_form import MarketParams, expected_utility

__all__ = ["OwtResult", "SweepAxis", "SweepSpec", "SweepResult",
           "optimal_waiting_time", "sweep_owt"]

COARSE_POINTS = 256
DEFAULT_T_MAX = 20.0
DEFAULT_TOL = 1e-4

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OwtResult:
    """Maximizer of a waiting-time objective.

    boundary is set when the coarse-grid maximum sits on the right edge,
    in which case t_star == t_max and no refinement is attempted.
    diff_sign_changes counts sign flips of successive differences along
    the coarse grid; anything above 1 means the unimodality assumption
    was violated and the result should be treated with suspicion.
    """

    t_star: float
    utility_at_t_star: float
    evaluations: int
    boundary: bool
    diff_sign_changes: int


def _golden_max(f: Callable[[float], float], lo: float, hi: float,
                tol: float) -> tuple[float, float, int]:
    """Golden-section maximization on [lo, hi] to bracket width tol."""
    evals = 0
    h = hi - lo
    c = hi - _INVPHI * h
    d = lo + _INVPHI * h
    fc, fd = f(c), f(d)
    evals += 2
    while h > tol:
        # ties shrink from the right so flat stretches resolve to the
        # earliest maximizer
        if fc >= fd:
            hi, d, fd = d, c, fc
            h = hi - lo
            c = hi - _INVPHI * h
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            h = hi - lo
            d = lo + _INVPHI * h
            fd = f(d)
        evals += 1
    t = (lo + hi) / 2.0
    ft = f(t)
    evals += 1
    return t, ft, evals


def _count_sign_changes(values: list[float]) -> int:
    changes = 0
    prev = 0
    for a, b in zip(values, values[1:]):
        d = b - a
        s = 1 if d > 0 else (-1 if d < 0 else 0)
        if s != 0:
            if prev != 0 and s != prev:
                changes += 1
            prev = s
    return changes


def optimal_waiting_time(objective: Callable[[float], float],
                         t_max: float = DEFAULT_T_MAX,
                         tol: float = DEFAULT_TOL) -> OwtResult:
    """Maximize a scalar objective of the waiting time over (0, t_max].

    A 256-point uniform scan locates a bracketing triple around the
    maximum, then golden-section refinement shrinks the bracket to tol.
    The objective must be finite everywhere on the grid; a non-finite
    value aborts with a diagnostic.  A maximum on the grid's right edge
    is returned as t_star == t_max with the boundary flag set, since the
    true maximizer may lie beyond the horizon.
    """
    if not (t_max > 0):
        raise ValueError(f"t_max must be positive, got {t_max}")
    if not (tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")
    step = t_max / COARSE_POINTS
    grid = [step * i for i in range(1, COARSE_POINTS + 1)]
    vals = []
    for t in grid:
        v = objective(t)
        if not math.isfinite(v):
            raise ValueError(f"objective returned non-finite value {v} at T={t}")
        vals.append(v)
    evals = COARSE_POINTS
    sign_changes = _count_sign_changes(vals)
    idx = max(range(COARSE_POINTS), key=vals.__getitem__)
    if idx == COARSE_POINTS - 1:
        return OwtResult(t_max, vals[-1], evals, True, sign_changes)
    lo = grid[idx - 1] if idx >= 1 else 0.0
    hi = grid[idx + 1]
    t_star, f_star, n = _golden_max(objective, lo, hi, tol)
    return OwtResult(t_star, f_star, evals + n, False, sign_changes)


# Parameter names a sweep axis may bind to, mapped onto the closed-form
# argument they override.
_AXIS_NAMES = ("lam", "mu", "r", "p_min", "p_max", "reservation", "list_price", "gamma")


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a name and a strictly increasing grid."""

    name: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.name not in _AXIS_NAMES:
            raise ValueError(f"unknown sweep parameter {self.name!r}; choose from {_AXIS_NAMES}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.steps > 1 and not (self.stop > self.start):
            raise ValueError("grid must be strictly increasing")

    @property
    def values(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([self.start])
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class SweepSpec:
    """Two swept axes plus the fixed remainder of the parameter set.

    Every cell maximizes the utility on the exact-discounting listed
    payoff: with the plain variant the discount rate only rescales the
    crossing branch, which flattens (and slightly reverses) the
    maximizer's dependence on the rate, while the exact variant restores
    the expected comparative statics.
    """

    axis_x: SweepAxis
    axis_y: SweepAxis
    market: MarketParams
    reservation: float
    list_price: float
    gamma: float
    t_max: float = DEFAULT_T_MAX
    tol: float = DEFAULT_TOL


@dataclass
class SweepResult:
    """Dense maximizer surface, row-major over (axis_y, axis_x).

    Cells whose parameter combination violates an invariant hold NaN.
    """

    x_name: str
    y_name: str
    x_values: np.ndarray
    y_values: np.ndarray
    t_star: np.ndarray
    boundary: np.ndarray = field(default=None)


def _cell_params(spec: SweepSpec, overrides: dict) -> tuple[MarketParams, float, float, float]:
    base = {
        "lam": spec.market.lam, "mu": spec.market.mu, "r": spec.market.r,
        "p_min": spec.market.p_min, "p_max": spec.market.p_max,
        "reservation": spec.reservation, "list_price": spec.list_price,
        "gamma": spec.gamma,
    }
    base.update(overrides)
    m = MarketParams(base["lam"], base["mu"], base["r"], base["p_min"], base["p_max"])
    R, L, gamma = base["reservation"], base["list_price"], base["gamma"]
    if not (m.p_min <= R <= L <= m.p_max) or gamma < 0:
        raise ValueError("invalid price ordering in sweep cell")
    return m, R, L, gamma


def _solve_cell(spec: SweepSpec, xv: float, yv: float) -> tuple[float, bool]:
    try:
        m, R, L, gamma = _cell_params(
            spec, {spec.axis_x.name: float(xv), spec.axis_y.name: float(yv)})
    except ValueError:
        return math.nan, False
    res = optimal_waiting_time(
        lambda T: expected_utility(T, m, R, L, gamma, exact=True),
        t_max=spec.t_max, tol=spec.tol)
    return res.t_star, res.boundary


def sweep_owt(spec: SweepSpec) -> SweepResult:
    """Optimal waiting time over a 2-D parameter grid.

    Each cell is solved on its own, row by row along the y axis.
    Invalid combinations become NaN cells.
    """
    xs = spec.axis_x.values
    ys = spec.axis_y.values
    t_star = np.full((len(ys), len(xs)), math.nan)
    boundary = np.zeros((len(ys), len(xs)), dtype=bool)
    for i, yv in enumerate(ys):
        for j, xv in enumerate(xs):
            t_star[i, j], boundary[i, j] = _solve_cell(spec, xv, yv)
    return SweepResult(spec.axis_x.name, spec.axis_y.name, xs, ys, t_star, boundary)
