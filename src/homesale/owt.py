"""Numerical maximization of expected utility over the waiting time.

The utility curve is continuous and unimodal on the horizons of interest
(its derivative changes sign once), so a coarse scan plus golden-section
refinement is enough; no derivatives are required.  Surfaces of the
maximizer over parameter pairs drive the comparative-statics output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# expected_utility is not called here; the benchmark tracer wraps owt.expected_utility
from .closed_form import _EXACT, _FLOAT, MarketParams, _listed, _listed_args, expected_utility

__all__ = ["OwtResult", "SweepAxis", "SweepSpec", "SweepResult",
           "optimal_waiting_time", "sweep_owt"]

COARSE_POINTS = 256
# Cells per array scan in sweep_owt: 16 x 256 = 4,096 values per temporary.
_CHUNK_CELLS = 16
# Valid cells per lockstep refinement in sweep_owt.
_BLOCK_CELLS = 256
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


def _golden_max(f: Callable, lo, hi, tol: float, ops=_FLOAT):
    """Golden-section maximization on [lo, hi] to bracket width tol.

    On floats (ops=_FLOAT) it is a scalar loop.  On arrays (_EXACT) it
    refines every cell in lockstep, with each cell's float bits; a cell
    whose bracket is at or below tol stays frozen.  A non-finite value
    of a refining cell, or of the result, raises.
    """
    h = hi - lo
    c = hi - _INVPHI * h
    d = lo + _INVPHI * h
    go = h > tol
    fc, fd = _finite(f(c), c, go, ops), _finite(f(d), d, go, ops)
    evals = 2
    while ops.any(go):
        # ties shrink from the right so flat stretches resolve to the
        # earliest maximizer; c, d, fc and fd of a frozen cell are unread
        left = go & (fc >= fd)
        hi = ops.where(left, d, hi)
        lo = ops.where(go ^ left, c, lo)
        h = hi - lo
        p = ops.where(left, hi - _INVPHI * h, lo + _INVPHI * h)
        fp = _finite(f(p), p, go, ops)
        c, d = ops.where(left, p, d), ops.where(left, c, p)
        fc, fd = ops.where(left, fp, fd), ops.where(left, fc, fp)
        go = h > tol
        evals += 1
    t = (lo + hi) / 2.0
    return t, _finite(f(t), t, True, ops), evals + 1


def _finite(v, T, live, ops):
    """v, once the values of the live cells are checked finite at T."""
    bad = (live & (ops.abs(v) < math.inf)) != live  # live, and inf or NaN
    if ops.any(bad):
        raise ValueError(f"objective returned non-finite value {np.extract(bad, v)[0]} "
                         f"at T={np.extract(bad, T)[0]}")
    return v


def _grid(t_max: float, tol: float) -> np.ndarray:
    """The coarse scan's horizons, once t_max and tol are checked."""
    for name, v in (("t_max", t_max), ("tol", tol)):
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {v}")
    return (t_max / COARSE_POINTS) * np.arange(1, COARSE_POINTS + 1)


def _scan(vals: np.ndarray, grid: np.ndarray):
    """Read a coarse scan, one objective per row of vals.

    Returns per row the boundary flag (the argmax is the last node), the
    count of sign flips of successive differences (flat steps carry the
    sign before them) and the bracket (lo, hi) around the argmax.  Raises
    on a non-finite value.
    """
    _finite(vals, np.broadcast_to(grid, vals.shape), True, np)
    idx = vals.argmax(axis=-1)
    s = np.sign(np.diff(vals, axis=-1))
    last = np.maximum.accumulate(np.where(s != 0, np.arange(s.shape[-1]), 0), axis=-1)
    s = np.take_along_axis(s, last, axis=-1)
    flips = np.count_nonzero((s[..., 1:] != s[..., :-1]) & (s[..., :-1] != 0), axis=-1)
    lo = np.where(idx >= 1, grid[idx - 1], 0.0)
    hi = grid[np.minimum(idx + 1, COARSE_POINTS - 1)]
    return idx == COARSE_POINTS - 1, flips, lo, hi


def optimal_waiting_time(objective: Callable,
                         t_max: float = DEFAULT_T_MAX,
                         tol: float = DEFAULT_TOL) -> OwtResult:
    """Maximize an objective of the waiting time over (0, t_max].

    A 256-point uniform scan locates a bracketing triple around the
    maximum, then golden-section refinement shrinks the bracket to tol.
    The scan calls the objective once, on an ndarray of the 256 horizons;
    the refinement calls it on floats.  The objective must be finite
    everywhere on the grid; a non-finite value aborts with a diagnostic.
    A maximum on the grid's right edge is returned as t_star == t_max
    with the boundary flag set, since the true maximizer may lie beyond
    the horizon.
    """
    grid = _grid(t_max, tol)
    # broadcast, so that an objective constant in T may return a scalar
    boundary, flips, lo, hi = _scan(np.broadcast_to(objective(grid), grid.shape), grid)
    if boundary:
        # evaluated again on the float path, which every printed value takes
        return OwtResult(t_max, objective(float(grid[-1])), COARSE_POINTS + 1, True,
                         int(flips))
    t_star, f_star, n = _golden_max(objective, float(lo), float(hi), tol)
    return OwtResult(t_star, f_star, COARSE_POINTS + n, False, int(flips))


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
        for end, v in (("start", self.start), ("stop", self.stop)):
            if not math.isfinite(v):
                raise ValueError(f"{self.name} axis {end} must be finite, got {v}")
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

    def __post_init__(self):
        if self.axis_x.name == self.axis_y.name:
            raise ValueError(f"both sweep axes are {self.axis_x.name!r}; choose two parameters")


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
    boundary: np.ndarray


def _cell_params(spec: SweepSpec, xv: float, yv: float) -> tuple | None:
    """(lam, mu, r, p_min, p_max, R, L, gamma) of the cell at (xv, yv),
    checked as the closed forms check them; None if a check fails."""
    base = {
        "lam": spec.market.lam, "mu": spec.market.mu, "r": spec.market.r,
        "p_min": spec.market.p_min, "p_max": spec.market.p_max,
        "reservation": spec.reservation, "list_price": spec.list_price,
        "gamma": spec.gamma,
        spec.axis_x.name: float(xv), spec.axis_y.name: float(yv),
    }
    try:
        m = MarketParams(base["lam"], base["mu"], base["r"], base["p_min"], base["p_max"])
        return _listed_args(m, base["reservation"], base["list_price"], base["gamma"])
    except ValueError:
        return None


def sweep_owt(spec: SweepSpec) -> SweepResult:
    """Optimal waiting time over a 2-D parameter grid.

    Invalid combinations become NaN cells.  The valid cells are taken
    _BLOCK_CELLS at a time and scanned through the array kernel
    _CHUNK_CELLS at a time, so no temporary holds more than
    _CHUNK_CELLS x COARSE_POINTS values whatever the grid size.  The
    block's cells off the boundary are then refined in one lockstep
    golden section on the _EXACT namespace, which gives each cell the
    bits optimal_waiting_time gives it.
    """
    grid = _grid(spec.t_max, spec.tol)
    xs = spec.axis_x.values
    ys = spec.axis_y.values
    t_star = np.full(len(ys) * len(xs), math.nan)
    boundary = np.zeros(len(ys) * len(xs), dtype=bool)
    cells = ((k, _cell_params(spec, xv, yv))
             for k, (yv, xv) in enumerate(itertools.product(ys, xs)))
    valid = ((k, p) for k, p in cells if p is not None)
    while block := list(itertools.islice(valid, _BLOCK_CELLS)):
        ks = np.array([k for k, _ in block])
        cols = np.array([p for _, p in block]).T
        scans = [_scan(_listed(grid, *cols[:, s:s + _CHUNK_CELLS, None], True, np), grid)
                 for s in range(0, len(block), _CHUNK_CELLS)]
        edge, _, lo, hi = (np.concatenate(a) for a in zip(*scans))
        boundary[ks] = edge
        t_star[ks] = spec.t_max
        inner = ~edge
        cols = cols[:, inner]
        t_star[ks[inner]] = _golden_max(lambda T: _listed(T, *cols, True, _EXACT),
                                        lo[inner], hi[inner], spec.tol, _EXACT)[0]
    shape = (len(ys), len(xs))
    return SweepResult(spec.axis_x.name, spec.axis_y.name, xs, ys,
                       t_star.reshape(shape), boundary.reshape(shape))
