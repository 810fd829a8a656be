"""Stochastic drivers: short rate, demand intensity, offer arrivals.

All samplers take either an integer seed or a numpy Generator.  Code
that needs several independent streams derives them from one root seed
with substream(), so adding replications never perturbs earlier ones.
The samplers return plain arrays (a rate path's values, offer arrival
times); a path's horizon and step must be finite and positive.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .closed_form import _require_finite

__all__ = [
    "RATE_FLOOR",
    "substream",
    "CirParams",
    "RatePath",
    "DemandParams",
    "simulate_cir",
    "simulate_cir_ensemble",
    "demand_intensity",
    "sample_nhpp",
]

# Rates are clamped here before feeding the demand function, which is
# singular at zero.
RATE_FLOOR = 1e-4

DEFAULT_DT = 1.0 / 252.0


def _encode_key(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, (int, np.integer)):
        return int(part)
    raise TypeError(f"substream key parts must be str or int, got {type(part)}")


def substream(seed: int, *key) -> np.random.Generator:
    """Independent generator for (seed, key...) under a counter scheme.

    Distinct keys give statistically independent streams; the same key
    always reproduces the same stream.
    """
    entropy = [int(seed)] + [_encode_key(p) for p in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class CirParams:
    """Mean-reverting square-root short-rate dynamics."""

    kappa: float
    theta: float
    sigma: float
    r0: float

    def __post_init__(self):
        _require_finite(kappa=self.kappa, theta=self.theta, sigma=self.sigma, r0=self.r0)
        if not (self.kappa > 0 and self.theta > 0 and self.r0 > 0):
            raise ValueError("kappa, theta, r0 must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def mean_at(self, t: float) -> float:
        """Exact expectation of the rate at time t."""
        return self.theta + (self.r0 - self.theta) * math.exp(-self.kappa * t)


@dataclass
class RatePath:
    """Short-rate realization on the uniform grid t = 0, dt, 2*dt, ..."""

    dt: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("values must be a non-empty 1-D array")
        if not np.all((self.values >= 0) & (self.values < np.inf)):
            raise ValueError("rate path must be finite and non-negative")

    @property
    def horizon(self) -> float:
        return (self.values.size - 1) * self.dt

    @cached_property
    def times(self) -> np.ndarray:
        return np.arange(self.values.size) * self.dt

    @cached_property
    def _cum(self) -> np.ndarray:
        # trapezoid cumulative integral of r on the native grid
        mids = (self.values[1:] + self.values[:-1]) / 2.0 * self.dt
        return np.concatenate(([0.0], np.cumsum(mids)))

    def _check_span(self, t) -> None:
        # a relative slack of 1e-12 absorbs rounding in callers' grids
        t = np.asarray(t, dtype=float)
        if t.size == 0:
            return
        slack = 1e-12 * self.horizon
        lo, hi = float(t.min()), float(t.max())
        if not (lo >= -slack and hi <= self.horizon + slack):
            raise ValueError(f"time outside the rate path [0, {self.horizon:g}]: "
                             f"got [{lo:g}, {hi:g}]")

    def rate_at(self, t):
        """Linear interpolation of the rate; raises outside [0, horizon]."""
        self._check_span(t)
        return np.interp(t, self.times, self.values)

    def cumulative_rate(self, t):
        """Integral of the rate from 0 to t (trapezoid on the native grid);
        raises outside [0, horizon]."""
        self._check_span(t)
        return self._cumulative(t)

    def _cumulative(self, t):
        # cumulative_rate without the span check, for a grid whose span
        # rate_at has already checked
        return np.interp(t, self.times, self._cum)

    def shifted(self, start: float, horizon: float) -> "RatePath":
        """Path segment [start, start + horizon] re-based to time zero, on
        the fewest dt steps that cover it; raises when those steps run
        past this path's end."""
        n = int(math.ceil(horizon / self.dt - 1e-12))
        return RatePath(self.dt, self.rate_at(start + np.arange(n + 1) * self.dt))


@dataclass(frozen=True)
class DemandParams:
    """Coefficients of the offer-intensity function k1/r + k2/L."""

    k1: float
    k2: float

    def __post_init__(self):
        _require_finite(k1=self.k1, k2=self.k2)
        if self.k1 < 0 or self.k2 < 0:
            raise ValueError("k1 and k2 must be non-negative")
        if self.k1 == 0 and self.k2 == 0:
            raise ValueError("k1 and k2 cannot both be zero")

    def intensity(self, r, L):
        """k1/r + k2/L without input checks; demand_intensity validates."""
        return self.k1 / r + self.k2 / L


def _cir_steps(horizon: float, dt: float) -> int:
    _require_finite(horizon=horizon, dt=dt)
    if not (horizon >= dt > 0):
        raise ValueError(f"need horizon >= dt > 0, got horizon={horizon}, dt={dt}")
    return int(math.ceil(horizon / dt - 1e-12))


def simulate_cir(p: CirParams, horizon: float, dt: float = DEFAULT_DT,
                 seed=0) -> RatePath:
    """Full-truncation Euler path of the short rate, floored at zero.

    r_{n+1} = r_n + kappa*(theta - max(r_n,0))*dt + sigma*sqrt(max(r_n,0))*sqrt(dt)*Z_n,
    then clipped at 0.  Deterministic for a fixed seed; bit for bit the one-path
    simulate_cir_ensemble (one draw, the same float operations in the same order).
    """
    z = _as_rng(seed).standard_normal(_cir_steps(horizon, dt)).tolist()
    kappa, theta, sigma, sdt = p.kappa, p.theta, p.sigma, math.sqrt(dt)
    cur = float(p.r0)
    values = [cur]
    for zk in z:
        # cur is already floored, so max(r_n, 0) is cur itself
        cur = cur + kappa * (theta - cur) * dt + sigma * math.sqrt(cur) * sdt * zk
        if cur <= 0.0:  # np.maximum(cur, 0.0): -0.0 becomes +0.0, NaN stays
            cur = 0.0
        values.append(cur)
    return RatePath(dt, values)


def simulate_cir_ensemble(p: CirParams, horizon: float, dt: float,
                          n_paths: int, seed=0) -> np.ndarray:
    """n_paths independent Euler paths, shape (n_paths, n_steps + 1)."""
    n_steps = _cir_steps(horizon, dt)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    rng = _as_rng(seed)
    out = np.empty((n_paths, n_steps + 1))
    out[:, 0] = p.r0
    sdt = math.sqrt(dt)
    cur = np.full(n_paths, p.r0)
    for k in range(n_steps):
        pos = np.maximum(cur, 0.0)
        cur = cur + p.kappa * (p.theta - pos) * dt + p.sigma * np.sqrt(pos) * sdt \
            * rng.standard_normal(n_paths)
        np.maximum(cur, 0.0, out=cur)
        out[:, k + 1] = cur
    return out


def demand_intensity(r, L, d: DemandParams):
    """Offer arrival intensity k1/r + k2/L; decreasing in both arguments.

    Rejects non-positive r or L outright -- clamping rates that touch
    zero (see RATE_FLOOR) is the caller's responsibility.
    """
    r = np.asarray(r, dtype=float)
    L = np.asarray(L, dtype=float)
    if np.any(r <= 0) or np.any(L <= 0):
        raise ValueError("demand_intensity needs r > 0 and L > 0")
    out = d.intensity(r, L)
    return float(out) if out.ndim == 0 else out


def _thinning_candidates(rng: np.random.Generator, horizon: float,
                         bound: float) -> tuple[np.ndarray, np.ndarray]:
    """The dominating Poisson(bound) stream on [0, horizon]: a count, the
    sorted candidate times, then one acceptance uniform per candidate."""
    n_cand = rng.poisson(bound * horizon)
    cands = np.sort(rng.uniform(0.0, horizon, n_cand))
    return cands, rng.uniform(0.0, 1.0, n_cand)


def _thin(vals: np.ndarray, cands: np.ndarray, u: np.ndarray,
          bound: float) -> np.ndarray:
    """Which candidates thinning keeps: those with u * bound < intensity.

    vals is the intensity at every candidate; one above the bound aborts
    rather than silently under-sampling.
    """
    bad = vals > bound * (1.0 + 1e-12)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"intensity {vals[i]:.6g} exceeds bound {bound:.6g} at t={cands[i]:.6g}")
    return u * bound < vals


def sample_nhpp(intensity: Callable, horizon: float, intensity_bound: float,
                seed=0) -> np.ndarray:
    """Arrival times of a non-homogeneous Poisson process on [0, horizon].

    Thinning of a dominating homogeneous Poisson(intensity_bound)
    stream: candidates are kept with probability intensity(t)/bound
    (Lewis & Shedler 1979), so the work is the bound times the horizon
    and a bound close to the intensity wastes few candidates.  Sale
    attempts thin the offer demand k1/max(r, RATE_FLOOR) + k2/L(a)
    against k1/max(min r on the path's nodes, RATE_FLOOR) + k2/L(t): the
    rate is linear between nodes and the list price only falls.
    The intensity takes the array of candidate times and returns an
    array of the same shape.
    The bound must dominate the intensity everywhere; a detected
    violation aborts rather than silently under-sampling.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if not (intensity_bound > 0) or not math.isfinite(intensity_bound):
        raise ValueError(f"intensity_bound must be positive and finite, got {intensity_bound}")
    cands, u = _thinning_candidates(_as_rng(seed), horizon, intensity_bound)
    vals = np.asarray(intensity(cands), dtype=float)
    return cands[_thin(vals, cands, u, intensity_bound)]
