"""Stochastic drivers: short rate, demand intensity, offer arrivals.

All samplers take either an integer seed or a numpy Generator.  Code
that needs several independent streams derives them from one root seed
with substream().  simulate_cir returns a RatePath, the rate's values on
a uniform grid whose step is finite and positive; sample_nhpp returns
the array of offer arrival times.  _blocks is the block draw of the
sale engine and the oracles: one lane (generator) per draw field, each
read in replication order, so growing a run of any size never changes
the replications already drawn.  _settle is their one sale rule: the
first offer at or above the list sells at once, else the best one above
the reservation still standing at the end.
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
    "sample_nhpp",
]

# DemandParams.intensity clamps rates here, because the demand function is
# singular at zero.
RATE_FLOOR = 1e-4

DEFAULT_DT = 1.0 / 252.0

# Entries per block that _blocks yields: the bound on every per-entry array.
_BLOCK = 1 << 15

# The largest Poisson mean per replication that _blocks draws: a larger
# replication is one block, so this caps its arrays near 10**6 entries
# (8 MB a field).  Shipped commands and tests stay below 10**4.
_MAX_MEAN = 1e6


def _is_int(x) -> bool:
    # bool is an int subclass, but True would silently alias seed 1
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _seed(seed) -> int:
    if not _is_int(seed):
        raise TypeError(f"seed must be an int, got {type(seed)}")
    return int(seed)


def _encode_key(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if _is_int(part):
        return int(part)
    raise TypeError(f"substream key parts must be str or int, got {type(part)}")


def substream(seed: int, *key) -> np.random.Generator:
    """Independent generator for (seed, key...) under a counter scheme.

    Distinct keys give statistically independent streams; the same key
    always reproduces the same stream.  The seed and int key parts must
    be ints (numpy integers included, bool excluded): a float or bool
    raises TypeError rather than share the stream of its int value.
    SeedSequence zero pads short entropy and splits wide ints into 32-bit
    words, so substream(s, "a") draws as substream(s, "a", 0) does, and
    substream(s, 2**32) as substream(s, 0, 1); the shipped keys avoid
    both: "rates" alone takes no index, and every index is below 2**32.
    The lanes of a block draw (_blocks) are substream(seed, *key).spawn(m):
    child i extends the seed sequence's spawn key with i, which no key of
    substream reaches, so the lanes alias no other stream.
    """
    entropy = [_seed(seed)] + [_encode_key(p) for p in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_seed(seed))


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


@dataclass
class RatePath:
    """Short-rate realization on the uniform grid t = 0, dt, 2*dt, ..."""

    dt: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not (0 < self.dt < math.inf):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
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

    def _check_ends(self, lo: float, hi: float) -> None:
        # a relative slack of 1e-12 absorbs rounding in callers' grids
        slack = 1e-12 * self.horizon
        if not (lo >= -slack and hi <= self.horizon + slack):
            raise ValueError(f"time outside the rate path [0, {self.horizon:g}]: "
                             f"got [{lo:g}, {hi:g}]")

    def rate_at(self, t):
        """Linear interpolation of the rate; raises outside [0, horizon]."""
        if np.size(t):
            self._check_ends(float(np.min(t)), float(np.max(t)))
        return self._rate(t)

    def _rate(self, t):
        # rate_at without the span check, for times already checked
        return np.interp(t, self.times, self.values)

    def _cumulative(self, t):
        # trapezoid integral of the rate from 0 to t, for times already checked
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
        """k1/r + k2/L, r floored at RATE_FLOOR because k1/r is singular at
        zero; decreasing in both arguments, broadcast over arrays of r and L."""
        return self.k1 / np.maximum(r, RATE_FLOOR) + self.k2 / L


def _cir_steps(horizon: float, dt: float) -> int:
    _require_finite(horizon=horizon, dt=dt)
    if not (horizon >= dt > 0):
        raise ValueError(f"need horizon >= dt > 0, got horizon={horizon}, dt={dt}")
    steps = horizon / dt - 1e-12
    if not steps < np.iinfo(np.intp).max:
        raise ValueError(f"horizon / dt steps do not fit an array index, "
                         f"got horizon={horizon}, dt={dt}")
    return int(math.ceil(steps))


def simulate_cir(p: CirParams, horizon: float, dt: float = DEFAULT_DT,
                 seed=0) -> RatePath:
    """Full-truncation Euler path of the short rate, floored at zero.

    r_{n+1} = r_n + kappa*(theta - max(r_n,0))*dt + sigma*sqrt(max(r_n,0))*sqrt(dt)*Z_n,
    then clipped at 0.  Deterministic for a fixed seed; bit for bit a one-path
    vector Euler loop (the same draws and float operations in the same order),
    which the tests pin.
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
    and a bound close to the intensity wastes few candidates.  The
    generator draws the count n of candidates, their n sorted times,
    then n acceptance uniforms.  The intensity takes the array of
    candidate times and returns an array of the same shape.
    The bound must dominate the intensity everywhere; a detected
    violation aborts rather than silently under-sampling.
    """
    if not 0 <= horizon < math.inf:
        raise ValueError(f"horizon must be finite and non-negative, got {horizon}")
    if not (intensity_bound > 0) or not math.isfinite(intensity_bound):
        raise ValueError(f"intensity_bound must be positive and finite, got {intensity_bound}")
    rng = _as_rng(seed)
    n_cand = rng.poisson(intensity_bound * horizon)
    cands = np.sort(rng.uniform(0.0, horizon, n_cand))
    u = rng.uniform(0.0, 1.0, n_cand)
    vals = np.asarray(intensity(cands), dtype=float)
    return cands[_thin(vals, cands, u, intensity_bound)]


def _blocks(spawn, mean: float, k: int, fields):
    """(k, rep, *arrays) per block of whole replications (at most _BLOCK
    entries, or one replication that has more) of k replications with
    Poisson(mean) entries: its replications, each entry's replication in
    the block, and field i drawn by fields[i](lanes[i + 1], size).

    The lanes are spawn(len(fields) + 1), a list of generators: lanes[0]
    draws the counts, in pieces of at most _BLOCK replications, and
    lanes[i + 1] draws field i.  Each lane is read in replication order,
    so neither k nor a block edge moves a draw: the first j replications
    of any run are those of a run of j.  One generator as every lane
    (spawn = lambda m: [rng] * m) reads, for k = 1, the count and then
    each field in turn.  A mean above _MAX_MEAN raises ValueError before
    anything is drawn.
    """
    if not mean <= _MAX_MEAN:
        raise ValueError(f"Poisson mean {mean:g} per replication exceeds the cap of {_MAX_MEAN:g}")
    lanes = spawn(len(fields) + 1)
    for start in range(0, k, _BLOCK):
        counts = lanes[0].poisson(mean, min(_BLOCK, k - start))
        edges = np.concatenate(([0], np.cumsum(counts)))
        lo = 0
        while lo < counts.size:
            hi = max(int(np.searchsorted(edges, edges[lo] + _BLOCK, "right")) - 1, lo + 1)
            rep = np.repeat(np.arange(hi - lo), counts[lo:hi])
            yield (hi - lo, rep, *[draw(lane, rep.size) for draw, lane in zip(fields, lanes[1:])])
            lo = hi


def _segment(ufunc: np.ufunc, vals: np.ndarray, rep: np.ndarray, k: int,
             empty: float) -> np.ndarray:
    """Per-replication minimum or maximum (ufunc) of vals, entry i
    belonging to replication rep[i] of k; `empty` for replications
    without entries."""
    out = np.full(k, empty)
    ufunc.at(out, rep, vals)
    return out


def _kept(mask: np.ndarray, rep: np.ndarray):
    """Flat indices of the entries `mask` keeps, and their replications."""
    idx = np.flatnonzero(mask)
    return idx, rep.take(idx)


def _settle(rep, k, arrival, value, delay, listed, R, end):
    """(t_first, price) per replication of k (rep nondecreasing): the first
    offer in time at or above its list (listed, np.inf for none) sells at
    its arrival t_first, the first in array order on a tie; else (t_first
    = inf) the best offer >= R with delay >= end - arrival sells at end;
    else price is 0.0, which no offer is (offers are > 0)."""
    idx, rep_above = _kept(value >= listed, rep)
    first = arrival.take(idx)
    t_first = _segment(np.minimum, first, rep_above, k, np.inf)
    win, rep_win = _kept(first == t_first.take(rep_above), rep_above)
    lead = np.ones(win.size, bool)
    lead[1:] = rep_win[1:] != rep_win[:-1]
    idx_s, rep_s = _kept((value >= R) & (delay >= end - arrival), rep)
    price = _segment(np.maximum, value.take(idx_s), rep_s, k, 0.0)
    price[rep_win[lead]] = value.take(idx.take(win[lead]))
    return t_first, price
