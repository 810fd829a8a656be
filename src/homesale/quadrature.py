"""Composite Simpson quadrature on explicit node grids.

Kept deliberately small: the payoff integrals need the raw nodes and
weights (for broadcasting over 2-D integrand grids), not just a scalar
integrate() call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simpson_nodes"]


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
