"""Merton market model: HJB residual, losses, analytical solution, sampling.

The value function solves

    ∂t v·∂²x v + ∂x v·∂²x v·r·x − ½((μ−r)/σ)²·(∂x v)² = 0,
    v(T, x) = x^γ/γ,      v(t, 1) = e^{−k(T−t)}/γ,

with k = ½·γ/(γ−1)·((μ−r)/σ)² − r·γ and analytical solution
v(t, x) = e^{−k(T−t)}·x^γ/γ.  A loss evaluation squares the residuals and
the boundary errors into one array and reduces all three terms in a single
``fsum_rows`` pass of ``math.fsum`` sums, so every term is exact and
invariant under permutation of the collocation points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from .errors import DegenerateControlError, DomainError


def _check_finite(params) -> None:
    """Refuse NaN and ±inf fields, which pass the ``<=`` range tests."""
    bad = [f.name for f in fields(params) if not math.isfinite(getattr(params, f.name))]
    if bad:
        raise ValueError(f"{', '.join(bad)} must be finite, got "
                         + ", ".join(repr(getattr(params, name)) for name in bad))


@dataclass(frozen=True)
class MarketParams:
    r: float = 0.02
    T: float = 1.0
    gamma: float = 0.95
    mu: float = 0.0219
    sigma: float = 0.2

    def __post_init__(self):
        _check_finite(self)
        if not self.mu > self.r:
            raise ValueError("requires mu > r")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.sigma <= 0 or self.T <= 0:
            raise ValueError("sigma and T must be positive")
        try:   # e^{−k(T−t)} lies between 1 and e^{−k·T} on [0, T]; k = ±inf or NaN fails
            envelope = math.exp(-k_constant(self) * self.T)
        except OverflowError:
            envelope = math.inf
        if not 0.0 < envelope < math.inf:
            raise ValueError("the analytical solution is out of range: e^(-k*T) is "
                             f"{envelope!r}, not a finite nonzero double")


@dataclass(frozen=True)
class LossWeights:
    w_d: float = 1.0
    w_1: float = 1.0
    w_2: float = 5.0

    def __post_init__(self):
        _check_finite(self)
        if min(self.w_d, self.w_1, self.w_2) <= 0:
            raise ValueError("loss weights must be positive")


@dataclass(frozen=True)
class CollocationSet:
    interior: np.ndarray   # (N_d, 2) columns (t, x)
    terminal_x: np.ndarray  # (N_b,) x at t = T
    lateral_t: np.ndarray   # (N_b,) t at x = 1


@dataclass(frozen=True)
class LossBreakdown:
    l_d: float
    l_1b: float
    l_2b: float

    @property
    def total(self) -> float:
        return self.l_d + self.l_1b + self.l_2b


def k_constant(m: MarketParams) -> float:
    return 0.5 * m.gamma / (m.gamma - 1.0) * ((m.mu - m.r) / m.sigma) ** 2 - m.r * m.gamma


class AnalyticalSolution:
    """Value-and-derivative handle for the closed-form solution."""

    def __init__(self, m: MarketParams):
        self.m = m
        self.k = k_constant(m)

    def values(self, t, x):
        t, x = self._checked(t, x)
        return np.exp(-self.k * (self.m.T - t)) * x**self.m.gamma / self.m.gamma

    def derivatives(self, t, x):
        t, x = self._checked(t, x)
        g = self.m.gamma
        env = np.exp(-self.k * (self.m.T - t))
        v = env * x**g / g
        v_t = self.k * v
        v_x = env * x ** (g - 1.0)
        v_xx = (g - 1.0) * env * x ** (g - 2.0)
        return v, v_t, v_x, v_xx

    @staticmethod
    def _checked(t, x):
        t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
        if not np.all(x > 0.0):     # NaN fails it too
            raise DomainError("analytical solution requires x > 0")
        if np.isnan(t).any():
            raise DomainError("analytical solution requires t that is not NaN")
        return t, x


def hjb_residual_arrays(v_t, v_x, v_xx, x, m: MarketParams):
    theta2 = ((m.mu - m.r) / m.sigma) ** 2
    return v_t * v_xx + v_x * v_xx * m.r * x - 0.5 * theta2 * v_x**2


def terminal_target(x, m: MarketParams):
    return np.asarray(x, dtype=float) ** m.gamma / m.gamma


def lateral_target(t, m: MarketParams):
    k = k_constant(m)
    return np.exp(-k * (m.T - np.asarray(t, dtype=float))) / m.gamma


def fsum_rows(arr: np.ndarray, widths) -> np.ndarray:
    """Exact (fsum) sums of consecutive column segments of ``widths`` in each row.

    A (B, N) ``arr`` gives (B, len(widths)), a 1-D one (len(widths),).  One
    ``tolist`` and one ``math.fsum`` per (row, segment); each sum is exact
    and so invariant under permutation within its segment.
    """
    bounds = list(accumulate(widths, initial=0))
    if bounds[-1] != np.shape(arr)[-1]:
        raise ValueError(f"segment widths sum to {bounds[-1]}, rows have {np.shape(arr)[-1]}")
    spans = list(zip(bounds[:-1], bounds[1:]))
    sums = [math.fsum(row[lo:hi]) for row in np.atleast_2d(arr).tolist() for lo, hi in spans]
    out = np.array(sums).reshape(-1, len(spans))
    return out if np.ndim(arr) > 1 else out[0]


def sample_collocation(seed, n_interior: int = 50, n_boundary: int = 50,
                       T: float = 1.0) -> CollocationSet:
    """Uniform i.i.d. draws from [0.01, 0.99] for all free coordinates; the
    t coordinates are then scaled by the horizon ``T``."""
    if n_interior < 1 or n_boundary < 1:
        raise ValueError("counts must be >= 1")
    rng = np.random.default_rng(seed)
    interior = rng.uniform(0.01, 0.99, size=(n_interior, 2))
    terminal_x = rng.uniform(0.01, 0.99, size=n_boundary)
    lateral_t = rng.uniform(0.01, 0.99, size=n_boundary)
    interior[:, 0] *= T
    lateral_t *= T
    return CollocationSet(interior, terminal_x, lateral_t)


def total_loss(model, c: CollocationSet, w: LossWeights, m: MarketParams) -> LossBreakdown:
    """Weighted mean-square residual and boundary losses.

    ``model`` provides ``derivatives(t, x)`` → (v, v_t, v_x, v_xx) arrays at
    interior points and ``values(t, x)`` at boundary points; the terminal
    term is evaluated at t = T exactly, the lateral term at x = 1 exactly.
    """
    t_i, x_i = c.interior[:, 0], c.interior[:, 1]
    _, v_t, v_x, v_xx = model.derivatives(t_i, x_i)
    f_term = model.values(np.full_like(c.terminal_x, m.T), c.terminal_x)
    f_lat = model.values(c.lateral_t, np.ones_like(c.lateral_t))
    err = np.concatenate([hjb_residual_arrays(v_t, v_x, v_xx, x_i, m),
                          f_term - terminal_target(c.terminal_x, m),
                          f_lat - lateral_target(c.lateral_t, m)])
    n_d, n_1, n_2 = len(x_i), len(c.terminal_x), len(c.lateral_t)
    s_d, s_1, s_2 = fsum_rows(err * err, (n_d, n_1, n_2)).tolist()
    return LossBreakdown(w.w_d * s_d / n_d, w.w_1 * s_1 / n_1, w.w_2 * s_2 / n_2)


def optimal_control(v_x: float, v_xx: float, x: float, m: MarketParams) -> float:
    """α̂ = −((μ−r)/σ²)·v_x/(v_xx·x); constant for the analytical solution."""
    if v_xx == 0.0 or x == 0.0:
        raise DegenerateControlError("optimal control undefined for v_xx = 0 or x = 0")
    return -((m.mu - m.r) / m.sigma**2) * v_x / (v_xx * x)
