"""LAMB training runs, the 3-phase learning-rate schedule, and aggregation.

An epoch evaluates the parameters once, reduces their loss exactly, and
takes the exact gradient: the evaluator's ``pullback`` of the loss's
derivative on its outputs (finite differences stay the oracle).  Runs are
deterministic per seed: the collocation set is drawn once, parameters are
drawn from a spawned child seed, and every reduction has a fixed order.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import merton, models
from .errors import AggregationError, TrainingAbortError


# the learning-rate schedule: cosine decay, a plateau, then a final rate
COSINE_EPOCHS = 150
COSINE_START = 1e-2
COSINE_END = 1e-3
PLATEAU_EPOCHS = 100
PLATEAU_LR = 1e-3
FINAL_LR = 2e-4
TOTAL_EPOCHS = 1000


def lr_at(epoch: int) -> float:
    if not 0 <= epoch < TOTAL_EPOCHS:
        raise ValueError(f"epoch {epoch} outside [0, {TOTAL_EPOCHS})")
    if epoch < COSINE_EPOCHS:
        span = COSINE_START - COSINE_END
        return COSINE_END + 0.5 * span * (1.0 + math.cos(math.pi * epoch / COSINE_EPOCHS))
    if epoch < COSINE_EPOCHS + PLATEAU_EPOCHS:
        return PLATEAU_LR
    return FINAL_LR


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    n_runs: int = 10
    base_seed: int = 0
    eps: float = 1e-6
    n_interior: int = 50
    n_boundary: int = 50
    checkpoint_every: int | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.epochs > TOTAL_EPOCHS:
            raise ValueError("epochs exceeds the schedule's defined range")


@dataclass
class RunLog:
    seed: int
    losses: list[merton.LossBreakdown]
    lrs: list[float]
    wall_ms: list[float]
    final_params: np.ndarray
    aborted: str | None = None
    checkpoints: list[tuple[int, np.ndarray]] = field(default_factory=list)


@dataclass(frozen=True)
class AggregateStats:
    geo_mean: np.ndarray
    geo_std: np.ndarray


def lamb_step(params, grads, lr: float, groups, *, eps: float = 1e-6) -> np.ndarray:
    """One LAMB update with β = (0, 0) and no weight decay; returns the new params.

    update u = g/(√(g²)+ε) per coordinate, scaled per group by the trust
    ratio ‖w‖/‖u‖ (1 when either norm vanishes).  With both moment decays at
    zero, LAMB's moments are m = g and v = g², so no optimizer state is kept.
    """
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if not np.all(np.isfinite(grads)):
        raise TrainingAbortError("non-finite gradient")
    update = grads / (np.sqrt(grads**2) + eps)
    out = params.copy()
    for g in groups:
        p, u = params[g], update[g]
        wn, un = math.sqrt(p.dot(p)), math.sqrt(u.dot(u))
        trust = wn / un if wn > 0 and un > 0 else 1.0
        out[g] = params[g] - lr * trust * update[g]
    return out


class Objective:
    """The weighted loss on one collocation set, with its constants built once.

    ``points`` = (t_int, x_int, t_bnd, x_bnd) for ``batched_eval``: the
    interior, then the terminal points (t = T) and the lateral ones (x = 1).
    """

    def __init__(self, colloc: merton.CollocationSet, w: merton.LossWeights,
                 m: merton.MarketParams):
        t_i, x_i = colloc.interior[:, 0], colloc.interior[:, 1]
        n_b = len(colloc.terminal_x)
        self.points = (t_i, x_i, np.concatenate([np.full(n_b, m.T), colloc.lateral_t]),
                       np.concatenate([colloc.terminal_x, np.ones(n_b)]))
        self.target = np.concatenate([merton.terminal_target(colloc.terminal_x, m),
                                      merton.lateral_target(colloc.lateral_t, m)])
        self.m, self.widths, self.w = m, (len(x_i), n_b, n_b), (w.w_d, w.w_1, w.w_2)
        # ∂loss/∂error = 2·(w/n)·error; r·x and θ² enter ∂res/∂(v_t, v_x, v_xx)
        self.err_weight = np.repeat(2.0 * np.divide(self.w, self.widths), self.widths)
        self.rx, self.theta2 = m.r * x_i, ((m.mu - m.r) / m.sigma) ** 2

    def terms(self, outputs):
        """(l_d, l_1b, l_2b), one entry per row of the ``batched_eval``
        ``outputs``, by one exact ``fsum_rows``; and the errors they square."""
        (_, v_t, v_x, v_xx), f_bnd = outputs
        err = np.concatenate([merton.hjb_residual_arrays(v_t, v_x, v_xx, self.points[1], self.m),
                              f_bnd - self.target], axis=-1)
        sums = merton.fsum_rows(err * err, self.widths)
        return tuple(wt * sums[:, k] / n for k, (wt, n) in enumerate(zip(self.w, self.widths))), err

    def cotangent(self, outputs, err):
        """∂(l_d + l_1b + l_2b) on row 0 of ``outputs``, for ``pullback``: the chain
        rule through the boundary errors and res = v_t·v_xx + r·x·v_x·v_xx − ½θ²·v_x²."""
        v_t, v_x, v_xx = (c[0] for c in outputs[0][1:])
        g = self.err_weight * err[0]
        res = g[:self.widths[0]]
        return ((np.zeros_like(v_t), res * v_xx, res * (self.rx * v_xx - self.theta2 * v_x),
                 res * (v_t + self.rx * v_x)), g[self.widths[0]:])


def loss_terms(evaluator, params2d, colloc: merton.CollocationSet,
               w: merton.LossWeights, m: merton.MarketParams):
    """(l_d, l_1b, l_2b) arrays, one row per parameter vector in the batch."""
    obj = Objective(colloc, w, m)
    return obj.terms(evaluator.batched_eval(params2d, *obj.points))[0]


def run_training(evaluator, init: np.ndarray, cfg: TrainConfig,
                 m: merton.MarketParams, w: merton.LossWeights, seed: int) -> RunLog:
    """Core training loop over a prepared evaluator and initial parameters
    (an evaluator without parameters needs no ``pullback``)."""
    colloc = merton.sample_collocation(seed, cfg.n_interior, cfg.n_boundary, m.T)
    obj = Objective(colloc, w, m)
    params = np.asarray(init, dtype=float).copy()
    n = params.size
    log = RunLog(seed=seed, losses=[], lrs=[], wall_ms=[], final_params=params)
    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        outputs = evaluator.batched_eval(params[None, :], *obj.points)
        terms, err = obj.terms(outputs)
        breakdown = merton.LossBreakdown(*(float(t[0]) for t in terms))
        lr = lr_at(epoch)
        log.losses.append(breakdown)
        log.lrs.append(lr)
        try:
            if not math.isfinite(breakdown.total):
                raise TrainingAbortError("non-finite loss")
            grads = (evaluator.pullback(params, *obj.points, obj.cotangent(outputs, err))
                     if n else np.zeros(0))
            params = lamb_step(params, grads, lr, evaluator.groups, eps=cfg.eps)
        except TrainingAbortError as exc:
            log.aborted = f"{exc} at epoch {epoch}"
            log.wall_ms.append(1e3 * (time.perf_counter() - tic))
            break
        if cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
            log.checkpoints.append((epoch + 1, params.copy()))
        log.wall_ms.append(1e3 * (time.perf_counter() - tic))
    log.final_params = params
    return log


def train_run(spec: models.ModelSpec, cfg: TrainConfig, m: merton.MarketParams,
              w: merton.LossWeights, seed: int) -> RunLog:
    """Deterministic single-seed run: collocation and init derive from seed."""
    init_seed = np.random.SeedSequence(seed).spawn(1)[0]
    evaluator = models.make_evaluator(spec)
    init = models.init_params(spec, init_seed)
    return run_training(evaluator, init, cfg, m, w, seed)


def aggregate(runs: list[RunLog]) -> AggregateStats:
    """Per-epoch geometric mean/std (population convention) of total loss."""
    if not runs:
        raise AggregationError("no runs to aggregate")
    epochs = len(runs[0].losses)
    if any(len(r.losses) != epochs for r in runs):
        raise AggregationError("runs disagree on epoch count")
    totals = np.array([[lb.total for lb in r.losses] for r in runs])
    if np.any(totals <= 0.0) or not np.all(np.isfinite(totals)):
        raise AggregationError("geometric aggregation requires positive finite losses")
    logs = np.log(totals)
    return AggregateStats(
        geo_mean=np.exp(logs.mean(axis=0)),
        geo_std=np.exp(logs.std(axis=0)),
    )


# ---------------------------------------------------------------------------
# CSV export (17 significant digits for reproducibility diffs)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_run_csv(path, log: RunLog) -> None:
    with open(path, "w") as f:
        f.write("epoch,l_d,l_1b,l_2b,total,lr,wall_ms\n")
        for e, (lb, lr, ms) in enumerate(zip(log.losses, log.lrs, log.wall_ms)):
            f.write(",".join([str(e), _fmt(lb.l_d), _fmt(lb.l_1b), _fmt(lb.l_2b),
                              _fmt(lb.total), _fmt(lr), _fmt(ms)]) + "\n")


def write_aggregate_csv(path, agg: AggregateStats) -> None:
    with open(path, "w") as f:
        f.write("epoch,geomean,geostd_lo,geostd_hi\n")
        for e, (gm, gs) in enumerate(zip(agg.geo_mean, agg.geo_std)):
            f.write(",".join([str(e), _fmt(gm), _fmt(gm / gs), _fmt(gm * gs)]) + "\n")
