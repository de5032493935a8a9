"""LAMB training runs, the 3-phase learning-rate schedule, and aggregation.

Gradients are central finite differences over parameters (step
h·max(1, |θᵢ|), ``duals.fd_stack``), evaluated for all 2P+1 perturbed
parameter vectors in one batched pass through the model evaluator and one
exact loss reduction.  Runs are deterministic per seed:
the collocation set is drawn once, parameters are drawn from a spawned
child seed, and every reduction has a fixed order.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import duals, merton, models
from .errors import AggregationError, TrainingAbortError


@dataclass(frozen=True)
class LrSchedule:
    cosine_epochs: int = 150
    cosine_start: float = 1e-2
    cosine_end: float = 1e-3
    plateau_epochs: int = 100
    plateau_lr: float = 1e-3
    final_lr: float = 2e-4
    total_epochs: int = 1000


def lr_at(schedule: LrSchedule, epoch: int) -> float:
    if not 0 <= epoch < schedule.total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {schedule.total_epochs})")
    if epoch < schedule.cosine_epochs:
        span = schedule.cosine_start - schedule.cosine_end
        return schedule.cosine_end + 0.5 * span * (
            1.0 + math.cos(math.pi * epoch / schedule.cosine_epochs)
        )
    if epoch < schedule.cosine_epochs + schedule.plateau_epochs:
        return schedule.plateau_lr
    return schedule.final_lr


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    n_runs: int = 10
    base_seed: int = 0
    betas: tuple[float, float] = (0.0, 0.0)
    weight_decay: float = 0.0
    eps: float = 1e-6
    n_interior: int = 50
    n_boundary: int = 50
    grad_step: float = 1e-5
    checkpoint_every: int | None = None
    schedule: LrSchedule = field(default_factory=LrSchedule)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.epochs > self.schedule.total_epochs:
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


def lamb_step(params, grads, state, lr: float, groups, *, betas=(0.0, 0.0),
              eps: float = 1e-6, weight_decay: float = 0.0):
    """One LAMB update; returns (new params, new state).

    update u = m/(√v+ε)+wd·w per coordinate, scaled per group by the trust
    ratio ‖w‖/‖u‖ (1 when either norm vanishes).  No bias correction, as in
    the reference implementation; with β=(0,0) this reduces to m=g, v=g².
    """
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if not np.all(np.isfinite(grads)):
        raise TrainingAbortError("non-finite gradient")
    if state is None:
        state = {"m": np.zeros_like(params), "v": np.zeros_like(params)}
    b1, b2 = betas
    state = {
        "m": b1 * state["m"] + (1.0 - b1) * grads,
        "v": b2 * state["v"] + (1.0 - b2) * grads**2,
    }
    update = state["m"] / (np.sqrt(state["v"]) + eps)
    if weight_decay:
        update = update + weight_decay * params
    out = params.copy()
    for g in groups:
        p, u = params[g], update[g]
        wn, un = math.sqrt(p.dot(p)), math.sqrt(u.dot(u))
        trust = wn / un if wn > 0 and un > 0 else 1.0
        out[g] = params[g] - lr * trust * update[g]
    return out, state


def loss_terms(evaluator, params2d, colloc: merton.CollocationSet,
               w: merton.LossWeights, m: merton.MarketParams):
    """(l_d, l_1b, l_2b) arrays, one row per parameter vector in the batch.

    One pass: a single ``batched_eval``, one residual, and one exact
    ``fsum_rows`` reduction of the (B, N_d + 2·N_b) squared residuals and
    boundary errors.
    """
    t_i, x_i = colloc.interior[:, 0], colloc.interior[:, 1]
    n_d, n_b = len(x_i), len(colloc.terminal_x)
    t_bnd = np.concatenate([np.full(n_b, m.T), colloc.lateral_t])
    x_bnd = np.concatenate([colloc.terminal_x, np.ones(n_b)])
    (_, v_t, v_x, v_xx), f_bnd = evaluator.batched_eval(params2d, t_i, x_i, t_bnd, x_bnd)
    tgt = np.concatenate([merton.terminal_target(colloc.terminal_x, m),
                          merton.lateral_target(colloc.lateral_t, m)])
    err = np.concatenate([merton.hjb_residual_arrays(v_t, v_x, v_xx, x_i[None, :], m),
                          f_bnd - tgt], axis=1)
    sums = merton.fsum_rows(err * err, (n_d, n_b, n_b))
    return w.w_d * sums[:, 0] / n_d, w.w_1 * sums[:, 1] / n_b, w.w_2 * sums[:, 2] / n_b


def run_training(evaluator, init: np.ndarray, cfg: TrainConfig,
                 m: merton.MarketParams, w: merton.LossWeights, seed: int) -> RunLog:
    """Core training loop over a prepared evaluator and initial parameters."""
    colloc = merton.sample_collocation(seed, cfg.n_interior, cfg.n_boundary, m.T)
    params = np.asarray(init, dtype=float).copy()
    n = params.size
    state = None
    log = RunLog(seed=seed, losses=[], lrs=[], wall_ms=[], final_params=params)
    for epoch in range(cfg.epochs):
        tic = time.perf_counter()
        stack, steps = duals.fd_stack(params, cfg.grad_step)
        l_d, l_1b, l_2b = loss_terms(evaluator, stack, colloc, w, m)
        total = l_d + l_1b + l_2b
        breakdown = merton.LossBreakdown(float(l_d[0]), float(l_1b[0]), float(l_2b[0]))
        lr = lr_at(cfg.schedule, epoch)
        log.losses.append(breakdown)
        log.lrs.append(lr)
        if not np.all(np.isfinite(total)):
            log.aborted = f"non-finite loss at epoch {epoch}"
            log.wall_ms.append(1e3 * (time.perf_counter() - tic))
            break
        grads = (total[1::2] - total[2::2]) / (2.0 * steps) if n else np.zeros(0)
        try:
            params, state = lamb_step(params, grads, state, lr, evaluator.groups,
                                      betas=cfg.betas, eps=cfg.eps,
                                      weight_decay=cfg.weight_decay)
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
