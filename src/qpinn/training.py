"""LAMB training runs, the 3-phase learning-rate schedule, and aggregation.

Every epoch of every model is one path: one forward (``batched_eval`` of
the parameter row into one flat output row at the run's collocation
points, whose features the evaluator holds), one loss-and-cotangent pass
(``Objective.loss_and_cotangent``: one ``tolist`` and three exact
``math.fsum`` sums, and the loss's derivative on the outputs as one flat
cotangent), one ``backward`` to the exact gradient, and one LAMB step,
one ``params − scale·update`` over every group (finite differences stay
the oracle).  Runs are deterministic per seed: the collocation set is
drawn once and snapshotted once, so every epoch hands the forward the same
read-only point arrays; parameters are drawn from a spawned child seed, and
every reduction has a fixed order.
"""
from __future__ import annotations

import math
import os
import stat
import time
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain

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
    eps: float = 1e-6
    n_interior: int = 50
    n_boundary: int = 50
    checkpoint_every: int | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be a finite positive number, got {self.eps!r}")
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

    update u = g/(√(g²)+ε) per coordinate, taken as g/(|g|+ε), which is
    the same number wherever g² neither overflows nor underflows and stays
    finite where it would; scaled per group by the trust ratio ‖w‖/‖u‖ (1
    when either norm vanishes).  The groups partition the coordinates: each
    group's lr·trust fills its span of one per-coordinate scale, and the
    step is one ``params − scale·u``.  With both moment decays at zero,
    LAMB's moments are m = g and v = g², so no optimizer state is kept.
    """
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if not np.isfinite(grads).all():
        raise TrainingAbortError("non-finite gradient")
    update = grads / (np.abs(grads) + eps)
    scale = np.zeros(params.shape)
    for g in groups:
        p, u = params[g], update[g]
        wn, un = math.sqrt(p.dot(p)), math.sqrt(u.dot(u))
        scale[g] = lr * (wn / un if wn > 0 and un > 0 else 1.0)
    return params - scale * update


class Objective:
    """The weighted loss on one collocation set, with its constants built once.

    ``points`` = (t_int, x_int, t_bnd, x_bnd) for ``batched_eval``: the
    interior, then the terminal points (t = T) and the lateral ones (x = 1),
    each a ``models.snapshot`` taken here.  The objective keeps the set as
    it was when built: changing the set later changes neither its loss nor
    its cotangent, and every epoch hands ``batched_eval`` the same arrays.
    The errors are the residuals and then the boundary errors; each loss
    term is the weighted mean square of one span of them.
    """

    def __init__(self, colloc: merton.CollocationSet, w: merton.LossWeights,
                 m: merton.MarketParams):
        t_i, x_i = (models.snapshot(a) for a in colloc.interior.T)
        n, n_b = len(x_i), len(colloc.terminal_x)
        self.points = (t_i, x_i,
                       models.snapshot(np.concatenate([np.full(n_b, m.T), colloc.lateral_t])),
                       models.snapshot(np.concatenate([colloc.terminal_x, np.ones(n_b)])))
        self.target = np.concatenate([merton.terminal_target(colloc.terminal_x, m),
                                      merton.lateral_target(colloc.lateral_t, m)])
        self.m, self.x, self.n = m, x_i, n
        # (weight, count, first, end) of l_d, l_1b and l_2b over the errors
        self.spans = ((w.w_d, n, 0, n), (w.w_1, n_b, n, n + n_b),
                      (w.w_2, n_b, n + n_b, n + 2 * n_b))
        # ∂loss/∂error = 2·(w/n)·error; r·x and θ² enter ∂res/∂(v_t, v_x, v_xx)
        self.err_weight = np.repeat([2.0 * (wt / k) for wt, k, _, _ in self.spans],
                                    [k for _, k, _, _ in self.spans])
        self.rx, self.theta2 = m.r * x_i, ((m.mu - m.r) / m.sigma) ** 2
        self.err, self.n_out = np.empty(n + 2 * n_b), 4 * n + 2 * n_b

    def _errors(self, v_t, v_x, v_xx, bnd, out):
        """The residuals, then the boundary errors, written into ``out``."""
        out[..., :self.n] = merton.hjb_residual_arrays(v_t, v_x, v_xx, self.x, self.m)
        np.subtract(bnd, self.target, out=out[..., self.n:])
        return out

    def _terms(self, squares: list) -> list:
        """(l_d, l_1b, l_2b) of one row of squared errors, by exact sums."""
        return [wt * math.fsum(squares[lo:hi]) / k for wt, k, lo, hi in self.spans]

    def terms(self, outputs):
        """(l_d, l_1b, l_2b) arrays, one entry per row of ``batched_eval``'s
        ``outputs``."""
        (_, v_t, v_x, v_xx), bnd = outputs
        err = self._errors(v_t, v_x, v_xx, bnd, np.empty((len(bnd), len(self.err))))
        rows = [self._terms(squares) for squares in (err * err).tolist()]
        return tuple(np.array(rows).reshape(-1, 3).T.copy())

    def loss_and_cotangent(self, outputs):
        """The (l_d, l_1b, l_2b) floats of row 0 of ``batched_eval``'s
        ``outputs``, and ∂(l_d + l_1b + l_2b) on that row for ``backward``:
        one flat row laid out as the outputs (v, v_t, v_x, v_xx, boundary),
        by the chain rule through the boundary errors and the residual
        res = v_t·v_xx + r·x·v_x·v_xx − ½θ²·v_x².  The cotangent is None
        when the loss is not finite, else a new array: only the error row is
        reused by the next call."""
        (_, v_t, v_x, v_xx), bnd = outputs
        v_t, v_x, v_xx, n = v_t[0], v_x[0], v_xx[0], self.n
        err = self._errors(v_t, v_x, v_xx, bnd[0], self.err)
        sq, fsum = (err * err).tolist(), math.fsum
        (w_d, k_d, _, b_d), (w_1, k_1, _, b_1), (w_2, k_2, _, _) = self.spans
        terms = [w_d * fsum(sq[:b_d]) / k_d, w_1 * fsum(sq[b_d:b_1]) / k_1,
                 w_2 * fsum(sq[b_1:]) / k_2]
        if not math.isfinite(terms[0] + terms[1] + terms[2]):
            return terms, None
        err *= self.err_weight   # now ∂loss/∂error
        res, cot = err[:n], np.zeros(self.n_out)
        np.multiply(res, v_xx, out=cot[n:2 * n])
        np.multiply(res, self.rx * v_xx - self.theta2 * v_x, out=cot[2 * n:3 * n])
        np.multiply(res, v_t + self.rx * v_x, out=cot[3 * n:4 * n])
        cot[4 * n:] = err[n:]
        return terms, cot


def loss_terms(evaluator, params2d, colloc: merton.CollocationSet,
               w: merton.LossWeights, m: merton.MarketParams):
    """(l_d, l_1b, l_2b) arrays, one row per parameter vector in the batch."""
    obj = Objective(colloc, w, m)
    return obj.terms(evaluator.batched_eval(params2d, *obj.points))


def run_training(evaluator, init: np.ndarray, cfg: TrainConfig,
                 m: merton.MarketParams, w: merton.LossWeights, seed: int) -> RunLog:
    """Core training loop over a prepared evaluator and initial parameters,
    one epoch as the module docstring describes (an evaluator without
    parameters needs no ``backward``)."""
    colloc = merton.sample_collocation(seed, cfg.n_interior, cfg.n_boundary, m.T)
    obj = Objective(colloc, w, m)
    params = np.asarray(init, dtype=float).copy()
    n = params.size
    log = RunLog(seed=seed, losses=[], lrs=[], wall_ms=[], final_params=params)
    # what every epoch looks up, looked up once
    forward, points = evaluator.batched_eval, obj.points
    loss_and_cotangent = obj.loss_and_cotangent
    backward = getattr(evaluator, "backward", None) if n else lambda cot: np.zeros(0)
    groups, eps, every, clock = evaluator.groups, cfg.eps, cfg.checkpoint_every, time.perf_counter
    breakdown, losses, lrs, wall_ms = merton.LossBreakdown, log.losses, log.lrs, log.wall_ms
    # an overflowing forward ends in a non-finite loss, which aborts the run
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            tic = clock()
            terms, cot = loss_and_cotangent(forward(params[None], *points))
            lr = lr_at(epoch)
            losses.append(breakdown(*terms))
            lrs.append(lr)
            try:
                if cot is None:
                    raise TrainingAbortError("non-finite loss")
                params = lamb_step(params, backward(cot), lr, groups, eps=eps)
            except TrainingAbortError as exc:
                log.aborted = f"{exc} at epoch {epoch}"
                wall_ms.append(1e3 * (clock() - tic))
                break
            if every and (epoch + 1) % every == 0:
                log.checkpoints.append((epoch + 1, params.copy()))
            wall_ms.append(1e3 * (clock() - tic))
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


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as ``open(path, "w")`` would, but replace a
    regular file this user owns and may write, with no other link, by
    unlinking it first: cheaper on ext4, which flushes a truncated file on
    close.  The new file takes the umask's mode and, unflushed, may be empty
    or missing after a power loss soon after.  Any other path (a symlink, a
    device, a FIFO, a read-only or hard-linked file) is opened in place."""
    with suppress(FileNotFoundError):
        st = os.lstat(path)
        if (stat.S_ISREG(st.st_mode) and st.st_uid == os.geteuid()
                and st.st_mode & stat.S_IWUSR and st.st_nlink == 1):
            os.unlink(path)
    with open(path, "w") as f:
        f.write(text)


def write_csv(path, header: str, fmt: str, rows) -> None:
    """Write ``header`` and then every row of ``rows`` by the %-format
    ``fmt``, all rows formatted in one pass."""
    rows = list(rows)
    write_text(path, header + fmt * len(rows) % tuple(chain.from_iterable(rows)))


def write_run_csv(path, log: RunLog) -> None:
    write_csv(path, "epoch,l_d,l_1b,l_2b,total,lr,wall_ms\n", "%d" + ",%.17g" * 6 + "\n",
              ((e, lb.l_d, lb.l_1b, lb.l_2b, lb.total, lr, ms)
               for e, (lb, lr, ms) in enumerate(zip(log.losses, log.lrs, log.wall_ms))))


def write_aggregate_csv(path, agg: AggregateStats) -> None:
    gm, gs = agg.geo_mean, agg.geo_std
    write_csv(path, "epoch,geomean,geostd_lo,geostd_hi\n", "%d,%.17g,%.17g,%.17g\n",
              zip(range(len(gm)), gm.tolist(), (gm / gs).tolist(), (gm * gs).tolist()))
