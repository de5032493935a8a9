"""LAMB training runs, the 3-phase learning-rate schedule, and aggregation.

Every epoch of every model is one path: one forward (``batched_eval`` of
the parameter row into one flat output row at the run's collocation
points, whose features the evaluator holds), one loss-and-cotangent pass
(``Objective.loss_and_cotangent``, the one reduction of the loss: one
``tolist`` and three exact ``math.fsum`` sums, and the loss's derivative on
the outputs as one flat cotangent), one ``backward`` to the exact gradient,
and one LAMB step, one ``params − scale·update`` over every group (finite
differences stay the oracle).  Runs are deterministic per seed: the
collocation set is drawn once and snapshotted once, so every epoch hands
the forward the same read-only point arrays; parameters are drawn from a
spawned child seed, and every reduction has a fixed order.
``loss_terms``, the loss of a stack of parameter rows, runs that reduction
on each row of one ``batched_eval``.

The CSV artifacts are written by one column writer (``csv_cells``,
``csv_bytes``, ``write_csv``): each value's ``'%.17g'`` (or ``'%d'``)
text, all columns of a file in one numpy pass, exact by Dekker's
TwoProduct where 10^k is an exact double and by ``%`` itself elsewhere.
``surface_writer`` formats a surface grid's ``t,x`` text once and each
surface's values in one call.
"""
from __future__ import annotations

import math
import os
import stat
import time
from contextlib import suppress
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
        # (weight, count, end) of l_d, l_1b and l_2b over the errors
        self.spans = ((w.w_d, n, n), (w.w_1, n_b, n + n_b), (w.w_2, n_b, n + 2 * n_b))
        # ∂loss/∂error = 2·(w/n)·error; r·x and θ² enter ∂res/∂(v_t, v_x, v_xx)
        self.err_weight = np.repeat([2.0 * (wt / k) for wt, k, _ in self.spans],
                                    [k for _, k, _ in self.spans])
        self.rx, self.theta2 = m.r * x_i, ((m.mu - m.r) / m.sigma) ** 2
        self.err, self.n_out = np.empty(n + 2 * n_b), 4 * n + 2 * n_b

    def loss_and_cotangent(self, outputs):
        """The (l_d, l_1b, l_2b) floats of row 0 of ``batched_eval``'s
        ``outputs``, each the weighted mean of one span of the squared error
        row by an exact ``math.fsum``, and ∂(l_d + l_1b + l_2b) on that row
        for ``backward``: one flat row laid out as the outputs (v, v_t, v_x,
        v_xx, boundary), by the chain rule through the boundary errors and
        the residual res = v_t·v_xx + r·x·v_x·v_xx − ½θ²·v_x².  The
        cotangent is None when the loss is not finite, else a new array:
        only the error row is reused by the next call."""
        (_, v_t, v_x, v_xx), bnd = outputs
        v_t, v_x, v_xx, n, err = v_t[0], v_x[0], v_xx[0], self.n, self.err
        err[:n] = merton.hjb_residual_arrays(v_t, v_x, v_xx, self.x, self.m)
        np.subtract(bnd[0], self.target, out=err[n:])
        sq, fsum = (err * err).tolist(), math.fsum
        (w_d, k_d, b_d), (w_1, k_1, b_1), (w_2, k_2, _) = self.spans
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
    """(l_d, l_1b, l_2b) arrays, one entry per row of ``params2d``: the terms
    that ``Objective.loss_and_cotangent`` gives for that row's slice of one
    ``batched_eval``."""
    obj = Objective(colloc, w, m)
    bundles, bnd = evaluator.batched_eval(params2d, *obj.points)
    rows = [obj.loss_and_cotangent((tuple(a[r:r + 1] for a in bundles), bnd[r:r + 1]))[0]
            for r in range(len(bnd))]
    return tuple(np.array(rows).reshape(-1, 3).T.copy())


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
#
# Every value is written as ``'%.17g' % v`` (a float) or ``'%d' % v`` (an
# int) writes it, all columns of a file in one numpy pass.  Each value gets
# a 48-byte cell that holds every byte its text can need, at fixed offsets:
#
#   0 '-' | 1-5 "0.000" | 6 (unused) | 7 d0 | 8-23 d1..d16 (copy A) | 24 '.'
#   | 25-40 d1..d16 (copy B) | 41-44 "e±XX" | 45 separator | 46-47 (unused)
#
# with d0..d16 the 17 correctly rounded significant digits and X the
# decimal exponent.  A mask over the cell, looked up by (sign, X, nd), picks
# the text in order, as %g lays it out: the sign if negative; for X ≥ 0,
# d0..dX of copy A and, if nd > X + 1, '.' and d(X+1)..d(nd−1) of copy B;
# for −4 ≤ X < 0, "0.", −X−1 zeros and d0..d(nd−1) of copy A; below, d0
# and, if nd > 1, '.' and d1..d(nd−1) of copy B, then the exponent; and
# then the separator.  nd counts the digits up to the last nonzero one, so
# trailing zeros are dropped.  One boolean selection over a file's cells
# makes its rows.  A value the fast path does not cover (±0, subnormals,
# NaN, ±inf, |v| outside [1e-6, 1e17), and ints above 2^53) is formatted by
# ``%`` itself, its text left-aligned in its cell.

CELL = 48                                   # bytes per value cell
# bytes 0-7 of a cell: "-0.000", then ord("0") in byte 7, to which d0 adds
_WORD0 = int.from_bytes(b"-0.000\0" + b"0", "little")
_TEXT = 25                                  # the longest fallback text: '%.17g' of
                                            # -2.2250738585072014e-308, or '%d' of an int64
# the mask of a fallback text of each length, left-aligned, and its ','
_TEXT_MASKS = (np.arange(CELL) < np.arange(_TEXT + 1)[:, None]) | (np.arange(CELL) == 45)
# 10^k for k ≤ 22, each an exact double, and Dekker's split of it
_POW10 = 10.0 ** np.arange(23)
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _cell_masks() -> np.ndarray:
    """The mask of each layout, at (sign bit·23 + k)·18 + nd with X = 16 − k,
    each as 6 uint64 words of 8 bools."""
    neg = np.arange(2)[:, None, None, None]
    x = (16 - np.arange(23))[None, :, None, None]
    nd = np.arange(18)[None, None, :, None]
    b = np.arange(CELL)
    in_a, in_b = (b >= 7) & (b <= 23), (b >= 25) & (b <= 40)
    a, c = b - 7, b - 24                    # the digit index in copy A and copy B
    fixed = np.where(x >= 0, (in_a & (a <= x)) | ((b == 24) & (nd > x + 1))
                     | (in_b & (c > x) & (c < nd)),
                     (b == 1) | (b == 2) | ((b >= 3) & (b < 2 - x)) | (in_a & (a < nd)))
    expo = ((b == 7) | ((b == 24) & (nd > 1)) | (in_b & (c < nd))
            | ((b >= 41) & (b <= 44)))
    masks = np.where(x < -4, expo, fixed) | ((b == 0) & (neg == 1)) | (b == 45)
    return masks.reshape(-1, CELL).view(np.uint64)


_MASKS = _cell_masks()
_QUAD = np.arange(10 ** 4)
# the four digit characters of each 4-digit group; and, for group j of
# d1..d16 (index j·10^4 + group), 1 + the index of its last nonzero digit
# among d0..d16, or 1 for 0000
_QUAD_CHARS = ((_QUAD[:, None] // np.array([1000, 100, 10, 1])) % 10 + 48).astype(
    np.uint8).view(np.uint32).ravel()
_QUAD_END = np.where(_QUAD == 0, 1, np.arange(1, 17, 4)[:, None] + 4 - (_QUAD % 10 == 0)
                     - (_QUAD % 100 == 0) - (_QUAD % 1000 == 0)).astype(np.int8).ravel()
_QUAD_BASE = np.arange(0, 4 * 10 ** 4, 10 ** 4)
# the exponent bytes "e±XX" of X = 16 − k, by k
_EXP_WORDS = np.array([int.from_bytes(b"\0e%+03d" % (16 - k), "little") for k in range(23)],
                      np.uint64)


def _float_digits(v):
    """(q, k, fast): the 17 correctly rounded significant digits of |v| as an
    integer q in [1e16, 1e17) and k = 16 − X for its decimal exponent X,
    where ``fast``; elsewhere q = 1e16 and k = 16.

    |v|·10^k lies in [1e16, 1e17), where doubles are even integers; for k in
    [0, 22] 10^k is exact, so Dekker's TwoProduct gives the exact product as
    p + e, p = fl(|v|·10^k) an even integer and |e| at most half its
    spacing.  Rounding p + e half to even is then p + rint(e).  k starts
    from floor(log10|v|) and moves by one where p + e leaves [1e16, 1e17); a
    value whose k leaves [0, 22], or that still lies outside, is not
    ``fast``."""
    a = np.abs(v)
    # fmax: no log10(0), and NaN (signalling too) becomes 1e-300, so k ≥ 300
    k = 16.0 - np.floor(np.log10(np.fmax(a, 1e-300)))
    fast = (k >= 0.0) & (k <= 22.0)             # NaN, ±inf and 0 fail
    a = np.where(fast, a, 1.0)
    k = np.where(fast, k, 16.0).astype(np.intp)
    p, e = _times_ten_to(a, k)
    for step in range(2):
        off = _off_range(p, e)
        if off is None:
            break
        low, high = off
        if step == 0:                           # floor(log10|v|) was one off
            k += low
            k -= high
            fast &= (k >= 0) & (k <= 22)
        else:                                   # more than one off: left to '%'
            fast &= ~(low | high)
        a[~fast], k[~fast] = 1.0, 16
        p, e = _times_ten_to(a, k)
    q = p.astype(np.int64)
    q += np.rint(e).astype(np.int64)
    if q.size and q.max() == 10 ** 17:
        carry = q == 10 ** 17
        q[carry] = 10 ** 16
        k -= carry                              # k ≥ 1 here: at k = 0, q = |v| < 1e17
    return q, k, fast


def _off_range(p, e):
    """(low, high): where p + e < 1e16 and where p + e ≥ 1e17; None when
    neither occurs.  (p − 1e16) + e has the sign of p + e − 1e16: the
    difference is exact where p is within a factor 2 of 1e16, and |e| is
    below the spacing of p; and p + e ≥ 1e17 only where p ≥ 1e17."""
    if not p.size or ((p - 1e16) + e).min() >= 0 and p.max() < 1e17:
        return None
    return (p - 1e16) + e < 0, (p - 1e17) + e >= 0


def _times_ten_to(a, k):
    """(p, e) with p = fl(a·10^k) and p + e = a·10^k exactly: TwoProduct
    with Dekker's split of a, and of 10^k from the table."""
    bh, bl = _POW10_HI.take(k), _POW10_LO.take(k)
    p = a * _POW10.take(k)
    c = a * 134217729.0                         # 2^27 + 1
    ah = c - (c - a)
    al = a - ah
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _fill_cells(cells, masks, v):
    """Write the cells of the float array ``v`` (any shape S) into ``cells``,
    a uint8 view of shape S + (48,), with ',' after each value, and their
    masks into ``masks``, a bool view of that shape.  Returns where each
    value took the fast path; the other cells are the caller's to write."""
    q, k, fast = _float_digits(v)
    d0, rest = np.divmod(q, 10 ** 16)
    halves = np.empty(v.shape + (2,), np.int64)
    np.divmod(rest, 10 ** 8, out=(halves[..., 0], halves[..., 1]))
    quads = np.empty(v.shape + (2, 2), np.int64)
    np.divmod(halves, 10 ** 4, out=(quads[..., 0], quads[..., 1]))
    quads = quads.reshape(v.shape + (4,))       # d1..d16, four digits each
    end = _QUAD_END.take(quads + _QUAD_BASE)
    nd = np.maximum(np.maximum(end[..., 0], end[..., 1]), np.maximum(end[..., 2], end[..., 3]))
    # the cell as six little-endian words: "-0.000" and d0 | d1..d8 | d9..d16
    # | '.' and d1..d7 | d8..d15 | d16, exponent, ',' — copy B is copy A
    # moved on by 17 bytes
    words = cells.view(np.uint64)
    np.left_shift(d0.view(np.uint64), 56, out=words[..., 0])
    words[..., 0] += _WORD0
    a = _QUAD_CHARS.take(quads).view(np.uint64)
    words[..., 1:3] = a
    np.left_shift(a[..., 0], 8, out=words[..., 3])
    words[..., 3] |= ord(".")
    np.right_shift(a[..., 0], 56, out=words[..., 4])
    words[..., 4] |= a[..., 1] << 8
    np.right_shift(a[..., 1], 56, out=words[..., 5])
    words[..., 5] |= ord(",") << 40
    if k.size and k.max() > 20:                 # exponent form: X < −4
        words[..., 5] |= _EXP_WORDS.take(k)
    code = np.signbit(v) * (23 * 18)
    code += k * 18
    code += nd
    masks.view(np.uint64)[:] = _MASKS.take(code, axis=0)
    return fast


def csv_cells(columns, end: str = "\n", out=None):
    """(canvas, mask) of the rows of ``columns`` (1-D int or float arrays of
    one length): a uint8 canvas with one 48-byte cell per value, and the
    bool mask that selects each value's text and then ',' (``end`` after
    the last value of a row); ``csv_bytes`` joins them.  With ``out``, a
    (canvas, mask) pair with a row per value, the cells fill its last
    48·len(columns) columns in place, after whatever text its rows hold.

    All columns are formatted in one pass; an int column's values go
    through the float path where |v| ≤ 2^53, whose '%.17g' text is their
    '%d' text, and through ``'%d' %`` elsewhere."""
    columns = [np.asarray(c) for c in columns]
    n, n_cols = (len(columns[0]) if columns else 0), len(columns)
    if any(c.ndim != 1 or len(c) != n for c in columns):
        raise ValueError("csv columns must be 1-D and of one length")
    if out is None:
        out = np.empty((n, CELL * n_cols), np.uint8), np.empty((n, CELL * n_cols), bool)
    canvas, mask = out
    cells = canvas[:, canvas.shape[1] - CELL * n_cols:].reshape(n, n_cols, CELL)
    masks = mask[:, mask.shape[1] - CELL * n_cols:].reshape(n, n_cols, CELL)
    ints = [i for i, c in enumerate(columns) if c.dtype.kind in "iu"]
    values = np.array(columns, dtype=float).T   # (rows, columns), a view of its transpose
    for i in ints:                              # an int above 2^53 may not be a double
        if n and np.abs(columns[i]).max() > 2 ** 53:
            values[np.abs(columns[i]) > 2 ** 53, i] = np.nan
    rows, cols = np.nonzero(~_fill_cells(cells, masks, values))
    if rows.size:
        texts = [("%d" if c in ints else "%.17g") % columns[c][r]
                 for r, c in zip(rows.tolist(), cols.tolist())]
        cells[rows, cols, :_TEXT] = np.frombuffer(
            "".join(t.ljust(_TEXT) for t in texts).encode(), np.uint8).reshape(-1, _TEXT)
        masks[rows, cols] = _TEXT_MASKS[[len(t) for t in texts]]
    if end != ",":
        cells[:, -1:, 45] = ord(end)
    return canvas, mask


def compact_rows(canvas, mask):
    """(canvas, mask) with each row's selected bytes moved to its start, in
    a width rounded up to a multiple of 8 (so that cells after them stay
    aligned): the same text in fewer columns."""
    lens = np.count_nonzero(mask, axis=1)
    select = np.arange(-(-lens.max(initial=0) // 8) * 8) < lens[:, None]
    rows = np.zeros(select.shape, np.uint8)
    rows[select] = canvas[mask]
    return rows, select


def csv_bytes(header: str, canvas, mask) -> bytes:
    """``header`` and then the text that ``mask`` selects from ``canvas``."""
    return header.encode() + canvas[mask].tobytes()


def write_text(path, text) -> None:
    """Write ``text`` (a str, or bytes as they are) to ``path`` as ``open(path,
    "w")`` would, but replace a regular file this user owns and may write,
    with no other link, by unlinking it first: cheaper on ext4, which flushes
    a truncated file on close.  The new file takes the umask's mode and,
    unflushed, may be empty or missing after a power loss soon after.  Any
    other path (a symlink, a device, a FIFO, a read-only or hard-linked file)
    is opened in place."""
    with suppress(FileNotFoundError):
        st = os.lstat(path)
        if (stat.S_ISREG(st.st_mode) and st.st_uid == os.geteuid()
                and st.st_mode & stat.S_IWUSR and st.st_nlink == 1):
            os.unlink(path)
    with open(path, "wb" if isinstance(text, bytes) else "w") as f:
        f.write(text)


def write_csv(path, header: str, columns) -> None:
    """Write ``header`` and then one row per index of ``columns``."""
    write_text(path, csv_bytes(header, *csv_cells(columns)))


def surface_writer(t_axis, x_axis):
    """``write(path, values)``, which writes a surface CSV: a ``t,x,value``
    row per point of the t-major grid t_axis × x_axis, ``values`` in that
    order.  Each row's ``t,x,`` text, each coordinate formatted once, is
    laid out here on a ``csv_cells`` canvas, and each call fills its value
    cells."""
    n_t, n_x = len(t_axis), len(x_axis)
    text, select = compact_rows(*csv_cells([np.concatenate([t_axis, x_axis])], end=","))
    width = text.shape[1]
    canvas = np.empty((n_t, n_x, 2 * width + CELL), np.uint8)
    mask = np.empty(canvas.shape, bool)
    for out, rows in ((canvas, text), (mask, select)):
        out[:, :, :width] = rows[:n_t, None]
        out[:, :, width:2 * width] = rows[None, n_t:]
    canvas, mask = canvas.reshape(n_t * n_x, -1), mask.reshape(n_t * n_x, -1)

    def write(path, values):
        write_text(path, csv_bytes("t,x,value\n", *csv_cells([values], out=(canvas, mask))))
    return write


def write_run_csv(path, log: RunLog) -> None:
    terms = np.array([(lb.l_d, lb.l_1b, lb.l_2b) for lb in log.losses]).reshape(-1, 3).T
    write_csv(path, "epoch,l_d,l_1b,l_2b,total,lr,wall_ms\n",
              [np.arange(len(log.losses)), *terms, terms[0] + terms[1] + terms[2],
               np.array(log.lrs, dtype=float), np.array(log.wall_ms, dtype=float)])


def write_aggregate_csv(path, agg: AggregateStats) -> None:
    gm, gs = agg.geo_mean, agg.geo_std
    write_csv(path, "epoch,geomean,geostd_lo,geostd_hi\n",
              [np.arange(len(gm)), gm, gm / gs, gm * gs])
