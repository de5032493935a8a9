import math
import os
import stat
import struct
from dataclasses import astuple
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qpinn import duals, merton, models, training
from qpinn.errors import AggregationError, BackwardError, TrainingAbortError
from qpinn.models import ModelSpec
from qpinn.training import TrainConfig, lamb_step, lr_at


# ---------------------------------------------------------------------------
# schedule


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -1e-6])
def test_train_config_refuses_an_eps_that_is_not_finite_and_positive(eps):
    # as the CLI's config check does: NaN would abort a run at epoch 1 as a
    # non-finite loss, and ∞ would train without moving a parameter
    with pytest.raises(ValueError, match="eps must be a finite positive number"):
        TrainConfig(eps=eps)


def test_lr_schedule_endpoints():
    assert lr_at(0) == pytest.approx(1e-2)
    assert lr_at(75) == pytest.approx(5.5e-3)
    assert abs(lr_at(149) - 1e-3) < 1e-5  # continuous into the plateau
    assert lr_at(150) == 1e-3
    assert lr_at(200) == 1e-3
    assert lr_at(250) == 2e-4
    assert lr_at(999) == 2e-4


def test_lr_schedule_range():
    with pytest.raises(ValueError):
        lr_at(1000)
    with pytest.raises(ValueError):
        lr_at(-1)
    assert all(lr_at(e) > 0 for e in range(1000))


# ---------------------------------------------------------------------------
# LAMB


def test_lamb_zero_gradient_is_identity():
    params = np.array([0.5, -1.0, 2.0])
    out = lamb_step(params, np.zeros(3), 1e-2, [slice(0, 3)])
    assert np.array_equal(out, params)


def test_lamb_scalar_example():
    # w=2, g=0.5, tiny ε → u = 1, trust ratio 2, step −2·lr
    lr = 1e-3
    out = lamb_step(np.array([2.0]), np.array([0.5]), lr, [slice(0, 1)], eps=1e-15)
    assert out[0] == pytest.approx(2.0 - 2.0 * lr, abs=1e-12)


def test_lamb_sign_property():
    rng = np.random.default_rng(61)
    params = rng.normal(size=6)
    grads = rng.normal(size=6) * np.array([1e3, 1e-3, 1.0, 10.0, 0.1, 100.0])
    out = lamb_step(params, grads, 1e-2, [slice(0, 6)], eps=1e-12)
    step = out - params
    assert np.all(np.sign(step) == -np.sign(grads))
    # per-coordinate magnitudes equal up to ε smoothing
    assert np.allclose(np.abs(step), np.abs(step)[0], rtol=1e-6)


def test_lamb_scale_invariance_at_zero_betas():
    rng = np.random.default_rng(62)
    params = rng.normal(size=5)
    grads = rng.normal(size=5)
    groups = [slice(0, 2), slice(2, 5)]
    lr, eps = 1e-2, 1e-6
    a = lamb_step(params, grads, lr, groups, eps=eps)
    b = lamb_step(params, 1000.0 * grads, lr, groups, eps=eps)
    assert np.max(np.abs(a - b)) < 10 * eps * lr


_NONZERO = st.floats(1e-3, 10.0) | st.floats(-10.0, -1e-3)


@settings(max_examples=100)
@given(coords=st.lists(st.tuples(st.just(0.0) | _NONZERO, st.just(0.0) | _NONZERO),
                       min_size=1, max_size=12),
       cuts=st.sets(st.integers(1, 11)), zeroed=st.lists(st.sampled_from("-wg"), max_size=12),
       lr=st.floats(2e-4, 1.0))
def test_lamb_moves_each_group_by_lr_times_its_norm_property(coords, cuts, zeroed, lr):
    # with both norms non-zero the trust ratio ‖w‖/‖u‖ makes the step's norm
    # lr·‖w‖; a group at w = 0 steps by lr·‖u‖ (trust 1), one at g = 0 stays
    params, grads = np.array(coords).T.copy()
    bounds = [0] + sorted(c for c in cuts if c < len(params)) + [len(params)]
    groups = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    for g, zero in zip(groups, zeroed):   # "w" zeroes a group's params, "g" its gradients
        if zero == "w":
            params[g] = 0.0
        elif zero == "g":
            grads[g] = 0.0
    out = lamb_step(params, grads, lr, groups)
    for g in groups:
        w, u = params[g], grads[g] / (np.abs(grads[g]) + 1e-6)
        moved = np.linalg.norm(out[g] - w)
        if not u.any():
            assert np.array_equal(out[g], w)
        else:
            norm = np.linalg.norm(w if w.any() else u)
            assert abs(moved - lr * norm) <= 1e-12 * lr * norm


def test_lamb_nonfinite_gradient():
    with pytest.raises(TrainingAbortError):
        lamb_step(np.ones(2), np.array([1.0, np.nan]), 1e-2, [slice(0, 2)])


def test_lamb_steps_a_gradient_whose_square_overflows():
    # g² overflows past |g| ≈ 1.3e154: u = g/(|g| + ε) still moves the coordinate
    out = lamb_step([1.0, 2.0, 3.0], [1e200, 1.0, -1.0], 0.1, [slice(0, 3)])
    assert out[0] < 1.0 and out[1] < 2.0 and out[2] > 3.0
    np.testing.assert_array_equal(
        out, lamb_step([1.0, 2.0, 3.0], [1e100, 1.0, -1.0], 0.1, [slice(0, 3)]))


def reference_lamb_step(params, grads, lr, groups, *, eps=1e-6):
    """LAMB by one slice assignment per group, as before the step became one
    update of every coordinate."""
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if not np.isfinite(grads).all():
        raise TrainingAbortError("non-finite gradient")
    update = grads / (np.abs(grads) + eps)
    out = params.copy()
    for g in groups:
        p, u = params[g], update[g]
        wn, un = math.sqrt(p.dot(p)), math.sqrt(u.dot(u))
        trust = wn / un if wn > 0 and un > 0 else 1.0
        out[g] = p - lr * trust * u
    return out


_COORD = (st.just(0.0) | st.just(-0.0) | st.floats(-10.0, 10.0) | st.floats(-1e200, 1e200)
          | st.sampled_from([1e200, -1e200, 1e-300, 5e-324]))
_GRAD = _COORD | st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=300)
@given(coords=st.lists(st.tuples(_COORD, _GRAD), min_size=1, max_size=14),
       cuts=st.sets(st.integers(1, 13)), zeroed=st.lists(st.sampled_from("-wg"), max_size=14),
       lr=st.floats(2e-4, 1.0), eps=st.sampled_from([1e-6, 1e-12, 1e-15]))
def test_lamb_step_matches_the_per_group_reference_property(coords, cuts, zeroed, lr, eps):
    # bit for bit over partitions into groups, groups at w = 0 or g = 0, and
    # huge or non-finite entries anywhere; a non-finite gradient raises
    params, grads = np.array(coords).T.copy()
    bounds = [0] + sorted(c for c in cuts if c < len(params)) + [len(params)]
    groups = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    for g, zero in zip(groups, zeroed):
        if zero == "w":
            params[g] = 0.0
        elif zero == "g":
            grads[g] = 0.0
    if not np.isfinite(grads).all():
        for step in (lamb_step, reference_lamb_step):
            with pytest.raises(TrainingAbortError, match="non-finite gradient"):
                step(params, grads, lr, groups, eps=eps)
        return
    # a norm that overflows makes an infinite trust ratio, and inf·0 a NaN,
    # on both sides alike, as inside a training run
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_lamb_step(params, grads, lr, groups, eps=eps)
        got = lamb_step(params, grads, lr, groups, eps=eps)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lamb_refuses_a_non_finite_gradient_anywhere_without_a_warning(bad):
    # pytest turns any warning into an error: only TrainingAbortError leaves
    for i in range(6):
        grads = np.linspace(-1.0, 1.0, 6)
        grads[i] = bad
        with pytest.raises(TrainingAbortError, match="non-finite gradient"):
            lamb_step(np.ones(6), grads, 1e-2, [slice(0, 2), slice(2, 6)])


# ---------------------------------------------------------------------------
# training loop


class _FrozenAnalytical:
    """Zero-parameter evaluator wrapping the closed-form solution."""

    groups: list = []

    def __init__(self, m):
        self.sol = merton.AnalyticalSolution(m)

    def values(self, params, t, x):
        return self.sol.values(t, x)[None, :]

    def bundles(self, params, t, x):
        return tuple(a[None, :] for a in self.sol.derivatives(t, x))

    def batched_eval(self, params, t_i, x_i, t_b, x_b):
        return self.bundles(params, t_i, x_i), self.values(params, t_b, x_b)


class _RecordingAnalytical(_FrozenAnalytical):
    """Records the t of the points each epoch evaluates."""

    def batched_eval(self, params, t_i, x_i, t_b, x_b):
        self.t_seen = np.concatenate([t_i, t_b])
        return super().batched_eval(params, t_i, x_i, t_b, x_b)


def test_run_training_collocates_within_horizon():
    m = merton.MarketParams(T=0.5)
    ev = _RecordingAnalytical(m)
    training.run_training(ev, np.zeros(0), TrainConfig(epochs=1), m,
                          merton.LossWeights(), seed=0)
    assert ev.t_seen.max() <= 0.5


def test_frozen_analytical_model_has_constant_zero_loss():
    m = merton.MarketParams()
    cfg = TrainConfig(epochs=5)
    log = training.run_training(_FrozenAnalytical(m), np.zeros(0), cfg, m,
                                merton.LossWeights(), seed=0)
    totals = [lb.total for lb in log.losses]
    assert all(t < 1e-12 for t in totals)
    assert totals == [totals[0]] * 5


def test_training_makes_progress_quantum_inspired():
    m = merton.MarketParams()
    cfg = TrainConfig(epochs=1000)
    log = training.train_run(ModelSpec("quantum_inspired"), cfg, m,
                             merton.LossWeights(), seed=0)
    assert log.aborted is None
    assert log.losses[-1].total < log.losses[0].total


def test_training_deterministic():
    m = merton.MarketParams()
    cfg = TrainConfig(epochs=20)
    a = training.train_run(ModelSpec("counterpart"), cfg, m, merton.LossWeights(), seed=3)
    b = training.train_run(ModelSpec("counterpart"), cfg, m, merton.LossWeights(), seed=3)
    assert [lb.total for lb in a.losses] == [lb.total for lb in b.losses]
    assert np.array_equal(a.final_params, b.final_params)


class _NanEvaluator:
    groups = [slice(0, 1)]

    def values(self, params, t, x):
        return np.full((params.shape[0], len(t)), np.nan)

    def bundles(self, params, t, x):
        z = self.values(params, t, x)
        return z, z, z, z

    def batched_eval(self, params, t_i, x_i, t_b, x_b):
        return self.bundles(params, t_i, x_i), self.values(params, t_b, x_b)


def test_abort_recorded_in_log():
    m = merton.MarketParams()
    cfg = TrainConfig(epochs=10)
    log = training.run_training(_NanEvaluator(), np.zeros(1), cfg, m,
                                merton.LossWeights(), seed=0)
    assert log.aborted is not None and "epoch 0" in log.aborted
    assert len(log.losses) == 1


def _shift_loss_gradient(evaluator, params, colloc, w, m):
    """Loss gradient assembled from four-term parameter-shift derivatives.

    d(residual)/dθᵢ expands through the product rule with the bundle
    derivatives taken at shifted parameter vectors; this is an independent
    oracle for the finite-difference gradient.
    """
    root2 = math.sqrt(2.0)
    shifts = ((math.pi / 2, (root2 + 1) / (4 * root2)),
              (3 * math.pi / 2, -(root2 - 1) / (4 * root2)))
    t_i, x_i = colloc.interior[:, 0], colloc.interior[:, 1]
    n_b = len(colloc.terminal_x)
    t_b = np.concatenate([np.full(n_b, m.T), colloc.lateral_t])
    x_b = np.concatenate([colloc.terminal_x, np.ones(n_b)])
    (_, v_t, v_x, v_xx), f_b = evaluator.batched_eval(params[None, :], t_i, x_i, t_b, x_b)
    res = merton.hjb_residual_arrays(v_t, v_x, v_xx, x_i[None, :], m)[0]
    theta2 = ((m.mu - m.r) / m.sigma) ** 2
    grad = np.zeros_like(params)
    for i in range(params.size):
        d_vt = d_vx = d_vxx = 0.0
        d_fb = 0.0
        for s, c in shifts:
            for sign in (1.0, -1.0):
                p = params.copy()
                p[i] += sign * s
                (_, s_vt, s_vx, s_vxx), s_fb = evaluator.batched_eval(
                    p[None, :], t_i, x_i, t_b, x_b)
                d_vt = d_vt + sign * c * s_vt[0]
                d_vx = d_vx + sign * c * s_vx[0]
                d_vxx = d_vxx + sign * c * s_vxx[0]
                d_fb = d_fb + sign * c * s_fb[0]
        d_res = (d_vt * v_xx[0] + v_t[0] * d_vxx
                 + (d_vx * v_xx[0] + v_x[0] * d_vxx) * m.r * x_i
                 - theta2 * v_x[0] * d_vx)
        grad[i] += 2.0 * w.w_d * np.sum(res * d_res) / len(x_i)
        tgt = np.concatenate([merton.terminal_target(colloc.terminal_x, m),
                              merton.lateral_target(colloc.lateral_t, m)])
        wvec = np.concatenate([np.full(n_b, w.w_1), np.full(n_b, w.w_2)])
        grad[i] += np.sum(2.0 * wvec * (f_b[0] - tgt) * d_fb) / n_b
    return grad


def test_fd_gradient_matches_parameter_shift_gradient():
    m = merton.MarketParams()
    w = merton.LossWeights()
    spec = ModelSpec("quantum_inspired")
    ev = models.make_evaluator(spec)
    for seed in range(5):
        colloc = merton.sample_collocation(seed, 20, 20)
        params = models.init_params(spec, seed)
        stack, steps = duals.fd_stack(params, 1e-5)
        l_d, l_1b, l_2b = training.loss_terms(ev, stack, colloc, w, m)
        total = l_d + l_1b + l_2b
        fd = (total[1::2] - total[2::2]) / (2 * steps)
        shift = _shift_loss_gradient(ev, params, colloc, w, m)
        assert np.max(np.abs(fd - shift) / np.maximum(1.0, np.abs(shift))) < 1e-4


def _assert_rows_match_total_loss(ev, spec, stack, colloc, w, m):
    terms = training.loss_terms(ev, stack, colloc, w, m)
    for i, row in enumerate(stack):
        ref = merton.total_loss(models.ModelFunction(spec, row), colloc, w, m)
        for got, want in zip(terms, (ref.l_d, ref.l_1b, ref.l_2b)):
            assert abs(got[i] - want) <= 1e-12 * abs(want), (i, got[i], want)


@pytest.mark.parametrize("kind", models.KINDS)
def test_loss_terms_follow_changed_and_mutated_points(kind):
    # one evaluator across collocation sets A, B, A, then A mutated in place
    # one point array at a time: features kept from an earlier call must
    # never stand in for points that changed
    m = merton.MarketParams()
    w = merton.LossWeights()
    spec = ModelSpec(kind)
    ev = models.make_evaluator(spec)
    stack, _ = duals.fd_stack(models.init_params(spec, 4), 1e-5)
    a, b = merton.sample_collocation(11, 20, 20), merton.sample_collocation(12, 20, 20)
    for colloc in (a, b, a):
        _assert_rows_match_total_loss(ev, spec, stack, colloc, w, m)
    for points in (a.interior[:, 0], a.interior[:, 1], a.terminal_x, a.lateral_t):
        points *= 0.9
        _assert_rows_match_total_loss(ev, spec, stack, a, w, m)


@pytest.mark.parametrize("kind", models.KINDS)
@pytest.mark.parametrize("n_rows", [0, 1, 5])
def test_loss_terms_are_the_losses_of_one_row_forwards(kind, n_rows):
    # row r of loss_terms is, bit for bit, what loss_and_cotangent gives for
    # a one-row forward of row r, a row whose loss is NaN included
    m, w = merton.MarketParams(), merton.LossWeights()
    spec = ModelSpec(kind)
    rng = np.random.default_rng(30 + n_rows)
    stack = np.reshape([_random_params(spec, rng) for _ in range(n_rows)], (n_rows, spec.n_params))
    if n_rows > 1:
        stack[1, 0] = np.nan
    colloc = merton.sample_collocation(14, 20, 20)
    obj, ev = training.Objective(colloc, w, m), models.make_evaluator(spec)
    with np.errstate(invalid="ignore", over="ignore"):
        got = training.loss_terms(models.make_evaluator(spec), stack, colloc, w, m)
        want = [obj.loss_and_cotangent(ev.batched_eval(row[None], *obj.points))[0]
                for row in stack]
    assert all(t.shape == (n_rows,) for t in got)
    assert np.array(got).T.tobytes() == np.array(want).reshape(n_rows, 3).tobytes()
    assert n_rows < 2 or np.isnan(got[0][1])


# ---------------------------------------------------------------------------
# exact gradients: the pullback of the loss cotangent


def _exact_gradient(ev, params, colloc, w, m):
    """The gradient one training epoch takes: one forward row, the loss and
    its flat cotangent, and the evaluator's backward."""
    obj = training.Objective(colloc, w, m)
    _, cot = obj.loss_and_cotangent(ev.batched_eval(params[None, :], *obj.points))
    return ev.backward(cot)


def _fd_loss_gradient(spec, params, colloc, w, m):
    loss = lambda p: merton.total_loss(models.ModelFunction(spec, p), colloc, w, m).total
    return duals.fd_gradient(loss, params)


def _random_params(spec, rng):
    if spec.kind in ("qpinn", "quantum_inspired"):
        return rng.uniform(0.0, 2.0 * np.pi, spec.n_params)
    if spec.kind == "counterpart":
        return rng.uniform(-1.0, 1.0, spec.n_params)
    # Glorot weights with biases and weights moved off their initial values
    return models.init_params(spec, rng) + rng.normal(0.0, 0.1, spec.n_params)


GRADIENT = settings(max_examples=8)


@pytest.mark.parametrize("kind", models.KINDS)
@GRADIENT
@given(seed=st.integers(0, 2**16))
def test_pullback_gradient_matches_fd_of_total_loss(kind, seed):
    m = merton.MarketParams()
    w = merton.LossWeights()
    spec = ModelSpec(kind)
    rng = np.random.default_rng(seed)
    params = _random_params(spec, rng)
    colloc = merton.sample_collocation(seed, 20, 20)
    exact = _exact_gradient(models.make_evaluator(spec), params, colloc, w, m)
    fd = _fd_loss_gradient(spec, params, colloc, w, m)
    assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_exact_gradient_matches_parameter_shift_gradient():
    m = merton.MarketParams()
    w = merton.LossWeights()
    ev = models.make_evaluator(ModelSpec("quantum_inspired"))
    for seed in range(3):
        colloc = merton.sample_collocation(seed, 20, 20)
        params = models.init_params(ModelSpec("quantum_inspired"), seed)
        exact = _exact_gradient(ev, params, colloc, w, m)
        shift = _shift_loss_gradient(ev, params, colloc, w, m)
        assert np.max(np.abs(exact - shift)) <= 1e-10 * max(1.0, np.max(np.abs(shift)))


@pytest.mark.parametrize("kind", models.KINDS)
def test_pullback_follows_changed_and_mutated_points(kind):
    # one evaluator across collocation sets A, B, A, then A mutated in place
    # one point array at a time, alternating two parameter rows, each row
    # mutated in place between its forward and its backward: backward
    # differentiates the forward's row at the forward's points, and what the
    # evaluator kept from an earlier call never stands in for either
    m = merton.MarketParams()
    w = merton.LossWeights()
    spec = ModelSpec(kind)
    ev = models.make_evaluator(spec)
    params = _random_params(spec, np.random.default_rng(5))
    other = _random_params(spec, np.random.default_rng(6))
    a, b = merton.sample_collocation(11, 20, 20), merton.sample_collocation(12, 20, 20)

    def check(colloc):
        obj = training.Objective(colloc, w, m)
        for p in (params, other):
            row = p.copy()
            _, cot = obj.loss_and_cotangent(ev.batched_eval(row[None, :], *obj.points))
            row *= 0.75
            np.testing.assert_array_equal(
                ev.backward(cot), _exact_gradient(models.make_evaluator(spec), p, colloc, w, m))
        want = _exact_gradient(ev, params, colloc, w, m)
        assert np.max(np.abs(want - _fd_loss_gradient(spec, params, colloc, w, m))
                      ) <= 1e-6 * np.max(np.abs(want))

    for colloc in (a, b, a):
        check(colloc)
    for points in (a.interior[:, 0], a.interior[:, 1], a.terminal_x, a.lateral_t):
        points *= 0.9
        check(a)


@pytest.mark.parametrize("kind", models.KINDS)
def test_objective_keeps_the_points_it_was_built_on(kind):
    # an objective built before its collocation set is changed in place
    # keeps the loss of the set as built, and backward stays its gradient
    m = merton.MarketParams()
    w = merton.LossWeights()
    spec = ModelSpec(kind)
    params = _random_params(spec, np.random.default_rng(10))
    colloc = merton.sample_collocation(13, 20, 20)
    built = merton.CollocationSet(*(a.copy() for a in astuple(colloc)))
    obj = training.Objective(colloc, w, m)
    for a in astuple(colloc):
        a *= 0.9
    for p in obj.points:
        assert not p.flags.writeable
        with pytest.raises(ValueError):
            p.flags.writeable = True
    ev = models.make_evaluator(spec)
    terms, cot = obj.loss_and_cotangent(ev.batched_eval(params[None, :], *obj.points))
    want = merton.total_loss(models.ModelFunction(spec, params), built, w, m)
    for got, ref in zip(terms, astuple(want)):
        assert abs(got - ref) <= 1e-12 * abs(ref)
    grad, fd = ev.backward(cot), _fd_loss_gradient(spec, params, built, w, m)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


@pytest.mark.parametrize("kind", models.KINDS)
def test_a_run_builds_and_keys_its_points_once(kind, monkeypatch):
    # every epoch passes the objective's snapshots, which the evaluator knows
    # by identity: one build a run, none per epoch, and the next run's new
    # snapshots build once more
    spec = ModelSpec(kind)
    ev = models.make_evaluator(spec)
    builds = []
    build = type(ev)._build
    monkeypatch.setattr(type(ev), "_build", lambda self, *a: builds.append(1) or build(self, *a))
    for n_runs in (1, 2):
        log = training.run_training(ev, models.init_params(spec, 2), TrainConfig(epochs=6),
                                    merton.MarketParams(), merton.LossWeights(), 3)
        assert log.aborted is None and len(log.losses) == 6
        assert len(builds) == n_runs


@pytest.mark.parametrize("kind", models.KINDS)
def test_backward_refuses_what_no_one_row_forward_kept(kind):
    # a one-row forward at collocation seed 1, a 2-row forward at seed 2,
    # then backward with the first forward's cotangent: the 2-row forward
    # kept nothing, so backward raises instead of mixing the two
    m = merton.MarketParams()
    w = merton.LossWeights()
    spec = ModelSpec(kind)
    ev = models.make_evaluator(spec)
    rng = np.random.default_rng(7)
    params, other = _random_params(spec, rng), _random_params(spec, rng)
    with pytest.raises(BackwardError, match="one-row"):
        ev.backward(np.zeros(5))
    one = training.Objective(merton.sample_collocation(1, 20, 20), w, m)
    two = training.Objective(merton.sample_collocation(2, 20, 20), w, m)
    _, cot = one.loss_and_cotangent(ev.batched_eval(params[None, :], *one.points))
    ev.batched_eval(np.stack([params, other]), *two.points)
    with pytest.raises(BackwardError, match="one-row"):
        ev.backward(cot)
    # a cotangent that does not fit the last forward's outputs
    _, cot = one.loss_and_cotangent(ev.batched_eval(params[None, :], *one.points))
    for bad in (cot[:-1], np.append(cot, 0.0), cot[None, :]):
        with pytest.raises(BackwardError, match="outputs"):
            ev.backward(bad)
    np.testing.assert_array_equal(
        ev.backward(cot), _exact_gradient(models.make_evaluator(spec), params,
                                          merton.sample_collocation(1, 20, 20), w, m))


@pytest.mark.parametrize("kind", models.KINDS)
def test_backward_after_a_forward_on_no_points_is_zero(kind):
    # a loss on no outputs has the zero gradient
    spec = ModelSpec(kind)
    ev = models.make_evaluator(spec)
    empty = np.zeros(0)
    bundles, bnd = ev.batched_eval(_random_params(spec, np.random.default_rng(8))[None, :],
                                   empty, empty, empty, empty)
    assert all(a.shape == (1, 0) for a in bundles + (bnd,))
    np.testing.assert_array_equal(ev.backward(empty), np.zeros(spec.n_params))


@pytest.mark.parametrize("kind", models.KINDS)
def test_values_and_bundles_leave_the_kept_forward_alone(kind):
    # values and bundles on other points, and on other parameter rows,
    # between a one-row batched_eval and its backward: the gradient stays
    # bit for bit the one without them
    m = merton.MarketParams()
    w = merton.LossWeights()
    spec = ModelSpec(kind)
    rng = np.random.default_rng(8)
    params, other = _random_params(spec, rng), _random_params(spec, rng)
    colloc = merton.sample_collocation(3, 20, 20)
    obj = training.Objective(colloc, w, m)
    t, x = rng.uniform(0.05, 0.95, (2, 7))
    ev = models.make_evaluator(spec)
    _, cot = obj.loss_and_cotangent(ev.batched_eval(params[None, :], *obj.points))
    ev.values(other, t, x)
    ev.bundles(np.stack([params, other]), t[:3], x[:3])
    ev.values(params, t[:2], np.ones(2))
    ev.bundles(other[None, :], t, x)
    np.testing.assert_array_equal(
        ev.backward(cot), _exact_gradient(models.make_evaluator(spec), params, colloc, w, m))


def reference_loss_and_cotangent(obj, w, outputs):
    """The loss terms and cotangent of one row by concatenation, as before
    the error row was written into one buffer, each term by its own
    ``math.fsum``."""
    (_, v_t, v_x, v_xx), bnd = outputs
    v_t, v_x, v_xx, n = v_t[0], v_x[0], v_xx[0], obj.n
    err = np.concatenate([merton.hjb_residual_arrays(v_t, v_x, v_xx, obj.x, obj.m),
                          bnd[0] - obj.target])
    sq, n_b = (err * err).tolist(), (len(err) - n) // 2
    terms = [wt * math.fsum(part) / len(part)
             for wt, part in zip((w.w_d, w.w_1, w.w_2), (sq[:n], sq[n:n + n_b], sq[n + n_b:]))]
    g = obj.err_weight * err
    res = g[:n]
    return terms, np.concatenate([
        np.zeros(n), res * v_xx, res * (obj.rx * v_xx - obj.theta2 * v_x),
        res * (v_t + obj.rx * v_x), g[n:]])


@pytest.mark.parametrize("kind", models.KINDS)
def test_cotangent_outlives_the_next_epoch(kind):
    # the objective reuses its error row, never a cotangent it handed out:
    # epoch k's stays as it was after epoch k + 1, and each is the reference's
    m = merton.MarketParams()
    w = merton.LossWeights()
    spec = ModelSpec(kind)
    rng = np.random.default_rng(9)
    ev = models.make_evaluator(spec)
    obj = training.Objective(merton.sample_collocation(4, 20, 20), w, m)
    rows = [_random_params(spec, rng) for _ in range(2)]
    outputs = [ev.batched_eval(row[None, :], *obj.points) for row in rows]
    first = obj.loss_and_cotangent(outputs[0])
    kept = first[1].copy()
    second = obj.loss_and_cotangent(outputs[1])
    assert not np.shares_memory(first[1], second[1])
    np.testing.assert_array_equal(first[1], kept)
    for (terms, cot), out in zip((first, second), outputs):
        want_terms, want_cot = reference_loss_and_cotangent(obj, w, out)
        assert terms == want_terms
        np.testing.assert_array_equal(cot, want_cot)


@pytest.mark.parametrize("kind", models.KINDS)
def test_training_evaluates_one_row_per_epoch_and_no_fd(kind, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an epoch takes no finite differences")

    for module, name in ((training, "loss_terms"), (duals, "fd_stack"), (duals, "fd_gradient")):
        monkeypatch.setattr(module, name, forbidden)
    spec = ModelSpec(kind)
    ev = models.make_evaluator(spec)
    calls = {"rows": [], "loss_and_cotangent": 0, "backward": 0, "lamb_step": 0, "features": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    real_eval = ev.batched_eval

    def batched_eval(params2d, *points):
        calls["rows"].append(np.atleast_2d(params2d).shape[0])
        return real_eval(params2d, *points)

    ev.batched_eval, ev.backward = batched_eval, counted("backward", ev.backward)
    monkeypatch.setattr(training.Objective, "loss_and_cotangent",
                        counted("loss_and_cotangent", training.Objective.loss_and_cotangent))
    monkeypatch.setattr(training, "lamb_step", counted("lamb_step", training.lamb_step))
    # what the forward needs of the collocation points is built once a run
    monkeypatch.setattr(type(ev), "_build", counted("features", type(ev)._build))
    # the chain models and the counterpart build W and ∂W in one coefficients
    # call on the ±π shift rows, and backward uses that ∂W
    coefficients = []
    if kind != "fully_connected":
        real_coefficients = type(ev).coefficients

        def counting_coefficients(params2d):
            coefficients.append(len(params2d))
            return real_coefficients(params2d)

        monkeypatch.setattr(type(ev), "coefficients", staticmethod(counting_coefficients))
    m, w = merton.MarketParams(), merton.LossWeights()
    log = training.run_training(ev, models.init_params(spec, 1), TrainConfig(epochs=4), m, w, 0)
    assert log.aborted is None and calls["rows"] == [1] * 4
    assert calls["loss_and_cotangent"] == calls["backward"] == calls["lamb_step"] == 4
    assert calls["features"] == 1
    if kind != "fully_connected":
        assert coefficients == [2 * spec.n_params + 1] * 4
    # epoch 0 logs the loss of the initial parameters exactly
    ref = merton.total_loss(models.ModelFunction(spec, models.init_params(spec, 1)),
                            merton.sample_collocation(0, 50, 50), w, m)
    for got, want in zip(astuple(log.losses[0]), astuple(ref)):
        assert abs(got - want) <= 1e-12 * abs(want)
    # evaluators without parameters train with no backward at all
    assert not hasattr(_FrozenAnalytical, "backward")
    frozen = training.run_training(_FrozenAnalytical(m), np.zeros(0), TrainConfig(epochs=3),
                                   m, w, 0)
    assert frozen.aborted is None and len(frozen.losses) == 3


@pytest.mark.parametrize("kind", models.KINDS)
def test_logged_losses_are_loss_terms_at_each_epochs_parameters(kind):
    # epoch e logs the loss at the parameters after e steps: the initial
    # parameters, then checkpoint e; loss_terms evaluates them as one stack
    spec = ModelSpec(kind)
    m, w = merton.MarketParams(), merton.LossWeights()
    init = models.init_params(spec, 4)
    log = training.run_training(models.make_evaluator(spec), init,
                                TrainConfig(epochs=50, checkpoint_every=1), m, w, 7)
    assert log.aborted is None and [e for e, _ in log.checkpoints] == list(range(1, 51))
    stack = np.stack([init] + [p for _, p in log.checkpoints[:-1]])
    terms = training.loss_terms(models.make_evaluator(spec), stack,
                                merton.sample_collocation(7, 50, 50), w, m)
    assert [astuple(lb) for lb in log.losses] == list(zip(*(t.tolist() for t in terms)))


@pytest.mark.parametrize("kind", ["qpinn", "quantum_inspired", "counterpart"])
def test_kept_jacobian_trains_as_a_fresh_jacobian(kind):
    # the ∂W kept from each epoch's forward against one recomputed every epoch
    spec = ModelSpec(kind)
    m, w = merton.MarketParams(), merton.LossWeights()
    runs = []
    for forced in (False, True):
        ev = models.make_evaluator(spec)
        real_w_and_jac, real_eval, jacobians = ev._w_and_jac, ev.batched_eval, []

        def w_and_jac(row):
            jacobians.append(1)
            return real_w_and_jac(row)

        def batched_eval(params2d, *points):
            out = real_eval(params2d, *points)
            if forced:   # replace the kept ∂W by a fresh one of the row
                ev._kept = w_and_jac(params2d[0])[1]
            return out

        ev._w_and_jac, ev.batched_eval = w_and_jac, batched_eval
        log = training.run_training(ev, models.init_params(spec, 2), TrainConfig(epochs=200),
                                    m, w, 3)
        # each epoch's forward makes one ∂W; the forced run one more
        assert log.aborted is None and len(jacobians) == (400 if forced else 200)
        runs.append(log)
    kept, fresh = runs
    assert kept.losses == fresh.losses
    np.testing.assert_array_equal(kept.final_params, fresh.final_params)


# ---------------------------------------------------------------------------
# aggregation and CSV export


def _fake_log(totals, seed=0):
    losses = [merton.LossBreakdown(t, 0.0, 0.0) for t in totals]
    return training.RunLog(seed=seed, losses=losses, lrs=[1e-3] * len(totals),
                           wall_ms=[1.0] * len(totals), final_params=np.zeros(1))


def test_aggregate_identical_runs():
    runs = [_fake_log([0.5, 0.25]), _fake_log([0.5, 0.25])]
    agg = training.aggregate(runs)
    assert np.allclose(agg.geo_mean, [0.5, 0.25])
    assert np.allclose(agg.geo_std, 1.0)


def test_aggregate_two_runs_geometry():
    agg = training.aggregate([_fake_log([1e-2]), _fake_log([1e-4])])
    assert agg.geo_mean[0] == pytest.approx(1e-3, rel=1e-12)
    assert agg.geo_std[0] == pytest.approx(10.0, rel=1e-12)


def test_aggregate_rejects_bad_inputs():
    with pytest.raises(AggregationError):
        training.aggregate([_fake_log([0.0])])
    with pytest.raises(AggregationError):
        training.aggregate([_fake_log([0.1]), _fake_log([0.1, 0.2])])
    with pytest.raises(AggregationError):
        training.aggregate([])


def test_csv_schemas(tmp_path):
    log = _fake_log([0.5, 0.25], seed=2)
    run_path = tmp_path / "run.csv"
    training.write_run_csv(run_path, log)
    lines = run_path.read_text().splitlines()
    assert lines[0] == "epoch,l_d,l_1b,l_2b,total,lr,wall_ms"
    assert len(lines) == 3
    assert lines[1].split(",")[4] == "0.5"

    # every value reads back exactly, nan, inf and -0 included
    odd = _fake_log([1.0 / 3.0, float("nan"), float("inf"), -0.0, 5e-324], seed=3)
    training.write_run_csv(run_path, odd)
    rows = [line.split(",") for line in run_path.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["0", "1", "2", "3", "4"]
    assert [row[1] for row in rows] == ["0.33333333333333331", "nan", "inf", "-0",
                                        "4.9406564584124654e-324"]
    for row, lb in zip(rows, odd.losses):
        assert np.array_equal([float(v) for v in row[1:5]], [lb.l_d, lb.l_1b, lb.l_2b, lb.total],
                              equal_nan=True)

    agg_path = tmp_path / "agg.csv"
    training.write_aggregate_csv(agg_path, training.aggregate([log]))
    lines = agg_path.read_text().splitlines()
    assert lines[0] == "epoch,geomean,geostd_lo,geostd_hi"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# the column writer against '%'


def reference_write_csv(path, header: str, fmt: str, rows) -> None:
    """The %-format writer that the column writer replaced: ``header`` and
    then every row of ``rows`` by ``fmt``, all rows formatted in one pass."""
    rows = list(rows)
    training.write_text(path, header + fmt * len(rows) % tuple(chain.from_iterable(rows)))


def reference_float_text(values) -> bytes:
    return "".join("%.17g\n" % v for v in values).encode()


def written(*columns) -> bytes:
    return training.csv_bytes("", *training.csv_cells(columns))


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _neighbours(x: float) -> list:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


TEN_POWERS = st.integers(-325, 308).flatmap(
    lambda n: st.sampled_from(_neighbours(float(f"1e{n}"))))
NEAR_TEN_POWERS = st.integers(-320, 307).map(lambda n: float(f"9.99999999999999995e{n}"))
# j·2^−n with j of 53 bits: exact, and at a tie of the 17th digit whenever
# its decimal expansion has 18 significant digits ending in 5
DYADIC = st.builds(lambda j, n: math.ldexp(j, -n), st.integers(2 ** 52, 2 ** 53 - 1),
                   st.integers(-10, 90))
SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  2.2250738585072009e-308, -2.2250738585072014e-308, 1e300, -1e300,
                  1e-300, -1e-300, 1e-6, 1e17, 99999999999999984.0, 1e16, 1e-4, 1e-5]
FLOATS = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_from_bits),
    st.builds(lambda m, sign: sign * 10.0 ** m, st.floats(-30.0, 30.0), st.sampled_from([-1, 1])),
    TEN_POWERS, NEAR_TEN_POWERS, DYADIC, st.sampled_from(SPECIAL_FLOATS))


@settings(max_examples=300)
@given(values=st.lists(FLOATS, min_size=1, max_size=40))
def test_float_column_is_the_percent_text_property(values):
    # each value's bytes are its '%.17g' text, in the fast range and out of it
    signed = values + [-v for v in values]
    assert written(np.array(signed)) == reference_float_text(signed)


@settings(max_examples=100)
@given(values=st.lists(st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1),
                                 st.integers(-10 ** 18, 10 ** 18),
                                 st.sampled_from([0, -1, 9, 10, 10 ** 16, 10 ** 17 - 1,
                                                  10 ** 17, -10 ** 17, 2 ** 63 - 1, -2 ** 63])),
                       min_size=1, max_size=40),
       floats=st.data())
def test_int_columns_are_the_percent_text_property(tmp_path_factory, values, floats):
    # an int column beside a float one, against the %-format reference writer
    out = tmp_path_factory.mktemp("csv")
    ints = np.array(values, dtype=np.int64)
    col = np.array(floats.draw(st.lists(FLOATS, min_size=len(values), max_size=len(values))))
    training.write_csv(out / "new.csv", "i,v\n", [ints, col])
    reference_write_csv(out / "ref.csv", "i,v\n", "%d,%.17g\n", zip(values, col.tolist()))
    assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()
    big = np.array([v % 2 ** 64 for v in values], dtype=np.uint64)
    assert written(big) == "".join("%d\n" % v for v in big.tolist()).encode()


def test_float_column_is_the_percent_text_in_bulk():
    # 60 000 seeded doubles: raw bit patterns, log-uniform magnitudes and ties
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2 ** 63, 20000, dtype=np.uint64) | (
        rng.integers(0, 2, 20000, dtype=np.uint64) << np.uint64(63))
    values = np.concatenate([
        bits.view(np.float64),
        rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-8.0, 18.0, 20000),
        np.ldexp(rng.integers(2 ** 52, 2 ** 53, 20000).astype(float),
                 rng.integers(-80, 10, 20000))])
    assert written(values) == reference_float_text(values.tolist())


def test_exponent_form_and_rounding_carries():
    # 9.99999999999999995e-5 rounds up to 1e-4 in the fast range, and the
    # exponent form starts below 1e-4
    values = [9.99999999999999995e-5, 1e-4, 9.9999999999999991e-5, 1.5e-6, -2.5e-5,
              0.12345678901234567, 123456.78901234567, 1e16 + 2, 12.0, -7.25]
    assert written(np.array(values)) == reference_float_text(values)
    assert written(np.array(values[:1])) == b"0.0001\n"


def test_neighbours_of_powers_of_ten_take_the_fast_path():
    # floor(log10|v|) is one off next to many powers of ten; the exact check
    # moves X, so these stay on the fast path and still print as '%' does
    values = np.array([x for n in range(-5, 17) for x in _neighbours(float(f"1e{n}"))])
    _, _, fast = training._float_digits(values)
    assert fast.all()
    assert written(values) == reference_float_text(values.tolist())


def test_csv_cells_refuses_ragged_columns():
    with pytest.raises(ValueError, match="one length"):
        training.csv_cells([np.zeros(2), np.zeros(3)])
    assert training.csv_bytes("h\n", *training.csv_cells([np.zeros(0)])) == b"h\n"


def test_cells_fill_after_the_text_their_rows_hold():
    # compacted rows, then a value cell written in place after them, twice
    text, select = training.compact_rows(*training.csv_cells(
        [np.array([1.5, -0.0, math.nan]), np.arange(3)], end=","))
    assert text.shape == (3, 8) and select.sum(axis=1).tolist() == [6, 5, 6]
    canvas = np.zeros((3, 8 + training.CELL), np.uint8)
    mask = np.zeros(canvas.shape, bool)
    canvas[:, :8], mask[:, :8] = text, select
    for values, want in (([1.0, 2.0, 3.0], b"1.5,0,1\n-0,1,2\nnan,2,3\n"),
                         ([0.25, -1e300, 7.0], b"1.5,0,0.25\n-0,1,-1.0000000000000001e+300\n"
                                               b"nan,2,7\n")):
        assert training.csv_bytes("", *training.csv_cells([np.array(values)],
                                                          out=(canvas, mask))) == want


@pytest.mark.parametrize("kind", ["quantum_inspired", "counterpart"])
def test_run_and_aggregate_csvs_match_the_reference_writer(tmp_path, kind):
    # the run and aggregate CSVs as the %-format writer wrote them
    log = training.train_run(models.ModelSpec(kind), TrainConfig(epochs=60),
                             merton.MarketParams(), merton.LossWeights(), 4)
    odd = _fake_log([1.0 / 3.0, math.nan, math.inf, -0.0, 5e-324, 1e-9], seed=3)
    for i, run in enumerate((log, odd)):
        training.write_run_csv(tmp_path / f"run{i}.csv", run)
        reference_write_csv(tmp_path / f"ref{i}.csv", "epoch,l_d,l_1b,l_2b,total,lr,wall_ms\n",
                            "%d" + ",%.17g" * 6 + "\n",
                            ((e, lb.l_d, lb.l_1b, lb.l_2b, lb.total, lr, ms) for e, (lb, lr, ms)
                             in enumerate(zip(run.losses, run.lrs, run.wall_ms))))
        assert (tmp_path / f"run{i}.csv").read_bytes() == (tmp_path / f"ref{i}.csv").read_bytes()
    agg = training.aggregate([log, training.train_run(
        models.ModelSpec(kind), TrainConfig(epochs=60), merton.MarketParams(),
        merton.LossWeights(), 5)])
    training.write_aggregate_csv(tmp_path / "agg.csv", agg)
    gm, gs = agg.geo_mean, agg.geo_std
    reference_write_csv(tmp_path / "agg_ref.csv", "epoch,geomean,geostd_lo,geostd_hi\n",
                        "%d,%.17g,%.17g,%.17g\n",
                        zip(range(len(gm)), gm.tolist(), (gm / gs).tolist(), (gm * gs).tolist()))
    assert (tmp_path / "agg.csv").read_bytes() == (tmp_path / "agg_ref.csv").read_bytes()


def test_write_text_replaces_only_its_own_plain_files(tmp_path, monkeypatch):
    # only a regular file this user owns and may write, with one link, is
    # unlinked first; every other path is written as open(path, "w") does
    unlinked = []
    real_unlink = os.unlink
    monkeypatch.setattr(training.os, "unlink", lambda p: (unlinked.append(p), real_unlink(p)))
    path = tmp_path / "a.csv"
    path.write_text("a longer old text\n" * 10)
    training.write_text(path, "short\n")
    assert path.read_text() == "short\n" and unlinked == [path]
    training.write_text(tmp_path / "new.csv", "new\n")
    assert (tmp_path / "new.csv").read_text() == "new\n" and len(unlinked) == 1
    # a symlink is written through: the link stays, its target takes the text
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old target text\n")
    link.symlink_to(target)
    training.write_text(link, "through\n")
    assert link.is_symlink() and target.read_text() == "through\n"
    # a second hard link sees the new text
    other = tmp_path / "other.csv"
    os.link(target, other)
    training.write_text(target, "both\n")
    assert other.read_text() == "both\n"
    # a FIFO stays a FIFO, and its reader gets the text
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        training.write_text(fifo, "piped\n")
        assert os.read(reader, 64) == b"piped\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    # a read-only file keeps its mode where this user may write it, and
    # refuses the write where not, as open(path, "w") does
    path.chmod(0o444)
    if os.access(path, os.W_OK):
        training.write_text(path, "again\n")
        assert path.read_text() == "again\n" and stat.S_IMODE(path.stat().st_mode) == 0o444
    else:
        with pytest.raises(PermissionError):
            training.write_text(path, "again\n")
    # a directory is not a file to replace
    (tmp_path / "dir").mkdir()
    with pytest.raises(IsADirectoryError):
        training.write_text(tmp_path / "dir", "x\n")
    assert (tmp_path / "dir").is_dir() and unlinked == [path]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(eps=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1001)


# ---------------------------------------------------------------------------
# surfaces


def reference_write_surface(path, t_axis, x_axis, values):
    """The per-row surface writer that the grid template replaced: rows
    (t, x, value) over the t-major grid t_axis × x_axis, one ``t,x,`` prefix
    joined per row."""
    ts = ["%.17g," % t for t in t_axis]
    xs = ["%.17g," % x for x in x_axis]
    reference_write_csv(path, "t,x,value\n", "%s%.17g\n",
                        zip([t + x for t in ts for x in xs], np.ravel(values).tolist()))


GRID = np.linspace(0.01, 0.99, 50)
SPECIAL_VALUES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  1e-310, -2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300]
surface_values = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats())


@settings(max_examples=40)
@given(T=st.floats(0.0, 1.0, exclude_min=True),
       values=hnp.arrays(np.float64, (2, GRID.size ** 2), elements=surface_values))
def test_surface_writer_matches_the_reference_writer(tmp_path_factory, T, values):
    # two surfaces written by one writer, each against its own reference call
    out = tmp_path_factory.mktemp("surfaces")
    t_axis = T * GRID
    write = training.surface_writer(t_axis, GRID)
    for i, row in enumerate(values):
        write(out / f"new{i}.csv", row)
        reference_write_surface(out / f"ref{i}.csv", t_axis, GRID, row)
        assert (out / f"new{i}.csv").read_bytes() == (out / f"ref{i}.csv").read_bytes()
