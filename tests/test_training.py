import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpinn import duals, merton, models, training
from qpinn.errors import AggregationError, TrainingAbortError
from qpinn.models import ModelSpec
from qpinn.training import TrainConfig, lamb_step, lr_at


# ---------------------------------------------------------------------------
# schedule


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


def test_lamb_nonfinite_gradient():
    with pytest.raises(TrainingAbortError):
        lamb_step(np.ones(2), np.array([1.0, np.nan]), 1e-2, [slice(0, 2)])


def test_lamb_steps_a_gradient_whose_square_overflows():
    # g² overflows past |g| ≈ 1.3e154: u = g/(|g| + ε) still moves the coordinate
    out = lamb_step([1.0, 2.0, 3.0], [1e200, 1.0, -1.0], 0.1, [slice(0, 3)])
    assert out[0] < 1.0 and out[1] < 2.0 and out[2] > 3.0
    np.testing.assert_array_equal(
        out, lamb_step([1.0, 2.0, 3.0], [1e100, 1.0, -1.0], 0.1, [slice(0, 3)]))


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


GRADIENT = settings(derandomize=True, database=None, deadline=None, max_examples=8)


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
def test_training_evaluates_one_row_per_epoch_and_no_fd(kind, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an epoch takes no finite differences and no second jacobian")

    for module, name in ((training, "loss_terms"), (duals, "fd_stack"), (duals, "fd_gradient")):
        monkeypatch.setattr(module, name, forbidden)
    spec = ModelSpec(kind)
    ev = models.make_evaluator(spec)
    ev.jacobian = forbidden
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
    # the collocation features (the network's input channels) are built once a run
    builder = "_inputs" if kind == "fully_connected" else "_features"
    monkeypatch.setattr(type(ev), builder,
                        staticmethod(counted("features", getattr(type(ev), builder))))
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
    assert calls["features"] == (2 if kind == "fully_connected" else 1)
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
        real_jacobian, real_eval, jacobians = ev.jacobian, ev.batched_eval, []

        def jacobian(params):
            jacobians.append(1)
            return real_jacobian(params)

        def batched_eval(params2d, *points):
            out = real_eval(params2d, *points)
            if forced:   # replace the kept ∂W by a fresh jacobian of the row
                ev._jac = jacobian(params2d[0])
            return out

        ev.jacobian, ev.batched_eval = jacobian, batched_eval
        log = training.run_training(ev, models.init_params(spec, 2), TrainConfig(epochs=200),
                                    m, w, 3)
        assert log.aborted is None and len(jacobians) == (200 if forced else 0)
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


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(eps=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=1001)
