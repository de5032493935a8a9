import math

import numpy as np
import pytest

from qpinn import duals, merton
from qpinn.errors import DegenerateControlError, DomainError
from qpinn.merton import (
    AnalyticalSolution,
    LossWeights,
    MarketParams,
    hjb_residual_arrays,
    k_constant,
    optimal_control,
    sample_collocation,
    total_loss,
)


def test_k_constant_paper_value():
    assert k_constant(MarketParams()) == pytest.approx(-0.019857375, abs=1e-12)


def test_k_vanishing_excess_return_limit():
    m = MarketParams(mu=0.02 + 1e-13)
    assert k_constant(m) == pytest.approx(-m.r * m.gamma, abs=1e-9)


def test_k_even_in_sigma():
    m = MarketParams()
    formula = lambda s: 0.5 * m.gamma / (m.gamma - 1) * ((m.mu - m.r) / s) ** 2 - m.r * m.gamma
    assert formula(m.sigma) == formula(-m.sigma)


def test_market_invariants():
    with pytest.raises(ValueError):
        MarketParams(mu=0.01)  # mu <= r
    with pytest.raises(ValueError):
        MarketParams(gamma=1.0)
    with pytest.raises(ValueError):
        LossWeights(w_d=0.0)


def test_analytical_terminal_and_lateral():
    m = MarketParams()
    v = AnalyticalSolution(m).values
    xs = np.linspace(0.05, 0.95, 7)
    assert np.allclose(v(m.T, xs), xs**m.gamma / m.gamma)
    k = k_constant(m)
    ts = np.linspace(0.0, 1.0, 7)
    assert np.allclose(v(ts, np.ones(7)), np.exp(-k * (m.T - ts)) / m.gamma)


def test_analytical_paper_point():
    m = MarketParams()
    expected = math.exp(0.019857375 * 0.5) * 0.5**0.95 / 0.95
    assert AnalyticalSolution(m).values(0.5, 0.5) == pytest.approx(expected, rel=1e-12)


def test_analytical_domain():
    with pytest.raises(DomainError):
        AnalyticalSolution(MarketParams()).values(0.5, 0.0)


@pytest.mark.parametrize("x", [0.0, -0.5, [0.3, 0.0]])
def test_analytical_derivatives_domain(x):
    # the same x > 0 check as ``values``, in place of numpy inf/nan warnings
    with pytest.raises(DomainError):
        AnalyticalSolution(MarketParams()).derivatives(np.full(np.shape(x), 0.5), x)


@pytest.mark.parametrize("method", ["values", "derivatives"])
@pytest.mark.parametrize("t,x", [(0.5, math.nan), ([0.5, 0.5], [0.3, math.nan]),
                                 (math.nan, 0.5), ([0.5, math.nan], [0.3, 0.4])])
def test_analytical_solution_refuses_nan_points(method, t, x):
    # NaN passes x <= 0; the models refuse NaN inputs, and so does the solution
    with pytest.raises(DomainError):
        getattr(AnalyticalSolution(MarketParams()), method)(t, x)


@pytest.mark.parametrize("field", ["r", "T", "gamma", "mu", "sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_market_params_refuse_non_finite_fields(field, value):
    # NaN passes the <= tests and min() drops it
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        MarketParams(**{field: value})


# finite fields whose k or e^{−k·T} is not a finite nonzero double: k
# overflows in ((μ − r)/σ)², e^{−k·T} overflows at k ≈ −2.4e8 and −4.1e11,
# and underflows to 0 at k ≈ 5e4
OVERFLOWING_MARKETS = [{"mu": 1e200}, {"mu": 1e3}, {"gamma": 1 - 1e-16},
                       {"r": -1e5, "mu": -1e5 + 0.01, "gamma": 0.5}]


@pytest.mark.parametrize("fields", OVERFLOWING_MARKETS)
def test_market_params_refuse_an_analytical_solution_out_of_range(fields):
    with pytest.raises(ValueError, match="out of range"):
        MarketParams(**fields)


def test_market_params_accept_the_markets_in_use():
    # the default, a vanishing excess return, a short horizon, and a large
    # but finite envelope
    for fields in ({}, {"mu": 0.02 + 1e-13}, {"T": 0.5}, {"r": -700.0, "mu": -699.0}):
        m = MarketParams(**fields)
        assert 0.0 < math.exp(-k_constant(m) * m.T) < math.inf


@pytest.mark.parametrize("field", ["w_d", "w_1", "w_2"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_loss_weights_refuse_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        LossWeights(**{field: value})


def test_residual_vanishes_on_analytical_solution():
    m = MarketParams()
    sol = AnalyticalSolution(m)
    rng = np.random.default_rng(41)
    pts = rng.uniform(0.01, 0.99, size=(50, 2))
    _, v_t, v_x, v_xx = sol.derivatives(pts[:, 0], pts[:, 1])
    res = merton.hjb_residual_arrays(v_t, v_x, v_xx, pts[:, 1], m)
    assert np.max(np.abs(res)) < 1e-8


def t_pow(a, p):
    """a^p on a (v, d1, d2) triple, for a constant exponent p."""
    v = a[0]
    y = v ** p
    d1 = p * v ** (p - 1) * a[1]
    d2 = p * (p - 1) * v ** (p - 2) * a[1] * a[1] + p * v ** (p - 1) * a[2]
    return (y, d1, d2)


def test_residual_analytical_via_duals():
    m = MarketParams()
    k = k_constant(m)
    rng = np.random.default_rng(42)
    for _ in range(1000):
        t0, x0 = rng.uniform(0.01, 0.99, 2)
        v, v_x, v_xx = duals.t_scale(1.0 / m.gamma, duals.t_mul(
            duals.t_exp((-k * (m.T - t0), 0.0, 0.0)), t_pow((x0, 1.0, 0.0), m.gamma)))
        exponent = duals.t_scale(k, duals.t_add((t0, 1.0, 0.0), (-m.T, 0.0, 0.0)))
        _, v_t, _ = duals.t_scale(x0**m.gamma / m.gamma, duals.t_exp(exponent))
        assert abs(hjb_residual_arrays(v_t, v_x, v_xx, x0, m)) < 1e-8


def test_residual_term_isolation():
    m = MarketParams()
    assert hjb_residual_arrays(0.0, 0.0, 0.0, 0.3, m) == 0.0
    assert hjb_residual_arrays(2.0, 0.0, 3.0, 0.7, m) == pytest.approx(2.0 * 3.0)


def test_total_loss_analytical_below_tolerance():
    m = MarketParams()
    c = sample_collocation(0, 50, 50)
    lb = total_loss(AnalyticalSolution(m), c, LossWeights(), m)
    assert lb.total < 1e-12


class _ZeroModel:
    def values(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def derivatives(self, t, x):
        z = np.zeros_like(np.asarray(x, dtype=float))
        return z, z, z, z


def test_total_loss_zero_model_closed_form():
    m = MarketParams()
    w = LossWeights()
    c = sample_collocation(3, 20, 20)
    lb = total_loss(_ZeroModel(), c, w, m)
    assert lb.l_d == 0.0
    expect_1b = w.w_1 * np.mean(merton.terminal_target(c.terminal_x, m) ** 2)
    expect_2b = w.w_2 * np.mean(merton.lateral_target(c.lateral_t, m) ** 2)
    assert lb.l_1b == pytest.approx(expect_1b, rel=1e-12)
    assert lb.l_2b == pytest.approx(expect_2b, rel=1e-12)
    assert lb.total == lb.l_d + lb.l_1b + lb.l_2b


def test_total_loss_weight_linearity():
    m = MarketParams()
    c = sample_collocation(4, 10, 10)
    base = total_loss(_ZeroModel(), c, LossWeights(), m)
    doubled = total_loss(_ZeroModel(), c, LossWeights(w_2=10.0), m)
    assert doubled.l_2b == pytest.approx(2 * base.l_2b, rel=1e-14)
    assert doubled.l_1b == base.l_1b and doubled.l_d == base.l_d


def test_total_loss_permutation_invariant():
    m = MarketParams()
    c = sample_collocation(5, 30, 30)
    perm = np.random.default_rng(0).permutation(30)
    shuffled = merton.CollocationSet(c.interior[perm], c.terminal_x[perm],
                                     c.lateral_t[perm])
    sol = AnalyticalSolution(m)
    a, b = total_loss(sol, c, LossWeights(), m), total_loss(sol, shuffled, LossWeights(), m)
    assert a.l_d == b.l_d and a.l_1b == b.l_1b and a.l_2b == b.l_2b


def test_fsum_rows_sums_each_segment_exactly():
    # a 1-D row gives one exact sum per segment, where a float sum loses the 1.0
    row = np.array([1e16, 1.0, -1e16, 0.5, 2.0])
    got = merton.fsum_rows(row, (3, 2))
    assert got.shape == (2,) and got.tolist() == [1.0, 2.5]
    # (B, N) rows give (B, segments), each row as the 1-D case
    rng = np.random.default_rng(3)
    arr = rng.normal(0.0, 1.0, (4, 9)) * 10.0 ** rng.integers(-8, 9, (4, 9))
    widths = (2, 3, 4)
    got = merton.fsum_rows(arr, widths)
    assert got.shape == (4, 3)
    for r in range(4):
        np.testing.assert_array_equal(merton.fsum_rows(arr[r], widths), got[r])
        assert got[r].tolist() == [math.fsum(arr[r, 0:2]), math.fsum(arr[r, 2:5]),
                                   math.fsum(arr[r, 5:9])]
    # exact sums do not depend on the order inside a segment
    perm = np.concatenate([rng.permutation(2), 2 + rng.permutation(3), 5 + rng.permutation(4)])
    np.testing.assert_array_equal(merton.fsum_rows(arr[:, perm], widths), got)
    for bad in ((2, 3, 3), (2, 3, 4, 1)):
        with pytest.raises(ValueError, match="segment widths sum to"):
            merton.fsum_rows(arr, bad)


def test_sample_collocation_contract():
    a = sample_collocation(7, 10000, 100)
    b = sample_collocation(7, 10000, 100)
    assert np.array_equal(a.interior, b.interior)
    assert np.array_equal(a.terminal_x, b.terminal_x)
    assert a.interior.min() >= 0.01 and a.interior.max() <= 0.99
    assert a.terminal_x.min() >= 0.01 and a.lateral_t.max() <= 0.99
    default = sample_collocation(0)
    assert default.interior.shape == (50, 2) and default.terminal_x.shape == (50,)


def test_sample_collocation_honours_horizon():
    short = sample_collocation(0, 50, 50, T=0.5)
    assert short.interior[:, 0].max() <= 0.5 and short.lateral_t.max() <= 0.5
    assert short.interior[:, 0].min() >= 0.005
    rng = np.random.default_rng(0)  # the T = 1 draws, in their order
    interior = rng.uniform(0.01, 0.99, size=(50, 2))
    terminal_x = rng.uniform(0.01, 0.99, size=50)
    lateral_t = rng.uniform(0.01, 0.99, size=50)
    full = sample_collocation(0, 50, 50, T=1.0)
    assert np.array_equal(full.interior, interior)
    assert np.array_equal(full.terminal_x, terminal_x)
    assert np.array_equal(full.lateral_t, lateral_t)
    assert np.array_equal(short.interior[:, 1], interior[:, 1])
    assert np.array_equal(short.terminal_x, terminal_x)


def test_optimal_control_paper_value():
    m = MarketParams()
    sol = AnalyticalSolution(m)
    rng = np.random.default_rng(43)
    for _ in range(10):
        t0, x0 = rng.uniform(0.05, 0.95, 2)
        _, _, v_x, v_xx = sol.derivatives(t0, x0)
        assert optimal_control(float(v_x), float(v_xx), x0, m) == pytest.approx(
            0.95, abs=1e-10
        )
    closed = (1 / (1 - m.gamma)) * (m.mu - m.r) / m.sigma**2
    assert closed == pytest.approx(20 * 0.0475, abs=1e-12)


def test_optimal_control_edge_cases():
    m = MarketParams()
    assert optimal_control(0.0, -1.0, 0.5, m) == 0.0
    with pytest.raises(DegenerateControlError):
        optimal_control(1.0, 0.0, 0.5, m)
    with pytest.raises(DegenerateControlError):
        optimal_control(1.0, -1.0, 0.0, m)
