import math

import numpy as np
import pytest

from qpinn import circuits as cir
from qpinn import duals, sim
from qpinn.errors import DomainError
from qpinn.merton import MarketParams, k_constant


def seed(x):
    """The seeded triple of x: d/dx x = 1."""
    return (x, 1.0, 0.0)


def const(c):
    return (c, 0.0, 0.0)


def test_square_of_seed():
    y = duals.t_mul(seed(0.3), seed(0.3))
    assert y[0] == pytest.approx(0.09)
    assert y[1] == pytest.approx(0.6)
    assert y[2] == pytest.approx(2.0)


def test_arccos_first_derivative():
    y = duals.t_arccos(seed(0.5))
    assert y[1] == pytest.approx(-1.0 / math.sqrt(0.75), abs=1e-12)


def test_tanh_at_origin():
    y = duals.t_tanh(seed(0.0))
    assert (y[1], y[2]) == (1.0, 0.0)


def test_derive2_cube():
    x = seed(2.0)
    assert duals.t_mul(duals.t_mul(x, x), x) == pytest.approx((8.0, 12.0, 12.0))


def test_derive2_constant():
    v, d1, d2 = duals.t_add(duals.t_mul(seed(1.3), const(0.0)), const(7.5))
    assert (v, d1, d2) == (7.5, 0.0, 0.0)


def test_derive2_analytic_hjb_slice():
    # v(0.5, x) differentiated in x at x = 0.5
    m = MarketParams()
    k = k_constant(m)

    def f(x):
        return duals.t_scale(1.0 / m.gamma,
                             duals.t_mul(duals.t_exp(const(-k * 0.5)), duals.t_pow(x, m.gamma)))

    v, d1, d2 = f(seed(0.5))
    assert d1 == pytest.approx(math.exp(-k * 0.5) * 0.5 ** (m.gamma - 1.0), rel=1e-12)
    h = 1e-5
    g = lambda x: math.exp(-k * 0.5) * x**m.gamma / m.gamma
    fd = (g(0.5 + h) - g(0.5 - h)) / (2 * h)
    assert d1 == pytest.approx(fd, rel=1e-6)


def test_random_compositions_match_finite_differences():
    rng = np.random.default_rng(5)
    t_add, t_mul, t_scale = duals.t_add, duals.t_mul, duals.t_scale
    ops = [
        lambda u: t_add(t_scale(0.7, duals.t_sin(u)), u),
        lambda u: duals.t_cos(t_scale(0.9, u)),
        duals.t_tanh,
        lambda u: duals.t_exp(t_scale(0.3, u)),
        lambda u: t_add(t_mul(u, u), const(0.1)),
        lambda u: duals.t_arccos(t_scale(0.5, u)),
        lambda u: duals.t_sqrt(t_add(t_mul(u, u), const(0.5))),
        lambda u: t_mul(t_add(u, const(2.5)), duals.t_pow(t_add(t_mul(u, u), const(1.5)), -1.0)),
    ]
    for _ in range(50):
        chain = [ops[i] for i in rng.integers(0, len(ops), size=3)]
        x0 = float(rng.uniform(-0.9, 0.9))

        def f(u):
            for op in chain:
                u = op(u)
            return u

        v, d1, d2 = f(seed(x0))
        g = lambda t: f(const(t))[0]
        h1, h2 = 1e-5, 1e-4
        fd1 = (g(x0 + h1) - g(x0 - h1)) / (2 * h1)
        fd2 = (g(x0 + h2) - 2 * g(x0) + g(x0 - h2)) / h2**2
        assert d1 == pytest.approx(fd1, rel=1e-5, abs=1e-8)
        assert d2 == pytest.approx(fd2, rel=1e-3, abs=1e-4)


def test_derive2_linearity():
    f = lambda x: duals.t_mul(duals.t_sin(x), duals.t_exp(duals.t_scale(0.5, x)))
    g = lambda x: duals.t_add(duals.t_cos(duals.t_scale(1.2, x)), duals.t_mul(x, x))
    a, b = 1.7, -0.4
    x = seed(0.3)
    combo = duals.t_add(duals.t_scale(a, f(x)), duals.t_scale(b, g(x)))
    for c, fv, gv in zip(combo, f(x), g(x)):
        assert c == pytest.approx(a * fv + b * gv, abs=1e-12)


def test_domain_errors():
    with pytest.raises(DomainError):
        duals.t_arccos(seed(1.0))


def test_fd_gradient_quadratic():
    grad = duals.fd_gradient(lambda p: float(p @ p), np.array([1.0, -2.0]), h=1e-5)
    assert np.allclose(grad, [2.0, -4.0], atol=1e-9)


def test_fd_gradient_at_stationary_point():
    grad = duals.fd_gradient(lambda p: float(p @ p), np.zeros(3), h=1e-5)
    assert np.all(np.abs(grad) < 1e-9)


def test_parameter_shift_single_rx():
    circ = cir.Circuit(1, (cir.rx(0, cir.Param(0)),), n_params=1)
    theta = math.pi / 3
    # f(θ) = cos θ from |0⟩, so the shift rule returns −sin θ exactly
    assert duals.parameter_shift(circ, [theta], [], 0) == pytest.approx(
        -math.sin(theta), abs=1e-12
    )
    assert duals.parameter_shift(circ, [0.0], [], 0) == pytest.approx(0.0, abs=1e-12)


def test_parameter_shift_repeated_occurrence():
    # the same slot drives two rotations; the rule sums over occurrences
    circ = cir.Circuit(
        1, (cir.rx(0, cir.Param(0)), cir.rz(0, cir.Const(0.4)), cir.rx(0, cir.Param(0))),
        n_params=1,
    )
    theta = 0.7
    shift = duals.parameter_shift(circ, [theta], [], 0)
    f = lambda t: sim.expect_z0(sim.run(circ, [t], []))
    h = 1e-6
    assert shift == pytest.approx((f(theta + h) - f(theta - h)) / (2 * h), abs=1e-8)


def test_parameter_shift_index_error():
    circ = cir.Circuit(1, (cir.rx(0, cir.Param(0)),), n_params=1)
    with pytest.raises(IndexError):
        duals.parameter_shift(circ, [0.1], [], 1)


def test_parameter_shift_matches_dual_on_constructed_circuits():
    from qpinn import models, qsp

    rng = np.random.default_rng(11)
    circuits = [
        qsp.univariate_model_circuit(1),
        qsp.univariate_model_circuit(2),
        qsp.td_circuit_template(1, 2, 1),
        models.qpinn_circuit(),
    ]
    for circ in circuits:
        inputs = rng.uniform(-0.9, 0.9, circ.n_inputs)
        for _ in range(5):
            params = rng.normal(size=circ.n_params)
            i = int(rng.integers(circ.n_params))
            shift = duals.parameter_shift(circ, params, inputs, i)
            seeded = (params, np.eye(circ.n_params)[i], np.zeros(circ.n_params))
            dual = sim.expect_z0(sim.run(circ, seeded, inputs))[1]
            assert shift == pytest.approx(dual, abs=1e-8)
