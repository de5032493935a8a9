import math

import numpy as np
import pytest

from qpinn import circuits as cir
from qpinn import duals, sim
from qpinn.duals import Dual2
from qpinn.errors import DomainError
from qpinn.merton import MarketParams, k_constant


def test_square_of_seed():
    x = Dual2.seed(0.3)
    y = x * x
    assert y.v == pytest.approx(0.09)
    assert y.d1 == pytest.approx(0.6)
    assert y.d2 == pytest.approx(2.0)


def test_arccos_first_derivative():
    y = duals.arccos(Dual2.seed(0.5))
    assert y.d1 == pytest.approx(-1.0 / math.sqrt(0.75), abs=1e-12)


def test_tanh_at_origin():
    y = duals.tanh(Dual2.seed(0.0))
    assert (y.d1, y.d2) == (1.0, 0.0)


def test_derive2_cube():
    assert duals.derive2(lambda x: x * x * x, 2.0) == pytest.approx((8.0, 12.0, 12.0))


def test_derive2_constant():
    v, d1, d2 = duals.derive2(lambda x: x * 0.0 + 7.5, 1.3)
    assert (v, d1, d2) == (7.5, 0.0, 0.0)


def test_derive2_analytic_hjb_slice():
    # v(0.5, x) differentiated in x at x = 0.5
    m = MarketParams()
    k = k_constant(m)

    def f(x):
        return duals.exp(Dual2.lift(-k * 0.5)) * x**m.gamma / m.gamma

    v, d1, d2 = duals.derive2(f, 0.5)
    assert d1 == pytest.approx(math.exp(-k * 0.5) * 0.5 ** (m.gamma - 1.0), rel=1e-12)
    h = 1e-5
    g = lambda x: math.exp(-k * 0.5) * x**m.gamma / m.gamma
    fd = (g(0.5 + h) - g(0.5 - h)) / (2 * h)
    assert d1 == pytest.approx(fd, rel=1e-6)


def test_random_compositions_match_finite_differences():
    rng = np.random.default_rng(5)
    ops = [
        lambda u: duals.sin(u) * 0.7 + u,
        lambda u: duals.cos(u * 0.9),
        lambda u: duals.tanh(u),
        lambda u: duals.exp(u * 0.3),
        lambda u: u * u + 0.1,
        lambda u: duals.arccos(u * 0.5),
        lambda u: duals.sqrt(u * u + 0.5),
        lambda u: (u + 2.5) / (u * u + 1.5),
    ]
    for _ in range(50):
        chain = [ops[i] for i in rng.integers(0, len(ops), size=3)]
        x0 = float(rng.uniform(-0.9, 0.9))

        def f(u):
            for op in chain:
                u = op(u)
            return u

        v, d1, d2 = duals.derive2(f, x0)
        g = lambda t: f(Dual2.lift(t)).v
        h1, h2 = 1e-5, 1e-4
        fd1 = (g(x0 + h1) - g(x0 - h1)) / (2 * h1)
        fd2 = (g(x0 + h2) - 2 * g(x0) + g(x0 - h2)) / h2**2
        assert d1 == pytest.approx(fd1, rel=1e-5, abs=1e-8)
        assert d2 == pytest.approx(fd2, rel=1e-3, abs=1e-4)


def test_derive2_linearity():
    f = lambda x: duals.sin(x) * duals.exp(x * 0.5)
    g = lambda x: duals.cos(x * 1.2) + x * x
    a, b = 1.7, -0.4
    combo = duals.derive2(lambda x: a * f(x) + b * g(x), 0.3)
    fv = duals.derive2(f, 0.3)
    gv = duals.derive2(g, 0.3)
    for c, x, y in zip(combo, fv, gv):
        assert c == pytest.approx(a * x + b * y, abs=1e-12)


def test_domain_errors():
    with pytest.raises(DomainError):
        duals.arccos(Dual2.seed(1.0))
    with pytest.raises(DomainError):
        duals.sqrt(Dual2.seed(-0.5))
    with pytest.raises(DomainError):
        Dual2.seed(1.0) / Dual2(0.0, 1.0, 0.0)


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
            seeded = [Dual2.seed(p) if j == i else p for j, p in enumerate(params)]
            dual = sim.expect_z0(sim.run(circ, seeded, inputs)).d1
            assert shift == pytest.approx(dual, abs=1e-8)
