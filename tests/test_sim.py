import math

import numpy as np
import pytest

from qpinn import circuits as cir
from qpinn import qsp, sim
from qpinn.errors import DomainError, SizeError

from test_circuits import random_circuit


def _seed(x):
    """A one-point dual input seeded along x."""
    return (np.array([x]), np.array([1.0]), np.array([0.0]))


def test_run_hadamard():
    st = sim.run(cir.Circuit(1, (cir.h(0),)))
    assert np.allclose(st.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_expect_z0_basics():
    assert sim.expect_z0(sim.run(cir.Circuit(3, ()))) == pytest.approx(1.0)
    assert sim.expect_z0(sim.run(cir.Circuit(1, (cir.h(0),)))) == pytest.approx(0.0, abs=1e-15)


def test_qubit0_is_most_significant():
    # X on qubit 0 of a 2-qubit register populates |10⟩ = index 2
    st = sim.run(cir.Circuit(2, (cir.x(0),)))
    assert np.argmax(np.abs(st.amps)) == 2


def test_run_matches_dense_oracle():
    rng = np.random.default_rng(12)
    for trial in range(100):
        width = int(rng.integers(1, 6)) if trial % 10 else int(rng.integers(6, 9))
        c = random_circuit(rng, width)
        params = rng.normal(size=3)
        x = float(rng.uniform(-1, 1))
        st = sim.run(c, params, [x])
        u = cir.unitary_of(c, params, [x])
        assert np.abs(st.amps - u[:, 0]).max() < 1e-12
        z = u[:, 0].conj() @ (np.diag([1.0] * (u.shape[0] // 2) + [-1.0] * (u.shape[0] // 2)) @ u[:, 0])
        assert sim.expect_z0(st) == pytest.approx(z.real, abs=1e-12)
    # every gate kind: rzz, prepare, InputArccos angles, controls of both polarities
    for _ in range(30):
        c = _channel_circuit(rng, int(rng.integers(3, 7)))
        params, xs = rng.normal(size=2), rng.uniform(-1, 1, size=2)
        u = cir.unitary_of(c, params, xs)
        assert np.abs(sim.run(c, params, xs).amps - u[:, 0]).max() < 1e-12


def test_norm_preserved():
    rng = np.random.default_rng(13)
    for _ in range(10):
        c = random_circuit(rng, 3)
        st = sim.run(c, rng.normal(size=3), [0.2])
        assert abs(np.sum(np.abs(st.amps) ** 2) - 1.0) < 1e-12


def test_prepare_amplitudes_state():
    amps = np.sqrt([0.1, 0.2, 0.3, 0.4])
    c = cir.Circuit(2, (cir.prepare_amplitudes((0, 1), amps),))
    st = sim.run(c)
    assert np.abs(st.amps - amps).max() < 1e-12


def test_fig4_expectation_at_x_one():
    # at x = 1 every S(x) = I, so both branches give ⟨+|Rz(0)|+⟩ = 1
    circ = qsp.univariate_model_circuit(1)
    val = sim.expect_z0(sim.run(circ, np.zeros(3), [1.0]))
    assert val == pytest.approx(1.0, abs=1e-12)


def test_hadamard_test_of_identity():
    circ = cir.Circuit(
        2, (cir.h(0), cir.h(1), cir.controlled(cir.rz(1, cir.Const(0.0)), [(0, 1)]), cir.h(0))
    )
    assert sim.expect_z0(sim.run(circ)) == pytest.approx(1.0, abs=1e-14)


def test_width_cap():
    with pytest.raises(SizeError):
        sim.run(cir.Circuit(25, ()))


def test_param_column_count():
    circ = qsp.univariate_model_circuit(1)  # 3 parameter slots, 1 input
    with pytest.raises(SizeError, match="expected 3 columns, got 2"):
        sim.simulate_amps(circ, [0.1, 0.2], [0.3])
    with pytest.raises(SizeError, match="expected 3 columns, got 2"):
        sim.simulate_amps(circ, (np.array([0.1, 0.2]), np.array([1.0, 0.0]), np.zeros(2)), [0.3])


def test_input_column_count():
    circ = qsp.univariate_model_circuit(1)
    with pytest.raises(SizeError, match="expected 1 columns, got 2"):
        sim.simulate_amps(circ, [0.1, 0.2, 0.3], [0.3, 0.4])
    with pytest.raises(SizeError, match="expected 1 columns, got 2"):
        sim.simulate_amps(circ, [0.1, 0.2, 0.3],
                          (np.array([0.3, 0.4]), np.array([1.0, 0.0]), np.zeros(2)))


@pytest.mark.parametrize("params, inputs", [
    ([[0.1, 0.2, 0.3]], (np.array([[0.3]]), np.array([[1.0, 0.0]]), np.array([[0.0]]))),
    ((np.array([[0.1, 0.2, 0.3]]), np.array([[1.0, 0.0]]), np.zeros((1, 3))), [0.3]),
    ((np.array([[0.1, 0.2, 0.3]]), np.ones((2, 3)), np.zeros((1, 3))), [0.3]),
], ids=["input-d1-columns", "param-d1-columns", "param-d1-rows"])
def test_dual_channel_shapes_must_match(params, inputs):
    circ = qsp.univariate_model_circuit(1)
    with pytest.raises(SizeError, match="dual channels differ"):
        sim.simulate_amps(circ, params, inputs)


def test_input_domain():
    c = cir.build_qsp_chain(1)
    with pytest.raises(DomainError):
        sim.run(c, [0.0, 0.0], [1.2])
    with pytest.raises(DomainError):
        sim.run(c, [0.0, 0.0], _seed(1.0))  # duals need the open interval


def _channel_circuit(rng, width):
    """Seeded circuit over 2 parameter slots and 2 inputs with every gate kind.

    Each of rx, rz and rzz appears once with a ``Const``, a ``Param`` and an
    ``InputArccos`` angle, about half of them controlled; x, cnot and an
    uncontrolled ``prepare`` are shuffled in after a layer of h.
    """
    pick = lambda k: [int(q) for q in rng.permutation(width)[:k]]

    def angle(kind):
        scale, offset = (float(v) for v in rng.normal(size=2))
        if kind == "const":
            return cir.Const(offset)
        if kind == "param":
            return cir.Param(int(rng.integers(2)), scale, offset)
        return cir.InputArccos(int(rng.integers(2)), scale, offset)

    amps = np.abs(rng.normal(size=4))
    a, b = pick(2)
    gates = [cir.x(pick(1)[0]), cir.cnot(a, b),
             cir.prepare_amplitudes(tuple(pick(2)), amps / np.linalg.norm(amps))]
    for kind in ("const", "param", "input"):
        a, b, c = pick(3)
        for g in (cir.rx(a, angle(kind)), cir.rz(a, angle(kind)), cir.rzz(a, b, angle(kind))):
            gates.append(cir.controlled(g, [(c, int(rng.integers(2)))])
                         if rng.random() < 0.5 else g)
    gates = [cir.h(q) for q in range(width)] + [gates[i] for i in rng.permutation(len(gates))]
    return cir.Circuit(width, tuple(gates), n_params=2, n_inputs=2)


def test_dual_value_channel_bit_identical():
    rng = np.random.default_rng(14)
    circ = qsp.univariate_model_circuit(2)
    th = rng.normal(size=5)
    x = 0.37
    plain = sim.run(circ, th, [x])
    dual = sim.run(circ, th, _seed(x))
    assert np.array_equal(plain.amps, dual.amps)

    # dual inputs, dual params and both, on circuits with every gate and angle kind
    h = 1e-5
    for _ in range(12):
        circ = _channel_circuit(rng, int(rng.integers(3, 5)))
        th, dth = rng.normal(size=2), rng.normal(size=2)
        xs, dxs = rng.uniform(-0.9, 0.9, size=2), rng.normal(size=2)
        plain = sim.run(circ, th, xs)
        for p_dir, x_dir in ((np.zeros(2), dxs), (dth, np.zeros(2)), (dth, dxs)):
            p = (th, p_dir, np.zeros(2)) if p_dir.any() else th
            i = (xs, x_dir, np.zeros(2)) if x_dir.any() else xs
            dual = sim.run(circ, p, i)
            assert np.array_equal(plain.amps, dual.amps)
            f = lambda s: sim.expect_z0(sim.run(circ, th + s * p_dir, xs + s * x_dir))
            fd1 = (f(h) - f(-h)) / (2 * h)
            assert sim.expect_z0(dual)[1] == pytest.approx(fd1, rel=1e-6, abs=1e-9)


def test_dual_derivative_matches_finite_difference():
    rng = np.random.default_rng(15)
    circ = qsp.univariate_model_circuit(2)
    th = rng.normal(size=5)
    x = 0.41
    dual = sim.expect_z0(sim.run(circ, th, _seed(x)))
    f = lambda t: sim.expect_z0(sim.run(circ, th, [t]))
    h = 1e-5
    fd1 = (f(x + h) - f(x - h)) / (2 * h)
    assert dual[1] == pytest.approx(fd1, rel=1e-6)
    h2 = 1e-4
    fd2 = (f(x + h2) - 2 * f(x) + f(x - h2)) / h2**2
    assert dual[2] == pytest.approx(fd2, rel=1e-3)


def test_dual_params_flow():
    circ = cir.Circuit(1, (cir.rx(0, cir.Param(0)),), n_params=1)
    out = sim.expect_z0(sim.run(circ, _seed(0.6), []))
    assert out[0] == pytest.approx(math.cos(0.6))
    assert out[1] == pytest.approx(-math.sin(0.6))
    assert out[2] == pytest.approx(-math.cos(0.6))


def test_batched_matches_scalar_runs():
    rng = np.random.default_rng(16)
    circ = qsp.td_circuit_template(1, 2, 1)
    params = rng.normal(size=(3, 6))
    inputs = rng.uniform(-0.9, 0.9, size=(4, 2))
    amps = sim.simulate_amps(circ, params, inputs)
    for i in range(3):
        for j in range(4):
            st = sim.run(circ, params[i], inputs[j])
            assert np.abs(amps[i, j] - st.amps).max() < 1e-14


def test_shots_exact_expectation_one():
    circ = cir.Circuit(1, ())
    est = sim.hadamard_test_shots(circ, [], [], 1000, seed=0)
    assert est.mean == 1.0 and est.std_error == 0.0


def test_shots_deterministic():
    circ = cir.Circuit(1, (cir.rx(0, cir.Const(0.8)),))
    a = sim.hadamard_test_shots(circ, [], [], 5000, seed=42)
    b = sim.hadamard_test_shots(circ, [], [], 5000, seed=42)
    assert a == b


def test_shots_zero_expectation_three_sigma():
    circ = cir.Circuit(1, (cir.h(0),))
    est = sim.hadamard_test_shots(circ, [], [], 10**6, seed=1)
    assert abs(est.mean) < 3e-3


def test_shot_estimator_unbiased():
    circ = cir.Circuit(1, (cir.rx(0, cir.Const(1.1)),))
    exact = sim.expect_z0(sim.run(circ))
    means = [sim.hadamard_test_shots(circ, [], [], 10**4, seed=s).mean for s in range(200)]
    grand = np.mean(means)
    se = np.std(means, ddof=1) / math.sqrt(len(means))
    assert abs(grand - exact) < 4 * se
