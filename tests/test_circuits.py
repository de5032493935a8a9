import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpinn import circuits as cir
from qpinn.errors import DomainError, IndexCollisionError, LoweringError, SizeError


def rx_matrix(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def rz_matrix(theta):
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def chain_matrix(thetas, x):
    """2×2 matmul oracle for the QSP chain, independent of the IR."""
    u = rz_matrix(thetas[0])
    for t in thetas[1:]:
        u = rz_matrix(t) @ rx_matrix(-2.0 * math.acos(x)) @ u
    return u


def random_circuit(rng, width):
    gates = []
    n_params = 3
    for _ in range(rng.integers(4, 10)):
        q = int(rng.integers(width))
        kind = rng.integers(6)
        if kind == 0:
            gates.append(cir.h(q))
        elif kind == 1:
            gates.append(cir.x(q))
        elif kind == 2:
            gates.append(cir.rx(q, cir.Const(float(rng.normal()))))
        elif kind == 3:
            gates.append(cir.rz(q, cir.Param(int(rng.integers(n_params)))))
        elif kind == 4 and width > 1:
            t = int((q + 1) % width)
            gates.append(cir.cnot(q, t))
        elif width > 1:
            t = int((q + 1) % width)
            g = cir.rz(t, cir.Const(float(rng.normal())))
            gates.append(cir.controlled(g, [(q, int(rng.integers(2)))]))
    return cir.Circuit(width, tuple(gates), n_params=n_params, n_inputs=1)


# ---------------------------------------------------------------------------
# chain construction


def test_qsp_chain_degree_zero():
    c = cir.build_qsp_chain(0)
    assert len(c.gates) == 1 and c.gates[0].kind == "rz"
    assert c.n_params == 1


def test_qsp_chain_structure_L3():
    c = cir.build_qsp_chain(3)
    assert len(c.gates) == 7
    assert [g.kind for g in c.gates] == ["rz", "rx", "rz", "rx", "rz", "rx", "rz"]
    assert c.n_params == 4


def test_qsp_chain_L2_zero_angles_matches_rx_power():
    c = cir.build_qsp_chain(2)
    u = cir.unitary_of(c, [0.0, 0.0, 0.0], [0.5])
    expected = rx_matrix(-4.0 * math.acos(0.5))
    assert np.abs(u - expected).max() < 1e-12
    assert u[0, 0].real == pytest.approx(-0.5, abs=1e-12)


def test_qsp_chain_L1_x0():
    c = cir.build_qsp_chain(1)
    u = cir.unitary_of(c, [0.0, 0.0], [0.0])
    assert np.abs(u - np.array([[0, 1j], [1j, 0]])).max() < 1e-12


def test_qsp_chain_random_vs_matmul_oracle():
    rng = np.random.default_rng(2)
    for L in (1, 2, 4):
        c = cir.build_qsp_chain(L)
        th = rng.normal(size=L + 1)
        x = float(rng.uniform(-1, 1))
        assert np.abs(cir.unitary_of(c, th, [x]) - chain_matrix(th, x)).max() < 1e-12


# ---------------------------------------------------------------------------
# unitary oracle


def test_unitary_hadamard():
    c = cir.Circuit(1, (cir.h(0),))
    assert np.abs(cir.unitary_of(c) - np.array([[1, 1], [1, -1]]) / math.sqrt(2)).max() < 1e-15


def test_unitary_rzz():
    theta = 0.713
    c = cir.Circuit(2, (cir.rzz(0, 1, cir.Const(theta)),))
    lo, hi = np.exp(-0.5j * theta), np.exp(0.5j * theta)
    assert np.abs(cir.unitary_of(c) - np.diag([lo, hi, hi, lo])).max() < 1e-15


def test_unitarity_of_random_circuits():
    rng = np.random.default_rng(3)
    for _ in range(25):
        c = random_circuit(rng, int(rng.integers(1, 5)))
        u = cir.unitary_of(c, rng.normal(size=3), [0.3])
        assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-12


def test_unitary_width_cap():
    c = cir.Circuit(11, (cir.h(0),))
    with pytest.raises(SizeError):
        cir.unitary_of(c)


def test_unitary_input_domain():
    c = cir.build_qsp_chain(1)
    with pytest.raises(DomainError):
        cir.unitary_of(c, [0.0, 0.0], [1.5])


# ---------------------------------------------------------------------------
# controlled, applied gate by gate


def _wrap(circuit, controls):
    gates = tuple(cir.controlled(g, controls) for g in circuit.gates)
    return cir.Circuit(circuit.width, gates, circuit.n_params, circuit.n_inputs)


def test_controlled_wrap_empty_controls():
    c = cir.build_qsp_chain(1)
    assert _wrap(c, []) == c


def test_controlled_wrap_identity_on_off_subspace():
    inner = cir.Circuit(2, (cir.rx(1, cir.Const(math.pi)),))
    wrapped = _wrap(inner, [(0, 1)])
    u = cir.unitary_of(wrapped)
    assert np.abs(u[:2, :2] - np.eye(2)).max() < 1e-15
    assert np.abs(u[2:, 2:] - rx_matrix(math.pi)).max() < 1e-15


def test_controlled_wrap_projector_sum():
    inner = cir.Circuit(2, (cir.rz(1, cir.Const(0.3)), cir.rx(1, cir.Const(0.8))))
    wrapped = _wrap(inner, [(0, 1)])
    u = cir.unitary_of(wrapped)
    v = rx_matrix(0.8) @ rz_matrix(0.3)
    expected = np.kron(np.diag([1.0, 0.0]), np.eye(2)) + np.kron(np.diag([0.0, 1.0]), v)
    assert np.abs(u - expected).max() < 1e-12


def test_controlled_wrap_collision():
    with pytest.raises(IndexCollisionError):
        cir.controlled(cir.rx(0, cir.Const(1.0)), [(0, 1)])


def test_parity_split_pair_expectation():
    # ⟨+|⊗²(|0⟩⟨0|⊗U₁+|1⟩⟨1|⊗U₂)|+⟩⊗² = ½(⟨+|U₁|+⟩+⟨+|U₂|+⟩), dense oracle
    rng = np.random.default_rng(9)
    th1, th2 = rng.normal(size=3), rng.normal(size=3)
    x = 0.42
    u1, u2 = chain_matrix(th1, x), chain_matrix(th2, x)
    selector = np.kron(np.diag([1.0, 0.0]), u1) + np.kron(np.diag([0.0, 1.0]), u2)
    plus2 = np.full(4, 0.5)
    lhs = plus2 @ selector @ plus2
    plus = np.full(2, 1 / math.sqrt(2))
    rhs = 0.5 * (plus @ u1 @ plus + plus @ u2 @ plus)
    assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# resource counting


def test_count_resources_empty():
    rep = cir.count_resources(cir.Circuit(3, ()), cir.NativeGateSet.DOUBLE_CONTROLLED)
    assert (rep.depth, rep.n_single_qubit, rep.n_cnot, rep.n_multi_controlled) == (0, 0, 0, 0)


def test_count_resources_prop1_L3():
    from qpinn import qsp

    rep = cir.count_resources(qsp.univariate_model_circuit(3),
                              cir.NativeGateSet.DOUBLE_CONTROLLED)
    assert rep.n_multi_controlled == 12
    assert rep.n_single_qubit == 4
    assert rep.depth == 14


def test_count_resources_cor1():
    from qpinn import qsp

    rep = cir.count_resources(qsp.td_circuit_template(1, 2, 1),
                              cir.NativeGateSet.DOUBLE_CONTROLLED)
    assert rep.width == 5
    assert rep.depth <= 10
    assert rep.n_params == 6


def test_bind_replaces_params_only():
    a = cir.Param(0, scale=-0.5, offset=0.25)
    b = cir.Param(1, scale=2.0, offset=-1.0)
    gates = (cir.h(0), cir.rz(1, a), cir.controlled(cir.rx(1, b), [(0, 1)]),
             cir.rx(1, cir.InputArccos(0)), cir.rz(0, cir.Const(0.7)),
             cir.controlled(cir.rz(1, cir.Param(0)), [(0, 0)]))
    c = cir.Circuit(2, gates, n_params=2, n_inputs=1)
    theta = [0.3, -1.1]
    bound = cir.bind(c, theta)
    assert bound.n_params == 0 and bound.n_inputs == 1
    assert bound.gates[1].angle == cir.Const(cir.eval_angle(a, theta, ()))
    assert bound.gates[2].controls == gates[2].controls
    assert bound.gates[2].inner.angle == cir.Const(cir.eval_angle(b, theta, ()))
    assert bound.gates[5].inner.angle == cir.Const(0.3)
    assert bound.gates[3] == gates[3] and bound.gates[4] == gates[4]
    x = [0.4]
    assert np.array_equal(cir.unitary_of(bound, (), x), cir.unitary_of(c, theta, x))
    with pytest.raises(SizeError):
        cir.bind(c, [0.3])


def test_count_resources_needs_lowering():
    c = cir.Circuit(2, (cir.controlled(cir.rz(1, cir.Const(1.0)), [(0, 1)]),))
    with pytest.raises(LoweringError):
        cir.count_resources(c, cir.NativeGateSet.CNOT_SINGLE_QUBIT)


def test_depth_monotone_under_append():
    rng = np.random.default_rng(4)
    c = random_circuit(rng, 4)
    depths = [cir.greedy_depth(c.gates[:i]) for i in range(len(c.gates) + 1)]
    assert all(b >= a for a, b in zip(depths, depths[1:]))


# ---------------------------------------------------------------------------
# lowering


def test_lower_controlled_rz_counts_and_unitary():
    c = cir.Circuit(2, (cir.controlled(cir.rz(1, cir.Const(0.7)), [(0, 1)]),))
    low = cir.lower_to_cnot_single(c)
    rep = cir.count_resources(low, cir.NativeGateSet.CNOT_SINGLE_QUBIT)
    assert (rep.n_single_qubit, rep.n_cnot, rep.depth) == (2, 2, 4)
    assert np.abs(cir.unitary_of(low) - cir.unitary_of(c)).max() < 1e-12


def test_lower_double_controlled_rz():
    c = cir.Circuit(3, (cir.controlled(cir.rz(2, cir.Const(1.1)), [(0, 1), (1, 1)]),))
    low = cir.lower_to_cnot_single(c)
    rep = cir.count_resources(low, cir.NativeGateSet.CNOT_SINGLE_QUBIT)
    assert (rep.n_single_qubit, rep.n_cnot, rep.depth) == (6, 8, 12)
    assert np.abs(cir.unitary_of(low) - cir.unitary_of(c)).max() < 1e-12


def test_lower_double_controlled_rx():
    c = cir.Circuit(3, (cir.controlled(cir.rx(2, cir.Const(-0.9)), [(0, 1), (1, 1)]),))
    low = cir.lower_to_cnot_single(c)
    rep = cir.count_resources(low, cir.NativeGateSet.CNOT_SINGLE_QUBIT)
    assert (rep.n_single_qubit, rep.n_cnot, rep.depth) == (12, 8, 18)
    assert np.abs(cir.unitary_of(low) - cir.unitary_of(c)).max() < 1e-12


def test_lower_negative_polarity_and_rzz():
    gates = (
        cir.controlled(cir.rz(1, cir.Const(0.4)), [(0, 0)]),
        cir.controlled(cir.rx(1, cir.Const(0.9)), [(0, 0)]),
        cir.rzz(0, 1, cir.Const(0.6)),
        cir.controlled(cir.rzz(1, 2, cir.Const(0.5)), [(0, 1)]),
    )
    c = cir.Circuit(3, gates)
    low = cir.lower_to_cnot_single(c)
    cir.count_resources(low, cir.NativeGateSet.CNOT_SINGLE_QUBIT)  # must not raise
    assert cir.phase_aligned_distance(cir.unitary_of(low), cir.unitary_of(c)) < 1e-12
    # consecutive same-polarity controls share one X pair
    assert sum(1 for g in low.gates if g.kind == "x") == 2


def test_lower_prop1_bounds_and_equivalence():
    from qpinn import qsp

    rng = np.random.default_rng(6)
    for L in (1, 2, 3):
        circ = qsp.univariate_model_circuit(L)
        low = cir.lower_to_cnot_single(circ)
        rep = cir.count_resources(low, cir.NativeGateSet.CNOT_SINGLE_QUBIT)
        assert rep.n_single_qubit <= 36 * L
        assert rep.n_cnot <= 32 * L
        assert cir.greedy_depth([g for g in low.gates if g.kind != "x"]) <= 60 * L - 5
        for _ in range(100):
            th = rng.normal(size=2 * L + 1)
            x = float(rng.uniform(-1, 1))
            d = cir.phase_aligned_distance(cir.unitary_of(circ, th, [x]),
                                           cir.unitary_of(low, th, [x]))
            assert d < 1e-10


def test_lower_unsupported():
    c = cir.Circuit(4, (cir.controlled(cir.rz(3, cir.Const(0.2)),
                                       [(0, 1), (1, 1), (2, 1)]),))
    with pytest.raises(LoweringError):
        cir.lower_to_cnot_single(c)
    p = cir.Circuit(2, (cir.prepare_amplitudes((0,), [0.6, 0.8]),))
    with pytest.raises(LoweringError):
        cir.lower_to_cnot_single(p)


def test_lowering_keeps_symbolic_params():
    from qpinn import qsp

    circ = qsp.univariate_model_circuit(2)
    low = cir.lower_to_cnot_single(circ)
    assert low.n_params == circ.n_params == 5


# every gate ``lower_to_cnot_single`` accepts: (kind, controls) → qubits it needs
_LOWERABLE = {("h", 0): 1, ("x", 0): 1, ("rx", 0): 1, ("rz", 0): 1, ("cnot", 0): 2,
              ("rzz", 0): 2, ("rz", 1): 2, ("rz", 2): 3, ("rx", 1): 2, ("rx", 2): 3,
              ("x", 1): 2, ("rzz", 1): 3}


@st.composite
def _lowerable_circuits(draw):
    """A circuit of up to 4 qubits and 12 lowerable gates whose angles are
    constants, affine parameter slots or arccos inputs, with values for both."""
    width = draw(st.integers(1, 4))
    kinds = [k for k, need in _LOWERABLE.items() if need <= width]
    turn = st.floats(-7.0, 7.0)
    angle = st.one_of(st.builds(cir.Const, turn),
                      st.builds(cir.Param, st.integers(0, 1), turn, turn),
                      st.builds(cir.InputArccos, st.just(0), turn, turn))
    gates = []
    for kind, n_ctrl in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=12)):
        qs = draw(st.permutations(range(width)))[:_LOWERABLE[kind, n_ctrl]]
        ctrls, qs = qs[:n_ctrl], qs[n_ctrl:]
        if kind in ("h", "x"):
            g = cir.Gate(kind, (qs[0],))
        elif kind == "cnot":
            g = cir.cnot(*qs)
        else:
            g = cir.Gate(kind, tuple(qs), angle=draw(angle))
        gates.append(cir.controlled(g, [(q, draw(st.integers(0, 1))) for q in ctrls]))
    params = draw(st.lists(turn, min_size=2, max_size=2))
    return cir.Circuit(width, tuple(gates), n_params=2, n_inputs=1), params, [draw(
        st.floats(-1.0, 1.0))]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_lowerable_circuits())
def test_lowering_preserves_unitary_property(case):
    circ, params, inputs = case
    low = cir.lower_to_cnot_single(circ)
    assert {g.kind for g in low.gates} <= {"h", "x", "rx", "rz", "cnot"}
    d = cir.phase_aligned_distance(cir.unitary_of(circ, params, inputs),
                                   cir.unitary_of(low, params, inputs))
    assert d <= 1e-10


# ---------------------------------------------------------------------------
# resource report


def test_resource_report_json():
    rep = cir.ResourceReport(3, 14, 4, 0, 12, 7)
    doc = rep.to_json_dict()
    assert doc == {"width": 3, "depth": 14, "n_single_qubit": 4, "n_cnot": 0,
                   "n_multi_controlled": 12, "n_params": 7}


def test_prepare_validation():
    with pytest.raises(ValueError):
        cir.prepare_amplitudes((0,), [0.5, 0.5])  # not unit norm
    with pytest.raises(ValueError):
        cir.prepare_amplitudes((0,), [-0.6, 0.8])  # negative entry
