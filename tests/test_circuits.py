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


def build_qsp_chain(L):
    """Single-qubit chain R_z(θ_L)·∏_{j<L}[R_x(-2 arccos x)·R_z(θ_j)] on
    parameter slots 0..L and input 0: 2L+1 gates in application order
    R_z(θ_0), R_x, R_z(θ_1), ..., R_x, R_z(θ_L)."""
    gates = [cir.rz(0, cir.Param(0))]
    for j in range(1, L + 1):
        gates.append(cir.rx(0, cir.InputArccos(0)))
        gates.append(cir.rz(0, cir.Param(j)))
    return cir.Circuit(1, tuple(gates), n_params=L + 1, n_inputs=1)


def reference_base_matrix(g, params, inputs):
    """One gate's base matrix for one (parameters, inputs) row, built entry
    by entry from the scalar angle."""
    if g.kind == "h":
        return cir._H
    if g.kind in ("x", "cnot"):   # a cnot's matrix on its target
        return cir._X
    if g.kind == "rx":
        t = cir.eval_angle(g.angle, params, inputs)
        c, s = math.cos(t / 2.0), math.sin(t / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if g.kind == "rz":
        t = cir.eval_angle(g.angle, params, inputs)
        return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]])
    if g.kind == "rzz":
        t = cir.eval_angle(g.angle, params, inputs)
        lo, hi = np.exp(-0.5j * t), np.exp(0.5j * t)
        return np.diag([lo, hi, hi, lo])
    if g.kind == "prepare":
        return cir._householder(g.amplitudes).astype(complex)
    raise ValueError(f"no base matrix for {g.kind!r}")


def reference_embed(mat, qubits, controls, width):
    """``mat`` on ``qubits`` under ``controls`` in a ``2^width`` identity,
    written one base-matrix entry at a time from freshly built indices."""
    t_pos = [width - 1 - q for q in qubits]
    c_pos = [width - 1 - q for q, _ in controls]
    rest = [p for p in range(width) if p not in t_pos and p not in c_pos]
    ctrl_bits = 0
    for (q, pol), pos in zip(controls, c_pos):
        ctrl_bits |= pol << pos
    rest_idx = cir._scatter_bits(np.arange(1 << len(rest), dtype=np.int64), rest)
    base = cir._scatter_bits(np.arange(1 << len(qubits), dtype=np.int64), t_pos)
    full = np.eye(1 << width, dtype=complex)
    idx = base[:, None] | ctrl_bits | rest_idx[None, :]
    for a in range(1 << len(qubits)):
        for b in range(1 << len(qubits)):
            full[idx[a], idx[b]] = mat[a, b]
    return full


def reference_unitary(circuit, params=(), inputs=()):
    """Product of ``reference_embed`` gate matrices, in application order."""
    u = np.eye(1 << circuit.width, dtype=complex)
    for g in circuit.gates:
        controls = g.controls if g.kind == "controlled" else ()
        g = g.inner if g.kind == "controlled" else g
        if g.kind == "cnot":
            g, controls = cir.x(g.qubits[1]), ((g.qubits[0], 1),) + controls
        mat = reference_base_matrix(g, params, inputs)
        u = reference_embed(mat, g.qubits, controls, circuit.width) @ u
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
    c = build_qsp_chain(0)
    assert len(c.gates) == 1 and c.gates[0].kind == "rz"
    assert c.n_params == 1


def test_qsp_chain_structure_L3():
    c = build_qsp_chain(3)
    assert len(c.gates) == 7
    assert [g.kind for g in c.gates] == ["rz", "rx", "rz", "rx", "rz", "rx", "rz"]
    assert c.n_params == 4


def test_qsp_chain_L2_zero_angles_matches_rx_power():
    c = build_qsp_chain(2)
    u = cir.unitary_of(c, [0.0, 0.0, 0.0], [0.5])
    expected = rx_matrix(-4.0 * math.acos(0.5))
    assert np.abs(u - expected).max() < 1e-12
    assert u[0, 0].real == pytest.approx(-0.5, abs=1e-12)


def test_qsp_chain_L1_x0():
    c = build_qsp_chain(1)
    u = cir.unitary_of(c, [0.0, 0.0], [0.0])
    assert np.abs(u - np.array([[0, 1j], [1j, 0]])).max() < 1e-12


def test_qsp_chain_random_vs_matmul_oracle():
    rng = np.random.default_rng(2)
    for L in (1, 2, 4):
        c = build_qsp_chain(L)
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


def random_every_kind_circuit(rng, width, n_gates):
    """Seeded circuit of ``n_gates`` gates of every kind and angle kind, each
    under up to 3 controls of either polarity, on two parameter slots and
    two inputs (``every_kind_circuits`` at any width and length)."""
    kinds = [k for k in sorted(_TARGETS) if (_TARGETS[k] or 1) <= width]
    gates = []
    for _ in range(n_gates):
        kind = kinds[int(rng.integers(len(kinds)))]
        need = _TARGETS[kind] or int(rng.integers(1, min(width, 3) + 1))
        qs = [int(q) for q in rng.permutation(width)]
        targets, free = tuple(qs[:need]), qs[need:]
        scale, offset = (float(v) for v in rng.uniform(-7.0, 7.0, size=2))
        angle = [cir.Const(offset), cir.Param(int(rng.integers(2)), scale, offset),
                 cir.InputArccos(int(rng.integers(2)), scale, offset)][int(rng.integers(3))]
        if kind == "prepare":
            amps = rng.uniform(0.01, 1.01, size=1 << need)
            g = cir.prepare_amplitudes(targets, amps / np.linalg.norm(amps))
        elif kind in ("h", "x", "cnot"):
            g = cir.Gate(kind, targets)
        else:
            g = cir.Gate(kind, targets, angle=angle)
        n_ctrl = int(rng.integers(0, min(len(free), 3) + 1))
        gates.append(cir.controlled(g, [(q, int(rng.integers(2))) for q in free[:n_ctrl]]))
    return cir.Circuit(width, tuple(gates), n_params=2, n_inputs=2)


def test_unitary_of_reaches_width_10():
    from qpinn import sim

    rng = np.random.default_rng(10)
    c = random_every_kind_circuit(rng, 10, 50)
    params, inputs = rng.normal(size=2), rng.uniform(-1, 1, size=2)
    u = cir.unitary_of(c, params, inputs)
    assert np.abs(u[:, 0] - sim.simulate_amps(c, params, inputs)[0, 0]).max() <= 1e-12


def test_unitary_width_cap():
    c = cir.Circuit(11, (cir.h(0),))
    with pytest.raises(SizeError):
        cir.unitary_of(c)


def test_unitary_input_domain():
    c = build_qsp_chain(1)
    with pytest.raises(DomainError):
        cir.unitary_of(c, [0.0, 0.0], [1.5])


def test_unitary_of_refuses_a_nan_parameter():
    # NaN fails every comparison, so the unitarity test must accept err <= tol
    c = cir.Circuit(1, (cir.rx(0, cir.Param(0)),), n_params=1)
    with pytest.raises(ArithmeticError):
        cir.unitary_of(c, [math.nan])
    assert np.array_equal(cir.unitary_of(c, [0.0]), np.eye(2))


_TURN = st.floats(-7.0, 7.0)
# gate kind → the target qubits it needs (prepare draws its own count)
_TARGETS = {"h": 1, "x": 1, "cnot": 2, "rx": 1, "rz": 1, "rzz": 2, "prepare": None}


@st.composite
def every_kind_circuits(draw):
    """A circuit of up to 6 qubits and 12 gates of every kind and angle kind,
    each under up to 3 controls of either polarity on any side of its
    targets, on two parameter slots and two inputs."""
    width = draw(st.integers(1, 6))
    angle = st.one_of(st.builds(cir.Const, _TURN),
                      st.builds(cir.Param, st.integers(0, 1), _TURN, _TURN),
                      st.builds(cir.InputArccos, st.integers(0, 1), _TURN, _TURN))
    gates = []
    for kind in draw(st.lists(st.sampled_from(sorted(_TARGETS)), min_size=1, max_size=12)):
        need = _TARGETS[kind] or draw(st.integers(1, min(width, 3)))
        if need > width:
            continue
        qs = draw(st.permutations(range(width)))
        targets, free = tuple(qs[:need]), qs[need:]
        if kind == "prepare":
            amps = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1 << need,
                                          max_size=1 << need))) + 0.01
            g = cir.prepare_amplitudes(targets, amps / np.linalg.norm(amps))
        elif kind in ("h", "x", "cnot"):
            g = cir.Gate(kind, targets)
        else:
            g = cir.Gate(kind, targets, angle=draw(angle))
        ctrls = [(q, draw(st.integers(0, 1))) for q in free[:draw(st.integers(0, min(len(free), 3)))]]
        gates.append(cir.controlled(g, ctrls))
    return cir.Circuit(width, tuple(gates), n_params=2, n_inputs=2)


def has_prepare(circ):
    return any(cir._gate_block(g)[0].kind == "prepare" for g in circ.gates)


@settings(max_examples=150)
@given(every_kind_circuits(), st.lists(_TURN, min_size=2, max_size=2),
       st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
def test_unitary_of_matches_reference_embedding_property(circ, params, inputs):
    got = cir.unitary_of(circ, params, inputs)
    want = reference_unitary(circ, params, inputs)
    if has_prepare(circ):
        # a prepare row sums 2^k Householder terms, which the dense product
        # adds in another order
        assert np.abs(got - want).max() <= 1e-15
    else:
        assert np.array_equal(got, want)


@st.composite
def _stacked_bindings(draw):
    """A circuit with a (B, 2) parameter stack and a (B, 2) input stack,
    B ∈ {1, 2, 3}, one of them sometimes a broadcast 1-D row."""
    circ = draw(every_kind_circuits())
    b = draw(st.integers(1, 3))
    stack = lambda values, rows: np.array(draw(st.lists(
        values, min_size=2 * rows, max_size=2 * rows))).reshape(rows, 2)
    params, inputs = stack(_TURN, b), stack(st.floats(-1.0, 1.0), b)
    single = draw(st.sampled_from(["none", "params", "inputs"]))
    if single == "params":
        params = params[0]
    elif single == "inputs":
        inputs = inputs[0]
    return circ, params, inputs


@settings(max_examples=100)
@given(_stacked_bindings())
def test_stacked_rows_equal_their_one_row_calls_property(case):
    circ, params, inputs = case
    got = cir.unitary_of(circ, params, inputs)
    p, x = np.atleast_2d(params), np.atleast_2d(inputs)
    assert got.shape == (max(len(p), len(x)),) + (1 << circ.width,) * 2
    for r in range(len(got)):
        one = cir.unitary_of(circ, p[min(r, len(p) - 1)], x[min(r, len(x) - 1)])
        assert one.shape == got.shape[1:]
        assert np.array_equal(got[r], one)


def test_one_bad_row_of_a_stack_raises():
    c = cir.Circuit(2, (cir.rx(0, cir.Param(0)), cir.rz(1, cir.InputArccos(0))),
                    n_params=1, n_inputs=1)
    good = np.array([[0.1], [0.2], [0.3]])
    assert cir.unitary_of(c, good, [0.5]).shape == (3, 4, 4)
    with pytest.raises(ArithmeticError):
        cir.unitary_of(c, [[0.1], [math.nan], [0.3]], [0.5])
    with pytest.raises(DomainError):
        cir.unitary_of(c, good, [[0.5], [0.5], [1.5]])


def test_unitary_of_on_an_empty_stack():
    c = cir.Circuit(3, (cir.h(0), cir.rx(1, cir.Param(0)), cir.rz(2, cir.InputArccos(0)),
                        cir.cnot(0, 2)), n_params=1, n_inputs=1)
    for params, inputs in ((np.zeros((0, 1)), np.zeros((0, 1))),
                           (np.zeros((0, 1)), [0.5]), ([0.1], np.zeros((0, 1)))):
        u = cir.unitary_of(c, params, inputs)
        assert u.shape == (0, 8, 8) and u.dtype == complex
    with pytest.raises(SizeError):
        cir.unitary_of(c, np.zeros((0, 1)), np.zeros((2, 1)))


_EDGE_TURNS = st.one_of(_TURN, st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]))


@settings(max_examples=150)
@given(st.sampled_from(["rx", "rz", "rzz"]), st.integers(0, 2), _EDGE_TURNS, _EDGE_TURNS,
       st.integers(1, 4), st.data())
def test_gate_matrices_equal_the_per_row_oracle_property(kind, angle_kind, scale, offset,
                                                          rows, data):
    # one stack per gate, with each row's entries as the scalar build takes them
    angle = [cir.Const(offset), cir.Param(1, scale, offset),
             cir.InputArccos(0, scale, offset)][angle_kind]
    g = cir.Gate(kind, (0, 1) if kind == "rzz" else (0,), angle=angle)
    p = np.array(data.draw(st.lists(_EDGE_TURNS, min_size=2 * rows, max_size=2 * rows)))
    x = np.array(data.draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.3, 1.0]),
                                    min_size=rows, max_size=rows)))
    p, x = p.reshape(rows, 2), x.reshape(rows, 1)
    with np.errstate(all="ignore"):
        got = cir._gate_matrices(g, p, x)
        want = [reference_base_matrix(g, pr, xr) for pr, xr in zip(p, x)]
    if angle_kind == 0:
        assert got.tobytes() == want[0].tobytes() and got.shape == want[0].shape
    else:
        assert got.shape == (rows,) + want[0].shape
        assert got.tobytes() == np.stack(want).tobytes()


@pytest.mark.parametrize("params, inputs", [
    ([0.0], [0.5]),                               # short parameter row
    ([0.0, 0.0], [0.5]),                          # short input row
    ([0.0, 0.0, 0.0], [0.5, 0.5]),                # long parameter row
    ([0.0, 0.0], [0.5, 0.5, 0.5]),                # long input row
    (np.zeros((1, 2, 2)), [0.5, 0.5]),            # 3-D parameters
    ([0.0, 0.0], np.zeros((1, 1, 2))),            # 3-D inputs
    (np.zeros((2, 2)), np.zeros((3, 2))),         # 2 rows against 3
    (0.0, [0.5, 0.5]),                            # a scalar
], ids=["short-params", "short-inputs", "long-params", "long-inputs",
        "3d-params", "3d-inputs", "2-vs-3-rows", "scalar"])
def test_unitary_of_refuses_mis_sized_bindings(params, inputs):
    c = cir.Circuit(1, (cir.rx(0, cir.Param(1)), cir.rz(0, cir.InputArccos(1))),
                    n_params=2, n_inputs=2)
    with pytest.raises(SizeError):
        cir.unitary_of(c, params, inputs)


def test_embed_index_tables_are_read_only():
    idx = cir._embed_index((1,), ((0, 0),), 3)
    assert idx.shape == (2, 2)
    assert cir._embed_index((1,), ((0, 0),), 3) is idx   # cached
    with pytest.raises(ValueError):
        idx[0, 0] = 7
    assert idx.tolist() == [[0, 1], [2, 3]]


def test_unitary_of_controlled_cnot_is_a_double_controlled_x():
    c = cir.Circuit(3, (cir.controlled(cir.cnot(1, 2), [(0, 1)]),))
    expected = np.eye(8, dtype=complex)
    expected[6:, 6:] = [[0, 1], [1, 0]]
    assert np.array_equal(cir.unitary_of(c), expected)


# ---------------------------------------------------------------------------
# controlled, applied gate by gate


def _wrap(circuit, controls):
    gates = tuple(cir.controlled(g, controls) for g in circuit.gates)
    return cir.Circuit(circuit.width, gates, circuit.n_params, circuit.n_inputs)


def test_controlled_wrap_empty_controls():
    c = build_qsp_chain(1)
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


def reference_bind(circuit: cir.Circuit, angles) -> cir.Circuit:
    """``circuit`` with every ``Param`` angle replaced by its ``Const`` value:
    the oracle of the builders' one-pass layouts.  ``Const`` and
    ``InputArccos`` angles are kept; the result has no slots."""
    if len(angles) != circuit.n_params:
        raise SizeError(f"bind expects {circuit.n_params} angles, got {len(angles)}")

    def bound(g: cir.Gate) -> cir.Gate:
        if g.kind == "controlled":
            return cir.Gate(g.kind, g.qubits, g.angle, g.controls, bound(g.inner), g.amplitudes)
        if isinstance(g.angle, cir.Param):
            return cir.Gate(g.kind, g.qubits, cir.Const(cir.eval_angle(g.angle, angles, ())),
                            g.controls, g.inner, g.amplitudes)
        return g

    return cir.Circuit(circuit.width, tuple(bound(g) for g in circuit.gates), 0, circuit.n_inputs)


def gate_bits(g: cir.Gate) -> tuple:
    """A gate as a tuple that also tells ``Const(0.0)`` from ``Const(-0.0)``
    (they compare equal): each constant and amplitude as its ``float.hex``."""
    angle = ("const", float.hex(g.angle.value)) if isinstance(g.angle, cir.Const) else g.angle
    return (g.kind, g.qubits, angle, g.controls, g.inner and gate_bits(g.inner),
            tuple(map(float.hex, g.amplitudes)))


def circuit_bits(c: cir.Circuit) -> tuple:
    return (c.width, c.n_params, c.n_inputs, tuple(map(gate_bits, c.gates)))


def test_bind_replaces_params_only():
    a = cir.Param(0, scale=-0.5, offset=0.25)
    b = cir.Param(1, scale=2.0, offset=-1.0)
    gates = (cir.h(0), cir.rz(1, a), cir.controlled(cir.rx(1, b), [(0, 1)]),
             cir.rx(1, cir.InputArccos(0)), cir.rz(0, cir.Const(0.7)),
             cir.controlled(cir.rz(1, cir.Param(0)), [(0, 0)]))
    c = cir.Circuit(2, gates, n_params=2, n_inputs=1)
    theta = [0.3, -1.1]
    bound = reference_bind(c, theta)
    assert bound.n_params == 0 and bound.n_inputs == 1
    assert bound.gates[1].angle == cir.Const(cir.eval_angle(a, theta, ()))
    assert bound.gates[2].controls == gates[2].controls
    assert bound.gates[2].inner.angle == cir.Const(cir.eval_angle(b, theta, ()))
    assert bound.gates[5].inner.angle == cir.Const(0.3)
    assert bound.gates[3] == gates[3] and bound.gates[4] == gates[4]
    x = [0.4]
    assert np.array_equal(cir.unitary_of(bound, (), x), cir.unitary_of(c, theta, x))
    with pytest.raises(SizeError):
        reference_bind(c, [0.3])


def test_bind_left_the_package():
    assert not hasattr(cir, "bind")


_LAYOUT_ANGLES = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, math.pi, -math.pi])


@settings(max_examples=60)
@given(R=st.integers(1, 3), D=st.integers(1, 2), L=st.integers(1, 3),
       multi=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=4,
                      unique=True),
       angles=st.lists(_LAYOUT_ANGLES, min_size=60, max_size=60))
def test_layouts_with_angles_equal_the_bound_template_property(R, D, L, multi, angles):
    """The builders' one-pass layouts equal their templates bound by the
    oracle, gate for gate and bit for bit: each constant is 1.0·a + 0.0, so
    −0.0 becomes +0.0."""
    from qpinn import qsp

    R = min(R, (L + 1) ** D)
    weights = np.sqrt(np.arange(1.0, R + 1.0) / (R * (R + 1) / 2.0))
    n = R * D * (2 * L + 1)
    got = qsp._td_circuit(R, D, L, weights, angles[:n])
    assert circuit_bits(got) == circuit_bits(
        reference_bind(qsp._td_circuit(R, D, L, weights, None), angles[:n]))
    n = sum(i + j + 2 for i, j in multi)
    got = qsp._lcu_circuit(multi, 2, angles[:n])
    assert circuit_bits(got) == circuit_bits(
        reference_bind(qsp.lcu_circuit_template(multi, 2, 2), angles[:n]))
    with pytest.raises(SizeError):
        qsp._lcu_circuit(multi, 2, angles[:n - 1])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 3), D=st.integers(1, 2),
       L=st.integers(1, 3), keep=st.lists(st.booleans(), min_size=9, max_size=9))
def test_builds_equal_the_bound_template_property(seed, R, D, L, keep):
    """``build_td_circuit`` and ``build_lcu_multivariate`` equal their
    templates bound by ``reference_bind`` to the synthesized angles."""
    from qpinn import qsp

    rng = np.random.default_rng(seed)
    R = min(R, (L + 1) ** D)

    def poly(degree):
        p = qsp.UnivariatePoly(tuple(rng.normal(size=degree + 1)))
        return qsp.UnivariatePoly(tuple(0.45 * np.asarray(p.coeffs) / p.sup_norm_grid()))

    td = qsp.TdPoly(R, D, L, tuple(rng.normal(size=R)),
                    tuple(tuple(poly(L) for _ in range(D)) for _ in range(R)))
    jobs = [(qsp.UnivariatePoly(tuple(-c for c in f.coeffs)) if lam < 0 and j == 0 else f, L)
            for lam, row in zip(td.lambdas, td.factors) for j, f in enumerate(row)]
    angles = np.concatenate([a for pair in qsp.synthesize_angle_pairs(jobs) for a in pair])
    weights = np.sqrt(np.abs(np.asarray(td.lambdas)) / math.fsum(map(abs, td.lambdas)))
    built, _ = qsp.build_td_circuit(td)
    assert circuit_bits(built) == circuit_bits(
        reference_bind(qsp._td_circuit(R, D, L, weights, None), angles.tolist()))

    indices = [n for n, k in zip(np.ndindex(3, 3), keep) if k] or [(0, 0)]
    mono = qsp.MonomialList(tuple((tuple(map(int, n)), float(rng.normal())) for n in indices))
    c_inf = max(abs(c) for _, c in mono.entries)
    branches = [(qsp.UnivariatePoly(tuple([0.0] * nj + [c / c_inf if j == 0 else 1.0])), nj)
                for n, c in mono.entries for j, nj in enumerate(n)]
    angles = np.concatenate(qsp._synthesize_branches(branches)).tolist()
    built, _ = qsp.build_lcu_multivariate(mono, 2, 2)
    assert circuit_bits(built) == circuit_bits(
        reference_bind(qsp.lcu_circuit_template([n for n, _ in mono.entries], 2, 2), angles))


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


@settings(max_examples=150)
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


def test_prepare_refuses_nan_amplitudes():
    with pytest.raises(ValueError):
        cir.prepare_amplitudes((0,), [math.nan, math.nan])
