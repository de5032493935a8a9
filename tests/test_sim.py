import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpinn import circuits as cir
from qpinn import duals, models, qsp, sim
from qpinn.errors import DomainError, SizeError

from test_circuits import build_qsp_chain, every_kind_circuits, random_circuit


def reference_simulate_amps(circuit, params, inputs):
    """The eager oracle of ``sim.simulate_amps``: every gate, from the first,
    runs on the full (Bp, N, 2^width) state."""
    p = sim._as_batch(params, circuit.n_params)
    i = sim._as_batch(inputs, circuit.n_inputs)
    v = np.zeros((p[0].shape[0], i[0].shape[0], 1 << circuit.width), dtype=complex)
    v[..., 0] = 1.0
    state = (v,) + tuple(np.zeros_like(v) for _ in range(max(len(p), len(i)) - 1))
    for g in circuit.gates:
        sim._apply_gate(g, state, p, i, circuit.width, sim._Memo())
    return state if len(state) == 3 else state[0]


def reference_angle(expr, params, inputs, ndim: int):
    """One gate's angle channels, evaluated for that gate alone, each
    broadcastable against a (Bp, N, …) view of ``ndim`` axes."""
    if isinstance(expr, cir.Const):
        return (expr.value,)
    if isinstance(expr, cir.Param):
        base = tuple(c[:, expr.index].reshape((-1,) + (1,) * (ndim - 1)) for c in params)
    else:  # InputArccos
        xt = tuple(c[:, expr.var].reshape((1, -1) + (1,) * (ndim - 2)) for c in inputs)
        if len(xt) == 1 and not np.all(np.abs(xt[0]) <= 1.0):
            raise DomainError("arccos input outside [-1, 1]")
        base = duals.c_lift(xt, np.arccos, duals.t_arccos)
    scaled = duals.c_mul(expr.scale, base)
    return (scaled[0] + expr.offset,) + scaled[1:]


def reference_entries(kind, expr, params, inputs, ndim: int):
    """A rotation's entries from ``reference_angle``: (cos, −i·sin) of the
    half angle for rx, the phases e^{∓iθ/2} for rz and rzz."""
    theta = reference_angle(expr, params, inputs, ndim)
    if kind == "rx":
        half = duals.c_mul(0.5, theta)
        return (duals.c_lift(half, np.cos, duals.t_cos),
                duals.c_mul(-1j, duals.c_lift(half, np.sin, duals.t_sin)))
    return tuple(duals.c_lift(duals.c_mul(sign, theta), lambda a: np.exp(1j * a), duals.t_expj)
                 for sign in (-0.5, 0.5))


def _channels(amps):
    return amps if isinstance(amps, tuple) else (amps,)


def _same_bytes(got, want):
    """Equal shapes and bytes, channel by channel: signed zeros included."""
    got, want = _channels(got), _channels(want)
    return len(got) == len(want) and all(
        a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


def _seed(x):
    """A one-point dual input seeded along x."""
    return (np.array([x]), np.array([1.0]), np.array([0.0]))


def test_run_hadamard():
    st = sim.run(cir.Circuit(1, (cir.h(0),)))
    assert np.allclose(st, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_expect_z0_basics():
    assert sim.expect_z0(sim.run(cir.Circuit(3, ()))) == pytest.approx(1.0)
    assert sim.expect_z0(sim.run(cir.Circuit(1, (cir.h(0),)))) == pytest.approx(0.0, abs=1e-15)


def test_qubit0_is_most_significant():
    # X on qubit 0 of a 2-qubit register populates |10⟩ = index 2
    st = sim.run(cir.Circuit(2, (cir.x(0),)))
    assert np.argmax(np.abs(st)) == 2


def test_run_matches_dense_oracle():
    rng = np.random.default_rng(12)
    for trial in range(100):
        width = int(rng.integers(1, 6)) if trial % 10 else int(rng.integers(6, 9))
        c = random_circuit(rng, width)
        params = rng.normal(size=3)
        x = float(rng.uniform(-1, 1))
        st = sim.run(c, params, [x])
        u = cir.unitary_of(c, params, [x])
        assert np.abs(st - u[:, 0]).max() < 1e-12
        z = u[:, 0].conj() @ (np.diag([1.0] * (u.shape[0] // 2) + [-1.0] * (u.shape[0] // 2)) @ u[:, 0])
        assert sim.expect_z0(st) == pytest.approx(z.real, abs=1e-12)
    # every gate kind: rzz, prepare, InputArccos angles, controls of both polarities
    for _ in range(30):
        c = _channel_circuit(rng, int(rng.integers(3, 7)))
        params, xs = rng.normal(size=2), rng.uniform(-1, 1, size=2)
        u = cir.unitary_of(c, params, xs)
        assert np.abs(sim.run(c, params, xs) - u[:, 0]).max() < 1e-12


def test_norm_preserved():
    rng = np.random.default_rng(13)
    for _ in range(10):
        c = random_circuit(rng, 3)
        st = sim.run(c, rng.normal(size=3), [0.2])
        assert abs(np.sum(np.abs(st) ** 2) - 1.0) < 1e-12


_NAN_ANGLE = cir.Circuit(1, (cir.rx(0, cir.Param(0)),), n_params=1)


def test_run_refuses_a_nan_parameter():
    # NaN fails every comparison, so the norm test must accept |norm − 1| <= tol
    with pytest.raises(ArithmeticError):
        sim.run(_NAN_ANGLE, [math.nan])


def test_checked_simulation_refuses_a_nan_parameter():
    with pytest.raises(ArithmeticError):
        sim.simulate_amps(_NAN_ANGLE, [[0.3], [math.nan]], [], check_norm=True)
    assert np.isnan(sim.simulate_amps(_NAN_ANGLE, [math.nan], [])).all()   # unchecked


def test_prepare_amplitudes_state():
    amps = np.sqrt([0.1, 0.2, 0.3, 0.4])
    c = cir.Circuit(2, (cir.prepare_amplitudes((0, 1), amps),))
    st = sim.run(c)
    assert np.abs(st - amps).max() < 1e-12


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
    c = build_qsp_chain(1)
    with pytest.raises(DomainError):
        sim.run(c, [0.0, 0.0], [1.2])
    with pytest.raises(DomainError):
        sim.run(c, [0.0, 0.0], _seed(1.0))  # duals need the open interval


def _model(kind):
    spec = models.ModelSpec(kind)
    return models.ModelFunction(spec, models.init_params(spec, 0))


_DOMAIN_ENTRIES = {
    "sim-plain": lambda x: sim.simulate_amps(qsp.univariate_model_circuit(1), [0.1, 0.2, 0.3], [[x]]),
    "sim-dual": lambda x: sim.simulate_amps(qsp.univariate_model_circuit(1), [0.1, 0.2, 0.3], _seed(x)),
    "t_arccos": lambda x: duals.t_arccos((np.array([x]), np.ones(1), np.zeros(1))),
    "chain_value": lambda x: qsp.chain_value([0.1, 0.2], x),
    "qpinn-values": lambda x: _model("qpinn").values([0.5], [x]),
    "quantum_inspired-values": lambda x: _model("quantum_inspired").values([0.5], [x]),
    "quantum_inspired-derivatives": lambda x: _model("quantum_inspired").derivatives([0.5], [x]),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, 1.5], ids=["nan", "inf", "1.5"])
@pytest.mark.parametrize("entry", sorted(_DOMAIN_ENTRIES))
def test_out_of_domain_inputs_raise(entry, x):
    # NaN fails every comparison, so a guard must accept |x| <= 1, not refuse |x| > 1
    with pytest.raises(DomainError):
        _DOMAIN_ENTRIES[entry](x)


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


def test_controlled_prepare_matches_dense_oracle():
    # controls of both polarities on any side of 1-3 targets in any order,
    # after a layer of h and rx so that every amplitude is populated
    rng = np.random.default_rng(17)
    for _ in range(40):
        width = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(width - 1, 3) + 1))
        qs = [int(q) for q in rng.permutation(width)]
        n_ctrl = int(rng.integers(1, min(width - k, 3) + 1))
        amps = np.abs(rng.normal(size=1 << k))
        g = cir.controlled(cir.prepare_amplitudes(tuple(qs[:k]), amps / np.linalg.norm(amps)),
                           [(q, int(rng.integers(2))) for q in qs[k:k + n_ctrl]])
        c = cir.Circuit(width, tuple(cir.h(q) for q in range(width))
                        + tuple(cir.rx(q, cir.Param(0, float(q + 1))) for q in range(width))
                        + (g,), n_params=1)
        params = rng.normal(size=(2, 1))
        got = sim.simulate_amps(c, params, [])
        for r in range(2):
            assert np.abs(got[r, 0] - cir.unitary_of(c, params[r], [])[:, 0]).max() <= 1e-12


@st.composite
def _sim_cases(draw):
    """A circuit of every gate kind (``every_kind_circuits``) with a (Bp, 2)
    parameter batch, an (N, 2) input batch and a direction for each
    (Bp ≤ 3, N ≤ 4)."""
    circ = draw(every_kind_circuits())
    bp, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    batch = lambda rows, lo, hi: np.array(draw(st.lists(
        st.floats(lo, hi), min_size=2 * rows, max_size=2 * rows))).reshape(rows, 2)
    return (circ, batch(bp, -7.0, 7.0), batch(n, -0.95, 0.95), batch(bp, -1.0, 1.0), batch(n, -1.0, 1.0))


@settings(max_examples=120)
@given(_sim_cases())
def test_batched_simulation_matches_dense_oracle_property(case):
    circ, params, inputs, d_params, d_inputs = case
    amps = sim.simulate_amps(circ, params, inputs)
    assert amps.shape == (len(params), len(inputs), 1 << circ.width)
    for r, p in enumerate(params):
        for j, x in enumerate(inputs):
            u = cir.unitary_of(circ, p, x)
            assert np.abs(amps[r, j] - u[:, 0]).max() <= 1e-12
    # the value channel of a dual run is the plain run, bit for bit
    dual = sim.simulate_amps(circ, (params, d_params, np.zeros_like(params)),
                             (inputs, d_inputs, np.zeros_like(inputs)))
    assert np.array_equal(dual[0], amps)


@st.composite
def _eager_cases(draw):
    """A circuit of every gate kind (``every_kind_circuits``), Bp and N in
    {1, 2, 3}, plain or dual parameters and inputs, and whether to check
    the norm."""
    circ = draw(every_kind_circuits())
    bp, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    batch = lambda rows, lo, hi: np.array(draw(st.lists(
        st.floats(lo, hi), min_size=2 * rows, max_size=2 * rows))).reshape(rows, 2)
    params, inputs = batch(bp, -7.0, 7.0), batch(n, -0.95, 0.95)
    if draw(st.booleans()):
        params = (params, batch(bp, -1.0, 1.0), batch(bp, -1.0, 1.0))
    if draw(st.booleans()):
        inputs = (inputs, batch(n, -1.0, 1.0), batch(n, -1.0, 1.0))
    return circ, params, inputs, draw(st.booleans())


@settings(max_examples=200)
@given(_eager_cases())
def test_simulation_matches_eager_oracle_bytes_property(case):
    # the state stays one row until a gate reads the rows; every amplitude
    # still takes the eager run's products and sums, in the same order
    circ, params, inputs, check_norm = case
    got = sim.simulate_amps(circ, params, inputs, check_norm=check_norm)
    assert _same_bytes(got, reference_simulate_amps(circ, params, inputs))


_SIGNED_TURN = st.one_of(st.floats(-7.0, 7.0), st.sampled_from([0.0, -0.0]))


@settings(max_examples=150)
@given(st.sampled_from(["rx", "rz", "rzz"]), st.integers(0, 2), _SIGNED_TURN, _SIGNED_TURN,
       st.integers(3, 6), st.booleans(), st.booleans(), st.integers(0, 2**16))
def test_entries_equal_the_per_gate_angle_oracle_property(kind, angle_kind, scale, offset, ndim,
                                                          dual_params, dual_inputs, seed):
    rng = np.random.default_rng(seed)
    expr = [cir.Const(offset), cir.Param(1, scale, offset),
            cir.InputArccos(0, scale, offset)][angle_kind]
    params, inputs = rng.uniform(-7.0, 7.0, (2, 2)), rng.uniform(-0.95, 0.95, (3, 2))
    params = (params, rng.normal(size=(2, 2)), rng.normal(size=(2, 2))) if dual_params else (params,)
    inputs = (inputs, rng.normal(size=(3, 2)), rng.normal(size=(3, 2))) if dual_inputs else (inputs,)
    got = sim._entries(kind, expr, params, inputs, ndim)
    want = reference_entries(kind, expr, params, inputs, ndim)
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert len(g) == len(w)
        assert all(np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()
                   for a, b in zip(g, w))


def _shared_expression_circuit(fresh: bool) -> cir.Circuit:
    """One ``InputArccos``, one ``Param`` and one ``Const`` object, each on
    gates under 0, 1 and 2 controls; the Const's gates run both before the
    first gate that reads the rows (the broadcast) and after it, beside a
    ``Const(-0.0)``, which equals ``Const(0.0)``.  With ``fresh``, every gate
    holds its own equal copy of its expression."""
    arccos, param, zero = cir.InputArccos(1, -2.0, 0.25), cir.Param(0, 1.5, -0.0), cir.Const(0.0)
    e = replace if fresh else (lambda a: a)   # replace() with no changes builds an equal copy
    ctl = cir.controlled
    gates = [cir.h(q) for q in range(4)] + [
        cir.rx(0, e(zero)), ctl(cir.rx(0, e(zero)), [(1, 1)]), cir.rx(0, cir.Const(-0.0)),
        cir.rz(2, e(param)),                      # reads the rows: the state is broadcast
        ctl(cir.rz(2, e(param)), [(0, 0)]), ctl(cir.rz(2, e(param)), [(0, 1), (3, 0)]),
        cir.rx(1, e(arccos)), ctl(cir.rx(1, e(arccos)), [(2, 1)]),
        ctl(cir.rx(1, e(arccos)), [(0, 1), (3, 1)]),
        cir.rzz(0, 3, e(param)), ctl(cir.rzz(0, 3, e(param)), [(1, 0)]),
        cir.rx(0, e(zero)), ctl(cir.rx(0, e(zero)), [(1, 1)]), cir.rx(0, cir.Const(-0.0)),
        cir.rx(1, e(arccos)), ctl(cir.rz(2, e(param)), [(0, 0)]),
    ]
    return cir.Circuit(4, tuple(gates), n_params=1, n_inputs=2)


@pytest.mark.parametrize("dual", [False, True], ids=["plain", "dual"])
def test_shared_expressions_give_the_bytes_of_fresh_copies(dual, monkeypatch):
    shared, fresh = _shared_expression_circuit(False), _shared_expression_circuit(True)
    assert shared == fresh
    rng = np.random.default_rng(44)
    params, inputs = rng.uniform(-3.0, 3.0, (2, 1)), rng.uniform(-0.9, 0.9, (3, 2))
    if dual:
        params = (params, rng.normal(size=(2, 1)), np.zeros((2, 1)))
        inputs = (inputs, rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
    built = []
    real = sim._entries
    monkeypatch.setattr(sim, "_entries", lambda *a: built.append(a[:2]) or real(*a))
    got = sim.simulate_amps(shared, params, inputs)
    n_shared, built[:] = len(built), []
    want = sim.simulate_amps(fresh, params, inputs)
    n_fresh = len(built)
    assert _same_bytes(got, want)
    assert _same_bytes(got, reference_simulate_amps(shared, params, inputs))
    # entries are built once per (kind, object, view rank), the rank being
    # 2 plus the view's runs of free qubits: 8 of the 16 rotations find
    # those of an earlier gate, and the two Const(-0.0) objects do not
    # take those of Const(0.0)
    assert (n_fresh, n_shared) == (16, 8)
    plus, minus = (sim._entries("rx", cir.Const(z), (), (), 3)[1][0] for z in (0.0, -0.0))
    assert cir.Const(0.0) == cir.Const(-0.0)
    assert np.asarray(plus).tobytes() != np.asarray(minus).tobytes()


def _constant_prefix(width, tail=()):
    """h on every qubit, a ``prepare`` and constant rotations, then ``tail``."""
    amps = np.sqrt([0.1, 0.2, 0.3, 0.4])
    gates = (tuple(cir.h(q) for q in range(width))
             + (cir.prepare_amplitudes((1, 2), amps),
                cir.controlled(cir.rx(0, cir.Const(0.4)), [(3, 0)]),
                cir.rzz(0, 3, cir.Const(-1.1)), cir.rz(2, cir.Const(0.7)))
             + tuple(tail))
    return cir.Circuit(width, gates, n_params=1, n_inputs=1)


@pytest.mark.parametrize("dual", [False, True], ids=["plain", "dual"])
def test_circuit_reading_no_row_gives_writable_unaliased_rows(dual):
    circ = _constant_prefix(4)
    params, inputs = np.zeros((2, 1)), np.zeros((3, 1))
    if dual:
        inputs = (inputs, np.ones((3, 1)), np.zeros((3, 1)))
    got = _channels(sim.simulate_amps(circ, params, inputs))
    assert _same_bytes(got, reference_simulate_amps(circ, params, inputs))
    for c in got:
        assert c.shape == (2, 3, 16) and c.flags.writeable and c.flags.c_contiguous
        kept = c[1, 0].copy()
        c[0, 0] = 7.0
        assert np.array_equal(c[1, 0], kept) and np.array_equal(c[0, 1], kept)


def test_no_points_gives_empty_batch():
    circ = _constant_prefix(4, (cir.rx(1, cir.InputArccos(0)), cir.rz(0, cir.Param(0))))
    got = sim.simulate_amps(circ, np.zeros((2, 1)), np.zeros((0, 1)))
    assert got.shape == (2, 0, 16)
    dual = sim.simulate_amps(circ, [0.3], (np.zeros((0, 1)),) * 3)
    assert all(c.shape == (1, 0, 16) for c in dual)


@pytest.mark.parametrize("inputs", [[[0.2], [1.5]], ([[0.2], [1.0]], [[1.0], [1.0]], [[0.0], [0.0]])],
                         ids=["plain", "dual"])
def test_domain_checked_after_constant_prefix(inputs):
    circ = _constant_prefix(4, (cir.rx(1, cir.InputArccos(0)),))
    with pytest.raises(DomainError):
        sim.simulate_amps(circ, [0.0], inputs)


def test_dual_value_channel_bit_identical():
    rng = np.random.default_rng(14)
    circ = qsp.univariate_model_circuit(2)
    th = rng.normal(size=5)
    x = 0.37
    plain = sim.run(circ, th, [x])
    dual = sim.run(circ, th, _seed(x))
    # a dual run returns a (v, d1, d2) triple of the plain run's form
    assert isinstance(dual, tuple) and len(dual) == 3
    assert all(c.shape == plain.shape == (1 << circ.width,) for c in dual)
    assert np.array_equal(plain, dual[0])

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
            assert np.array_equal(plain, dual[0])
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


def test_tuple_of_lists_is_a_dual_input():
    # a (v, d1, d2) tuple is dual whatever its entries are, not three plain rows
    circ = qsp.univariate_model_circuit(2)
    th = np.random.default_rng(16).normal(size=5)
    got = sim.run(circ, th, ([0.3], [1.0], [0.0]))
    want = sim.run(circ, th, _seed(0.3))
    assert isinstance(got, tuple) and len(got) == 3
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


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
            assert np.abs(amps[i, j] - st).max() < 1e-14


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


def test_check_norm_refuses_a_stack_with_one_nan_row():
    circ = qsp.td_circuit_template(1, 1, 1)
    params = np.random.default_rng(2).normal(size=(3, circ.n_params))
    inputs = [[0.2], [-0.4]]
    sim.simulate_amps(circ, params, inputs, check_norm=True)
    params[1, 2] = np.nan
    with pytest.raises(ArithmeticError):
        sim.simulate_amps(circ, params, inputs, check_norm=True)
    assert np.isnan(sim.simulate_amps(circ, params, inputs)[1]).any()
    assert not np.isnan(sim.simulate_amps(circ, params, inputs)[[0, 2]]).any()
