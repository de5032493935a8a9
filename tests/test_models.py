import json
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpinn import circuits as cir
from qpinn import duals, models, qsp, verify
from qpinn.errors import DomainError, SizeError
from qpinn.models import ModelSpec


def test_param_counts():
    assert ModelSpec("qpinn").n_params == 7
    assert ModelSpec("quantum_inspired").n_params == 6
    assert ModelSpec("counterpart").n_params == 6
    assert ModelSpec("fully_connected").n_params == 481


def test_fc_layer_arithmetic():
    assert (2 * 10 + 10) + 4 * (10 * 10 + 10) + (10 * 1 + 1) == 481


def test_qpinn_circuit_shape():
    circ = models.qpinn_circuit()
    assert circ.width == 5
    assert circ.n_params == 7
    entanglers = [g for g in circ.gates if g.controls and g.kind == "rzz"]
    assert len(entanglers) == 1
    assert entanglers[0].qubits == (2, 3)
    assert entanglers[0].controls == ((0, 1),)


def test_model_function_validates_count():
    with pytest.raises(ValueError):
        models.ModelFunction(ModelSpec("qpinn"), np.zeros(6))
    with pytest.raises(ValueError):
        models.ModelFunction(ModelSpec("quantum_inspired"), np.zeros(7))


@pytest.mark.parametrize("kind", models.KINDS)
def test_rows_of_the_wrong_width_raise(kind):
    # one column short or over, in one row or two, through every entry point
    spec = ModelSpec(kind)
    ev = models.make_evaluator(spec)
    t, x = np.array([0.2, 0.5]), np.array([0.3, 0.6])
    calls = (lambda p: ev.values(p, t, x), lambda p: ev.bundles(p, t, x),
             lambda p: ev.batched_eval(p, t, x, t, x))
    for width in (spec.n_params - 1, spec.n_params + 1):
        for params in (np.zeros(width), np.zeros((1, width)), np.zeros((2, width))):
            for call in calls:
                with pytest.raises(SizeError, match=f"{spec.n_params} parameters"):
                    call(params)
    with pytest.raises(SizeError):
        models.ModelFunction(spec, np.zeros(spec.n_params + 1))


def test_qpinn_lambda_zero_equals_rank1_unitary():
    rng = np.random.default_rng(51)
    theta = rng.normal(size=6)
    x = [0.3, 0.7]
    u_qpinn = cir.unitary_of(models.qpinn_circuit(), np.concatenate([theta, [0.0]]), x)
    u_rank1 = cir.unitary_of(qsp.td_circuit_template(1, 2, 1), theta, x)
    assert np.abs(u_qpinn - u_rank1).max() < 1e-12


def _max_rel(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def test_dequantization_identity():
    # QPINN(λ=0) on the statevector equals the 2×2-chain evaluation pointwise
    rng = np.random.default_rng(52)
    qi = models.make_evaluator(ModelSpec("quantum_inspired"))
    for _ in range(20):
        theta = rng.normal(size=6)
        t = rng.uniform(0.01, 0.99, 100)
        x = rng.uniform(0.01, 0.99, 100)
        a = qi.values(theta[None, :], t, x)
        b, _ = verify.qpinn_on_simulator(np.concatenate([theta, [0.0]])[None, :], t, x)
        assert np.max(np.abs(a - b)) < 1e-12


def test_qpinn_closed_form_matches_simulator():
    # an FD-shaped stack: a base row and ± perturbations, λ over its full period
    rng = np.random.default_rng(56)
    ev = models.make_evaluator(ModelSpec("qpinn"))
    for _ in range(3):
        base = rng.uniform(0.0, 2.0 * np.pi, 7)
        assert abs(np.sin(base[6])) > 1e-3  # λ ≠ 0 (mod π): the entangler acts
        params = np.repeat(base[None, :], 15, axis=0)
        for i in range(7):
            params[1 + 2 * i, i] += 1e-3
            params[2 + 2 * i, i] -= 1e-3
        t_int, x_int = rng.uniform(0.01, 0.99, (2, 40))
        t_bnd, x_bnd = rng.uniform(0.01, 0.99, (2, 30))

        ref_v, _ = verify.qpinn_on_simulator(params, t_bnd, x_bnd)
        assert np.max(np.abs(ev.values(params, t_bnd, x_bnd) - ref_v)) <= 1e-12
        _, ref_b = verify.qpinn_on_simulator(params, t_int, x_int)
        for got, want in zip(ev.bundles(params, t_int, x_int), ref_b):
            assert _max_rel(got, want) <= 1e-10
        bundles, bnd = ev.batched_eval(params, t_int, x_int, t_bnd, x_bnd)
        assert np.max(np.abs(bnd - ref_v)) <= 1e-12
        for got, want in zip(bundles, ref_b):
            assert _max_rel(got, want) <= 1e-10


def test_qpinn_domain_errors():
    ev = models.make_evaluator(ModelSpec("qpinn"))
    params = models.init_params(ModelSpec("qpinn"), 0)[None, :]
    inside = np.array([0.5])
    with pytest.raises(DomainError):
        ev.values(params, inside, np.array([1.5]))
    with pytest.raises(DomainError):
        ev.values(params, np.array([-1.5]), inside)
    with pytest.raises(DomainError):
        ev.bundles(params, inside, np.array([1.0]))
    with pytest.raises(DomainError):
        ev.bundles(params, np.array([1.0]), inside)


def test_quantum_core_bounded():
    rng = np.random.default_rng(53)
    for kind in ("qpinn", "quantum_inspired"):
        spec = ModelSpec(kind)
        ev = models.make_evaluator(spec)
        params = rng.normal(size=(5, spec.n_params))
        t = rng.uniform(0.01, 0.99, 50)
        x = rng.uniform(0.01, 0.99, 50)
        core = ev.values(params, t, x) / spec.output_scale
        assert np.max(np.abs(core)) <= 1.0 + 1e-12


def test_init_params_contract():
    for kind in models.KINDS:
        spec = ModelSpec(kind)
        a = models.init_params(spec, 9)
        b = models.init_params(spec, 9)
        assert np.array_equal(a, b)
        assert a.size == spec.n_params
    # qpinn and quantum_inspired share the same chain angles per seed
    qp = models.init_params(ModelSpec("qpinn"), 3)
    qi = models.init_params(ModelSpec("quantum_inspired"), 3)
    assert np.array_equal(qp[:6], qi)
    assert np.all((qp >= 0.0) & (qp < 2 * np.pi))
    fc = models.init_params(ModelSpec("fully_connected"), 3)
    assert np.max(np.abs(fc[:20])) <= np.sqrt(6.0 / 12.0)
    assert np.all(fc[20:30] == 0.0)  # first-layer biases


def test_counterpart_factorized_example():
    fn = models.ModelFunction(ModelSpec("counterpart"), [0.0, 1.0, 0.0, 1.0, 0.0, 0.0])
    t = np.array([0.3, 0.8])
    x = np.array([0.25, 0.5])
    assert np.allclose(fn.values(t, x), 10.0 * x)


def test_fully_connected_zero_params():
    fn = models.ModelFunction(ModelSpec("fully_connected"), np.zeros(481))
    v, v_t, v_x, v_xx = fn.derivatives(np.array([0.4]), np.array([0.6]))
    assert v[0] == v_t[0] == v_x[0] == v_xx[0] == 0.0


def test_model_eval_scalar_paths():
    spec = ModelSpec("counterpart")
    params = [0.1, 0.2, 0.0, 0.3, 0.1, 0.0]
    fn = models.ModelFunction(spec, params)
    t, x = np.array([0.5]), np.array([0.5])
    (val,) = fn.values(t, x)
    v, _, v_x, v_xx = (a[0] for a in fn.derivatives(t, x))
    assert v == pytest.approx(val)
    p1 = 0.1 + 0.2 * 0.5
    p2 = 0.3 + 0.1 * 0.5
    assert v == pytest.approx(10.0 * p1 * p2)
    assert v_x == pytest.approx(10.0 * 0.2 * p2)
    assert v_xx == pytest.approx(0.0, abs=1e-12)


def test_derivatives_vs_finite_differences_all_models():
    rng = np.random.default_rng(54)
    for kind in models.KINDS:
        spec = ModelSpec(kind)
        for _ in range(2):
            fn = models.ModelFunction(spec, models.init_params(spec, int(rng.integers(100))))
            t = rng.uniform(0.05, 0.95, 10)
            x = rng.uniform(0.05, 0.95, 10)
            v, v_t, v_x, v_xx = fn.derivatives(t, x)
            h = 1e-5
            fd_t = (fn.values(t + h, x) - fn.values(t - h, x)) / (2 * h)
            fd_x = (fn.values(t, x + h) - fn.values(t, x - h)) / (2 * h)
            h2 = 1e-4
            fd_xx = (fn.values(t, x + h2) - 2 * fn.values(t, x) + fn.values(t, x - h2)) / h2**2
            scale = np.maximum(1.0, np.abs(fd_t))
            assert np.max(np.abs(v_t - fd_t) / scale) < 1e-4
            assert np.max(np.abs(v_x - fd_x) / np.maximum(1.0, np.abs(fd_x))) < 1e-4
            assert np.max(np.abs(v_xx - fd_xx) / np.maximum(1.0, np.abs(fd_xx))) < 1e-4


def test_inductive_bias_containment():
    # any degree-1 counterpart factor pair with sup ≤ ½ is reproduced by
    # synthesized quantum-inspired parameters
    rng = np.random.default_rng(55)
    for trial in range(3):
        p1 = tuple(rng.uniform(-0.2, 0.2, 2))
        p2 = tuple(rng.uniform(-0.2, 0.2, 2))
        cp = models.ModelFunction(ModelSpec("counterpart"),
                                  list(p1) + [0.0] + list(p2) + [0.0])
        a1, b1 = qsp.synthesize_angles(qsp.UnivariatePoly(p1), 1)
        a2, b2 = qsp.synthesize_angles(qsp.UnivariatePoly(p2), 1)
        qi = models.ModelFunction(
            ModelSpec("quantum_inspired"),
            np.concatenate([a1, b1, a2, b2]),
        )
        t = rng.uniform(0.01, 0.99, 50)
        x = rng.uniform(0.01, 0.99, 50)
        assert np.max(np.abs(cp.values(t, x) - qi.values(t, x))) < 1e-6


def test_params_json_roundtrip():
    """The checkpoint writer's document survives JSON encoding unchanged and
    carries every parameter as a plain float."""
    spec = ModelSpec("qpinn")
    params = models.init_params(spec, 1)
    doc = models.params_to_json_dict(spec, params)
    assert json.loads(json.dumps(doc)) == doc == {"kind": "qpinn", "values": params.tolist()}
    assert all(type(v) is float for v in doc["values"]) and len(doc["values"]) == spec.n_params


# ---------------------------------------------------------------------------
# properties of the coefficient form (derandomized, so the suite stays deterministic)

PROPERTY = settings(max_examples=25)
_points = st.lists(st.floats(0.01, 0.99), min_size=2, max_size=12)


def _angles(n):
    return st.lists(st.floats(0.0, 2.0 * np.pi), min_size=n, max_size=n).map(np.array)


@PROPERTY
@given(params=_angles(7), t=_points, x=_points)
def test_qpinn_matches_simulator_property(params, t, x):
    n = min(len(t), len(x))
    t, x = np.array(t[:n]), np.array(x[:n])
    ev = models.make_evaluator(ModelSpec("qpinn"))
    ref_v, ref_b = verify.qpinn_on_simulator(params[None, :], t, x)
    assert np.max(np.abs(ev.values(params, t, x) - ref_v)) <= 1e-12
    for got, want in zip(ev.bundles(params, t, x), ref_b):
        assert _max_rel(got, want) <= 1e-10


@PROPERTY
@given(params=_angles(6), t=_points, x=_points)
def test_quantum_inspired_matches_chains_property(params, t, x):
    n = min(len(t), len(x))
    t, x = np.array(t[:n]), np.array(x[:n])
    ev = models.make_evaluator(ModelSpec("quantum_inspired"))
    pair = lambda th, u: 0.5 * (qsp.chain_value(th[0:1], u) + qsp.chain_value(th[1:3], u))[0, 0]
    want = [10.0 * (pair(params[:3], xi) * pair(params[3:], ti)).real for ti, xi in zip(t, x)]
    assert np.max(np.abs(ev.values(params, t, x)[0] - want)) <= 1e-12


@PROPERTY
@given(kind=st.sampled_from(models.KINDS), base=_angles(7), seed=st.integers(0, 2**16))
def test_batched_eval_row_matches_model_function(kind, base, seed):
    spec = ModelSpec(kind)
    rng = np.random.default_rng(seed)
    if kind == "fully_connected":
        base = models.init_params(spec, seed)
    # an FD-shaped stack: one perturbed coordinate per row after the base row
    stack = np.repeat(base[None, :spec.n_params], 15, axis=0)
    coords = rng.integers(0, spec.n_params, 14)
    stack[1 + np.arange(14), coords] += rng.uniform(-1e-3, 1e-3, 14)
    t_int, x_int = rng.uniform(0.01, 0.99, (2, 20))
    t_bnd = np.concatenate([np.ones(10), rng.uniform(0.01, 0.99, 10)])
    x_bnd = np.concatenate([rng.uniform(0.01, 0.99, 10), np.ones(10)])
    bundles, bnd = models.make_evaluator(spec).batched_eval(stack, t_int, x_int, t_bnd, x_bnd)
    for i in range(len(stack)):
        fn = models.ModelFunction(spec, stack[i])
        for got, want in zip(bundles + (bnd,),
                             fn.derivatives(t_int, x_int) + (fn.values(t_bnd, x_bnd),)):
            assert np.array_equal(got[i], want)


@pytest.mark.parametrize("kind", models.KINDS)
def test_batched_eval_builds_again_only_when_its_points_change(kind, monkeypatch):
    # only the snapshots of the last call, which nothing can change, are
    # known unchanged, by identity: they build nothing; any other point
    # arrays (writeable ones, new snapshots, or a mix) build on every call
    spec = ModelSpec(kind)
    rng = np.random.default_rng(62)
    row = models.init_params(spec, 6)[None]
    points = list(rng.uniform(0.05, 0.95, (4, 7)))
    ev = models.make_evaluator(spec)
    builds = []
    build = type(ev)._build
    monkeypatch.setattr(type(ev), "_build", lambda self, *a: builds.append(1) or build(self, *a))

    def check(arrays, n_builds):
        del builds[:]
        got = ev.batched_eval(row, *arrays)
        want = models.make_evaluator(spec).batched_eval(row, *[a.copy() for a in arrays])
        for a, b in zip(got[0] + (got[1],), want[0] + (want[1],)):
            np.testing.assert_array_equal(a, b)
        assert len(builds) == 1 + n_builds   # the fresh evaluator builds once

    check(points, 1)
    check(points, 1)
    for a in points:
        a *= 0.9
        check(points, 1)
    snaps = [models.snapshot(a) for a in points]
    check(snaps, 1)
    check(snaps, 0)
    check(snaps, 0)
    points[2] *= 0.9
    check(points, 1)
    check(snaps, 1)
    check(snaps, 0)
    check([models.snapshot(a) for a in snaps], 1)
    mixed = snaps[:2] + [points[2], snaps[3]]
    check(mixed, 1)
    check(mixed, 1)


def test_snapshots_cannot_be_made_writeable():
    src = np.linspace(0.1, 0.9, 5)
    snap = models.snapshot(src)
    src[0] = 0.5
    assert snap[0] == 0.1 and not snap.flags.writeable
    with pytest.raises(ValueError):
        snap.flags.writeable = True
    with pytest.raises(ValueError):
        snap[0] = 0.5
    assert type(snap.base) is bytes


@pytest.mark.parametrize("kind", models.KINDS)
def test_values_and_bundles_run_only_their_part(kind, monkeypatch):
    # a part with no points is left out of the build and the forward, and
    # neither call takes ∂W; the outputs are those of a one-row batched_eval
    spec = ModelSpec(kind)
    rng = np.random.default_rng(61)
    row = models.init_params(spec, 5)[None]
    t_int, x_int, t_bnd, x_bnd = rng.uniform(0.01, 0.99, (4, 7))
    ev = models.make_evaluator(spec)
    bundles, bnd = ev.batched_eval(row, t_int, x_int, t_bnd, x_bnd)
    traced = []
    if kind == "fully_connected":
        assert ev._build((), (), t_bnd, x_bnd)[0] is None
        assert ev._build(t_int, x_int, (), ())[1] is None
        trace = models._trace
        monkeypatch.setattr(models, "_trace", lambda *a: traced.append(1) or trace(*a))
    else:
        assert ev._build((), (), t_bnd, x_bnd)[0].shape == (9, 7)
        monkeypatch.setattr(type(ev), "_w_and_jac", lambda *a: pytest.fail("∂W taken"))
    assert np.array_equal(ev.values(row, t_bnd, x_bnd), bnd)
    assert all(np.array_equal(a, b) for a, b in zip(ev.bundles(row, t_int, x_int), bundles))
    assert len(traced) == (2 if kind == "fully_connected" else 0)


@PROPERTY
@given(stack=st.lists(_angles(6), min_size=1, max_size=5), t=_points, x=_points)
def test_qpinn_at_lambda_zero_is_quantum_inspired_property(stack, t, x):
    # the QPINN's W is the quantum-inspired W at ±λ, so λ = 0 gives it bit for bit
    n = min(len(t), len(x))
    t, x = np.array(t[:n]), np.array(x[:n])
    stack = np.array(stack)
    qp = models.make_evaluator(ModelSpec("qpinn"))
    qi = models.make_evaluator(ModelSpec("quantum_inspired"))
    with_lam = np.concatenate([stack, np.zeros((len(stack), 1))], axis=1)
    assert np.array_equal(qp.values(with_lam[0], t, x), qi.values(stack[0], t, x))
    for a, b in zip(qp.bundles(with_lam[0], t, x), qi.bundles(stack[0], t, x)):
        assert np.array_equal(a, b)
    pts = (t, x, np.ones(n), x)
    (qp_b, qp_bnd), (qi_b, qi_bnd) = qp.batched_eval(with_lam, *pts), qi.batched_eval(stack, *pts)
    for i in range(len(stack)):
        assert all(np.array_equal(a[i], b[i]) for a, b in zip(qp_b + (qp_bnd,), qi_b + (qi_bnd,)))
    assert np.array_equal(qp._w_and_jac(with_lam[0])[1][:6], qi._w_and_jac(stack[0])[1])


_RE_OUTER = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, -1.0]])


def _per_chain_coefficients(kind, params):
    """The oracle: W assembled from one ``qsp.chain_coefficients`` call per
    chain degree.  quantum_inspired: a = ½·[C(θ₁), C(θ₂)] per variable and
    W = Re(a_x ⊗ a_t); qpinn: that W on the angles with +λ and with −λ on
    the x chains' last angles, column 0 from the first, columns 1–2 from the
    second."""
    if kind == "qpinn":
        b, lam = params.shape[0], params[:, 6:7]
        shifted = np.concatenate([params[:, :6], params[:, :6]])
        shifted[:, [0, 2]] += np.concatenate([lam, -lam])
        w = _per_chain_coefficients("quantum_inspired", shifted)
        return np.concatenate([w[:b, :, :1], w[b:, :, 1:]], axis=2)
    b = params.shape[0]
    c0 = qsp.chain_coefficients(np.concatenate([params[:, 0:1], params[:, 3:4]]))
    c1 = qsp.chain_coefficients(np.concatenate([params[:, 1:3], params[:, 4:6]]))
    a = 0.5 * np.concatenate([c0, c1], axis=1)
    return a[:b, :, None] * a[b:, None, :] * _RE_OUTER


@settings(max_examples=60)
@given(rows=st.lists(st.lists(st.floats(-50.0, 50.0), min_size=7, max_size=7),
                     min_size=1, max_size=30).map(np.array))
def test_fused_coefficients_equal_the_per_chain_assembly_property(rows):
    # one gather, one einsum and one cos give W bit for bit, and every W is
    # C-ordered: the gradient's einsum over ∂W sums in memory order
    for kind in ("qpinn", "quantum_inspired", "counterpart"):
        ev = models.make_evaluator(ModelSpec(kind))
        params = rows[:, :ev.spec.n_params]
        stacks = (params, params[:1] + ev._shifts)
        for stack in stacks:
            got = ev.coefficients(stack)
            assert got.shape == (len(stack), 3, 3) and got.flags.c_contiguous
            if kind != "counterpart":
                assert np.array_equal(got, _per_chain_coefficients(kind, stack))
        assert np.array_equal(stacks[1], duals.shift_stack(params[0], np.pi))


@PROPERTY
@given(params=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6).map(np.array),
       t=_points, x=_points)
def test_counterpart_matches_horner_product_property(params, t, x):
    # W = c₁ ⊗ c₂ over ψ = [1, u, u²] against p1(x)·p2(t) and its derivatives
    n = min(len(t), len(x))
    t, x = np.array(t[:n]), np.array(x[:n])
    (a0, a1, a2), (b0, b1, b2) = params[:3], params[3:]
    p1, dp1, ddp1 = a0 + x * (a1 + x * a2), a1 + 2.0 * a2 * x, 2.0 * a2
    p2, dp2 = b0 + t * (b1 + t * b2), b1 + 2.0 * b2 * t
    ev = models.make_evaluator(ModelSpec("counterpart"))
    want = (p1 * p2, p1 * dp2, dp1 * p2, ddp1 * p2)
    for got, ref in zip(ev.bundles(params, t, x), want):
        assert _max_rel(got[0], 10.0 * ref) <= 1e-14
    assert _max_rel(ev.values(params, t, x)[0], 10.0 * want[0]) <= 1e-14


@PROPERTY
@given(kind=st.sampled_from(["qpinn", "quantum_inspired"]), params=_angles(7))
def test_chain_coefficient_shift_rule_property(kind, params):
    # each angle enters W as e^{±iθ/2}: the ±π rule is ∂W/∂θ, against central FD
    ev = models.make_evaluator(ModelSpec(kind))
    params = params[:ev.spec.n_params]
    jac = ev._w_and_jac(params)[1]
    h = 1e-6
    for j in range(params.size):
        up, dn = params.copy(), params.copy()
        up[j] += h
        dn[j] -= h
        fd = (ev.coefficients(up[None, :]) - ev.coefficients(dn[None, :]))[0] / (2 * h)
        assert np.max(np.abs(jac[j] - fd)) <= 1e-9


def test_counterpart_jacobian_is_bilinear():
    # ∂W/∂c₁ᵢ = eᵢ ⊗ c₂ and ∂W/∂c₂ⱼ = c₁ ⊗ eⱼ
    params = np.random.default_rng(57).normal(size=6)
    jac = models.make_evaluator(ModelSpec("counterpart"))._w_and_jac(params)[1]
    eye = np.eye(3)
    want = np.concatenate([eye[:, :, None] * params[3:], params[:3, None] * eye[:, None, :]])
    np.testing.assert_allclose(jac, want, rtol=1e-14, atol=1e-15)


# ---------------------------------------------------------------------------
# the network as it ran on channel tuples, one matmul per channel: the oracle
# the stacked network matches bit for bit


def reference_trace(layers, chans):
    """Run the (w, b) ``layers`` over a tuple of (N, 2) input channels, ``(a,)``
    or (a, ∂a/∂x, ∂²a/∂x², ∂a/∂t); returns the output channels and each
    layer's (input, pre-activation) pair."""
    record = []
    for i, (w, b) in enumerate(layers):
        if i:
            y = np.tanh(z[0])
            s = 1.0 - y * y
            chans = (y,) if len(z) == 1 else (
                y, s * z[1], s * z[2] - 2.0 * y * s * z[1] * z[1], s * z[3])
        z = (chans[0] @ w + b,) + tuple(c @ w for c in chans[1:])
        record.append((chans, z))
    return z, record


def reference_tanh_pullback(y, z, g) -> tuple:
    """Cotangent on the pre-activation channels ``z`` from the cotangent ``g``
    on the activations ``y``: y₀ = tanh z₀, y₁ = s·z₁, y₂ = s·z₂ − 2y₀·s·z₁²
    and y₃ = s·z₃, with s = 1 − y₀² and ds/dz₀ = −2y₀·s."""
    y0, s = y[0], 1.0 - y[0] * y[0]
    if len(z) == 1:
        return (s * g[0],)
    first = sum(gk * zk for gk, zk in zip(g[1:], z[1:]))
    g0 = s * (g[0] - 2.0 * y0 * first - 2.0 * g[2] * z[1] * z[1] * (s - 2.0 * y0 * y0))
    return (g0, s * (g[1] - 4.0 * y0 * g[2] * z[1])) + tuple(s * gk for gk in g[2:])


def reference_reverse(layers, records, cots) -> np.ndarray:
    """The flat (w, b) gradient by the reverse pass through ``reference_trace``
    ``records`` of the ``layers`` from cotangents ``cots`` on their outputs."""
    grads = []
    for i in reversed(range(len(layers))):
        w = layers[i][0]
        grads[:0] = [sum(c.T @ g for rec, cot in zip(records, cots)
                         for c, g in zip(rec[i][0], cot)).ravel(),
                     sum(cot[0].sum(axis=0) for cot in cots)]
        if i:
            cots = [reference_tanh_pullback(rec[i][0], rec[i - 1][1], tuple(g @ w.T for g in cot))
                    for rec, cot in zip(records, cots)]
    return np.concatenate(grads)


def _reference_network(ev, params2d, t_int, x_int, t_bnd, x_bnd):
    """``batched_eval`` of the network by ``reference_trace``, and the last
    row's layers and records of the parts with points."""
    n, scale = len(x_int), ev.spec.output_scale
    seeds = np.zeros((3, n, 2))
    seeds[0, :, 1] = seeds[2, :, 0] = 1.0
    outs = np.empty((4, len(params2d), n)), np.empty((1, len(params2d), len(x_bnd)))
    parts = [(out, chans) for out, chans in zip(outs, (
        (np.stack([t_int, x_int], axis=1), *seeds), (np.stack([t_bnd, x_bnd], axis=1),)))
        if out.shape[2]]
    for r, row in enumerate(params2d):
        layers = ev._layers(row)
        records = []
        for out, chans in parts:
            z, record = reference_trace(layers, chans)
            out[:, r] = [c[:, 0] for c in z]
            records.append(record)
    (v, v_x, v_xx, v_t), (bnd,) = (scale * out for out in outs)
    return ((v, v_t, v_x, v_xx), bnd), layers, records


def _reference_backward(ev, layers, records, cotangent, n):
    """The gradient of the flat ``cotangent`` by ``reference_reverse``."""
    g_v, g_t, g_x, g_xx = (cotangent[k * n:(k + 1) * n] for k in range(4))
    cots = [c for c in ((g_v, g_x, g_xx, g_t), (cotangent[4 * n:],)) if len(c[0])]
    cots = [tuple(ev.spec.output_scale * g.reshape(-1, 1) for g in c) for c in cots]
    return reference_reverse(layers, records, cots)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 3),
       n=st.integers(0, 60), m=st.integers(0, 110))
def test_network_matches_the_channel_tuple_oracle_property(seed, n_rows, n, m):
    # Glorot draws at several scales with biases moved off zero; every
    # output, and the gradient after a one-row forward, bit for bit
    spec = ModelSpec("fully_connected")
    rng = np.random.default_rng(seed)
    rows = np.stack([models.init_params(spec, rng) * rng.uniform(0.5, 3.0)
                     + rng.normal(0.0, 0.1, spec.n_params) for _ in range(n_rows)])
    t_int, x_int = rng.uniform(0.01, 0.99, (2, n))
    t_bnd, x_bnd = rng.uniform(0.01, 0.99, (2, m))
    ev = models.make_evaluator(spec)
    (want_b, want_bnd), _, _ = _reference_network(ev, rows, t_int, x_int, t_bnd, x_bnd)
    got_b, got_bnd = ev.batched_eval(rows, t_int, x_int, t_bnd, x_bnd)
    assert all(np.array_equal(a, b) for a, b in zip(got_b + (got_bnd,), want_b + (want_bnd,)))
    assert np.array_equal(ev.values(rows, t_bnd, x_bnd), want_bnd)
    assert all(np.array_equal(a, b) for a, b in zip(ev.bundles(rows, t_int, x_int), want_b))
    if n + m:
        row = rows[-1:]
        ev.batched_eval(row, t_int, x_int, t_bnd, x_bnd)
        _, layers, records = _reference_network(ev, row, t_int, x_int, t_bnd, x_bnd)
        cot = rng.normal(size=4 * n + m)
        assert np.array_equal(ev.backward(cot),
                              _reference_backward(ev, layers, records, cot, n))
