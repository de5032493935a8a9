import json
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpinn import circuits as cir
from qpinn import models, qsp, verify
from qpinn.errors import DomainError
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
    entanglers = [g for g in circ.gates if g.inner is not None and g.inner.kind == "rzz"]
    assert len(entanglers) == 1
    assert entanglers[0].inner.qubits == (2, 3)
    assert entanglers[0].controls == ((0, 1),)


def test_model_function_validates_count():
    with pytest.raises(ValueError):
        models.ModelFunction(ModelSpec("qpinn"), np.zeros(6))
    with pytest.raises(ValueError):
        models.ModelFunction(ModelSpec("quantum_inspired"), np.zeros(7))


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
        a1, b1 = qsp.synthesize_angles(qsp.UnivariatePoly(p1), 1, seed=trial)
        a2, b2 = qsp.synthesize_angles(qsp.UnivariatePoly(p2), 1, seed=trial + 50)
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

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=25)
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
    pair = lambda th, u: 0.5 * (qsp.qsp_value(th[0:1], u) + qsp.qsp_value(th[1:3], u))
    want = [10.0 * (pair(params[:3], xi) * pair(params[3:], ti)).real for ti, xi in zip(t, x)]
    assert np.max(np.abs(ev.values(params, t, x)[0] - want)) <= 1e-12
    # derivatives against the dual chains of qsp.chain_value
    ones, zeros = np.ones(n), np.zeros(n)
    dual = lambda th, u: tuple(0.5 * (p + q) for p, q in zip(
        qsp.chain_value(th[0:1], (u, ones, zeros)), qsp.chain_value(th[1:3], (u, ones, zeros))))
    ax, at = dual(params[:3], x), dual(params[3:], t)
    ref = (ax[0] * at[0], ax[0] * at[1], ax[1] * at[0], ax[2] * at[0])
    for got, want in zip(ev.bundles(params, t, x), ref):
        assert _max_rel(got, 10.0 * want.real) <= 1e-12


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
            if kind == "fully_connected":
                assert _max_rel(got[i], want) <= 1e-13
            else:
                np.testing.assert_allclose(got[i], want, rtol=1e-14, atol=0.0)


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
    jac = ev.jacobian(params)
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
    jac = models.make_evaluator(ModelSpec("counterpart")).jacobian(params)
    eye = np.eye(3)
    want = np.concatenate([eye[:, :, None] * params[3:], params[:3, None] * eye[:, None, :]])
    np.testing.assert_allclose(jac, want, rtol=1e-14, atol=1e-15)
