import json
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpinn import circuits as cir
from qpinn import qsp, sim
from qpinn.errors import BoundError, DomainError, SizeError
from qpinn.qsp import MonomialList, TdPoly, UnivariatePoly

from test_circuits import chain_matrix


def bounded_poly(rng, degree, bound=0.45):
    coeffs = rng.normal(size=degree + 1)
    p = UnivariatePoly(tuple(coeffs))
    return UnivariatePoly(tuple(bound * np.asarray(coeffs) / p.sup_norm_grid()))


# ---------------------------------------------------------------------------
# qsp_value


def test_qsp_value_chebyshev():
    val = qsp.qsp_value((0.0, 0.0, 0.0), 0.5)
    assert val.real == pytest.approx(-0.5, abs=1e-12)  # T₂(½)


def test_qsp_value_degree_zero():
    phi = 0.83
    assert qsp.qsp_value((phi,), 0.3).real == pytest.approx(math.cos(phi / 2))


def test_qsp_value_at_x_one_collapses_to_rz_product():
    # S(1) = I, so the chain is R_z(Σθ) and ⟨+|R_z(Σθ)|+⟩ = cos(Σθ/2)
    th = (0.3, -0.7, 1.1)
    val = qsp.qsp_value(th, 1.0)
    assert val == pytest.approx(math.cos(sum(th) / 2), abs=1e-12)


def test_qsp_value_matches_matrix_oracle():
    rng = np.random.default_rng(21)
    for L in (1, 2, 3):
        th = rng.normal(size=L + 1)
        x = float(rng.uniform(-1, 1))
        plus = np.full(2, 1 / math.sqrt(2))
        assert qsp.qsp_value(th, x) == pytest.approx(plus @ chain_matrix(th, x) @ plus, abs=1e-12)


def test_qsp_value_domain():
    with pytest.raises(DomainError):
        qsp.qsp_value((0.0,), 1.2)


def test_qsp_value_bounded():
    rng = np.random.default_rng(22)
    for _ in range(50):
        th = rng.normal(size=4)
        x = float(rng.uniform(-1, 1))
        assert abs(qsp.qsp_value(th, x).real) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# parity split and extraction


def test_parity_split_example():
    odd, even = qsp.parity_split(UnivariatePoly((0.0, 0.25, 0.25)))
    assert odd.coeffs == (0.0, 0.5, 0.0)
    assert even.coeffs == (0.0, 0.0, 0.5)


def test_parity_split_even_input():
    odd, even = qsp.parity_split(UnivariatePoly((0.3, 0.0, -0.2)))
    assert all(c == 0.0 for c in odd.coeffs)


def test_parity_split_sup_norm_bound():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = bounded_poly(rng, 3, bound=0.5)
        odd, even = qsp.parity_split(p)
        assert odd.sup_norm_grid() <= 1.0 + 1e-9
        assert even.sup_norm_grid() <= 1.0 + 1e-9


def test_extract_chebyshev_t3():
    fit = qsp.extract_polynomial(lambda x: 4 * x**3 - 3 * x, 3)
    assert np.allclose(fit.poly.coeffs, (0, -3, 0, 4), atol=1e-12)
    assert fit.max_residual < 1e-12


def test_extract_certifies_chain_degree_and_parity():
    rng = np.random.default_rng(24)
    for L in range(1, 6):
        for _ in range(10):
            th = rng.normal(size=L + 1)
            fit = qsp.extract_polynomial(lambda xs: qsp.chain_value(th, xs)[0].real, L)
            assert fit.max_residual < 1e-8
            off_parity = np.asarray(fit.poly.coeffs)[(L + 1) % 2::2]
            if off_parity.size:
                assert np.max(np.abs(off_parity)) < 1e-9


def test_extract_detects_non_polynomial():
    fit = qsp.extract_polynomial(np.exp, 2)
    assert fit.max_residual > 1e-3


# ---------------------------------------------------------------------------
# synthesis


def test_synthesize_roundtrip_linear():
    th1, th2 = qsp.synthesize_angles(UnivariatePoly((0.0, 0.4)), 1)
    assert (len(th1), len(th2)) == (1, 2)
    combo = lambda xs: 0.5 * (qsp.chain_value(th1, xs)[0].real
                              + qsp.chain_value(th2, xs)[0].real)
    fit = qsp.extract_polynomial(combo, 1)
    assert np.allclose(fit.poly.coeffs, (0.0, 0.4), atol=1e-7)


def test_synthesize_chebyshev_half():
    target = UnivariatePoly((-0.5, 0.0, 1.0))  # T₂/2
    th1, th2 = qsp.synthesize_angles(target, 2)
    nodes = np.cos(np.pi * (2 * np.arange(12) + 1) / 24)
    combo = 0.5 * (qsp.chain_value(th1, nodes).real[0]
                   + qsp.chain_value(th2, nodes).real[0])
    assert np.max(np.abs(combo - target(nodes))) < 1e-8


def test_synthesize_zero_target():
    th1, th2 = qsp.synthesize_angles(UnivariatePoly((0.0, 0.0)), 1)
    xs = np.linspace(-1, 1, 40)
    combo = 0.5 * (qsp.chain_value(th1, xs).real[0]
                   + qsp.chain_value(th2, xs).real[0])
    assert np.max(np.abs(combo)) < 1e-8


def test_synthesize_random_targets():
    rng = np.random.default_rng(25)
    for L in (1, 2, 3):
        target = bounded_poly(rng, L)
        th1, th2 = qsp.synthesize_angles(target, L, seed=int(rng.integers(1 << 30)))
        xs = np.linspace(-1, 1, 60)
        combo = 0.5 * (qsp.chain_value(th1, xs).real[0]
                       + qsp.chain_value(th2, xs).real[0])
        assert np.max(np.abs(combo - target(xs))) < 1e-7


def test_synthesize_bound_error():
    with pytest.raises(BoundError):
        qsp.synthesize_angles(UnivariatePoly((0.0, 0.9)), 1)


# ---------------------------------------------------------------------------
# tensor expansion


def test_expand_td_single_product_monomial():
    td = TdPoly(1, 2, 1, (1.0,), ((UnivariatePoly((0, 1)), UnivariatePoly((0, 1))),))
    entries = dict(qsp.expand_td(td).entries)
    assert entries[(1, 1)] == pytest.approx(1.0)
    assert all(abs(v) < 1e-15 for k, v in entries.items() if k != (1, 1))


def test_expand_td_cancellation():
    row = (UnivariatePoly((0.2, 0.3)), UnivariatePoly((-0.1, 0.4)))
    td = TdPoly(2, 2, 1, (1.0, -1.0), (row, row))
    assert all(abs(c) < 1e-15 for _, c in qsp.expand_td(td).entries)


def test_expand_td_matches_bruteforce():
    rng = np.random.default_rng(26)
    td = TdPoly(
        2, 2, 1,
        tuple(rng.normal(size=2)),
        tuple(tuple(UnivariatePoly(tuple(rng.normal(size=2))) for _ in range(2))
              for _ in range(2)),
    )
    entries = dict(qsp.expand_td(td).entries)
    for n1, n2 in product(range(2), repeat=2):
        brute = sum(td.lambdas[r] * td.factors[r][0].coeffs[n1] * td.factors[r][1].coeffs[n2]
                    for r in range(2))
        assert entries[(n1, n2)] == pytest.approx(brute, abs=1e-12)


def test_expand_td_consistency_random():
    rng = np.random.default_rng(27)
    for _ in range(50):
        R, D, L = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 3))
        R = min(R, (L + 1) ** D)
        td = TdPoly(
            R, D, L,
            tuple(rng.normal(size=R)),
            tuple(tuple(UnivariatePoly(tuple(rng.normal(size=L + 1))) for _ in range(D))
                  for _ in range(R)),
        )
        mono = qsp.expand_td(td)
        pts = rng.uniform(-1, 1, size=(100, D))
        assert np.max(np.abs(mono(pts) - td(pts))) < 1e-10


def test_expand_td_size_cap():
    td = TdPoly(1, 8, 9, (1.0,),
                ((UnivariatePoly((0.1,)),) * 8,))
    with pytest.raises(SizeError):
        qsp.expand_td(td)


# ---------------------------------------------------------------------------
# circuit builders


def test_univariate_model_parameter_count():
    assert qsp.univariate_model_circuit(5).n_params == 11


def test_univariate_model_synthesized_value():
    th1, th2 = qsp.synthesize_angles(UnivariatePoly((0.0, 0.4)), 1)
    circ = qsp.univariate_model_circuit(len(th1))
    params = np.concatenate([th1, th2])
    val = sim.expect_z0(sim.run(circ, params, [0.25]))
    assert val == pytest.approx(0.1, abs=1e-8)


def test_univariate_model_zero_angles():
    circ = qsp.univariate_model_circuit(1)
    for x in (-0.6, 0.2, 0.9):
        val = sim.expect_z0(sim.run(circ, np.zeros(3), [x]))
        assert val == pytest.approx(0.5 * (1.0 + x), abs=1e-12)


def test_lcu_single_monomial():
    mono = MonomialList((((1, 1), 1.0),))
    circ, lam = qsp.build_lcu_multivariate(mono, 2, 1)
    assert lam == 1.0
    val = sim.expect_z0(sim.run(circ, [], [0.5, 0.4]))
    assert val == pytest.approx(0.2, abs=1e-8)


def test_lcu_constant_polynomial():
    mono = MonomialList((((0, 0), 0.7),))
    circ, lam = qsp.build_lcu_multivariate(mono, 2, 1)
    vals = [sim.expect_z0(sim.run(circ, [], pt)) * lam
            for pt in [(-0.8, 0.1), (0.3, 0.9), (0.0, 0.0)]]
    assert np.allclose(vals, 0.7, atol=1e-8)


def test_lcu_full_grid_random():
    rng = np.random.default_rng(28)
    for _ in range(2):
        entries = tuple(((i, j), float(rng.normal())) for i in range(2) for j in range(2))
        mono = MonomialList(entries)
        circ, lam = qsp.build_lcu_multivariate(mono, 2, 1, seed=3)
        assert lam == pytest.approx(4 * max(abs(c) for _, c in entries))
        for pt in rng.uniform(-1, 1, size=(20, 2)):
            val = sim.expect_z0(sim.run(circ, [], pt)) * lam
            assert val == pytest.approx(mono(pt), abs=1e-8)


def test_lcu_nonpow2_monomial_count():
    entries = (((0, 0), 0.4), ((1, 0), -0.2), ((1, 1), 0.3))
    mono = MonomialList(entries)
    circ, lam = qsp.build_lcu_multivariate(mono, 2, 1)
    rng = np.random.default_rng(29)
    for pt in rng.uniform(-1, 1, size=(10, 2)):
        val = sim.expect_z0(sim.run(circ, [], pt)) * lam
        assert val == pytest.approx(mono(pt), abs=1e-8)


def test_td_rank1_reduces_to_rank1_circuit():
    rng = np.random.default_rng(30)
    factors = ((bounded_poly(rng, 1), bounded_poly(rng, 1)),)
    td = TdPoly(1, 2, 1, (1.0,), factors)
    circ, lam = qsp.build_td_circuit(td, seed=4)
    assert lam == 1.0
    pairs = [qsp.synthesize_angles(factors[0][j], 1, seed=4 + j) for j in range(2)]
    rank1 = qsp.td_circuit_template(1, 2, 1)
    params = np.concatenate([np.concatenate([a, b]) for a, b in pairs])
    assert circ.width == rank1.width == 5
    for pt in rng.uniform(-1, 1, size=(10, 2)):
        a = sim.expect_z0(sim.run(circ, [], pt))
        b = sim.expect_z0(sim.run(rank1, params, pt))
        assert a == pytest.approx(b, abs=1e-10)


def test_td_rank2_identity_and_width():
    rng = np.random.default_rng(31)
    factors = tuple(tuple(bounded_poly(rng, 1) for _ in range(2)) for _ in range(2))
    td = TdPoly(2, 2, 1, (0.6, 0.4), factors)
    circ, lam = qsp.build_td_circuit(td, seed=5)
    assert circ.width == 6
    assert lam == pytest.approx(1.0)
    for pt in rng.uniform(-1, 1, size=(20, 2)):
        val = sim.expect_z0(sim.run(circ, [], pt)) * lam
        assert val == pytest.approx(td(pt), abs=1e-7)


def test_td_negative_lambda_absorbed():
    rng = np.random.default_rng(32)
    factors = tuple(tuple(bounded_poly(rng, 1) for _ in range(2)) for _ in range(2))
    td = TdPoly(2, 2, 1, (0.7, -0.5), factors)
    circ, lam = qsp.build_td_circuit(td, seed=6)
    assert lam == pytest.approx(1.2)
    for pt in rng.uniform(-1, 1, size=(10, 2)):
        val = sim.expect_z0(sim.run(circ, [], pt)) * lam
        assert val == pytest.approx(td(pt), abs=1e-7)


def test_td_factor_bound_error():
    bad = TdPoly(1, 2, 1, (1.0,),
                 ((UnivariatePoly((0.0, 0.9)), UnivariatePoly((0.1, 0.1))),))
    with pytest.raises(BoundError):
        qsp.build_td_circuit(bad)


def _assert_binds(built, template):
    """``built`` is ``template`` gate by gate with slot i bound to a Const;
    returns the bound angles in slot order."""
    assert (built.width, built.n_inputs, built.n_params) == (
        template.width, template.n_inputs, 0)
    assert len(built.gates) == len(template.gates)
    angles = []
    for g, t in zip(built.gates, template.gates):
        assert (g.kind, g.qubits, g.controls) == (t.kind, t.qubits, t.controls)
        g, t = (g.inner, t.inner) if t.kind == "controlled" else (g, t)
        assert (g.kind, g.qubits) == (t.kind, t.qubits)
        if isinstance(t.angle, cir.Param):
            assert t.angle.index == len(angles) and isinstance(g.angle, cir.Const)
            angles.append(g.angle.value)
        else:
            assert g.angle == t.angle
    assert len(angles) == template.n_params
    native = cir.NativeGateSet.DOUBLE_CONTROLLED
    rb = cir.count_resources(built, native).to_json_dict()
    rt = cir.count_resources(template, native).to_json_dict()
    assert rb.pop("n_params") == 0 and rt.pop("n_params") == template.n_params
    assert rb == rt
    return angles


@pytest.mark.parametrize("R,D,L", [(1, 1, 2), (2, 2, 1), (3, 2, 2), (2, 3, 1)])
def test_td_builder_binds_the_audited_template(R, D, L):
    rng = np.random.default_rng(35 + R + D + L)
    factors = tuple(tuple(bounded_poly(rng, L) for _ in range(D)) for _ in range(R))
    lambdas = tuple(rng.normal(size=R))
    circ, _ = qsp.build_td_circuit(TdPoly(R, D, L, lambdas, factors), seed=9)
    angles = _assert_binds(circ, qsp.td_circuit_template(R, D, L))
    expected = []
    for r in range(R):
        for j in range(D):
            poly = factors[r][j]
            if lambdas[r] < 0 and j == 0:
                poly = UnivariatePoly(tuple(-c for c in poly.coeffs))
            th1, th2 = qsp.synthesize_angles(poly, L, seed=9 + 101 * r + j)
            expected += th1.tolist() + th2.tolist()
    assert angles == expected


@pytest.mark.parametrize("D,L", [(2, 1), (2, 2)])
def test_lcu_builder_binds_the_audited_template(D, L):
    rng = np.random.default_rng(36 + D + L)
    indices = list(product(range(L + 1), repeat=D))
    mono = MonomialList(tuple((n, float(rng.normal())) for n in indices))
    circ, _ = qsp.build_lcu_multivariate(mono, D, L, seed=2)
    template = qsp.lcu_circuit_template(indices, D, L)
    _assert_binds(circ, template)
    assert [g.amplitudes for g in circ.gates] == [g.amplitudes for g in template.gates]


def test_rank1_parameter_count_and_x_one():
    circ = qsp.td_circuit_template(1, 2, 1)
    assert circ.n_params == 6
    assert sim.expect_z0(sim.run(circ, np.zeros(6), [1.0, 1.0])) == pytest.approx(1.0)


def test_rank1_dequantization_identity():
    rng = np.random.default_rng(33)
    circ = qsp.td_circuit_template(1, 2, 1)
    for _ in range(10):
        th = rng.normal(size=6)
        pt = rng.uniform(-1, 1, size=2)
        a1 = 0.5 * (qsp.qsp_value(th[0:1], pt[0]) + qsp.qsp_value(th[1:3], pt[0]))
        a2 = 0.5 * (qsp.qsp_value(th[3:4], pt[1]) + qsp.qsp_value(th[4:6], pt[1]))
        assert sim.expect_z0(sim.run(circ, th, pt)) == pytest.approx(
            (a1 * a2).real, abs=1e-12
        )


def test_chain_value_dual_matches_fd():
    rng = np.random.default_rng(34)
    th = rng.normal(size=3)
    x = 0.37
    zero = np.zeros(1)
    tr = qsp.chain_value(th, (np.array([x]), zero + 1.0, zero))
    f = lambda t: qsp.chain_value(th, np.array([t]))[0, 0]
    assert np.array_equal(tr[0], qsp.chain_value(th, np.array([x])))
    h = 1e-6
    fd = (f(x + h) - f(x - h)) / (2 * h)
    assert tr[1][0, 0] == pytest.approx(fd, rel=1e-6)
    for k in (1, 2, 4):  # batched angles: the value channel is the plain run
        ths, xs = rng.normal(size=(3, k)), rng.uniform(-0.95, 0.95, size=5)
        tr = qsp.chain_value(ths, (xs, np.ones(5), np.zeros(5)))
        assert np.array_equal(tr[0], qsp.chain_value(ths, xs))


# ---------------------------------------------------------------------------
# serialization


def test_td_poly_json_roundtrip():
    td = TdPoly(2, 2, 1, (0.5, -0.25),
                ((UnivariatePoly((0.1, 0.2)), UnivariatePoly((0.3, 0.0))),
                 (UnivariatePoly((0.0, -0.1)), UnivariatePoly((0.2, 0.2)))))
    doc = qsp.td_poly_to_json_dict(td)
    assert json.loads(json.dumps(doc)) == doc == {
        "R": 2, "D": 2, "L": 1, "lambdas": [0.5, -0.25],
        "factors": [[[0.1, 0.2], [0.3, 0.0]], [[0.0, -0.1], [0.2, 0.2]]]}


def test_monomials_json_roundtrip():
    mono = MonomialList((((0, 1), 0.25), ((2, 0), -0.5)))
    doc = qsp.monomials_to_json_dict(mono)
    assert json.loads(json.dumps(doc)) == doc == {
        "entries": [{"n": [0, 1], "c": 0.25}, {"n": [2, 0], "c": -0.5}]}


# ---------------------------------------------------------------------------
# properties of the coefficient form (derandomized, so the suite stays deterministic)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
_angles = st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=1, max_size=5)


@PROPERTY
@given(th=_angles, x=st.floats(-1.0, 1.0))
def test_chain_value_matches_matrix_oracle_property(th, x):
    plus = np.full(2, 1 / math.sqrt(2))
    want = plus @ chain_matrix(th, x) @ plus
    got = qsp.chain_value(th, np.array([x, -x]))
    assert abs(got[0, 0] - want) <= 1e-12
    assert abs(got[0, 1] - plus @ chain_matrix(th, -x) @ plus) <= 1e-12
    assert got.shape == (1, 2) and qsp.chain_coefficients(th).shape == (1, len(th))


def _path_sum_coefficients(thetas):
    """The chain coefficients by the path-sum recursion: for each of the two
    amplitudes, the sum over paths with b off-diagonal S(x) steps so far."""
    th = np.atleast_2d(np.asarray(thetas, dtype=float))
    lo, hi = np.exp(-0.5j * th), np.exp(0.5j * th)
    u = np.zeros(th.shape, dtype=complex)
    u[:, 0] = 1.0 / math.sqrt(2.0)
    v = u.copy()
    for j in range(th.shape[1]):
        u *= lo[:, j:j + 1]
        v *= hi[:, j:j + 1]
        if j < th.shape[1] - 1:
            shifted_v = v[:, :-1].copy()
            v[:, 1:] += u[:, :-1]
            u[:, 1:] += shifted_v
    return (u + v) / math.sqrt(2.0)


@PROPERTY
@given(th=st.lists(st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=6, max_size=6),
                   min_size=1, max_size=4),
       degree=st.integers(0, 5))
def test_chain_coefficients_match_path_sum_recursion_property(th, degree):
    # the closed form (one cos per sign pattern) against the recursion, d ≤ 5
    th = np.array(th)[:, :degree + 1]
    got = qsp.chain_coefficients(th)
    assert got.dtype == float and got.shape == (th.shape[0], degree + 1)
    assert np.max(np.abs(got - _path_sum_coefficients(th))) <= 1e-14


@PROPERTY
@given(th=_angles, x=st.floats(-0.9, 0.9))
def test_chain_value_dual_matches_fd_property(th, x):
    xs = np.array([x])
    v, d1, d2 = qsp.chain_value(th, (xs, np.ones(1), np.zeros(1)))
    assert np.array_equal(v, qsp.chain_value(th, xs))
    f = lambda u: qsp.chain_value(th, np.array([u]))[0, 0]
    h, h2 = 1e-6, 1e-4
    fd1 = (f(x + h) - f(x - h)) / (2 * h)
    fd2 = (f(x + h2) - 2 * f(x) + f(x - h2)) / h2**2
    assert abs(d1[0, 0] - fd1) <= 1e-6 * max(1.0, abs(fd1))
    assert abs(d2[0, 0] - fd2) <= 1e-5 * max(1.0, abs(fd2))


@PROPERTY
@given(th=st.lists(st.floats(-2.0 * math.pi, 2.0 * math.pi), min_size=1, max_size=4),
       xs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6))
def test_synthesis_jacobian_matches_fd_property(th, xs):
    # the ±π shift-rule Jacobian of angle synthesis against central FD of chain_value
    th, xs = np.array(th), np.array(xs)
    target = np.linspace(-0.3, 0.3, xs.size)
    basis = qsp._chain_basis((xs,), th.size - 1)[0]
    res, jac = qsp._chain_residual_jac(th, basis, target)
    assert np.max(np.abs(res + target - qsp.chain_value(th, xs)[0])) <= 1e-12
    h = 1e-6
    for j in range(th.size):
        up, dn = th.copy(), th.copy()
        up[j] += h
        dn[j] -= h
        fd = (qsp.chain_value(up, xs)[0] - qsp.chain_value(dn, xs)[0]) / (2 * h)
        assert np.max(np.abs(jac[:, j] - fd)) <= 1e-8
