import json
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpinn import circuits as cir
from qpinn import models, qsp, sim, verify
from qpinn.errors import BoundError, DomainError, SizeError, SynthesisError
from qpinn.qsp import MonomialList, TdPoly, UnivariatePoly

from test_circuits import chain_matrix


def bounded_poly(rng, degree, bound=0.45):
    coeffs = rng.normal(size=degree + 1)
    p = UnivariatePoly(tuple(coeffs))
    return UnivariatePoly(tuple(bound * np.asarray(coeffs) / p.sup_norm_grid()))


# ---------------------------------------------------------------------------
# chain_value at one point


def test_qsp_value_chebyshev():
    val = qsp.chain_value((0.0, 0.0, 0.0), 0.5)[0, 0]
    assert val.real == pytest.approx(-0.5, abs=1e-12)  # T₂(½)


def test_qsp_value_degree_zero():
    phi = 0.83
    assert qsp.chain_value((phi,), 0.3)[0, 0].real == pytest.approx(math.cos(phi / 2))


def test_qsp_value_at_x_one_collapses_to_rz_product():
    # S(1) = I, so the chain is R_z(Σθ) and ⟨+|R_z(Σθ)|+⟩ = cos(Σθ/2)
    th = (0.3, -0.7, 1.1)
    val = qsp.chain_value(th, 1.0)[0, 0]
    assert val == pytest.approx(math.cos(sum(th) / 2), abs=1e-12)


def test_qsp_value_matches_matrix_oracle():
    rng = np.random.default_rng(21)
    for L in (1, 2, 3):
        th = rng.normal(size=L + 1)
        x = float(rng.uniform(-1, 1))
        plus = np.full(2, 1 / math.sqrt(2))
        assert qsp.chain_value(th, x)[0, 0] == pytest.approx(plus @ chain_matrix(th, x) @ plus,
                                                        abs=1e-12)


def test_qsp_value_domain():
    with pytest.raises(DomainError):
        qsp.chain_value((0.0,), 1.2)


def test_qsp_value_bounded():
    rng = np.random.default_rng(22)
    for _ in range(50):
        th = rng.normal(size=4)
        x = float(rng.uniform(-1, 1))
        assert abs(qsp.chain_value(th, x)[0, 0].real) <= 1.0 + 1e-12


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_shift_rule_jacobian_is_zero_at_zero_angles(degree):
    # at θ = 0 the ±π shift rule gives the two shifted chains the same value,
    # since cos is even, so ∂v/∂θ is exactly 0; and v(0, x) = e^{i·d·arccos x}
    # has an imaginary part that no real target matches on the branch nodes
    xs = qsp._cheb_nodes(4 * degree + 8)
    zero, shift = np.zeros(degree + 1), np.pi * np.eye(degree + 1)
    jac = np.stack([(qsp.chain_value(zero + s, xs) - qsp.chain_value(zero - s, xs))[0] / 4.0
                    for s in shift])
    res = qsp.chain_value(zero, xs)[0]
    assert not np.any(jac)
    assert np.min(np.abs(res.imag)) >= 0.078 and np.max(np.abs(res.imag)) >= 0.96


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
        rng.integers(1 << 30)   # an unused draw keeps each target's place in the stream
        th1, th2 = qsp.synthesize_angles(target, L)
        xs = np.linspace(-1, 1, 60)
        combo = 0.5 * (qsp.chain_value(th1, xs).real[0]
                       + qsp.chain_value(th2, xs).real[0])
        assert np.max(np.abs(combo - target(xs))) < 1e-7


def test_synthesize_bound_error():
    with pytest.raises(BoundError):
        qsp.synthesize_angles(UnivariatePoly((0.0, 0.9)), 1)


def test_nan_target_is_a_bound_error():
    with pytest.raises(BoundError):
        qsp.synthesize_angles(UnivariatePoly((math.nan, 0.3)), 1)


# ---------------------------------------------------------------------------
# the construction: no target stalls, edge targets, row independence


def _combined_error(jobs, pairs, xs=np.linspace(-1.0, 1.0, 2001)):
    """max |½[Re v(θ1, x) + Re v(θ2, x)] − target(x)| over ``xs`` and jobs."""
    worst = 0.0
    for L in {L for _, L in jobs}:
        mine = [k for k, job in enumerate(jobs) if job[1] == L]
        th1, th2 = (np.array([pairs[k][i] for k in mine]) for i in (0, 1))
        combo = 0.5 * (qsp.chain_value(th1, xs).real + qsp.chain_value(th2, xs).real)
        worst = max(worst, np.max(np.abs(combo - [jobs[k][0](xs) for k in mine])))
    return worst


@pytest.mark.parametrize("L", range(1, 9))
def test_no_random_target_stalls(L):
    # 150 random targets of sup-norm 0.45; the search this replaced stalled
    # on 10 of them at L = 5 and on 16 at L = 6
    rng = np.random.default_rng(1000 + L)
    jobs = [(verify._random_bounded_poly(rng, L), L) for _ in range(150)]
    assert _combined_error(jobs, qsp.synthesize_angle_pairs(jobs)) <= 1e-11


def _chebyshev_t(L, scale):
    return UnivariatePoly(tuple(scale * np.polynomial.chebyshev.cheb2poly([0] * L + [1])))


def test_edge_targets_are_constructed():
    jobs = [(UnivariatePoly((c,)), L) for c in (0.5, -0.5, 0.0) for L in (1, 2)]
    jobs += [(UnivariatePoly((0.0,) * (L + 1)), L) for L in (3, 4)]
    # lower effective degree than L, of either parity, and ±x^n/2
    jobs += [(UnivariatePoly((0.0,) * n + (sign * 0.5,)), L)
             for L in range(1, 9) for n in range(L + 1) for sign in (1.0, -1.0)]
    jobs += [(UnivariatePoly((0.1, -0.2)), 5), (UnivariatePoly((0.0, 0.0, 0.3, 0.0, -0.1)), 8)]
    # |p| = 1/2 at L + 1 points, where the roots of 1 − F² lie on the unit circle
    jobs += [(_chebyshev_t(L, 0.5 - delta), L) for L in range(1, 8) for delta in (0.0, 1e-12)]
    rng = np.random.default_rng(77)
    jobs += [(bounded_poly(rng, L, bound=0.5), L) for L in rng.integers(1, 9, size=700)]
    assert _combined_error(jobs, qsp.synthesize_angle_pairs(jobs)) <= 1e-13


@pytest.mark.parametrize("n", range(1, 9))
def test_unit_monomial_branches_are_constructed(n):
    # an LCU branch x^n with coefficient ±1 touches |p| = 1 at x = ±1
    xs = np.linspace(-1.0, 1.0, 2001)
    for sign in (1.0, -1.0):
        (theta,) = qsp._synthesize_branches([(UnivariatePoly((0.0,) * n + (sign,)), n)])
        assert np.max(np.abs(qsp.chain_value(theta, xs)[0] - sign * xs**n)) <= 1e-13


def _scaled(coeffs):
    """``coeffs`` as a polynomial of sup-norm at most 0.45 on [-1, 1]."""
    p = UnivariatePoly(tuple(coeffs))
    return UnivariatePoly(tuple(0.45 / max(p.sup_norm_grid(), 0.45) * np.asarray(coeffs)))


@settings(max_examples=40)
@given(jobs=st.lists(st.tuples(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
                               st.integers(1, 8)),
                     min_size=1, max_size=24))
def test_batched_jobs_equal_their_one_job_calls_property(jobs):
    # each row of a stack is built by its own arithmetic, whatever else is in it
    jobs = [(_scaled(coeffs[:L + 1]), L) for coeffs, L in jobs]
    for pair, job in zip(qsp.synthesize_angle_pairs(jobs), jobs):
        assert all(np.array_equal(a, b) for a, b in zip(pair, qsp.synthesize_angles(*job)))


def test_corrupted_angles_trip_both_checks(monkeypatch):
    target = UnivariatePoly((0.1, 0.2, -0.25))
    construct, branches = qsp._construct, qsp._synthesize_branches
    for bad in (1e-6, np.nan):
        with monkeypatch.context() as mp:
            mp.setattr(qsp, "_construct", lambda c, d: construct(c, d) + bad)
            with pytest.raises(SynthesisError, match="branch missed its target"):
                qsp.synthesize_angles(target, 2)
            with pytest.raises(SynthesisError, match="branch missed its target"):
                qsp.build_lcu_multivariate(MonomialList((((1, 0), 0.5), ((1, 1), -0.2))), 2, 1)
        with monkeypatch.context() as mp:
            mp.setattr(qsp, "_synthesize_branches", lambda b: [a + bad for a in branches(b)])
            with pytest.raises(SynthesisError, match="combined synthesis residual"):
                qsp.synthesize_angles(target, 2)


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
        circ, lam = qsp.build_lcu_multivariate(mono, 2, 1)
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
    circ, lam = qsp.build_td_circuit(td)
    assert lam == 1.0
    pairs = [qsp.synthesize_angles(factors[0][j], 1) for j in range(2)]
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
    circ, lam = qsp.build_td_circuit(td)
    assert circ.width == 6
    assert lam == pytest.approx(1.0)
    for pt in rng.uniform(-1, 1, size=(20, 2)):
        val = sim.expect_z0(sim.run(circ, [], pt)) * lam
        assert val == pytest.approx(td(pt), abs=1e-7)


def test_td_negative_lambda_absorbed():
    rng = np.random.default_rng(32)
    factors = tuple(tuple(bounded_poly(rng, 1) for _ in range(2)) for _ in range(2))
    td = TdPoly(2, 2, 1, (0.7, -0.5), factors)
    circ, lam = qsp.build_td_circuit(td)
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


def test_parameter_free_templates_are_built_once():
    # one immutable Circuit per shape, however the shape is spelled
    assert qsp.td_circuit_template(2, 2, 1) is qsp.td_circuit_template(2, 2, 1)
    assert qsp.univariate_model_circuit(2) is qsp.td_circuit_template(1, 1, 2)
    assert qsp.univariate_model_circuit(2) is not qsp.univariate_model_circuit(3)
    grid = [tuple(int(i) for i in n) for n in np.ndindex(2, 2)]
    lcu = qsp.lcu_circuit_template(grid, 2, 1)
    assert lcu is qsp.lcu_circuit_template(tuple(grid), 2, 1)
    assert lcu is qsp.lcu_circuit_template([list(n) for n in grid], 2, 1)
    assert lcu is not qsp.lcu_circuit_template(grid[:3], 2, 1)
    assert models.qpinn_circuit() is models.qpinn_circuit()
    with pytest.raises(ValueError, match="L >= 1"):
        qsp.td_circuit_template(1, 1, 0)


@pytest.mark.parametrize("R,D,L", [(1, 1, 2), (2, 2, 1), (3, 2, 2), (2, 3, 1)])
def test_td_builder_binds_the_audited_template(R, D, L):
    rng = np.random.default_rng(35 + R + D + L)
    factors = tuple(tuple(bounded_poly(rng, L) for _ in range(D)) for _ in range(R))
    lambdas = tuple(rng.normal(size=R))
    circ, _ = qsp.build_td_circuit(TdPoly(R, D, L, lambdas, factors))
    angles = _assert_binds(circ, qsp.td_circuit_template(R, D, L))
    expected = []
    for r in range(R):
        for j in range(D):
            poly = factors[r][j]
            if lambdas[r] < 0 and j == 0:
                poly = UnivariatePoly(tuple(-c for c in poly.coeffs))
            th1, th2 = qsp.synthesize_angles(poly, L)
            expected += th1.tolist() + th2.tolist()
    assert angles == expected


def test_every_chain_of_a_variable_shares_one_arccos_object():
    # so the simulator takes arccos and its domain check once per variable
    # and view rank, not once per rx gate
    rng = np.random.default_rng(37)
    td = TdPoly(2, 3, 2, (0.5, -0.7),
                tuple(tuple(bounded_poly(rng, 2) for _ in range(3)) for _ in range(2)))
    indices = list(product(range(3), repeat=2))
    mono = MonomialList(tuple((n, float(rng.normal())) for n in indices))
    for circ in (qsp.td_circuit_template(2, 3, 2), qsp.build_td_circuit(td)[0],
                 qsp.lcu_circuit_template(indices, 2, 2),
                 qsp.build_lcu_multivariate(mono, 2, 2)[0]):
        objects = {}
        for g in circ.gates:
            g = g.inner if g.kind == "controlled" else g
            if isinstance(g.angle, cir.InputArccos):
                objects.setdefault(g.angle.var, set()).add(id(g.angle))
        assert sorted(objects) == list(range(circ.n_inputs))
        assert all(len(ids) == 1 for ids in objects.values())


@pytest.mark.parametrize("D,L", [(2, 1), (2, 2)])
def test_lcu_builder_binds_the_audited_template(D, L):
    rng = np.random.default_rng(36 + D + L)
    indices = list(product(range(L + 1), repeat=D))
    mono = MonomialList(tuple((n, float(rng.normal())) for n in indices))
    circ, _ = qsp.build_lcu_multivariate(mono, D, L)
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
        a1 = 0.5 * (qsp.chain_value(th[0:1], pt[0]) + qsp.chain_value(th[1:3], pt[0]))[0, 0]
        a2 = 0.5 * (qsp.chain_value(th[3:4], pt[1]) + qsp.chain_value(th[4:6], pt[1]))[0, 0]
        assert sim.expect_z0(sim.run(circ, th, pt)) == pytest.approx(
            (a1 * a2).real, abs=1e-12
        )


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


@pytest.mark.parametrize("entries", [(), (((0,), 1.0), ((0, 1), 2.0))],
                         ids=["no-monomial", "mixed-lengths"])
def test_monomial_list_refuses_bad_entries(entries):
    with pytest.raises(ValueError, match="need"):
        MonomialList(entries)


def test_univariate_poly_refuses_no_coefficients():
    with pytest.raises(ValueError, match="need at least one coefficient"):
        UnivariatePoly(())
    with pytest.raises(ValueError, match="need at least one coefficient"):
        UnivariatePoly(np.array([]))
    assert UnivariatePoly((0.0,)).degree == 0


def test_monomials_json_roundtrip():
    mono = MonomialList((((0, 1), 0.25), ((2, 0), -0.5)))
    doc = qsp.monomials_to_json_dict(mono)
    assert json.loads(json.dumps(doc)) == doc == {
        "entries": [{"n": [0, 1], "c": 0.25}, {"n": [2, 0], "c": -0.5}]}


# ---------------------------------------------------------------------------
# properties of the coefficient form (derandomized, so the suite stays deterministic)

PROPERTY = settings(max_examples=60)
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


def test_chain_coefficients_keep_the_one_chain_sums():
    # the one-chain plan sums in the memory order of the ½·sᵀ and one-hot
    # matrices, so it is bit-identical to the two einsums over them
    rng = np.random.default_rng(83)
    for degree in range(7):
        half_signs, by_changes = qsp._sign_patterns(degree)
        for th in (rng.uniform(-50.0, 50.0, (9, degree + 1)),
                   np.asfortranarray(rng.uniform(-50.0, 50.0, (4, degree + 1)))):
            want = np.einsum("bp,pc->bc", np.cos(np.einsum("bj,jp->bp", th, half_signs)),
                             by_changes)
            assert np.array_equal(qsp.chain_coefficients(th), want)


@PROPERTY
@given(degrees=st.lists(st.integers(0, 3), min_size=1, max_size=4),
       rows=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_coefficient_plan_matches_each_chain_property(degrees, rows, seed):
    # chains on shuffled columns give each chain's coefficients, in chain order
    rng = np.random.default_rng(seed)
    cols = np.split(rng.permutation(sum(degrees) + len(degrees)),
                    np.cumsum([d + 1 for d in degrees])[:-1])
    params = rng.uniform(-50.0, 50.0, (rows, sum(degrees) + len(degrees)))
    got = qsp.plan_coefficients(qsp.coefficient_plan(cols), params)
    want = np.concatenate([qsp.chain_coefficients(params[:, c]) for c in cols], axis=1)
    if max(degrees) <= 1:   # at most two phase terms: every summation order agrees
        assert np.array_equal(got, want)
    assert np.max(np.abs(got - want)) <= 1e-13


# every float class polyval can meet: ±0, subnormals, ±inf and NaN among finite values
_EDGE_FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True, width=64),
                         st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                          math.inf, -math.inf, math.nan, 1e300, -1e300]))


@settings(max_examples=300)
@given(rows=st.lists(st.lists(_EDGE_FLOATS, min_size=1, max_size=6), min_size=1, max_size=5),
       xs=st.lists(st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0]), _EDGE_FLOATS),
                   min_size=1, max_size=8))
def test_polyval_rows_equals_each_polynomial_bit_for_bit_property(rows, xs):
    # rows of mixed lengths are zero-padded at the top of one Horner pass.
    # Every value that is not NaN has polyval's bits; a NaN's sign is not
    # arithmetic: numpy's SIMD loops and their scalar tails take it from
    # different operands of NaN + NaN (a 1-D contiguous add and the same add
    # with a broadcast scalar already differ at 9 elements), so a NaN must
    # only be a NaN.
    x = np.array(xs)
    with np.errstate(all="ignore"):
        got = qsp.polyval_rows([tuple(r) for r in rows], x)
        want = [UnivariatePoly(tuple(r))(x) for r in rows]
    assert got.shape == (len(rows), len(xs)) and got.dtype == np.float64
    for g, w in zip(got, want):
        nan = np.isnan(w)
        assert np.array_equal(np.isnan(g), nan)
        assert g[~nan].tobytes() == w[~nan].tobytes()


def test_sup_norms_and_checks_take_one_pass_per_batch(monkeypatch):
    # the jobs' sup-norms, each degree's branch check and each L's combined
    # check are one polyval_rows call apiece, and no target is called alone
    rng = np.random.default_rng(40)
    jobs = [(bounded_poly(rng, L), L) for L in (2, 3, 2, 3, 3)]
    want = qsp.synthesize_angle_pairs(jobs)
    calls = []
    real = qsp.polyval_rows
    monkeypatch.setattr(qsp, "polyval_rows", lambda c, x: calls.append(len(c)) or real(c, x))
    monkeypatch.setattr(UnivariatePoly, "__call__", None)
    got = qsp.synthesize_angle_pairs(jobs)
    assert all(a.tobytes() == b.tobytes() for g, w in zip(got, want) for a, b in zip(g, w))
    # sup-norms of all 5 jobs; branches of degree 1, 2 and 3; combined L = 2 and L = 3
    assert sorted(calls) == sorted([5, 2, 5, 3, 2, 3])
