"""Property suites behind ``qpinn verify``: constructive checks of the
circuit identities, lowering soundness, derivative machinery, and the HJB
oracle.  Each check runs isolated, so an injected fault fails its check by
name instead of aborting the suite; reports stay machine-readable."""
from __future__ import annotations

import math

import numpy as np

from . import circuits as cir
from . import duals, merton, models, qsp, sim
from .errors import ConfigError


def _random_bounded_poly(rng, degree: int) -> qsp.UnivariatePoly:
    """Random polynomial scaled to sup-norm 0.45 on [-1, 1] (QSP needs ≤ 1/2)."""
    coeffs = rng.normal(size=degree + 1)
    p = qsp.UnivariatePoly(tuple(coeffs))
    return qsp.UnivariatePoly(tuple(0.45 * np.asarray(coeffs) / p.sup_norm_grid()))


# ---------------------------------------------------------------------------
# circuits suite


def _check_univariate_identity(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for L in (1, 2):
        for _ in range(2):
            target = _random_bounded_poly(rng, L)
            th1, th2 = qsp.synthesize_angles(target, L, seed=int(rng.integers(1 << 30)))
            circ = qsp.univariate_model_circuit(len(th1))
            params = np.concatenate([th1, th2])
            xs = np.linspace(-1.0, 1.0, 50)[:, None]
            vals = sim.z0_from_amps(sim.simulate_amps(circ, params, xs))[0]
            worst = max(worst, float(np.max(np.abs(vals - target(xs[:, 0])))))
    return worst < 1e-6, f"max |expect_z0 - p(x)| = {worst:.2e}"


def _check_lcu_identity(seed):
    rng = np.random.default_rng(seed + 1)
    entries = tuple(((i, j), float(rng.normal())) for i in range(2) for j in range(2))
    mono = qsp.MonomialList(entries)
    circ, lam = qsp.build_lcu_multivariate(mono, 2, 1, seed=seed)
    pts = rng.uniform(-1.0, 1.0, size=(20, 2))
    err = max(abs(sim.expect_z0(sim.run(circ, [], pt)) * lam - mono(pt)) for pt in pts)
    return err < 1e-6, f"full-grid D=2 L=1, max |Λ·expect_z0 - p| = {err:.2e}"


def _check_td_identity(seed):
    rng = np.random.default_rng(seed + 2)
    factors = tuple(
        tuple(_random_bounded_poly(rng, 1) for _ in range(2)) for _ in range(2)
    )
    td = qsp.TdPoly(R=2, D=2, L=1, lambdas=(0.7, -0.3), factors=factors)
    circ, lam = qsp.build_td_circuit(td, seed=seed)
    pts = rng.uniform(-1.0, 1.0, size=(20, 2))
    err = max(abs(sim.expect_z0(sim.run(circ, [], pt)) * lam - td(pt)) for pt in pts)
    return err < 1e-6, f"R=2 D=2 L=1, max |Λ·expect_z0 - p| = {err:.2e}"


def _check_rank1_dequantization(seed):
    rng = np.random.default_rng(seed + 3)
    tpl = qsp.td_circuit_template(1, 2, 1)
    err = 0.0
    for _ in range(5):
        th = rng.normal(size=6)
        pt = rng.uniform(-0.99, 0.99, size=2)
        a1 = 0.5 * (qsp.qsp_value(th[0:1], pt[0]) + qsp.qsp_value(th[1:3], pt[0]))
        a2 = 0.5 * (qsp.qsp_value(th[3:4], pt[1]) + qsp.qsp_value(th[4:6], pt[1]))
        err = max(err, abs(sim.expect_z0(sim.run(tpl, th, pt)) - (a1 * a2).real))
    return err < 1e-12, f"statevector vs 2×2 chains, max diff = {err:.2e}"


def _check_parity_split(seed):
    rng = np.random.default_rng(seed + 4)
    p = qsp.UnivariatePoly(tuple(rng.normal(size=4)))
    odd, even = qsp.parity_split(p)
    recon = 0.5 * np.asarray(odd.coeffs) + 0.5 * np.asarray(even.coeffs)
    err = float(np.max(np.abs(recon - np.asarray(p.coeffs))))
    return err < 1e-14, f"coefficientwise residual = {err:.2e}"


def _check_degree_parity_certificate(seed):
    rng = np.random.default_rng(seed + 5)
    bad = 0.0
    for L in (1, 2, 3):
        th = rng.normal(size=L + 1)
        fit = qsp.extract_polynomial(lambda xs: qsp.chain_value(th, xs)[0].real, L)
        bad = max(bad, fit.max_residual)
        wrong = np.asarray(fit.poly.coeffs)[(L + 1) % 2::2]
        bad = max(bad, float(np.max(np.abs(wrong))) if wrong.size else 0.0)
    return bad < 1e-8, f"poly-fit residual / off-parity coeff = {bad:.2e}"


def _check_unitarity(seed):
    rng = np.random.default_rng(seed + 6)
    err = 0.0
    for L in (1, 2):
        circ = qsp.univariate_model_circuit(L)
        u = cir.unitary_of(circ, rng.normal(size=2 * L + 1), [float(rng.uniform(-1, 1))])
        err = max(err, float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()))
    return err < 1e-12, f"max ‖U†U-I‖ = {err:.2e}"


# ---------------------------------------------------------------------------
# lowering suite


def _lowered(gate, width):
    base = cir.Circuit(width, (gate,))
    low = cir.lower_to_cnot_single(base)
    rep = cir.count_resources(low, cir.NativeGateSet.CNOT_SINGLE_QUBIT)
    err = np.abs(cir.unitary_of(low) - cir.unitary_of(base)).max()
    return rep, err


def _check_lower_crz(seed):
    rep, err = _lowered(cir.controlled(cir.rz(1, cir.Const(0.8)), [(0, 1)]), 2)
    counts = (rep.n_single_qubit, rep.n_cnot, rep.depth)
    return counts == (2, 2, 4) and err < 1e-12, f"counts {counts}, err {err:.1e}"


def _check_lower_ccrz(seed):
    rep, err = _lowered(cir.controlled(cir.rz(2, cir.Const(0.8)), [(0, 1), (1, 1)]), 3)
    counts = (rep.n_single_qubit, rep.n_cnot, rep.depth)
    return counts == (6, 8, 12) and err < 1e-12, f"counts {counts}, err {err:.1e}"


def _check_lower_ccrx(seed):
    rep, err = _lowered(cir.controlled(cir.rx(2, cir.Const(0.8)), [(0, 1), (1, 1)]), 3)
    counts = (rep.n_single_qubit, rep.n_cnot, rep.depth)
    return counts == (12, 8, 18) and err < 1e-12, f"counts {counts}, err {err:.1e}"


def _check_lower_model_bounds(seed):
    rng = np.random.default_rng(seed)
    ok, details = True, []
    for L in (1, 2, 3):
        circ = qsp.univariate_model_circuit(L)
        low = cir.lower_to_cnot_single(circ)
        rep = cir.count_resources(low, cir.NativeGateSet.CNOT_SINGLE_QUBIT)
        depth_no_x = cir.greedy_depth([g for g in low.gates if g.kind != "x"])
        worst = 0.0
        for _ in range(5):
            th = rng.normal(size=2 * L + 1)
            x = float(rng.uniform(-1, 1))
            worst = max(worst, cir.phase_aligned_distance(
                cir.unitary_of(circ, th, [x]), cir.unitary_of(low, th, [x])))
        ok &= (rep.n_single_qubit <= 36 * L and rep.n_cnot <= 32 * L
               and depth_no_x <= 60 * L - 5 and worst < 1e-10)
        details.append(f"L={L}: 1q={rep.n_single_qubit} cnot={rep.n_cnot} "
                       f"depth={depth_no_x} equiv={worst:.1e}")
    return ok, "; ".join(details)


# ---------------------------------------------------------------------------
# derivatives suite


def _check_dual_vs_fd(seed):
    rng = np.random.default_rng(seed)
    const = lambda c: (c, 0.0, 0.0)

    def f(x):  # exp(sin(1.3x) + x²)·0.2 + tanh(x) on (v, d1, d2) triples
        inner = duals.t_add(duals.t_sin(duals.t_mul(x, const(1.3))), duals.t_mul(x, x))
        return duals.t_add(duals.t_mul(duals.t_exp(inner), const(0.2)), duals.t_tanh(x))

    g = lambda t: math.exp(math.sin(t * 1.3) + t * t) * 0.2 + math.tanh(t)
    worst = 0.0
    for _ in range(20):
        x0 = float(rng.uniform(-0.9, 0.9))
        _, d1, d2 = f((x0, 1.0, 0.0))
        h, h2 = 1e-5, 1e-4
        fd1 = (g(x0 + h) - g(x0 - h)) / (2 * h)
        fd2 = (g(x0 + h2) - 2 * g(x0) + g(x0 - h2)) / h2**2
        worst = max(worst, abs(d1 - fd1) / max(1, abs(fd1)),
                    abs(d2 - fd2) / max(1, abs(fd2)))
    return worst < 1e-5, f"max rel deviation = {worst:.2e}"


def _check_shift_analytic(seed):
    circ = cir.Circuit(1, (cir.rx(0, cir.Param(0)),), n_params=1)
    theta = math.pi / 3
    err = abs(duals.parameter_shift(circ, [theta], [], 0) - (-math.sin(theta)))
    return err < 1e-12, f"|shift - (-sin θ)| = {err:.2e}"


def _check_shift_vs_dual_lambda(seed):
    rng = np.random.default_rng(seed)
    qc = models.qpinn_circuit()
    params = np.concatenate([rng.normal(size=6), [0.3]])
    x = [0.4, 0.6]
    shift = duals.parameter_shift(qc, params, x, 6)
    seeded = (params, np.eye(7)[6], np.zeros(7))
    dual_d1 = sim.expect_z0(sim.run(qc, seeded, x))[1]
    err = abs(shift - dual_d1)
    return err < 1e-8, f"|shift - dual d1| = {err:.2e} at λ=0.3"


def qpinn_on_simulator(params, t, x, scale: float = 10.0):
    """The QPINN run on the 5-qubit statevector: the oracle of its closed form.

    Returns (values, (v, v_t, v_x, v_xx)) times ``scale``, shaped (B, N).
    """
    circ = models.qpinn_circuit()
    n = x.size
    values = sim.z0_from_amps(sim.simulate_amps(circ, params, np.stack([x, t], axis=1)))
    v = np.stack([np.concatenate([x, x]), np.concatenate([t, t])], axis=1)
    d1 = np.zeros_like(v)
    d1[:n, 0] = 1.0
    d1[n:, 1] = 1.0
    zv, z1, z2 = sim.z0_from_amps(sim.simulate_amps(circ, params, (v, d1, np.zeros_like(v))))
    bundles = (zv[:, :n], z1[:, n:], z1[:, :n], z2[:, :n])
    return scale * values, tuple(scale * b for b in bundles)


def _check_qpinn_closed_form(seed):
    """The QPINN evaluator's chain closed form against the 5-qubit simulator."""
    rng = np.random.default_rng(seed)
    spec = models.ModelSpec("qpinn")
    ev = models.make_evaluator(spec)
    params = rng.uniform(0.0, 2.0 * np.pi, (3, 7))
    t, x = rng.uniform(0.01, 0.99, (2, 5))
    ref_v, ref_b = qpinn_on_simulator(params, t, x, spec.output_scale)
    val_err = float(np.max(np.abs(ev.values(params, t, x) - ref_v)))
    dual_err = max(float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))
                   for a, b in zip(ev.bundles(params, t, x), ref_b))
    return (val_err < 1e-12 and dual_err < 1e-10,
            f"values {val_err:.1e} abs, (v, v_t, v_x, v_xx) {dual_err:.1e} rel")


def _check_model_bundles(seed):
    ok, details = True, []
    for kind in models.KINDS:
        spec = models.ModelSpec(kind)
        fn = models.ModelFunction(spec, models.init_params(spec, seed + 1))
        t0, x0 = 0.37, 0.61
        _, v_t, v_x, v_xx = (a[0] for a in fn.derivatives(np.array([t0]), np.array([x0])))
        g = lambda tt, xx: fn.values(np.array([tt]), np.array([xx]))[0]
        h, h2 = 1e-5, 1e-4
        fd_t = (g(t0 + h, x0) - g(t0 - h, x0)) / (2 * h)
        fd_x = (g(t0, x0 + h) - g(t0, x0 - h)) / (2 * h)
        fd_xx = (g(t0, x0 + h2) - 2 * g(t0, x0) + g(t0, x0 - h2)) / h2**2
        rel = max(abs(v_t - fd_t) / max(1, abs(fd_t)),
                  abs(v_x - fd_x) / max(1, abs(fd_x)),
                  abs(v_xx - fd_xx) / max(1, abs(fd_xx)))
        ok &= rel < 1e-4
        details.append(f"{kind}: {rel:.1e}")
    return ok, "; ".join(details)


# ---------------------------------------------------------------------------
# hjb suite


def _check_analytical_residual(seed):
    m = merton.MarketParams()
    sol = merton.AnalyticalSolution(m)
    pts = np.random.default_rng(seed).uniform(0.01, 0.99, size=(1000, 2))
    _, v_t, v_x, v_xx = sol.derivatives(pts[:, 0], pts[:, 1])
    res = merton.hjb_residual_arrays(v_t, v_x, v_xx, pts[:, 1], m)
    worst = float(np.max(np.abs(res)))
    return worst < 1e-8, f"max |residual| over 1000 points = {worst:.2e}"


def _check_boundary_identities(seed):
    m = merton.MarketParams()
    rng = np.random.default_rng(seed)
    v = merton.AnalyticalSolution(m).values
    xs = rng.uniform(0.01, 0.99, 100)
    term = float(np.max(np.abs(v(m.T, xs) - merton.terminal_target(xs, m))))
    ts = rng.uniform(0.01, 0.99, 100)
    lat = float(np.max(np.abs(v(ts, np.ones(100)) - merton.lateral_target(ts, m))))
    return max(term, lat) < 1e-12, f"terminal {term:.1e}, lateral {lat:.1e}"


def _check_optimal_control(seed):
    m = merton.MarketParams()
    sol = merton.AnalyticalSolution(m)
    pts = np.random.default_rng(seed).uniform(0.01, 0.99, size=(200, 2))
    _, _, v_x, v_xx = sol.derivatives(pts[:, 0], pts[:, 1])
    alphas = [merton.optimal_control(a, b, x, m) for a, b, x in zip(v_x, v_xx, pts[:, 1])]
    err = float(np.max(np.abs(np.asarray(alphas) - 0.95)))
    return err < 1e-10, f"max |α̂ - 0.95| = {err:.2e}"


def _check_analytical_zero_loss(seed):
    m = merton.MarketParams()
    c = merton.sample_collocation(seed, 50, 50)
    lb = merton.total_loss(merton.AnalyticalSolution(m), c, merton.LossWeights(), m)
    return lb.total < 1e-12, f"total loss = {lb.total:.2e}"


SUITES = {
    "circuits": [
        ("univariate-parity-split-identity", _check_univariate_identity),
        ("lcu-multivariate-identity", _check_lcu_identity),
        ("tensor-decomposed-identity", _check_td_identity),
        ("rank1-dequantization-identity", _check_rank1_dequantization),
        ("parity-split-reconstruction", _check_parity_split),
        ("chain-degree-parity-certificate", _check_degree_parity_certificate),
        ("unitarity", _check_unitarity),
    ],
    "lowering": [
        ("lower-controlled-rz", _check_lower_crz),
        ("lower-double-controlled-rz", _check_lower_ccrz),
        ("lower-double-controlled-rx", _check_lower_ccrx),
        ("lower-univariate-model-bounds", _check_lower_model_bounds),
    ],
    "derivatives": [
        ("dual-vs-finite-difference", _check_dual_vs_fd),
        ("parameter-shift-analytic", _check_shift_analytic),
        ("parameter-shift-vs-dual-lambda", _check_shift_vs_dual_lambda),
        ("qpinn-closed-form-vs-simulator", _check_qpinn_closed_form),
        ("model-bundles-vs-fd", _check_model_bundles),
    ],
    "hjb": [
        ("analytical-residual", _check_analytical_residual),
        ("boundary-identities", _check_boundary_identities),
        ("optimal-control", _check_optimal_control),
        ("analytical-zero-loss", _check_analytical_zero_loss),
    ],
}


def run_suite(name: str, seed: int = 0) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if seed < 0:  # the checks seed numpy generators, which take no negative seed
        raise ConfigError(f"seed must be an integer >= 0, got {seed}")
    checks = []
    for check_name, fn in SUITES[name]:
        try:
            passed, detail = fn(seed)
        except Exception as exc:  # a failing property may raise mid-check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        checks.append({"name": check_name, "passed": bool(passed), "detail": detail})
    return {"suite": name, "passed": all(c["passed"] for c in checks), "checks": checks}
