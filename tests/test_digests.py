"""Trained artifacts and verify reports pinned by digest across trees.

``artifact_digests.json`` holds the masked SHA-256 of each file of the CI
training profile (``qpinn train --runs 2 --epochs 200 --seed 6``, masked by
``masked_artifacts`` with the ``manifest`` too), of each ``qpinn verify
--out`` report of the four suites at seeds 0 and 5, and of each ``qpinn
resources --out`` report in ``RESOURCE_REPORTS``, and of the raw bytes of the circuit path's outputs
(``circuit_digests``): ``sim.simulate_amps`` on seeded TD and LCU builds and
templates, plain and dual, and ``circuits.unitary_of`` on 5-row stacks of
the univariate model at L = 1..3 and its CNOT + single-qubit lowering; and
the ``float.hex`` of ``duals.parameter_shift`` on the QPINN circuit for each
of its 7 parameters at fixed points (``shift_values``); and the masked
SHA-256 of each file of the ``FALLBACK_PROFILES`` runs (``fallback_digests``),
whose CSV cells take the writer's per-value fallback: an overflowing run
(``output_scale`` 1e308: NaN and inf losses, every run aborted, no model
surface) and a 1000-epoch quantum_inspired run whose losses fall below
1e-6.  A
refactor that claims the same bits keeps these digests; a change that must
move them says which and why in CHANGES, with ``qpinn compare``'s report of
the trained artifacts, and its digests are then written from this module's
``train_digests``, ``verify_digests``, ``resources_digests``,
``circuit_digests``, ``shift_values`` and ``fallback_digests``, never to hide an unexplained change.

Float results depend on the Python, numpy and BLAS builds and on the CPU
features numpy dispatches to, so the file records them, and under any other
environment the tests skip and name the field that differs.
"""
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from qpinn import circuits as cir
from qpinn import cli, duals, models, qsp, sim, verify

DIGESTS = Path(__file__).with_name("artifact_digests.json")
CI_PROFILE = ["train", "--runs", "2", "--epochs", "200", "--seed", "6"]
VERIFY_SEEDS = (0, 5)
# every construction at L = 2 (D = 2, R = 1) under both native gate sets,
# but thm1 under cnot-single-qubit, which does not lower (a prepare gate)
RESOURCE_REPORTS = [(construction, native) for construction in ("prop1", "thm1", "thm2", "cor1")
                    for native in ("double-controlled", "cnot-single-qubit")
                    if (construction, native) != ("thm1", "cnot-single-qubit")]
# the circuit path: seeded TD (R, D, L) and full-grid LCU (D, L) builds at
# CIRCUIT_POINTS points, and the univariate model's unitaries at LOWERED_L
CIRCUIT_SEEDS = (3, 7, 11)
TD_SHAPES = ((2, 2, 1), (3, 2, 2), (1, 2, 3))
LCU_SHAPE = (2, 2)
CIRCUIT_POINTS = 8
LOWERED_L = (1, 2, 3)
LOWERED_ROWS = 5
# the parameter-shift derivative path: seeded points of the QPINN circuit,
# and one point whose parameters are all −0.0
SHIFT_SEEDS = (3, 7, 11)
# runs whose CSV cells are NaN, ±inf or at most 1e-6: name → (train
# arguments, config document or None)
FALLBACK_PROFILES = {
    "overflow": (["train", "--runs", "2", "--epochs", "200", "--seed", "6"],
                 {"output_scale": 1e308}),
    "inspired_1000": (["train", "--models", "quantum_inspired", "--runs", "1",
                       "--epochs", "1000", "--seed", "0"], None),
}


def environment() -> dict:
    """The builds and CPU features the digests depend on."""
    env = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        build = np.show_config(mode="dicts")
    except TypeError:   # numpy < 1.26 prints its build and returns nothing
        return env
    blas = build["Build Dependencies"]["blas"]
    env["blas"] = " ".join(str(blas.get(k, "")) for k in ("name", "version",
                                                          "openblas configuration"))
    simd = build["SIMD Extensions"]
    env["cpu_features"] = simd["baseline"] + simd["found"]
    return env


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def train_digests(out: Path, masked_artifacts) -> dict:
    assert cli.main(CI_PROFILE + ["--out", str(out)]) == 0
    return {rel: _sha256(text)
            for rel, text in masked_artifacts(out, also=["manifest"]).items()}


def verify_digests(out: Path) -> dict:
    digests = {}
    for suite in sorted(verify.SUITES):
        for seed in VERIFY_SEEDS:
            path = out / f"{suite}_seed{seed}.json"
            assert cli.main(["verify", "--suite", suite, "--seed", str(seed),
                             "--out", str(path)]) == 0
            digests[path.name] = _sha256(path.read_text())
    return digests


def resources_digests(out: Path) -> dict:
    digests = {}
    for construction, native in RESOURCE_REPORTS:
        path = out / f"{construction}_L2_{native}.json"
        assert cli.main(["resources", "--construction", construction, "--L", "2",
                         "--native", native, "--out", str(path)]) == 0
        digests[path.name] = _sha256(path.read_text())
    return digests


def _bytes_sha256(out) -> str:
    """SHA-256 of an array's raw bytes, or of a dual triple's three in order."""
    return hashlib.sha256(b"".join(c.tobytes() for c in (
        out if isinstance(out, tuple) else (out,)))).hexdigest()


def _bounded_poly(rng, degree: int) -> qsp.UnivariatePoly:
    p = qsp.UnivariatePoly(tuple(rng.normal(size=degree + 1)))
    return qsp.UnivariatePoly(tuple(0.45 * np.asarray(p.coeffs) / p.sup_norm_grid()))


def _amps_digests(name: str, rng, circuit, template, points) -> dict:
    """A bound build on its points, plain and with dual inputs, and its
    template with dual parameters."""
    zero = np.zeros_like(points)
    theta = rng.uniform(-3.0, 3.0, template.n_params)
    runs = {"plain": (circuit, [], points),
            "dual_inputs": (circuit, [], (points, rng.normal(size=points.shape), zero)),
            "template_dual_params": (template, (theta, rng.normal(size=theta.shape),
                                                np.zeros_like(theta)), points)}
    return {f"{name}/{run}": _bytes_sha256(sim.simulate_amps(*args))
            for run, args in runs.items()}


def circuit_digests() -> dict:
    digests = {}
    for seed in CIRCUIT_SEEDS:
        rng = np.random.default_rng(seed)
        for R, D, L in TD_SHAPES:
            poly = qsp.TdPoly(R, D, L, tuple(rng.normal(size=R)),
                              tuple(tuple(_bounded_poly(rng, L) for _ in range(D))
                                    for _ in range(R)))
            circuit, _ = qsp.build_td_circuit(poly)
            points = rng.uniform(-0.95, 0.95, (CIRCUIT_POINTS, D))
            digests.update(_amps_digests(f"seed{seed}/td_R{R}_D{D}_L{L}", rng, circuit,
                                         qsp.td_circuit_template(R, D, L), points))
        D, L = LCU_SHAPE
        indices = [tuple(int(i) for i in n) for n in np.ndindex(*(L + 1,) * D)]
        mono = qsp.MonomialList(tuple((n, float(rng.normal())) for n in indices))
        circuit, _ = qsp.build_lcu_multivariate(mono, D, L)
        points = rng.uniform(-0.95, 0.95, (CIRCUIT_POINTS, D))
        digests.update(_amps_digests(f"seed{seed}/lcu_D{D}_L{L}", rng, circuit,
                                     qsp.lcu_circuit_template(indices, D, L), points))
        for L in LOWERED_L:
            model = qsp.univariate_model_circuit(L)
            params = rng.normal(size=(LOWERED_ROWS, model.n_params))
            inputs = rng.uniform(-1.0, 1.0, (LOWERED_ROWS, 1))
            for name, circ in (("model", model), ("lowered", cir.lower_to_cnot_single(model))):
                digests[f"seed{seed}/unitary_{name}_L{L}"] = _bytes_sha256(
                    cir.unitary_of(circ, params, inputs))
    return digests


def shift_values() -> dict:
    qc = models.qpinn_circuit()
    points = {f"seed{seed}": (rng.uniform(-2.0 * np.pi, 2.0 * np.pi, qc.n_params),
                              rng.uniform(0.05, 0.95, qc.n_inputs))
              for seed in SHIFT_SEEDS for rng in [np.random.default_rng(seed)]}
    points["signed_zeros"] = (np.full(qc.n_params, -0.0), np.array([0.4, 0.6]))
    return {f"{name}/param{i}": float(duals.parameter_shift(qc, params, x, i)).hex()
            for name, (params, x) in points.items() for i in range(qc.n_params)}


def fallback_digests(out: Path, masked_artifacts) -> dict:
    digests = {}
    for name, (argv, doc) in FALLBACK_PROFILES.items():
        config = []
        if doc is not None:
            path = out / f"{name}.json"
            path.write_text(json.dumps(doc))
            config = ["--config", str(path)]
        assert cli.main(argv + config + ["--out", str(out / name)]) == 0
        digests.update({f"{name}/{rel}": _sha256(text) for rel, text in
                        masked_artifacts(out / name, also=["manifest"]).items()})
    return digests


@pytest.fixture(scope="module")
def pinned() -> dict:
    doc = json.loads(DIGESTS.read_text())
    want, here = doc["environment"], environment()
    differ = [f"{k}: {here.get(k)!r}, digests made under {want[k]!r}"
              for k in want if here.get(k) != want[k]]
    if differ:
        pytest.skip("another environment; " + "; ".join(differ))
    return doc


def _assert_digests(want: dict, got: dict) -> None:
    """Name each file whose digest differs from the pinned one, with its new digest."""
    bad = [f"{name}: {got.get(name, 'missing')}" for name in sorted(want.keys() | got.keys())
           if want.get(name) != got.get(name)]
    assert not bad, "digests differ:\n" + "\n".join(bad)


def test_ci_profile_artifacts_match_their_digests(pinned, tmp_path, monkeypatch,
                                                  masked_artifacts):
    monkeypatch.setenv("QPINN_THREADS", "1")
    got = train_digests(tmp_path / "ci", masked_artifacts)
    assert len(got) == 19
    _assert_digests(pinned["train"], got)


def test_verify_reports_match_their_digests(pinned, tmp_path):
    _assert_digests(pinned["verify"], verify_digests(tmp_path))


def test_resource_reports_match_their_digests(pinned, tmp_path):
    _assert_digests(pinned["resources"], resources_digests(tmp_path))


def test_circuit_outputs_match_their_digests(pinned):
    _assert_digests(pinned["circuits"], circuit_digests())


def test_parameter_shift_values_match_their_digests(pinned):
    _assert_digests(pinned["parameter_shift"], shift_values())


def test_fallback_artifacts_match_their_digests(pinned, tmp_path, monkeypatch,
                                                masked_artifacts):
    monkeypatch.setenv("QPINN_THREADS", "1")
    _assert_digests(pinned["fallback"], fallback_digests(tmp_path, masked_artifacts))
