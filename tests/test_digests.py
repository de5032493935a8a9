"""Trained artifacts and verify reports pinned by digest across trees.

``artifact_digests.json`` holds the masked SHA-256 of each file of the CI
training profile (``qpinn train --runs 2 --epochs 200 --seed 6``, masked by
``masked_artifacts`` with the ``manifest`` too), of each ``qpinn verify
--out`` report of the four suites at seeds 0 and 5, and of each ``qpinn
resources --out`` report in ``RESOURCE_REPORTS``.  A refactor that claims
the same bits keeps these digests; a change that must move them says which
and why in CHANGES, with ``qpinn compare``'s report of the trained
artifacts, and its digests are then written from this module's
``train_digests``, ``verify_digests`` and ``resources_digests``, never to
hide an unexplained change.

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

from qpinn import cli, verify

DIGESTS = Path(__file__).with_name("artifact_digests.json")
CI_PROFILE = ["train", "--runs", "2", "--epochs", "200", "--seed", "6"]
VERIFY_SEEDS = (0, 5)
# every construction at L = 2 (D = 2, R = 1) under both native gate sets,
# but thm1 under cnot-single-qubit, which does not lower (a prepare gate)
RESOURCE_REPORTS = [(construction, native) for construction in ("prop1", "thm1", "thm2", "cor1")
                    for native in ("double-controlled", "cnot-single-qubit")
                    if (construction, native) != ("thm1", "cnot-single-qubit")]


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
