"""Shared test configuration.

Every property test runs derandomized, without an example database and
without a deadline, so the suite is deterministic and its timing free;
each test states only its own ``max_examples``.

``masked_artifacts`` reads a ``qpinn train`` output directory with the
fields that differ between any two runs of one config masked, the one
place that names them; a test masks more ``summary.json`` keys only by
naming them itself.
"""
import json
import re
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def _masked_artifacts(root, also=()) -> dict:
    """Every file under ``root`` by relative path, as text with the run's
    volatile fields masked: the ``wall_ms`` column of the run CSVs, and the
    timestamp and ``config.out_dir`` of ``summary.json``, with its
    top-level keys named in ``also``."""
    root, out = Path(root), {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        text = path.read_text()
        if path.name == "summary.json":
            doc = json.loads(text)
            doc["metadata"]["timestamp"] = doc["config"]["out_dir"] = "*"
            doc.update(dict.fromkeys(also, "*"))
            text = json.dumps(doc, indent=2)
        elif path.parent.name == "runs" and path.suffix == ".csv":
            text = re.sub(r",[^,\n]*$", ",*", text, flags=re.MULTILINE)
        out[path.relative_to(root).as_posix()] = text
    return out


@pytest.fixture
def masked_artifacts():
    return _masked_artifacts
