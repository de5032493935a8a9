"""Shared test configuration.

Every property test runs derandomized, without an example database and
without a deadline, so the suite is deterministic and its timing free;
each test states only its own ``max_examples``.

``masked_artifacts`` reads a ``qpinn train`` output directory with the
fields that differ between any two runs of one config masked, by
``qpinn.artifacts.masked_artifacts``, the one place that names them; a test
masks more ``summary.json`` keys only by naming them itself.
"""
import pytest
from hypothesis import settings

from qpinn.artifacts import masked_artifacts as _masked_artifacts

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def masked_artifacts():
    return _masked_artifacts
