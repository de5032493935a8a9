"""Shared test configuration.

Every property test runs derandomized, without an example database and
without a deadline, so the suite is deterministic and its timing free;
each test states only its own ``max_examples``.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
