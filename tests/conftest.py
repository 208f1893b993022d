"""The tier-1 hypothesis profile: every property draws the same examples on
every run, and a failure reproduces without an example database. Every test
must end with no BLAS pin held, so a tracker a test leaves open fails it
rather than a later test."""

import pytest
from hypothesis import settings

from evtrack import blas

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def no_blas_pin_left():
    yield
    assert blas._pins == 0, f"{blas._pins} BLAS pin(s) held after the test: a tracker left open"
