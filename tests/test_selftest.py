"""The `evtrack selftest` oracle checks, run under pytest.

`scan_blocking_no_regression` is left out: it compares two wall-clock
timings and would make this suite flaky; `evtrack selftest` still runs it.
"""

import pytest

from evtrack.selftest import CHECKS

TIMING_CHECKS = {"scan_blocking_no_regression"}


@pytest.mark.parametrize("name, check",
                         [c for c in CHECKS if c[0] not in TIMING_CHECKS],
                         ids=[name for name, _ in CHECKS if name not in TIMING_CHECKS])
def test_selftest_check(name, check):
    check()


def test_only_timing_checks_are_left_out():
    assert TIMING_CHECKS <= {name for name, _ in CHECKS}
