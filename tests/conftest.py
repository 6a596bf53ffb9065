import os
import sys

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Mark a test whose body raised, so the acceptance suite's verdict line
    (printed at teardown) says FAIL for a failed assertion as well as for an
    exceeded time limit.  Pytest registers hooks from conftest files, not
    from test modules."""
    outcome = yield
    if call.when == "call" and call.excinfo is not None:
        item._acceptance_failed = True
    return outcome
