import gc
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _collector_left_enabled():
    """Fail a test that leaves the cycle collector disabled, so that one
    missed re-enable does not run the rest of the suite without it."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cycle collector disabled")
