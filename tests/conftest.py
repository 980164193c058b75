import gc
import os
import sys

import pytest

from eqalg.model import Candidates

sys.path.insert(0, os.path.dirname(__file__))


def pytest_collection_modifyitems(items):
    """Make any warning a test of this suite raises an error, so a new one
    fails the suite.  It is set here, not in the pytest settings, since those
    apply to ``perfbench/tests`` as well, whose tests leave files unclosed."""
    here = os.path.dirname(os.path.abspath(__file__))
    for item in items:
        if os.path.dirname(str(item.path)) == here:
            item.add_marker(pytest.mark.filterwarnings("error"))


@pytest.fixture(autouse=True)
def _collector_left_enabled():
    """Fail a test that leaves the cycle collector disabled, so that one
    missed re-enable does not run the rest of the suite without it."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cycle collector disabled")


@pytest.fixture()
def decoded(monkeypatch):
    """The number of counter values each ``Candidates.decode`` call is given,
    in call order."""
    counts = []
    decode = Candidates.decode

    def counting(self, cands):
        counts.append(len(cands))
        return decode(self, cands)

    monkeypatch.setattr(Candidates, "decode", counting)
    return counts
