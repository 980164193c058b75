import gc
import os
import sys

import pytest

from eqalg.model import Candidates

sys.path.insert(0, os.path.dirname(__file__))


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
