import pytest

from hardylab import norms


@pytest.fixture
def gk15_calls(monkeypatch):
    """Counts the GK15 segments that norms evaluates during the test.

    Returns a function giving the count so far.
    """
    count = 0
    real = norms._gk15

    def counted(fn, a, b):
        nonlocal count
        count += 1
        return real(fn, a, b)

    monkeypatch.setattr(norms, "_gk15", counted)
    return lambda: count
