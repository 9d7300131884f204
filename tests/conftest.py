import pytest

from hardylab import funcmodel, norms, verify


def clear_verify_caches():
    """Empties verify's three caches: the last f certified with its Hf, the
    last f with its H*f, and the last (f, p, tol) with its pair of norms."""
    for cached in (verify._certified_hardy, verify._dual, verify._norm_pair):
        cached.cache_clear()


@pytest.fixture(autouse=True)
def empty_verify_caches():
    """Empties verify's caches before every test.

    Each keeps its last arguments, compared by value; their cache_info()
    counts the hits and misses.  Without this, a test that patches
    verify.lp_norms, hardy or dual_hardy could be served an operator or a
    pair that an earlier test computed.
    """
    clear_verify_caches()


@pytest.fixture
def gk15_calls(monkeypatch):
    """Counts the GK15 segments that norms evaluates during the test.

    A batched call of n segments counts n.  Returns a function giving the
    count so far.
    """
    count = 0
    real = norms._gk15

    def counted(fn, reg, a, b):
        nonlocal count
        count += len(a)
        return real(fn, reg, a, b)

    monkeypatch.setattr(norms, "_gk15", counted)
    return lambda: count


@pytest.fixture
def gamma_tail_calls(monkeypatch):
    """Counts the incomplete-gamma remainder bounds (norms._log_gamma_tail)
    that norms evaluates for the log-coordinate ends during the test.

    Returns a function giving the count so far.
    """
    count = 0
    real = norms._log_gamma_tail

    def counted(*args):
        nonlocal count
        count += 1
        return real(*args)

    monkeypatch.setattr(norms, "_log_gamma_tail", counted)
    return lambda: count


@pytest.fixture
def piece_samples_calls(monkeypatch):
    """Counts the calls of funcmodel.piece_samples during the test.

    Each call is one piece that a sign or monotonicity check sampled on a
    grid rather than deciding at its critical points.  Returns a function
    giving the count so far.
    """
    count = 0
    real = funcmodel.piece_samples

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(funcmodel, "piece_samples", counted)
    return lambda: count


@pytest.fixture
def evaluator_calls(monkeypatch):
    """Counts the calls of the integrand evaluators that norms compiles.

    Returns a function giving the count so far.
    """
    count = 0
    real = norms._compile

    def compile_counted(pis):
        fn = real(pis)

        def counted(reg, nodes):
            nonlocal count
            count += 1
            return fn(reg, nodes)

        return counted

    monkeypatch.setattr(norms, "_compile", compile_counted)
    return lambda: count



@pytest.fixture
def atoms_built(monkeypatch):
    """Counts the PowerLogAtoms constructed during the test, each one
    validated by __post_init__.

    Returns a function giving the count so far.
    """
    count = 0
    real = funcmodel.PowerLogAtom.__post_init__

    def counted(self):
        nonlocal count
        count += 1
        real(self)

    monkeypatch.setattr(funcmodel.PowerLogAtom, "__post_init__", counted)
    return lambda: count
