import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hardylab.cli import FuzzConfig, fuzz_generate
from hardylab.errors import (
    DivergentAtInfinity,
    DivergentAtZero,
    LogPowerCapExceeded,
    NotMonotone,
)
from hardylab.funcmodel import (
    PiecewiseFn,
    PowerLogAtom,
    _certify_nonneg,
    antiderivative_atoms,
    atoms_value,
    collect_atoms,
    dilate,
    evaluate,
    linear_combination,
    make_piecewise,
)
from hardylab.norms import CallableFn, numeric_dual_hardy, numeric_hardy
from hardylab.operators import (
    cumulative_integral,
    dual_hardy,
    hardy,
    hardy_minus_identity,
)

INF = math.inf


def chi01():
    return make_piecewise([0, 1, INF], [[(1, 0, 0)], []], require_nonneg=True)


def step(eps):
    return make_piecewise([0, 1, 1 + eps, INF], [[], [(1, 0, 0)], []],
                          require_nonneg=True)


class TestHardy:
    def test_characteristic(self):
        h = hardy(chi01())
        assert h.pieces[0] == (PowerLogAtom(1, 0, 0),)
        assert h.pieces[1] == (PowerLogAtom(1, -1, 0),)

    def test_step(self):
        eps = 0.01
        h = hardy(step(eps))
        # 0 below 1, then 1 - 1/x, then eps/x
        assert h.pieces[0] == ()
        assert evaluate(h, 1.005) == pytest.approx(1 - 1 / 1.005, rel=1e-14)
        assert evaluate(h, 5.0) == pytest.approx(eps / 5.0, rel=1e-12)

    def test_divergent_at_zero(self):
        f = make_piecewise([0, 1, INF], [[(1, -2, 0)], []])
        with pytest.raises(DivergentAtZero):
            hardy(f)

    def test_cumulative_integral(self):
        g = cumulative_integral(chi01())
        assert evaluate(g, 0.5) == 0.5
        assert evaluate(g, 4.0) == 1.0


class TestDualHardy:
    def test_characteristic(self):
        hs = dual_hardy(chi01())
        assert hs.pieces[0] == (PowerLogAtom(-1, 0, 1),)
        assert hs.pieces[1] == ()
        assert evaluate(hs, 0.25) == pytest.approx(-math.log(0.25), rel=1e-14)

    def test_step(self):
        eps = 0.01
        hs = dual_hardy(step(eps))
        assert evaluate(hs, 0.5) == pytest.approx(math.log1p(eps), rel=1e-12)
        x = 1.004
        assert evaluate(hs, x) == pytest.approx(math.log((1 + eps) / x), rel=1e-9)
        assert evaluate(hs, 2.0) == 0.0

    def test_divergent_at_infinity(self):
        f = make_piecewise([0, 1, INF], [[], [(1, 0, 0)]])
        with pytest.raises(DivergentAtInfinity):
            dual_hardy(f)


class TestDifference:
    def test_tent(self):
        phi = make_piecewise([0, 1, INF], [[(1, 0, 0), (-1, 1, 0)], []],
                             require_nonneg=True)
        d = hardy_minus_identity(phi)
        assert d.pieces[0] == (PowerLogAtom(0.5, 1, 0),)
        assert d.pieces[1] == (PowerLogAtom(0.5, -1, 0),)
        _certify_nonneg(d)

    def test_characteristic(self):
        d = hardy_minus_identity(chi01())
        assert d.pieces[0] == ()
        assert d.pieces[1] == (PowerLogAtom(1, -1, 0),)

    def test_constant_gives_zero(self):
        c = make_piecewise([0, INF], [[(3.5, 0, 0)]], require_nonneg=True)
        d = hardy_minus_identity(c)
        assert all(p == () for p in d.pieces)

    def test_not_monotone(self):
        up = make_piecewise([0, 1, INF], [[(1, 1, 0)], []])
        with pytest.raises(NotMonotone):
            hardy_minus_identity(up)


SAMPLE_XS = (0.07, 0.4, 1.0, 1.7, 3.2, 40.0)


class TestProperties:
    @pytest.mark.parametrize("seed", [3, 14, 159])
    def test_linearity(self, seed):
        f = fuzz_generate(FuzzConfig(seed=seed))
        g = fuzz_generate(FuzzConfig(seed=seed + 1000))
        alpha, beta = 0.7, 2.5
        lhs = hardy(linear_combination(f, g, alpha, beta))
        rhs_f, rhs_g = hardy(f), hardy(g)
        for x in SAMPLE_XS:
            want = alpha * evaluate(rhs_f, x) + beta * evaluate(rhs_g, x)
            assert evaluate(lhs, x) == pytest.approx(want, rel=1e-12)
        lhs = dual_hardy(linear_combination(f, g, alpha, beta))
        rhs_f, rhs_g = dual_hardy(f), dual_hardy(g)
        for x in SAMPLE_XS:
            want = alpha * evaluate(rhs_f, x) + beta * evaluate(rhs_g, x)
            assert evaluate(lhs, x) == pytest.approx(want, rel=1e-12, abs=1e-280)

    @pytest.mark.parametrize("lam", [0.25, 3.0])
    def test_dilation_covariance(self, lam):
        f = fuzz_generate(FuzzConfig(seed=77))
        f_lam = dilate(f, lam)
        h_dilated, h_plain = hardy(f_lam), hardy(f)
        hs_dilated, hs_plain = dual_hardy(f_lam), dual_hardy(f)
        for x in SAMPLE_XS:
            assert evaluate(h_dilated, x) == pytest.approx(
                evaluate(h_plain, lam * x), rel=1e-12)
            assert evaluate(hs_dilated, x) == pytest.approx(
                evaluate(hs_plain, lam * x), rel=1e-12, abs=1e-280)

    @pytest.mark.parametrize("seed", [5, 21])
    def test_nonnegativity_preserved(self, seed):
        f = fuzz_generate(FuzzConfig(seed=seed))
        for g in (hardy(f), dual_hardy(f)):
            _certify_nonneg(g)
            for x in np.geomspace(1e-3, 1e3, 64):
                assert evaluate(g, x) >= 0.0

    @pytest.mark.parametrize("seed", [11, 42])
    def test_oracle_equivalence(self, seed):
        f = fuzz_generate(FuzzConfig(seed=seed))
        first_exp = min((a.exponent for a in f.pieces[0]), default=0.0)
        fc = CallableFn(lambda x: evaluate(f, x),
                        singular_points=tuple(b for b in f.breakpoints
                                              if math.isfinite(b) and b > 0),
                        tail_exponent_hint=-1.5,
                        zero_exponent_hint=first_exp)
        grid = np.geomspace(1e-3, 1e3, 64)
        h_num = numeric_hardy(fc, grid)
        h_sym = hardy(f)
        for x in grid:
            assert h_num(x) == pytest.approx(evaluate(h_sym, x), rel=1e-8)
        d_num = numeric_dual_hardy(fc, grid)
        d_sym = dual_hardy(f)
        for x in grid:
            assert d_num(x) == pytest.approx(evaluate(d_sym, x),
                                             rel=1e-8, abs=1e-12)


class TestComposition:
    def test_dual_raises_log_power(self):
        # each dual application on a constant piece adds one ln power
        f = chi01()
        g = dual_hardy(f)
        assert max(a.log_power for a in g.pieces[0]) == 1
        g2 = dual_hardy(make_piecewise(g.breakpoints,
                                       [[(1, 0, 1)], []]))  # |ln| flavored input
        assert max(a.log_power for a in g2.pieces[0]) == 2

    def test_log_power_cap_enforced(self):
        f = chi01()
        with pytest.raises(LogPowerCapExceeded):
            for _ in range(9):
                f = dual_hardy(f)
                # keep it nonnegative for the next round: flip the sign of
                # the ln atom, which is negative on (0, 1)
                f = make_piecewise(
                    f.breakpoints,
                    [[(abs(a.coef), a.exponent, a.log_power) for a in piece]
                     for piece in f.pieces])


def _shift_exponent(atoms, delta):
    return tuple(PowerLogAtom(a.coef, a.exponent + delta, a.log_power) for a in atoms)


def shifted_hardy(f):
    """Hf as the cumulative integral with every exponent shifted by -1."""
    g = cumulative_integral(f)
    return PiecewiseFn(f.breakpoints,
                       tuple(_shift_exponent(piece, -1.0) for piece in g.pieces))


def negated_dual_hardy(f):
    """H*f built as shift, then antiderivative of f(t)/t, then negate: the
    piece is tail + g(hi) - g(x), which dual_hardy's antiderivative of
    -f(t)/t must reproduce bit for bit."""
    n = f.n_pieces
    pieces = [None] * n
    tail = 0.0
    for i in range(n - 1, -1, -1):
        lo, hi = f.breakpoints[i], f.breakpoints[i + 1]
        g = collect_atoms(a for at in _shift_exponent(f.pieces[i], -1.0)
                          for a in antiderivative_atoms(at))
        g_hi = 0.0 if math.isinf(hi) else atoms_value(g, hi)
        negated = (PowerLogAtom(-a.coef, a.exponent, a.log_power) for a in g)
        pieces[i] = collect_atoms((PowerLogAtom(tail + g_hi, 0.0, 0), *negated))
        if i > 0:
            tail += g_hi - atoms_value(g, lo)
    return PiecewiseFn(f.breakpoints, tuple(pieces))


#: Exponents that hit the special cases: 0 (H*f gains a log), -1 (Hf gains
#: a log) and neighbours of both, where 1/a or 1/(a + 1) is huge.
_SPECIAL_EXPONENTS = [0.0, 1e-9, -1e-9, -1.0, -1.0 + 1e-9, -1.0 - 1e-9, 2.0, -0.5]
_COEFS = st.floats(0.05, 20.0) | st.floats(-20.0, -0.05)
_LOG_POWERS = st.integers(0, 3)


def _atoms(exponents, min_size=0):
    return st.lists(st.tuples(_COEFS, exponents, _LOG_POWERS),
                    min_size=min_size, max_size=3)


@st.composite
def operator_inputs(draw):
    """f whose first piece is integrable at 0 and whose unbounded piece holds
    at least one atom, each decaying faster than 1/t; any signs and logs."""
    cuts = sorted(draw(st.lists(st.floats(0.05, 20.0), max_size=3, unique=True)))
    anywhere = st.sampled_from(_SPECIAL_EXPONENTS) | st.floats(-3.0, 3.0)
    first = _atoms(st.sampled_from([0.0, 1e-9, -1e-9, -0.5, 2.0])
                   | st.floats(-0.9, 3.0))
    last = _atoms(st.sampled_from([-1.0, -1.0 + 1e-9, -1.0 - 1e-9, -0.5, -1e-9])
                  | st.floats(-3.0, -0.01), min_size=1)
    pieces = [draw(first), *(draw(_atoms(anywhere)) for _ in cuts[1:]), draw(last)]
    if not cuts:
        pieces = [draw(_atoms(st.floats(-0.9, -0.01), min_size=1))]
    return make_piecewise([0.0, *cuts, INF], pieces)


class TestAgainstShiftThenNegate:
    """hardy and dual_hardy against the constructions they replaced, atom for
    atom: IEEE negation commutes with every step, so no bit may move."""

    @given(operator_inputs())
    @example(make_piecewise([0.0, 1.0, 2.0, INF], [
        [(2.0, 0.5, 1), (-1.5, 0.0, 0)],
        [(3.0, 0.0, 2), (-0.5, -1.0 + 1e-9, 0), (1.0, -1.0, 1)],
        [(1.5, -2.0, 1), (-0.25, -1.0 - 1e-9, 0)],
    ]))
    @settings(max_examples=300, deadline=None)
    def test_atom_for_atom(self, f):
        assert repr(dual_hardy(f)) == repr(negated_dual_hardy(f))
        assert repr(hardy(f)) == repr(shifted_hardy(f))
