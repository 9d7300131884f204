import math

import pytest
from hypothesis import given, settings, strategies as st

from hardylab.errors import (
    LogPowerCapExceeded,
    MalformedPartition,
    NegativityDetected,
)
from hardylab.funcmodel import (
    PiecewiseFn,
    PowerLogAtom,
    antiderivative_atoms,
    atoms_value,
    collect_atoms,
    derivative,
    derivative_atoms,
    evaluate,
    is_nonincreasing,
    make_piecewise,
    scale,
)

INF = math.inf


def chi01():
    return make_piecewise([0, 1, INF], [[(1, 0, 0)], []])


class TestAtoms:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerLogAtom(math.nan, 0.0, 0)
        with pytest.raises(ValueError):
            PowerLogAtom(1.0, math.inf, 0)
        with pytest.raises(ValueError):
            PowerLogAtom(1.0, 0.0, -1)
        with pytest.raises(ValueError):
            PowerLogAtom(1.0, 0.0, 0.5)
        with pytest.raises(LogPowerCapExceeded):
            PowerLogAtom(1.0, 0.0, 9)

    def test_value(self):
        # x^-1/2 * ln x at x = e^2 is 2/e
        at = PowerLogAtom(1.0, -0.5, 1)
        assert at.value_at(math.e ** 2) == pytest.approx(0.7357588823428847, rel=1e-12)

    def test_collect_merges_and_drops(self):
        atoms = [PowerLogAtom(1, 0.5, 1), PowerLogAtom(2, 0.5, 1),
                 PowerLogAtom(-3, 0.5, 1), PowerLogAtom(1, 1.0, 0)]
        out = collect_atoms(atoms)
        assert out == (PowerLogAtom(1, 1.0, 0),)


class TestEvaluate:
    def test_characteristic(self):
        f = chi01()
        assert evaluate(f, 0.5) == 1.0
        assert evaluate(f, 2.0) == 0.0

    def test_breakpoint_uses_closing_piece(self):
        # pieces are (lo, hi]; the piece ending at the breakpoint wins
        assert evaluate(chi01(), 1.0) == 1.0

    def test_bad_point(self):
        for x in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                evaluate(chi01(), x)

    @given(k=st.integers(min_value=-20, max_value=20),
           x=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_homogeneous_in_coef_exact(self, k, x):
        # power-of-two scalings commute with IEEE rounding, so bit-exact
        lam = 2.0 ** k
        f = make_piecewise([0, 1, INF], [[(1.0, 0.5, 1)], [(1.0, -2.0, 0)]])
        assert evaluate(scale(f, lam), x) == lam * evaluate(f, x)

    @given(lam=st.floats(min_value=0.001, max_value=1000.0),
           x=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_homogeneous_in_coef(self, lam, x):
        # general scalings agree up to reassociation rounding (a few ulp)
        f = make_piecewise([0, 1, INF], [[(1.0, 0.5, 1)], [(1.0, -2.0, 0)]])
        got, want = evaluate(scale(f, lam), x), lam * evaluate(f, x)
        assert got == pytest.approx(want, rel=5e-16, abs=5e-300)


class TestMakePiecewise:
    def test_malformed(self):
        with pytest.raises(MalformedPartition):
            make_piecewise([0, 2, 1, INF], [[], [], []])
        with pytest.raises(MalformedPartition):
            make_piecewise([0.5, 1, INF], [[], []])
        with pytest.raises(MalformedPartition):
            make_piecewise([0, 1, 2], [[], []])
        with pytest.raises(MalformedPartition):
            make_piecewise([0, 1, INF], [[]])

    def test_negativity_detected(self):
        with pytest.raises(NegativityDetected):
            make_piecewise([0, 1, INF], [[(-1, 0, 0)], []], require_nonneg=True)

    def test_mixed_sign_nonneg_certified(self):
        # -ln x is positive on (0, 1) even though its only atom is negative
        f = make_piecewise([0, 1, INF], [[(-1, 0, 1)], []], require_nonneg=True)
        assert f.nonneg

    @pytest.mark.parametrize("piece", [
        [(1, 0, 0), (-2, 1, 0)],  # 1 - 2x < 0 past x = 1/2
        [(1, 0, 1)],              # ln x < 0 on (0, 1): odd log power
    ])
    def test_sampled_pieces_still_refused(self, piece):
        with pytest.raises(NegativityDetected):
            make_piecewise([0, 1, INF], [piece, []], require_nonneg=True)

    def test_positive_atoms_certified_without_sampling(self, monkeypatch):
        import hardylab.funcmodel as funcmodel

        def no_sampling(*args, **kwargs):
            raise AssertionError("piece was sampled")

        monkeypatch.setattr(funcmodel, "piece_samples", no_sampling)
        f = make_piecewise([0, 1, INF], [[(2, 0.5, 0), (1, -1, 2)], [(3, -2, 0)]],
                           require_nonneg=True)
        assert f.nonneg

    def test_step_family_member(self):
        eps = 0.25
        f = make_piecewise([0, 1, 1 + eps, INF], [[], [(1, 0, 0)], []])
        assert evaluate(f, 1.1) == 1.0
        assert evaluate(f, 0.9) == 0.0
        assert evaluate(f, 1.3) == 0.0


class TestCalculus:
    def test_antiderivative_basic(self):
        assert antiderivative_atoms(PowerLogAtom(1, 0, 0)) == [PowerLogAtom(1, 1, 0)]
        assert antiderivative_atoms(PowerLogAtom(1, -1, 0)) == [PowerLogAtom(1, 0, 1)]
        # integral of ln x is x ln x - x
        got = collect_atoms(antiderivative_atoms(PowerLogAtom(1, 0, 1)))
        assert got == (PowerLogAtom(-1, 1, 0), PowerLogAtom(1, 1, 1))

    def test_antiderivative_log_cap(self):
        with pytest.raises(LogPowerCapExceeded):
            antiderivative_atoms(PowerLogAtom(1, -1, 8))

    # The by-parts recurrence divides by a+1, so its coefficients grow like
    # k!/|a+1|**(k+1); near a = -1 (excluding -1 itself, which has an exact
    # log branch) the cancellation error exceeds the 1e-10 target for k up
    # to 3 unless |a+1| stays above ~0.05.
    exponents = st.floats(min_value=-3, max_value=3).filter(
        lambda a: a == -1.0 or abs(a + 1.0) > 0.05)

    @given(a=exponents,
           k=st.integers(min_value=0, max_value=3),
           c=st.floats(min_value=-5, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_antiderivative_differentiates_back(self, a, k, c):
        if abs(c) < 1e-3:
            c = 1.0
        self.check_differentiates_back(a, k, c)

    # a draw on which collect_atoms kept the 3.6e-12 residue of cancelling
    # by-parts terms before merged cancellations were dropped
    def test_antiderivative_differentiates_back_at_cancellation(self):
        self.check_differentiates_back(-0.9, 3, 3.092784016864693)

    @staticmethod
    def check_differentiates_back(a, k, c):
        atom = PowerLogAtom(c, a, k)
        back = collect_atoms(
            d for g in antiderivative_atoms(atom) for d in derivative_atoms(g)
        )
        # exponents pass through a+1 and back, so keys match up to rounding
        main = 0.0
        residuals = []
        for b in back:
            if b.log_power == k and abs(b.exponent - a) < 1e-9:
                main += b.coef
            else:
                residuals.append(b.coef)
        assert main == pytest.approx(c, rel=1e-12)
        # recurrence cross terms cancel up to floating rounding only
        assert all(abs(r) <= 1e-12 * abs(c) for r in residuals)

    def test_derivative_examples(self):
        phi = make_piecewise([0, 1, INF], [[(1, 0, 0), (-1, 1, 0)], []])
        d = derivative(phi)
        assert d.pieces[0] == (PowerLogAtom(-1, 0, 0),)
        assert d.pieces[1] == ()

        g = make_piecewise([0, 1, INF], [[], [(1, -1, 0)]])
        assert derivative(g).pieces[1] == (PowerLogAtom(-1, -2, 0),)

    def test_derivative_finite_difference(self):
        # x * ln x on (1, e), checked against central differences
        f = make_piecewise([0, 1, math.e, INF], [[], [(1, 1, 1)], []])
        d = derivative(f)
        h = 1e-6
        for x in (1.3, 1.9, 2.5):
            fd = (evaluate(f, x + h) - evaluate(f, x - h)) / (2 * h)
            assert atoms_value(d.pieces[1], x) == pytest.approx(fd, rel=1e-8)

    @given(a=exponents,
           k=st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_at_samples(self, a, k):
        self.check_roundtrip(a, k)

    # a draw whose round trip was off by 1.8e-9 relative at x = 0.9 before
    # merged cancellations were dropped
    def test_roundtrip_at_cancellation(self):
        self.check_roundtrip(-1.0703125, 3)

    @staticmethod
    def check_roundtrip(a, k):
        atom = PowerLogAtom(1.7, a, k)
        lifted = collect_atoms(antiderivative_atoms(atom))
        f = PiecewiseFn((0.0, INF), (lifted,))
        back = derivative(f)
        for x in (0.3, 0.9, 1.0, 2.7, 19.0):
            want = atom.value_at(x)
            got = atoms_value(back.pieces[0], x)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


class TestMonotone:
    def test_examples(self):
        assert is_nonincreasing(chi01())
        up = make_piecewise([0, 1, INF], [[(1, 1, 0)], []])
        assert not is_nonincreasing(up)
        root = make_piecewise([0, INF], [[(1, -0.5, 0)]])
        assert is_nonincreasing(root)

    def test_upward_jump_rejected(self):
        f = make_piecewise([0, 1, INF], [[(1, 0, 0)], [(2, -1, 0)]])
        assert not is_nonincreasing(f)
