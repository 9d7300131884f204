import math

import numpy as np
import pytest

from hardylab.cli import FuzzConfig, fuzz_generate
from hardylab.duality import (
    check_equivalence,
    f_to_phi,
    has_jumps,
    mollify,
    phi_to_f,
    sample_grid,
)
from hardylab.errors import (
    EquivalenceViolated,
    JumpDiscontinuity,
    NoDecayAtInfinity,
    NotMonotone,
    NotRepresentable,
)
from hardylab.funcmodel import (
    PowerLogAtom,
    evaluate,
    is_nonincreasing,
    make_piecewise,
    scale,
)
from hardylab.norms import lp_norm

INF = math.inf


def chi01():
    return make_piecewise([0, 1, INF], [[(1, 0, 0)], []], require_nonneg=True)


#: A continuous piecewise-quadratic phi whose last piece has a double root at
#: its right breakpoint 4.0546..., and the p it was checked at.
DOUBLE_ROOT_PIECES = [
    [(17.43689913664931, 0, 0), (-10.83033863275719, 1, 0),
     (1.6843428871825918, 2, 0)],
    [(17.134849309160845, 0, 0), (-10.421556865787775, 1, 0),
     (1.6843428871825918, 2, 0)],
    [(10.931183312968294, 0, 0), (-5.391981599285704, 1, 0),
     (0.6649203643978803, 2, 0)],
    [],
]
DOUBLE_ROOT_BREAKS = [0.0, 0.7389023970608279, 2.4668747031226075, 4.054607053709674,
                      INF]
DOUBLE_ROOT_P = 2.2039373996298326


def double_root_phi():
    return make_piecewise(DOUBLE_ROOT_BREAKS, DOUBLE_ROOT_PIECES)


def tent():
    return make_piecewise([0, 1, INF], [[(1, 0, 0), (-1, 1, 0)], []],
                          require_nonneg=True)


class TestPhiToF:
    def test_tent(self):
        f = phi_to_f(tent())
        assert f.pieces[0] == (PowerLogAtom(1, 1, 0),)
        assert f.pieces[1] == ()

    def test_continuous_power_tail(self):
        # phi = 1 on (0,1], x^-1 after: continuous at 1, density u^-1 there
        phi = make_piecewise([0, 1, INF], [[(1, 0, 0)], [(1, -1, 0)]],
                             require_nonneg=True)
        f = phi_to_f(phi)
        assert f.pieces[0] == ()
        assert f.pieces[1] == (PowerLogAtom(1, -1, 0),)

    def test_step_rejected(self):
        with pytest.raises(JumpDiscontinuity) as exc:
            phi_to_f(chi01())
        assert exc.value.x == 1.0

    def test_not_monotone(self):
        with pytest.raises(NotMonotone):
            phi_to_f(make_piecewise([0, 1, INF], [[(1, 1, 0)], []]))

    def test_no_decay(self):
        const = make_piecewise([0, INF], [[(1, 0, 0)]], require_nonneg=True)
        with pytest.raises(NoDecayAtInfinity):
            phi_to_f(const)


class TestFToPhi:
    def test_linear_density(self):
        f = make_piecewise([0, 1, INF], [[(1, 1, 0)], []], require_nonneg=True)
        phi = f_to_phi(f)
        for x in (0.2, 0.7, 1.0):
            assert evaluate(phi, x) == pytest.approx(1 - x, abs=1e-14)
        assert evaluate(phi, 3.0) == 0.0

    def test_zero(self):
        z = make_piecewise([0, INF], [[]])
        phi = f_to_phi(z)
        assert all(p == () for p in phi.pieces)

    @pytest.mark.parametrize("seed", [4, 44, 444])
    def test_roundtrip_phi_first(self, seed):
        phi = fuzz_generate(FuzzConfig(seed=seed, monotone=True))
        back = f_to_phi(phi_to_f(phi))
        for x in sample_grid(phi):
            assert evaluate(back, x) == pytest.approx(
                evaluate(phi, x), rel=1e-9, abs=1e-280)

    @pytest.mark.parametrize("seed", [6, 66])
    def test_roundtrip_f_first(self, seed):
        f = fuzz_generate(FuzzConfig(seed=seed))
        back = phi_to_f(f_to_phi(f))
        for x in sample_grid(f):
            assert evaluate(back, x) == pytest.approx(
                evaluate(f, x), rel=1e-9, abs=1e-280)


class TestMollify:
    def test_step_window(self):
        m = mollify(chi01(), 4)
        assert m.breakpoints == (0.0, 0.75, 1.0, INF)
        assert evaluate(m, 0.5) == 1.0
        assert evaluate(m, 0.9) == pytest.approx(4 * (1 - 0.9), rel=1e-12)
        assert evaluate(m, 1.5) == 0.0

    def test_constant_fixed_point(self):
        c = make_piecewise([0, INF], [[(2.5, 0, 0)]], require_nonneg=True)
        m = mollify(c, 7)
        for x in (0.1, 1.0, 40.0):
            assert evaluate(m, x) == pytest.approx(2.5, rel=1e-13)

    def test_power_pieces_rejected(self):
        root = make_piecewise([0, INF], [[(1, -0.5, 0)]], require_nonneg=True)
        with pytest.raises(NotRepresentable):
            mollify(root, 4)

    def test_not_monotone(self):
        with pytest.raises(NotMonotone):
            mollify(make_piecewise([0, 1, INF], [[(1, 1, 0)], []]), 4)

    def test_below_and_increasing_in_n(self):
        phi = chi01()
        m4, m5 = mollify(phi, 4), mollify(phi, 5)
        for x in np.geomspace(0.01, 10, 100):
            a, b, c = evaluate(m4, x), evaluate(m5, x), evaluate(phi, x)
            assert a <= b + 1e-12
            assert b <= c + 1e-12
        assert is_nonincreasing(m4)
        assert not has_jumps(m4)

    def test_pointwise_convergence(self):
        # continuous phi: phi_n -> phi everywhere
        phi = tent()
        for x in (0.2, 0.5, 0.95):
            gaps = [abs(evaluate(mollify(phi, n), x) - evaluate(phi, x))
                    for n in (4, 16, 64, 256)]
            assert gaps == sorted(gaps, reverse=True)
            assert gaps[-1] < 1e-2

    def test_norm_transport(self):
        phi = chi01()
        n_phi = lp_norm(phi, 2.0)
        n_moll = lp_norm(mollify(phi, 1024), 2.0)
        assert n_moll.value <= n_phi.value
        assert (n_phi.value - n_moll.value) / n_phi.value < 0.01


class TestCheckEquivalence:
    def test_tent(self):
        rep = check_equivalence(tent(), 2.0)
        assert rep.verdict == "pass"
        assert rep.max_gap_difference_identity < 1e-12
        assert rep.max_gap_dual_identity < 1e-12

    def test_power_tail(self):
        phi = make_piecewise([0, 1, INF], [[(1, 0, 0)], [(1, -0.5, 0)]],
                             require_nonneg=True)
        rep = check_equivalence(phi, 3.0)
        assert rep.verdict == "pass"
        # density is u * |phi'| = 0.5 x^-1/2 on the tail
        f = phi_to_f(phi)
        assert f.pieces[1] == (PowerLogAtom(0.5, -0.5, 0),)

    def test_zero_trivial(self):
        z = make_piecewise([0, INF], [[]])
        rep = check_equivalence(z, 2.0)
        assert rep.verdict == "pass"

    def test_double_root_passes(self):
        # phi's last piece has a double root at its right breakpoint: the
        # plain relative gap divides by |phi| ~ 0 there and reads the
        # rounding of the expanded quadratic as a violation.  phi has no
        # jumps, so this is the check `hardylab duality` runs (--tol 1e-9).
        phi = double_root_phi()
        assert not has_jumps(phi)
        rep = check_equivalence(phi, DOUBLE_ROOT_P, tol=1e-9)
        assert rep.verdict == "pass"
        assert rep.max_gap_dual_identity < 1e-12

    def test_real_defect_still_raises(self, monkeypatch):
        from hardylab import duality

        real = duality.f_to_phi
        monkeypatch.setattr(duality, "f_to_phi",
                            lambda f: scale(real(f), 1.0 + 1e-6))
        for phi, p in ((tent(), 2.0), (double_root_phi(), DOUBLE_ROOT_P)):
            with pytest.raises(EquivalenceViolated) as exc:
                check_equivalence(phi, p, tol=1e-9)
            assert exc.value.gap > 1e-7

    def test_report_schema(self):
        d = check_equivalence(tent(), 2.0).to_dict()
        assert set(d) == {"max_pointwise_gap_monot1", "max_pointwise_gap_monot2",
                          "norm_gaps", "verdict"}
