import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardylab import duality, funcmodel, operators
from hardylab.cli import FuzzConfig, fuzz_generate
from hardylab.duality import (
    check_equivalence,
    f_to_phi,
    has_jumps,
    mollify,
    phi_to_f,
)
from hardylab.errors import (
    BadExponent,
    BadTolerance,
    EquivalenceViolated,
    JumpDiscontinuity,
    NoDecayAtInfinity,
    NotMonotone,
    NotRepresentable,
)
from hardylab.funcmodel import (
    PiecewiseFn,
    PowerLogAtom,
    evaluate,
    is_nonincreasing,
    make_piecewise,
    piece_index,
    scale,
)
from hardylab.norms import DEFAULT_TOL, lp_norm
from hardylab.operators import hardy

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
        assert duality._identity_gap(back, phi)[0] < 1e-9

    @pytest.mark.parametrize("seed", [6, 66])
    def test_roundtrip_f_first(self, seed):
        f = fuzz_generate(FuzzConfig(seed=seed))
        back = phi_to_f(f_to_phi(f))
        assert duality._identity_gap(back, f)[0] < 1e-9


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

    def test_bad_tol_and_exponent_refused_as_given(self):
        # the tol the caller gave is named, not the quadrature tol derived from it
        with pytest.raises(BadTolerance, match="-1.0"):
            check_equivalence(tent(), 2.0, -1.0)
        with pytest.raises(BadExponent, match="exceed 1"):
            check_equivalence(tent(), 1.0)

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
        rep = check_equivalence(tent(), 2.0)
        d = rep.to_dict()
        assert set(d) == {"max_pointwise_gap_monot1", "max_pointwise_gap_monot2",
                          "norm_gaps", "norm_budgets", "verdict"}
        assert d["norm_budgets"] == [rep.norm_budget_difference, rep.norm_budget_phi]

    def test_narrow_piece_defect_raises(self, monkeypatch):
        # a 1e-6 relative defect on (1, 1 + 1e-6] holds no point of a
        # log-spaced sample grid, and its norm gap hides in the budget; the
        # atoms of that piece show it
        phi = make_piecewise([0, 1, 1 + 1e-6, 2, INF],
                             [[(2, 0, 0), (-1, 1, 0)]] * 3 + [[]])
        assert check_equivalence(phi, 2.0).verdict == "pass"
        real = duality.f_to_phi
        monkeypatch.setattr(duality, "f_to_phi",
                            lambda f: perturbed(real(f), 1e-6, pieces={1}))
        with pytest.raises(EquivalenceViolated, match=r"dual identity on \(1.0, ") as exc:
            check_equivalence(phi, 2.0)
        assert exc.value.gap > 1e-7
        assert exc.value.x == 1.0

    def test_exponent_rounding_passes(self):
        # H*f's tail exponent is (-1.3) + 1 != -0.3: exact keys would not
        # match it to phi's
        phi = pow_tail()
        assert f_to_phi(phi_to_f(phi)).pieces[1][0].exponent != -0.3
        rep = check_equivalence(phi, 4.0)
        assert 0.0 < rep.max_gap_dual_identity < 1e-10
        assert rep.max_gap_difference_identity < 1e-10

    @pytest.mark.parametrize("delta", [3e-8, 1e-10, 3e-12])
    def test_slope_change_at_breakpoint_passes(self, delta):
        # the slope of phi changes by a relative delta at 1, so the x**-1
        # constant of H(phi) - phi on (1, 2] is a rounded residue of order
        # delta; it is small next to that piece's x atoms, not a defect
        phi = make_piecewise([0, 1, 2, INF], [
            [(2 + delta, 0, 0), (-1 - delta, 1, 0)], [(2, 0, 0), (-1, 1, 0)], []])
        rep = check_equivalence(phi, 2.0)
        assert rep.max_gap_difference_identity < 1e-14
        assert rep.max_gap_dual_identity < 1e-14

    def test_fuzz_monotone_gaps(self):
        for seed in range(50):
            rep = check_equivalence(fuzz_generate(FuzzConfig(seed=seed, monotone=True)), 2.0)
            assert rep.max_gap_difference_identity < 1e-10
            assert rep.max_gap_dual_identity < 1e-10

    def test_default_tol_is_the_cli_default(self):
        default = inspect.signature(check_equivalence).parameters["tol"].default
        assert default == DEFAULT_TOL == 1e-9


def mollified_steps():
    steps = make_piecewise([0, 0.7, 2.5, INF], [[(2, 0, 0)], [(1, 0, 0)], []])
    return mollify(steps, 16)


def log_phi():
    """-ln x on (0, 1], 0 beyond: continuous, with log atoms in phi and in
    H*f for its density f = 1 on (0, 1]."""
    return make_piecewise([0, 1, INF], [[(-1, 0, 1)], []])


def pow_tail():
    """1 on (0, 1], x**-0.3 beyond: H*f's tail exponent is (-1.3) + 1, which
    is not -0.3 in doubles."""
    return make_piecewise([0, 1, INF], [[(1, 0, 0)], [(1, -0.3, 0)]])


def perturbed(g, rel=0.0, ulps=0, pieces=None):
    """g with the coefficients of the given pieces (all by default) times
    1 + rel and their exponents moved up by ulps units in the last place."""
    def atom(at):
        a = at.exponent
        for _ in range(ulps):
            a = math.nextafter(a, INF)
        return PowerLogAtom(at.coef * (1.0 + rel), a, at.log_power)
    return PiecewiseFn(g.breakpoints, tuple(
        tuple(map(atom, atoms)) if pieces is None or i in pieces else atoms
        for i, atoms in enumerate(g.pieces)))


_COEFS = st.one_of(
    st.floats(0.1, 10.0),
    st.floats(-10.0, -0.1),
    st.sampled_from([1e-295, -3e-296, 1e200, -1e200]),
)
_EXPONENTS = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-3.0, 3.0),
    st.sampled_from([400.0, -400.0, 60.0]),
)
_ATOMS = st.lists(st.tuples(_COEFS, _EXPONENTS, st.integers(0, 2)), max_size=3)


@st.composite
def piecewise_fns(draw):
    cuts = draw(st.lists(st.floats(0.05, 20.0), max_size=3, unique=True))
    bps = [0.0, *sorted(cuts), INF]
    return make_piecewise(bps, [draw(_ATOMS) for _ in bps[1:]])


def atom_values(fn, x):
    return [at.value_at(x) for at in fn.pieces[piece_index(fn, x)]]


class TestIdentityGap:
    """duality._identity_gap: a bound on the relative gap at every x."""

    @pytest.mark.parametrize("build", [
        tent, double_root_phi, mollified_steps, log_phi,
        lambda: fuzz_generate(FuzzConfig(seed=4, monotone=True)),
    ], ids=["tent", "double-root", "mollified-steps", "log-atoms", "fuzz"])
    @pytest.mark.parametrize("rel", [1e-9, 0.0])
    def test_both_identities(self, build, rel):
        # both identities hold to rounding; a defect of rel planted in phi
        # reads as rel / (2 + rel), the gap of its atoms against phi_back's
        phi = build()
        f = phi_to_f(phi)
        gap1, _, _ = duality._identity_gap(
            funcmodel.subtract(hardy(phi), phi), hardy(f))
        assert gap1 < 1e-10
        gap2, _, _ = duality._identity_gap(f_to_phi(f), perturbed(phi, rel))
        assert rel / 2.1 - 1e-10 <= gap2 < rel / 2 + 1e-10

    def test_double_root_recheck(self):
        # next to the double root both sides vanish but no value is divided
        # by: the defect is read from the atoms, on the piece that holds it
        phi = double_root_phi()
        back = perturbed(f_to_phi(phi_to_f(phi)), 1e-6, pieces={2})
        gap, lo, hi = duality._identity_gap(back, phi)
        assert gap > 1e-7
        assert (lo, hi) == tuple(DOUBLE_ROOT_BREAKS[2:4])

    def test_exponent_rounding_grouped(self):
        # exponents a few ulps apart are one group: its gap is the spread
        # times the largest |ln x| of the piece, 745 on (1, inf)
        phi = pow_tail()
        nudged = perturbed(phi, ulps=2)
        gap, lo, hi = duality._identity_gap(nudged, phi)
        spread = nudged.pieces[1][0].exponent - phi.pieces[1][0].exponent
        assert (gap, lo, hi) == (spread * 745.0, 1.0, INF)
        # at 40 ulps the exponents are too far apart to be one group
        assert duality._identity_gap(perturbed(phi, ulps=40), phi)[0] == 1.0

    def test_small_residue_judged_against_all_atoms(self):
        # the x**-1 coefficients differ by 1e-16 absolute, a relative 5e-9 of
        # their own size, but on (1, 2] the x atoms are at least 1e8 times
        # larger: the gap is that residue against both, at most 1e-16 / 1
        g = make_piecewise([0, 1, 2, INF], [[], [(1e-8, -1, 0), (0.5, 1, 0)], []])
        h = make_piecewise([0, 1, 2, INF], [[], [(1e-8 + 1e-16, -1, 0), (0.5, 1, 0)], []])
        gap, lo, hi = duality._identity_gap(g, h)
        assert 0.0 < gap <= 1e-16 and (lo, hi) == (1.0, 2.0)
        # on (0, 1] the x**-1 atom dominates near 0, so the residue counts
        # in full against its own size
        g0, h0 = (make_piecewise([0, 1, INF], [atoms, []]) for atoms in (
            [(1e-8, -1, 0), (0.5, 1, 0)], [(1e-8 + 1e-16, -1, 0), (0.5, 1, 0)]))
        assert duality._identity_gap(g0, h0)[0] == pytest.approx(1e-16 / 2e-8, rel=1e-6)

    @given(g=piecewise_fns(), h=piecewise_fns(),
           rel=st.sampled_from([None, 0.0, 1e-15, 1e-10]),
           ulps=st.integers(0, 4))
    @settings(max_examples=200, deadline=None)
    def test_bounds_point_loop(self, g, h, rel, ulps):
        # rel None compares two unrelated functions; otherwise h is g with
        # coefficients scaled by 1 + rel and exponents moved by ulps.  At
        # every point where the atom values are finite and not all tiny,
        # |g - h| over the sum of |atom values| stays within the certified
        # gap, up to the rounding of the values themselves
        if rel is not None:
            h = perturbed(g, rel, ulps)
        gap, _, _ = duality._identity_gap(g, h)
        for x in np.geomspace(1e-8, 1e8, 64).tolist():
            vg, vh = atom_values(g, x), atom_values(h, x)
            mag = sum(map(abs, vg + vh))
            if 1e-280 < mag < INF:
                assert abs(sum(vg) - sum(vh)) / mag <= gap + 1e-14


#: PowerLogAtoms that check_equivalence builds for double_root_phi(), in
#: phi_to_f, hardy(phi) - phi, hardy(f) and f_to_phi(f); an atom that one of
#: them passes on unchanged is not built again.
ATOMS_BUILT_DOUBLE_ROOT = 87


class TestCheckEquivalenceWork:
    def test_one_pass_no_pointwise_evaluate(self, monkeypatch, atoms_built):
        evaluated, certified = [], []
        real_eval, real_mono = funcmodel.evaluate, funcmodel.is_nonincreasing
        for mod in (funcmodel, operators, duality):
            if getattr(mod, "evaluate", None) is real_eval:
                monkeypatch.setattr(mod, "evaluate",
                                    lambda f, x: evaluated.append(x) or real_eval(f, x))
            if getattr(mod, "is_nonincreasing", None) is real_mono:
                monkeypatch.setattr(mod, "is_nonincreasing",
                                    lambda f: certified.append(f) or real_mono(f))
        phi = double_root_phi()
        before = atoms_built()
        check_equivalence(phi, DOUBLE_ROOT_P, tol=1e-9)
        assert evaluated == []
        assert [f is phi for f in certified] == [True]
        assert atoms_built() - before == ATOMS_BUILT_DOUBLE_ROOT
