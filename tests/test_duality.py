import functools
import math
import operator

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
    sample_grid,
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
    PowerLogAtom,
    evaluate,
    is_nonincreasing,
    make_piecewise,
    piece_index,
    scale,
)
from hardylab.norms import lp_norm
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
        d = check_equivalence(tent(), 2.0).to_dict()
        assert set(d) == {"max_pointwise_gap_monot1", "max_pointwise_gap_monot2",
                          "norm_gaps", "verdict"}


def point_gap(g, h, x, tol):
    """The relative gap of g and h at one x, by evaluate: the reference that
    duality._identity_gaps must reproduce exactly.

    A gap over tol is judged again against the sum of |atom values| of both
    sides at x; a max(|g(x)|, |h(x)|) below 1e-290 reads 0.
    """
    a, b = evaluate(g, x), evaluate(h, x)
    scale_ = max(abs(a), abs(b))
    if scale_ < 1e-290:
        return 0.0
    gap = abs(a - b) / scale_
    if gap > tol:  # magnitudes added left to right, as _column_sum adds them
        gap = abs(a - b) / functools.reduce(operator.add, (
            abs(at.value_at(x)) for k in (g, h) for at in k.pieces[piece_index(k, x)]), 0.0)
    return gap


def reference_gap(g, h, xs, tol):
    """(largest point_gap over xs, its first x), or (0.0, nan); a NaN gap
    is passed over, as g > gap is false for it."""
    gap, worst = 0.0, math.nan
    with np.errstate(all="ignore"):
        for x in xs:
            g_x = point_gap(g, h, x, tol)
            if g_x > gap:
                gap, worst = g_x, x
    return gap, worst


def assert_gap_matches_reference(g, h, xs, tol):
    [got] = duality._identity_gaps([(g, h)], xs, tol)
    assert repr(got) == repr(reference_gap(g, h, xs, tol))
    return got


def mollified_steps():
    steps = make_piecewise([0, 0.7, 2.5, INF], [[(2, 0, 0)], [(1, 0, 0)], []])
    return mollify(steps, 16)


def log_phi():
    """-ln x on (0, 1], 0 beyond: continuous, with log atoms in phi and in
    H*f for its density f = 1 on (0, 1]."""
    return make_piecewise([0, 1, INF], [[(-1, 0, 1)], []])


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


#: Points at which numpy's SIMD log differs from math.log in the last bit on
#: an AVX-512 machine; elsewhere they are ordinary points.
LOG_ULP_POINTS = [0.433748640123047, 0.5506272407425834, 0.8943116861684923,
                  0.9102321352797248, 0.9858826232559946, 1.1274698165540602,
                  1.212028229878076, 1.8653032823246631]


def assert_atom_values_are_value_at(fns, xs):
    v = duality._atom_values(fns, xs)
    with np.errstate(all="ignore"):
        for fn, rows in zip(fns, v):
            for x, row in zip(xs, rows):
                atoms = fn.pieces[piece_index(fn, x)]
                want = [float(at.value_at(x)) for at in atoms]
                assert repr(row.tolist()) == repr(want + [0.0] * (len(row) - len(want)))


class TestIdentityGap:
    """duality._identity_gaps against the point loop it replaced."""

    def test_atom_values_are_value_at(self):
        logs = make_piecewise([0, 1, 3, INF], [
            [(-1, 0, 1), (2, 0.5, 2)],
            [(1.5, -0.5, 1), (1, 3, 0)],
            [(1, 400, 0), (-2, -1.5, 1)],  # x**400 overflows past x ~ 5.9
        ])
        xs = np.array(sorted(LOG_ULP_POINTS + [2.0, 5.0, 10.0, 20.0]))
        assert_atom_values_are_value_at([logs, log_phi(), tent()], xs)

    @pytest.mark.parametrize("build", [
        tent, double_root_phi, mollified_steps, log_phi,
        lambda: fuzz_generate(FuzzConfig(seed=4, monotone=True)),
    ], ids=["tent", "double-root", "mollified-steps", "log-atoms", "fuzz"])
    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    def test_both_identities(self, build, tol):
        phi = build()
        f = phi_to_f(phi)
        xs = sample_grid(phi)
        assert_gap_matches_reference(
            funcmodel.subtract(hardy(phi), phi), hardy(f), xs, tol)
        assert_gap_matches_reference(f_to_phi(f), phi, xs, tol)

    def test_double_root_recheck(self):
        # past tol the plain gap divides by |phi| ~ 0 next to the root; the
        # recheck against the atoms' magnitudes must be the same as well
        phi = double_root_phi()
        back = scale(f_to_phi(phi_to_f(phi)), 1.0 + 1e-6)
        gap, _ = assert_gap_matches_reference(back, phi, sample_grid(phi), 1e-9)
        assert gap > 1e-7

    def test_scale_below_floor_reads_zero(self):
        g = make_piecewise([0, 1, INF], [[(1e-295, 0, 0)], [(1, -1, 0)]])
        h = make_piecewise([0, 1, INF], [[(3e-295, 0, 0)], [(1, -1, 0)]])
        assert assert_gap_matches_reference(g, h, sample_grid(g), 1e-9) == (0.0, math.nan)

    def test_nan_gap_passed_over(self):
        # x**400 overflows past x ~ 5.9: inf - inf is a NaN gap there, which
        # np.argmax would pick; the loop skips it for the finite gap at 0.5
        g = make_piecewise([0, 1, INF], [[(1, 0, 0)], [(1, 400, 0)]])
        h = make_piecewise([0, 1, INF], [[(1.5, 0, 0)], [(1, 400, 0)]])
        xs = np.array([0.5, 10.0, 20.0])
        gap, x = assert_gap_matches_reference(h, g, xs, 1e-9)
        assert x == 0.5 and gap == 0.5 / 2.5  # rechecked: over tol
        assert assert_gap_matches_reference(g, g, xs[1:], 1e-9) == (0.0, math.nan)

    @given(g=piecewise_fns(), h=piecewise_fns(),
           rel=st.sampled_from([None, 0.0, 1e-15, 1e-10]),
           wide=st.booleans(), tol=st.sampled_from([1e-9, 1e-12, 1e-3]))
    @settings(max_examples=200, deadline=None)
    def test_matches_point_loop(self, g, h, rel, wide, tol):
        # rel None compares two unrelated functions; otherwise h is g scaled
        # by 1 + rel, a near miss that exercises the recheck
        if rel is not None:
            h = scale(g, 1.0 + rel)
        xs = np.geomspace(1e-8, 1e8, 64) if wide else sample_grid(g)
        assert_gap_matches_reference(g, h, xs, tol)
        assert_atom_values_are_value_at([g, h], xs)


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
