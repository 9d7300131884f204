import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardylab.cli import FuzzConfig, function_to_dsl, fuzz_generate, parse_function_spec
from hardylab.duality import mollify
from hardylab.errors import (
    LogPowerCapExceeded,
    MalformedPartition,
    NegativityDetected,
    NotRepresentable,
)
from hardylab.funcmodel import (
    LOG_POWER_CAP,
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
    piece_samples,
    scale,
    subtract,
)

INF = math.inf


def chi01():
    return make_piecewise([0, 1, INF], [[(1, 0, 0)], []])


def between_samples() -> float:
    """A point of (1, 2] halfway between two of its 128 grid samples."""
    xs = piece_samples(1, 2, 128)
    return math.sqrt(xs[60] * xs[61])


def poly_phi(terms):
    """The sum of w*(b-x)**d on (0, b] over the terms (w, b, d), one
    polynomial piece between consecutive b."""
    cuts = sorted({b for _, b, _ in terms})
    pieces = []
    for hi in cuts:
        poly = [0.0, 0.0, 0.0]
        for w, b, d in terms:
            if b >= hi:
                for j in range(d + 1):
                    poly[j] += w * math.comb(d, j) * b ** (d - j) * (-1) ** j
        pieces.append([(c, j, 0) for j, c in enumerate(poly) if c != 0.0])
    return make_piecewise([0.0, *cuts, INF], pieces + [[]])


def reflect_piece(phi):
    """phi with its first nonconstant piece mirrored about its value at an
    inner point x0, as 2*phi(x0) - phi: increasing there, and still without
    an upward jump, so only the piece check can refuse it."""
    i = next(i for i, piece in enumerate(phi.pieces)
             if any(at.exponent != 0.0 or at.log_power for at in piece))
    lo, hi = phi.breakpoints[i], phi.breakpoints[i + 1]
    x0 = lo + 1.0 if math.isinf(hi) else 0.5 * (lo + hi)
    pieces = list(phi.pieces)
    pieces[i] = [(2.0 * atoms_value(phi.pieces[i], x0), 0, 0)] + [
        (-at.coef, at.exponent, at.log_power) for at in phi.pieces[i]]
    return make_piecewise(phi.breakpoints, pieces)


class TestAtoms:
    def test_atoms_value_adds_left_to_right(self):
        # builtin sum compensates from Python 3.12 on and would give 1.0
        atoms = [PowerLogAtom(1e16, 0.0), PowerLogAtom(1.0, 1.0), PowerLogAtom(-1e16, 2.0)]
        assert repr(atoms_value(atoms, 1.0)) == "0.0"
        f = make_piecewise([0, INF], [atoms])
        assert f.pieces == (tuple(atoms),)
        assert repr(evaluate(f, 1.0)) == "0.0"

    def test_validation(self):
        # every check holds for exactly typed fields, which skip coercion
        for fields, error in [
            ((math.nan, 0.0, 0), NotRepresentable),
            ((1.0, math.inf, 0), NotRepresentable),
            ((-math.inf, 0.0, 0), NotRepresentable),
            ((1.0, math.nan, 0), NotRepresentable),
            ((1.0, 0.0, -1), ValueError),
            ((1.0, 0.0, 0.5), ValueError),
            ((1.0, 0.0, 1.5), ValueError),
            ((1.0, 0.0, LOG_POWER_CAP + 1), LogPowerCapExceeded),
        ]:
            with pytest.raises(error) as exc:
                PowerLogAtom(*fields)
            assert exc.type is error

    @pytest.mark.parametrize("fields, want", [
        ((np.float64(2.5), 1, 0), (2.5, 1.0, 0)),
        ((3, np.float64(-0.5), 2.0), (3.0, -0.5, 2)),
        ((1.0, 0.0, True), (1.0, 0.0, 1)),
        ((1.0, 0.0, np.int64(LOG_POWER_CAP)), (1.0, 0.0, LOG_POWER_CAP)),
    ])
    def test_fields_coerced(self, fields, want):
        at = PowerLogAtom(*fields)
        got = (at.coef, at.exponent, at.log_power)
        assert got == want
        assert tuple(map(type, got)) == (float, float, int)

    def test_value(self):
        # x^-1/2 * ln x at x = e^2 is 2/e
        at = PowerLogAtom(1.0, -0.5, 1)
        assert at.value_at(math.e ** 2) == pytest.approx(0.7357588823428847, rel=1e-12)

    @pytest.mark.parametrize("coef, k, want", [
        (1.0, 1, -INF), (-2.0, 1, INF), (1.0, 3, -INF), (3.0, 2, INF), (-1.0, 0, -INF),
    ])
    def test_overflow_same_for_float_and_numpy(self, coef, k, want):
        # 0.1**-400 overflows: a Python float raises, a numpy scalar gives inf;
        # both then take ln(0.1)**k, which is negative for odd k
        at = PowerLogAtom(coef, -400.0, k)
        with np.errstate(over="ignore"):
            got = at.value_at(np.float64(0.1))
        assert at.value_at(0.1) == got == want

    def test_collect_merges_and_drops(self):
        atoms = [PowerLogAtom(1, 0.5, 1), PowerLogAtom(2, 0.5, 1),
                 PowerLogAtom(-3, 0.5, 1), PowerLogAtom(1, 1.0, 0)]
        out = collect_atoms(atoms)
        assert out == (PowerLogAtom(1, 1.0, 0),)

    def test_collect_keeps_lone_atoms(self):
        lone = PowerLogAtom(2.0, 1.0, 0)
        out = collect_atoms([PowerLogAtom(1.0, 0.5, 1), lone, PowerLogAtom(3.0, 0.5, 1)])
        assert out == (PowerLogAtom(4.0, 0.5, 1), lone)
        assert out[1] is lone

    @pytest.mark.parametrize("coef", [2.0, -1e-300, 1e-301, 0.0])
    def test_collect_one_atom_without_grouping(self, coef, monkeypatch):
        # one atom needs no merge: it comes back as it is, or is dropped
        # below COEF_FLOOR, whether given in a list or a generator
        lone = PowerLogAtom(coef, 0.5, 1)
        monkeypatch.setattr("builtins.sorted", None)  # the grouping path sorts
        for given in ([lone], (at for at in [lone])):
            out = collect_atoms(given)
            assert out == ((lone,) if abs(coef) >= 1e-300 else ())
            assert not out or out[0] is lone
        assert collect_atoms([]) == collect_atoms(iter(())) == ()

    def test_unit_factor_atoms_reused(self, atoms_built):
        f = make_piecewise([0, 1, INF], [[(1, 0, 0)], [(2, -2, 0)]])
        g = make_piecewise([0, 2, INF], [[(1, 1, 0)], []])
        before = atoms_built()
        h = subtract(f, g)
        # only -g's atom is built, once on each of (0, 1] and (1, 2]
        assert atoms_built() - before == 2
        assert h.pieces[0][0] is f.pieces[0][0]
        assert h.pieces[1][0] is f.pieces[1][0] and h.pieces[2] == f.pieces[1]
        assert h.pieces[0][1] == PowerLogAtom(-1.0, 1.0, 0)

    @pytest.mark.parametrize("coefs, kept", [
        ((1e308, 1e308), None),
        ((1e308, -1e308, 1e308), 1e308),
    ], ids=["sum-overflows", "magnitude-overflows"])
    def test_collect_past_overflow(self, coefs, kept):
        # an overflowed sum is refused, not dropped as cancellation residue;
        # a finite sum whose magnitude overflowed is kept
        atoms = [PowerLogAtom(c, 0.5, 0) for c in coefs]
        if kept is None:
            with pytest.raises(NotRepresentable):
                collect_atoms(atoms)
        else:
            assert collect_atoms(atoms) == (PowerLogAtom(kept, 0.5, 0),)

    @pytest.mark.parametrize("atom", [
        {"c": 1, "coef": 4},
        {"c": 1, "a": 0, "exponent": 1},
        {"c": 1, "k": 0, "log_power": 1},
    ], ids=["coef", "exponent", "log_power"])
    def test_field_under_both_names_refused(self, atom):
        with pytest.raises(TypeError, match="both its names"):
            make_piecewise([0, 1, INF], [[atom], []])


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
        make_piecewise([0, 1, INF], [[(-1, 0, 1)], []], require_nonneg=True)

    @pytest.mark.parametrize("piece", [
        [(1, 0, 0), (-2, 1, 0)],  # 1 - 2x < 0 past x = 1/2
        [(1, 0, 1)],              # ln x < 0 on (0, 1): odd log power
    ])
    def test_sampled_pieces_still_refused(self, piece):
        with pytest.raises(NegativityDetected):
            make_piecewise([0, 1, INF], [piece, []], require_nonneg=True)

    def test_positive_atoms_certified_without_sampling(self, piece_samples_calls):
        make_piecewise([0, 1, INF], [[(2, 0.5, 0), (1, -1, 2)], [(3, -2, 0)]],
                       require_nonneg=True)
        assert piece_samples_calls() == 0

    def test_dip_between_samples_refused(self):
        # (x - r)**2 - 1e-8 is below -1e-9 only within 1e-4 of r
        r = between_samples()
        dip = [(1, 2, 0), (-2 * r, 1, 0), (r * r - 1e-8, 0, 0)]
        with pytest.raises(NegativityDetected):
            make_piecewise([0, 1, 2, INF], [[], dip, []], require_nonneg=True)

    def test_mixed_sign_polynomial_certified_without_sampling(self, piece_samples_calls):
        # 1 - x on (0, 1], (x - 1.5)**2 on (1, 2]
        make_piecewise([0, 1, 2, INF],
                       [[(1, 0, 0), (-1, 1, 0)], [(2.25, 0, 0), (-3, 1, 0), (1, 2, 0)], []],
                       require_nonneg=True)
        assert piece_samples_calls() == 0

    def test_overflowing_polynomial_sampled(self, piece_samples_calls):
        # 1e308 * (1 - x**2) on (0, 1]: the derivative's coefficient -2e308
        # overflows, so the piece is sampled, not handed to np.roots
        make_piecewise([0, 1, INF], [[(1e308, 0, 0), (-1e308, 2, 0)], []],
                       require_nonneg=True)
        assert piece_samples_calls() == 1

    def test_log_pieces_still_sampled(self, piece_samples_calls):
        # -ln x on (0, 1]
        minus_log = [[(-1, 0, 1)], []]
        make_piecewise([0, 1, INF], minus_log, require_nonneg=True)
        assert piece_samples_calls() == 1
        assert is_nonincreasing(make_piecewise([0, 1, INF], minus_log))
        assert piece_samples_calls() == 2

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

    def test_rise_between_samples_rejected(self):
        # phi = 5 - (x - r)**3 / 3 + 1e-8 * (x - r) on (1, 2]: x*phi' reaches
        # 1.39e-8 at r, above 1e-9 * phi(r), but stays below it 1e-4 away
        r = between_samples()
        rise = [(-1 / 3, 3, 0), (r, 2, 0), (1e-8 - r * r, 1, 0),
                (r ** 3 / 3 - 1e-8 * r + 5, 0, 0)]
        at_one = sum(c for c, _, _ in rise)
        phi = make_piecewise([0, 1, 2, INF], [[(at_one, 0, 0)], rise, []])
        assert not is_nonincreasing(phi)

    @pytest.mark.parametrize("build", [
        lambda: mollify(parse_function_spec("chi(0,1)+chi(0,3)"), 4),
        lambda: parse_function_spec(json.dumps(function_to_dsl(
            poly_phi([(1.3, 0.8, 2), (0.5, 2.5, 2), (2.0, 4.1, 1)])))),
    ], ids=["mollified-steps", "quadratic-json"])
    def test_polynomial_phi_certified_without_sampling(self, build, piece_samples_calls):
        assert is_nonincreasing(build())
        assert piece_samples_calls() == 0

    @given(terms=st.lists(st.tuples(st.floats(0.2, 3.0), st.floats(0.3, 5.0),
                                    st.integers(0, 2)), min_size=1, max_size=4),
           n=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_polynomial_phi_and_its_mollification(self, terms, n):
        phi = poly_phi(terms)
        for g in (phi, mollify(phi, n)):
            assert is_nonincreasing(g)
            if any(at.exponent != 0.0 for piece in g.pieces for at in piece):
                assert not is_nonincreasing(reflect_piece(g))

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_fuzz_monotone_phi(self, seed):
        phi = fuzz_generate(FuzzConfig(seed=seed, monotone=True))
        assert is_nonincreasing(phi)
        assert not is_nonincreasing(reflect_piece(phi))
