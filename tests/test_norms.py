import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hardylab.cli import FuzzConfig, fuzz_generate
from hardylab.errors import (BadExponent, BadTolerance, DivergentAtZero, NormDiverges,
                             NotConverged)
from hardylab.funcmodel import evaluate, make_piecewise, scale
from hardylab.norms import (
    CallableFn,
    QuadResult,
    check_lp_defined,
    ip_via_parts,
    ipstar_via_fubini,
    lp_norm,
    lp_norm_callable,
    lp_norms,
    numeric_dual_hardy,
    numeric_hardy,
)
from hardylab.operators import dual_hardy, hardy

INF = math.inf


def chi01():
    return make_piecewise([0, 1, INF], [[(1, 0, 0)], []], require_nonneg=True)


# Oracle values for a three-piece mixed function, computed independently with
# scipy.integrate.quad on the cumulative-average integrand (tail mapped to a
# finite interval by u = 1/x).
MIXED = make_piecewise(
    [0, 0.7, 2.3, INF],
    [[(0.5, 0.3, 0)], [(2.0, -0.5, 1), (1.0, 0, 0)], [(1.5, -1.7, 0)]],
    require_nonneg=True,
)
MIXED_HARDY_POW = {
    1.25: 16.983547736068303,
    2.0: 5.354779297696692,
    3.0: 3.3793872695738845,
}


class TestQuadResult:
    def test_err_nonnegative(self):
        with pytest.raises(ValueError):
            QuadResult(1.0, -1e-3)

    def test_overflowing_integrand_not_converged(self):
        from hardylab.errors import NotConverged

        huge = make_piecewise([0, 1, INF], [[(1e100, 0, 0)], []],
                              require_nonneg=True)
        with pytest.raises(NotConverged):
            lp_norm(huge, 8.0)  # (1e100)^8 overflows doubles


class TestLpNorms:
    """A batch shares evaluator calls; each norm is computed as if alone."""

    def test_failing_norm_fails_alone(self):
        huge = make_piecewise([0, 1, INF], [[(1e100, 0, 0)], []], require_nonneg=True)
        good, bad = lp_norms([chi01(), huge], 8.0)
        assert good == lp_norm(chi01(), 8.0)
        assert isinstance(bad, NotConverged)
        with pytest.raises(NotConverged) as alone:
            lp_norm(huge, 8.0)
        assert str(alone.value) == str(bad) and bad.partial is alone.value.partial is None

    def test_unreachable_cutoff_fails_alone(self, monkeypatch):
        from hardylab import norms

        real = norms._choose_cutoff

        def picky(log_m, *args):
            if log_m > 1.0:  # the envelope of the scaled function only
                raise NotConverged("remainder bound does not reach the error budget")
            return real(log_m, *args)

        monkeypatch.setattr(norms, "_choose_cutoff", picky)
        # a log atom: the zero end is integrated, and cut, by quadrature
        g = make_piecewise([0, 1, INF], [[(1, 0.5, 1)], []])
        good, bad = lp_norms([g, scale(g, 1e10)], 2.0)
        assert good == lp_norm(g, 2.0)
        assert isinstance(bad, NotConverged)

    def test_batch_matches_each_alone(self):
        gs = [hardy(MIXED), dual_hardy(MIXED), chi01(), make_piecewise([0, 1, INF], [[], []])]
        for p in (1.25, 3.0):
            assert lp_norms(gs, p) == [lp_norm(g, p) for g in gs]

    def test_divergence_tested_before_quadrature(self, evaluator_calls):
        tail = make_piecewise([0, 1, INF], [[], [(1, 0, 0)]])
        with pytest.raises(NormDiverges):
            lp_norms([chi01(), tail], 2.0)
        assert evaluator_calls() == 0
        assert lp_norms([], 2.0) == []


def _stepped_cutoff(log_m, s, q, t0, target):
    """The plain cutoff search: one incomplete-gamma bound at every step."""
    from hardylab import norms

    log_target = math.log(target) if target > 0.0 else -745.0
    t = max(t0, 1.0)
    for _ in range(240):
        log_rem = norms._log_gamma_tail(log_m, s, q, t)
        if log_rem <= log_target:
            return t, log_rem
        t = t * 1.6 + 1.0
    raise NotConverged("remainder bound does not reach the error budget")


def _outcome(search, *args):
    try:
        return search(*args)
    except NotConverged as exc:
        return str(exc)


class TestCutoff:
    """_choose_cutoff returns the stepped search's t and log remainder."""

    @pytest.mark.parametrize("q", [0.0, 2.0])
    @pytest.mark.parametrize("log_m", [-50.0, 0.0, 30.0, 700.0, 740.0])
    def test_matches_stepped_search(self, log_m, q):
        from hardylab import norms

        # s * t spans the range where gammaincc(q + 1, s * t) underflows to 0
        for s in (1e-4, 0.01, 0.3, 2.0, 50.0):
            for t0 in (0.5, 1.0, 37.0):
                for target in (1e-320, 1e-13, 2.5e-10, 0.3):
                    args = (log_m, s, q, t0, target)
                    assert (_outcome(norms._choose_cutoff, *args)
                            == _outcome(_stepped_cutoff, *args)), args

    @pytest.mark.parametrize("args", [
        (math.nan, math.nan, 0.0, 1.0, 1e-13),  # a NaN envelope: p * 0 at p = inf
        (0.0, 1e-300, 0.0, 1.0, 1e-13),  # 1.6**240 * s stays far below 1
    ], ids=["nan-envelope", "unreachable"])
    def test_same_failure(self, args):
        from hardylab import norms

        with pytest.raises(NotConverged) as exc:
            norms._choose_cutoff(*args)
        assert str(exc.value) == _outcome(_stepped_cutoff, *args)

    def test_log_gamma_overflow_is_no_bound(self):
        from hardylab import norms

        # lgamma(q + 1) leaves the doubles past q ~ 2.5e305
        assert norms._log_gamma_tail(0.0, 1.0, 1e308, 1.0) == INF
        with pytest.raises(NotConverged, match="remainder bound does not reach"):
            norms._choose_cutoff(0.0, 1.0, 1e308, 1.0, 1e-13)


class TestUnderflow:
    """An integral of |g|**p below the normal doubles is refused, not 0."""

    @pytest.mark.parametrize("coef, p", [(0.01, 400.0), (1e-200, 2.0)])
    def test_underflow_refused(self, coef, p):
        g = make_piecewise([0, 1, INF], [[(coef, 0, 0)], []])
        with pytest.raises(NotConverged, match="underflows the double range") as exc:
            lp_norm(g, p)
        assert exc.value.partial is None

    def test_underflow_fails_alone(self):
        tiny = make_piecewise([0, 1, INF], [[(0.01, 0, 0)], []])
        bad, good = lp_norms([tiny, chi01()], 400.0)
        assert isinstance(bad, NotConverged) and good == lp_norm(chi01(), 400.0)


#: 1 - x on (0, 2]: |g|**1.5 has a kink at x = 1, and its integral is 0.8.
KINKED = make_piecewise([0, 2, INF], [[(1, 0, 0), (-1, 1, 0)], []])


class TestStopRules:
    """The adaptive loop's stops: the segment cap and the divergent end."""

    @pytest.fixture
    def small_cap(self, monkeypatch):
        from hardylab import norms

        monkeypatch.setattr(norms, "_MAX_INTERVALS", 16)  # KINKED needs 29 segments

    def test_capped_norm_not_converged(self, small_cap):
        with pytest.raises(NotConverged, match="error budget") as exc:
            lp_norm(KINKED, 1.5, 1e-9)
        partial = exc.value.partial
        assert partial.err > 1e-9
        assert abs(partial.value - 0.8) <= partial.err

    def test_capped_norm_fails_alone(self, small_cap):
        bad, good = lp_norms([KINKED, chi01()], 1.5)
        assert good == lp_norm(chi01(), 1.5)
        with pytest.raises(NotConverged) as alone:
            lp_norm(KINKED, 1.5)
        assert isinstance(bad, NotConverged) and str(bad) == str(alone.value)
        assert bad.partial == alone.value.partial

    @pytest.mark.parametrize("exponent, lo, hi, where", [
        (-0.6, 0.0, 1.0, "zero"),
        (-0.4, 1.0, INF, "infinity"),
    ])
    def test_divergent_end_raises(self, exponent, lo, hi, where):
        from hardylab.funcmodel import PowerLogAtom
        from hardylab.norms import _integrate, _ProductIntegrand

        pi = _ProductIntegrand(1.0, (((PowerLogAtom(1.0, exponent),), 2.0),))
        with pytest.raises(NormDiverges, match=f"diverges at {where}"):
            _integrate([[(pi, lo, hi)]], 1e-9)


class TestLpNorm:
    def test_average_of_characteristic(self):
        res = lp_norm(hardy(chi01()), 2.0)
        assert res.value ** 2 == pytest.approx(2.0, abs=1e-8)

    def test_dual_average_gamma_values(self):
        # integral of (-ln x)^p over (0,1) is Gamma(p+1)
        hs = dual_hardy(chi01())
        for p in (1.5, 2.0, 3.0, 4.0):
            res = lp_norm(hs, p)
            assert res.value ** p == pytest.approx(math.gamma(p + 1.0), rel=1e-9)

    def test_diverges_at_infinity(self):
        g = make_piecewise([0, 1, INF], [[], [(1, -0.5, 0)]])
        with pytest.raises(NormDiverges):
            lp_norm(g, 2.0)

    def test_diverges_at_zero(self):
        g = make_piecewise([0, 1, INF], [[(1, -0.8, 0)], []])
        with pytest.raises(NormDiverges):
            lp_norm(g, 2.0)

    def test_bad_exponent(self):
        with pytest.raises(BadExponent, match="exceed 1"):
            lp_norm(chi01(), 1.0)
        with pytest.raises(BadExponent, match="finite"):
            lp_norm(chi01(), math.inf)
        for p in (1.0, 0.5, math.nan, math.inf):
            with pytest.raises(BadExponent):
                check_lp_defined(chi01(), p)

    def test_unbounded_tol_keeps_first_cutoffs(self):
        # each end keeps its first cutoff and still counts its remainder
        g = make_piecewise([0, 1, INF], [[(1, -0.3, 0)], [(2, -1.5, 0)]])
        res = lp_norm(g, 2.0, INF)
        assert abs(res.value - 4.5 ** 0.5) <= res.err < 1e-6

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-9, -1.0])
    def test_bad_tol_refused(self, tol):
        # a NaN tol passes no err > goal test, so it would read as converged
        g = make_piecewise([0, 1, INF], [[(1, -0.3, 0)], [(2, -1.5, 0)]])
        f = make_piecewise([0, 1, INF], [[(1, 0, 0)], []])
        for call in (lambda: lp_norm(g, 2.0, tol), lambda: lp_norms([g, f], 2.0, tol),
                     lambda: ip_via_parts(f, 2.0, tol),
                     lambda: ipstar_via_fubini(f, 2.0, tol),
                     lambda: lp_norm_callable(CallableFn(lambda x: float(x <= 1.0),
                                                         singular_points=(1.0,)),
                                              2.0, tol)):
            with pytest.raises(BadTolerance, match="tol must be positive"):
                call()

    def test_zero_function(self):
        z = make_piecewise([0, INF], [[]])
        res = lp_norm(z, 2.0)
        assert res.value == 0.0 and res.err == 0.0

    def test_against_independent_oracle(self):
        h = hardy(MIXED)
        for p, want in MIXED_HARDY_POW.items():
            res = lp_norm(h, p)
            assert res.value ** p == pytest.approx(want, rel=5e-10)

    @pytest.mark.parametrize("lam", [0.01, 3.7, 1500.0])
    def test_scaling(self, lam):
        g = hardy(MIXED)
        base = lp_norm(g, 2.5)
        scaled = lp_norm(scale(g, lam), 2.5)
        assert scaled.value == pytest.approx(lam * base.value, rel=1e-12)

    @pytest.mark.parametrize("seed", [101, 202, 303])
    @pytest.mark.parametrize("p", [1.25, 2.0, 4.0])
    def test_error_bound_soundness(self, seed, p):
        g = hardy(fuzz_generate(FuzzConfig(seed=seed)))
        coarse = lp_norm(g, p, 1e-8)
        fine = lp_norm(g, p, 1e-9)
        assert abs(coarse.value - fine.value) <= coarse.err + 1e-18

    @pytest.mark.parametrize("seed", [7, 77, 777])
    def test_p2_identity(self, seed):
        f = fuzz_generate(FuzzConfig(seed=seed))
        nh = lp_norm(hardy(f), 2.0)
        ns = lp_norm(dual_hardy(f), 2.0)
        assert abs(nh.value - ns.value) <= nh.err + ns.err

    @pytest.mark.parametrize("seed", [13, 31])
    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 8.0])
    def test_crude_bounds_always_hold(self, seed, p):
        f = fuzz_generate(FuzzConfig(seed=seed))
        nh = lp_norm(hardy(f), p)
        ns = lp_norm(dual_hardy(f), p)
        budget = ns.err + p * nh.err + 1e-12 * nh.value
        p_conj = p / (p - 1.0)
        assert ns.value >= nh.value / p_conj - budget
        assert ns.value <= p * nh.value + budget


class TestIdentities:
    def test_parts_examples(self):
        assert ip_via_parts(chi01(), 2.0).value == pytest.approx(2.0, rel=1e-9)
        assert ip_via_parts(chi01(), 3.0).value == pytest.approx(1.5, rel=1e-9)
        zero = make_piecewise([0, INF], [[]])
        assert ip_via_parts(zero, 2.0).value == 0.0

    def test_fubini_examples(self):
        assert ipstar_via_fubini(chi01(), 2.0).value == pytest.approx(2.0, rel=1e-9)
        assert ipstar_via_fubini(chi01(), 3.0).value == pytest.approx(6.0, rel=1e-9)
        zero = make_piecewise([0, INF], [[]])
        assert ipstar_via_fubini(zero, 2.0).value == 0.0

    @pytest.mark.parametrize("seed", [19, 91])
    @pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 2.5, 3.0, 4.0])
    def test_cross_checks_match_direct_norms(self, seed, p):
        f = fuzz_generate(FuzzConfig(seed=seed))
        direct_h = lp_norm(hardy(f), p)
        via_parts = ip_via_parts(f, p)
        budget = via_parts.err + p * direct_h.value ** (p - 1) * direct_h.err
        assert abs(via_parts.value - direct_h.value ** p) <= budget + 1e-10

        direct_s = lp_norm(dual_hardy(f), p)
        via_fub = ipstar_via_fubini(f, p)
        budget = via_fub.err + p * direct_s.value ** (p - 1) * direct_s.err
        assert abs(via_fub.value - direct_s.value ** p) <= budget + 1e-10


def remark_average(*grids):
    """numeric_hardy of |x - 1|^(-1/2) on [1, 2] over the union of the grids."""
    f = CallableFn(lambda x: abs(x - 1.0) ** -0.5 if 1.0 < x <= 2.0 else 0.0,
                   singular_points=(1.0,), tail_exponent_hint=-10.0,
                   zero_exponent_hint=0.0)
    return numeric_hardy(f, np.unique(np.concatenate(grids)))


class TestNumericOracles:
    def test_numeric_hardy_rejects_nonintegrable(self):
        f = CallableFn(lambda x: x ** -2, zero_exponent_hint=-2.0)
        with pytest.raises(DivergentAtZero):
            numeric_hardy(f, np.geomspace(0.01, 10, 10))

    def test_remark_function_average(self):
        # f(x) = |x-1|^{-1/2} on [1,2]: the average at 2 is exactly 1
        def ev(x):
            return abs(x - 1.0) ** -0.5 if 1.0 < x <= 2.0 else 0.0

        f = CallableFn(ev, singular_points=(1.0,),
                       tail_exponent_hint=-10.0, zero_exponent_hint=0.0)
        grid = np.unique(np.concatenate([
            np.geomspace(0.25, 8.0, 120),
            1.0 + np.geomspace(1e-10, 1.0, 60),
        ]))
        hf = numeric_hardy(f, grid)
        assert hf(0.5) == 0.0
        assert hf(2.0) == pytest.approx(1.0, rel=1e-6)
        assert hf(3.0) <= 2.0 / 3.0 + 1e-9

    def test_remark_function_average_at_a_node(self):
        # 2 is a node of test_remark_function_average's grid, where the exact
        # average is 1: only quadrature error is left
        hf = remark_average(np.geomspace(0.25, 8.0, 120),
                            1.0 + np.geomspace(1e-10, 1.0, 60))
        assert abs(hf(2.0) - 1.0) <= 1e-9

    @pytest.mark.parametrize("tol", [1e-9, 1e-10])
    def test_norm_of_tabulated_average_meets_tol(self, tol):
        # acceptance criterion 9's grid; its nodes, where the cubic's second
        # derivative jumps, are the breakpoints of the norm's quadrature
        hf = remark_average(np.geomspace(0.25, 8.0, 160),
                            1.0 + np.geomspace(1e-10, 1.0, 80),
                            2.0 - np.geomspace(1e-10, 1.0, 40)[::-1])
        assert lp_norm_callable(hf, 2.0, tol).err <= tol

    def test_numeric_dual_continues_below_grid(self):
        # H*chi(0,1] is ln(1/x) on (0, 1]; its L^2 norm is sqrt(2)
        chi = CallableFn(lambda x: 1.0 if x <= 1.0 else 0.0, singular_points=(1.0,))
        d = numeric_dual_hardy(chi, np.geomspace(1e-3, 4.0, 80))
        assert abs(lp_norm_callable(d, 2.0).value - math.sqrt(2.0)) <= 1e-4

    @pytest.mark.parametrize("x", [1.0, 0.95])
    def test_no_overshoot_across_a_listed_jump(self, x):
        # chi(0,1]'s averages have a kink at 1, between two nodes of the grid:
        # H chi = 1 and H* chi = ln(1/x) up to x = 1
        chi = CallableFn(lambda t: 1.0 if t <= 1.0 else 0.0, singular_points=(1.0,))
        grid = np.geomspace(1e-3, 4.0, 80)
        assert abs(numeric_hardy(chi, grid)(x) - 1.0) <= 1e-12
        assert abs(numeric_dual_hardy(chi, grid)(x) - math.log(1.0 / x)) <= 1e-4

    def test_numeric_dual_of_step_constant_below_support(self):
        eps = 0.25
        def ev(x):
            return 1.0 if 1.0 < x <= 1.0 + eps else 0.0

        f = CallableFn(ev, singular_points=(1.0, 1.0 + eps),
                       tail_exponent_hint=-10.0, zero_exponent_hint=0.0)
        from hardylab.norms import numeric_dual_hardy
        d = numeric_dual_hardy(f, np.geomspace(0.05, 4.0, 80))
        want = math.log1p(eps)
        for x in (0.1, 0.5, 0.9):
            assert d(x) == pytest.approx(want, rel=1e-8)

    def test_callable_norm_divergence(self):
        f = CallableFn(lambda x: min(x, 1.0) ** -0.6, zero_exponent_hint=-0.6,
                       tail_exponent_hint=-0.6)
        with pytest.raises(NormDiverges):
            lp_norm_callable(f, 2.0)  # at zero: -1.2 <= -1

    def test_callable_norm_matches_exact(self):
        h = hardy(chi01())
        fc = CallableFn(lambda x: evaluate(h, x), singular_points=(1.0,),
                        tail_exponent_hint=-1.0, zero_exponent_hint=0.0)
        res = lp_norm_callable(fc, 2.0)
        assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-7)


class TestCallableHeap:
    """Every black-box integral meets the caller's budget."""

    def test_callable_norm_within_err(self):
        h = hardy(chi01())
        fc = CallableFn(lambda x: evaluate(h, x), singular_points=(1.0,),
                        tail_exponent_hint=-1.0, zero_exponent_hint=0.0)
        res = lp_norm_callable(fc, 2.0, 1e-9)
        assert abs(res.value - math.sqrt(2.0)) <= res.err

    def test_quad_with_singularities_within_err(self):
        from hardylab.norms import _quad_with_singularities

        # |x - 1|^(-1/2) on [0.5, 2]: 2 * (sqrt(0.5) + 1)
        v, e = _quad_with_singularities(lambda x: abs(x - 1.0) ** -0.5,
                                        0.5, 2.0, (1.0,), 1e-10)
        assert abs(v - 2.0 * (math.sqrt(0.5) + 1.0)) <= e

    def test_no_sliver_left_at_an_interior_singular_point(self):
        from hardylab.norms import _quad_with_singularities

        v, e = _quad_with_singularities(lambda x: abs(x - 1.0) ** -0.5,
                                        0.5, 2.0, (1.0,), 1e-10)
        assert abs(v - 2.0 * (math.sqrt(0.5) + 1.0)) <= 1e-12
        assert e <= 1e-10

    @pytest.mark.parametrize("tol", [1e-9, 1e-11, 1e-13])
    def test_err_covers_rounding(self, tol):
        # (1 - x)^2 is integrated almost exactly, so err is all rounding
        res = lp_norm_callable(CallableFn(lambda x: max(1.0 - x, 0.0)), 2.0, tol)
        assert abs(res.value - 3.0 ** -0.5) <= res.err

    def test_slow_tail_within_err(self):
        # min(1, x^-0.52) at p = 2: 1 + 1/0.04 = 26
        res = lp_norm_callable(CallableFn(lambda x: max(x, 1.0) ** -0.52), 2.0)
        assert abs(res.value - math.sqrt(26.0)) <= res.err

    @pytest.mark.parametrize("end", [37.3, 1000.0])
    def test_listed_jump_past_one_within_err(self, end):
        # a jump listed as a singular point is a breakpoint, not left to qagi
        fc = CallableFn(lambda x: 1.0 if x <= end else 0.0, singular_points=(end,))
        res = lp_norm_callable(fc, 2.0)
        assert abs(res.value - math.sqrt(end)) <= res.err

    @pytest.mark.parametrize("fc", [
        CallableFn(lambda x: max(x, 1.0) ** -0.45),
        CallableFn(lambda x: max(x, 1.0) ** -0.5),
        CallableFn(lambda x: abs(x - 1.0) ** -0.6 if 0.5 <= x <= 2.0 and x != 1.0 else 0.0,
                   singular_points=(1.0,)),
        CallableFn(lambda x: x ** -0.6 if x <= 1.0 else 0.0),
    ], ids=["tail-0.45", "tail-0.5", "interior-0.6", "zero-end-0.6"])
    def test_divergent_part_refused(self, fc):
        # none is in L^2 (the last against its default zero hint 0); QUADPACK
        # flags each, all but x^-0.5 with a negative value and a small err
        with pytest.raises(NormDiverges):
            lp_norm_callable(fc, 2.0)

    def test_unlisted_jump_past_one_not_silent(self):
        # qagi alone misses this jump by 6e-5 with err 3e-10; the second
        # split of the tail disagrees
        fc = CallableFn(lambda x: 1.0 if x <= 37.3 else 0.0)
        with pytest.raises(NotConverged):
            lp_norm_callable(fc, 2.0)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_zero_end_meets_tol(self, tol):
        # x^-0.3 on (0,1] at p = 2: the integral of x^-0.6 is 2.5
        fc = CallableFn(lambda x: x ** -0.3 if x <= 1.0 else 0.0,
                        singular_points=(1.0,), tail_exponent_hint=-10.0,
                        zero_exponent_hint=-0.3)
        res = lp_norm_callable(fc, 2.0, tol)
        assert res.err <= 10.0 * tol
        assert abs(res.value - math.sqrt(2.5)) <= res.err

    def test_zero_end_past_a_zero_at_the_anchor(self):
        # both functions vanish at 1 and beyond, with no singular points
        # listed; the mass on (0, 1) must still be integrated
        fc = CallableFn(lambda x: math.cos(0.5 * math.pi * x) if x <= 1.0 else 0.0)
        res = lp_norm_callable(fc, 2.0, 1e-12)
        assert abs(res.value - math.sqrt(0.5)) <= res.err
        # (1 - x)^2 is integrated almost exactly, so only the mass is checked
        res = lp_norm_callable(CallableFn(lambda x: max(1.0 - x, 0.0)), 2.0, 1e-10)
        assert math.isclose(res.value, 3.0 ** -0.5, rel_tol=1e-10)

    def test_tail_past_a_zero_at_a_doubling_point(self):
        from hardylab.norms import numeric_dual_hardy

        # both functions vanish at 2 and on (3, inf); the integral of
        # (x - 2)^2 e^(-2x) over (0, 3] is 1.25 * (1 - e^-6)
        fc = CallableFn(lambda x: abs(x - 2.0) * math.exp(-x) if x <= 3.0 else 0.0)
        res = lp_norm_callable(fc, 2.0, 1e-10)
        assert abs(res.value - math.sqrt(1.25 * -math.expm1(-6.0))) <= res.err
        # the tail of H*f past a grid ending at 1 is int_1^3 |t - 2| / t dt
        fc = CallableFn(lambda x: abs(x - 2.0) if x <= 3.0 else 0.0)
        dual = numeric_dual_hardy(fc, np.geomspace(1e-3, 1.0, 40))
        assert dual(1.0) == pytest.approx(4.0 * math.log(2.0) - 2.0 * math.log(3.0),
                                          rel=1e-12)


# Four steps of height 4, 16 in all, at these cuts.  At p = 5 nearly all of
# the mollified form's integral sits in its first pieces: a budget handed out
# piece by piece leaves the later pieces a sliver below their own rounding,
# and they bisect to the segment cap.
TALL_STEP_CUTS = (1.07, 2.96, 3.91, 5.05)

# A function whose third piece has exponent -1.6e-5: dual_hardy's coefficients
# c/a cancel there, and the norm of H*f sees rounding noise that no bisection
# removes.
NEAR_ZERO = make_piecewise(
    [0.0, 1.0848808964726149, 2.920722011236898, 6.936883245258844,
     8.607748507070518, 8.77893786532005, 9.60463563696397, INF],
    [[(4.587792705574817, 0.3513134363446717, 0)],
     [(9.284615670221957, -0.5573566790548257, 0)],
     [(5.193122103763166, -1.613012701939809e-05, 0)],
     [(1.5511255543408338, 1.9167488653111882, 0)],
     [(6.976391831040957, -0.6732175861390757, 0)],
     [(1.3510050123940525, -0.7678914597119523, 0)],
     [(0.20624677942497827, -2.5160999499530345, 0)]],
    require_nonneg=True,
)


def _mollified_steps_power_integral(cuts, height, n, p):
    """Closed form of the integral of phi_n**p for phi = sum height*chi(0, b].

    phi_n(x) = n * integral of phi over [x, x + 1/n] is piecewise linear:
    each step ramps down linearly over [b - 1/n, b].
    """
    h = 1.0 / n
    phi_n = lambda x: sum(height * min(max((b - x) / h, 0.0), 1.0) for b in cuts)
    edges = sorted({0.0, *cuts, *(b - h for b in cuts)})
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        u, v = phi_n(lo), phi_n(hi)
        if u == v:
            total += (hi - lo) * u ** p
        else:
            total += (hi - lo) * (u ** (p + 1) - v ** (p + 1)) / ((p + 1) * (u - v))
    return total


class TestGlobalBudget:
    def test_tall_steps_work_and_value(self, gk15_calls):
        from hardylab.duality import mollify

        phi = make_piecewise([0.0, *TALL_STEP_CUTS, INF],
                             [[(4.0 * (4 - i), 0, 0)] for i in range(4)] + [[]],
                             require_nonneg=True)
        phi_n = mollify(phi, 1024)
        start = gk15_calls()
        res = lp_norm(phi_n, 5.0, 1e-10)
        assert gk15_calls() - start <= 200
        want = _mollified_steps_power_integral(TALL_STEP_CUTS, 4.0, 1024, 5.0) ** 0.2
        assert abs(res.value - want) <= res.err

    def test_tall_steps_one_evaluator_call_per_batch(self, evaluator_calls, gk15_calls,
                                                     monkeypatch):
        from hardylab import norms
        from hardylab.duality import mollify

        batches = 0
        real = norms._gk15

        def counted(fn, reg, a, b):
            nonlocal batches
            batches += 1
            return real(fn, reg, a, b)

        # the seeds, each cutoff push and each adaptive round are one batch
        monkeypatch.setattr(norms, "_gk15", counted)
        phi = make_piecewise([0.0, *TALL_STEP_CUTS, INF],
                             [[(4.0 * (4 - i), 0, 0)] for i in range(4)] + [[]],
                             require_nonneg=True)
        lp_norm(mollify(phi, 1024), 5.0, 1e-10)
        assert 0 < evaluator_calls() == batches
        assert evaluator_calls() < gk15_calls()

    def test_near_zero_exponent_dual_work(self, gk15_calls):
        hs = dual_hardy(NEAR_ZERO)
        start = gk15_calls()
        lp_norm(hs, 2.0)
        assert gk15_calls() - start <= 200

    def test_near_zero_exponent_never_violated(self):
        from hardylab.verify import Verdict, verify_theorem1

        # ||Hf||_2 = ||H*f||_2 for every f: any Violated verdict is false
        rep = verify_theorem1(NEAR_ZERO, 2.0)
        assert Verdict.VIOLATED not in (rep.verdict_lower, rep.verdict_upper)

    # integral of (H*f)**p by Fubini over the support of f, which is one
    # region of each kind: (1, 2] is interior only, (0, 0.2] lies inside the
    # zero end, (3, inf) inside the infinity end.
    @pytest.mark.parametrize("tol", [1e-10, 1e-30])
    @pytest.mark.parametrize("p", [2.0, 3.5])
    def test_contract_interior(self, p, tol):
        from scipy.special import gamma, gammainc

        f = make_piecewise([0, 1, 2, INF], [[], [(1, 0, 0)], []], require_nonneg=True)
        res = ipstar_via_fubini(f, p, tol)
        # H*f = ln 2 on (0, 1], ln(2/x) on (1, 2]
        want = math.log(2.0) ** p + 2.0 * gamma(p + 1.0) * gammainc(p + 1.0, math.log(2.0))
        assert res.err <= max(tol, 1e-12 * res.value)
        assert abs(res.value - want) <= res.err + 1e-15 * want

    @pytest.mark.parametrize("tol", [1e-10, 1e-30])
    @pytest.mark.parametrize("p", [2.0, 3.5])
    def test_contract_zero_end(self, p, tol):
        f = make_piecewise([0, 0.2, INF], [[(1, 0, 0)], []], require_nonneg=True)
        res = ipstar_via_fubini(f, p, tol)
        want = 0.2 * math.gamma(p + 1.0)  # H*f = ln(0.2/x) on (0, 0.2]
        assert res.err <= max(tol, 1e-12 * res.value)
        assert abs(res.value - want) <= res.err + 1e-15 * want

    @pytest.mark.parametrize("tol", [1e-10, 1e-30])
    @pytest.mark.parametrize("p", [2.0, 3.5])
    def test_contract_infinity_end(self, p, tol):
        f = make_piecewise([0, 3, INF], [[], [(5, -2, 0)]], require_nonneg=True)
        res = ipstar_via_fubini(f, p, tol)
        # H*f = 5/18 on (0, 3], 5/(2 x**2) beyond
        want = 3.0 * (5.0 / 18.0) ** p + 2.5 ** p * 3.0 ** (1.0 - 2.0 * p) / (2.0 * p - 1.0)
        assert res.err <= max(tol, 1e-12 * res.value)
        assert abs(res.value - want) <= res.err + 1e-15 * want


def _scalar_integrand(pi, lx, extra):
    """Reference for the compiled evaluator: the product integrand at
    x = exp(lx), times exp(extra), one node at a time with math."""
    log_h = math.log(pi.const) + extra
    for atoms, power in pi.factors:
        terms = []
        for at in atoms:
            if at.log_power and lx == 0.0:
                continue  # ln(1) = 0
            m = math.log(abs(at.coef)) + at.exponent * lx
            if at.log_power:
                m += at.log_power * math.log(abs(lx))
            sign = math.copysign(1.0, at.coef)
            terms.append((m, -sign if lx < 0.0 and at.log_power % 2 else sign))
        if not terms:
            return 0.0
        best = max(m for m, _ in terms)
        s = sum(sign * math.exp(m - best) for m, sign in terms)
        if s == 0.0:
            return 0.0
        log_h += power * (best + math.log(abs(s)))
    if log_h >= 700.0:
        return math.inf
    if log_h <= -745.0:
        return 0.0
    return math.exp(log_h)


def _scalar_cancellation(pi, lx):
    """Reference for the compiled evaluator's rounding bound relative to the
    value: 4u * sum |q_j| * sum|atoms_j| / |sum atoms_j| over the factors j
    of several atoms, at x = exp(lx)."""
    total = 0.0
    for atoms, power in pi.factors:
        if len(atoms) > 1:
            vals = [at.coef * math.exp(at.exponent * lx) * lx ** at.log_power
                    for at in atoms]
            total += 4.0 * 2.0 ** -53 * abs(power) * sum(map(abs, vals)) / abs(sum(vals))
    return total


class TestCompiledEvaluator:
    def test_matches_scalar_reference(self):
        from hardylab.funcmodel import PowerLogAtom as A
        from hardylab.norms import _compile, _ProductIntegrand

        pis = [
            # mixed signs and odd log powers, times x**0.5
            _ProductIntegrand(2.0, (((A(1.5, 0.3, 1), A(-0.7, 1.2, 0),
                                      A(2.0, -0.4, 3)), 2.5),
                                    ((A(1.0, 0.5, 0),), 1.0))),
            # two factors, the first x**-1
            _ProductIntegrand(0.8, (((A(1.0, -1.0, 0),), 1.0),
                                    ((A(3.0, 2.0, 2), A(0.5, -1.0, 1)), 1.5))),
            _ProductIntegrand(1.0, (((A(1.0, 2.0, 0),), 3.0),)),  # x**6
            _ProductIntegrand(1.5, (((A(1.0, 0.5, 1),), 2.0),)),  # log atoms only
            _ProductIntegrand(1.0, (((A(1.0, 0.0, 0),), 1.0),)),  # 1
        ]
        # (region, node): region 3i is the zero end (node t, x = exp(-t)),
        # 3i + 1 the interior (node x), 3i + 2 the infinity end (x = exp(t))
        cases = [(1, x) for x in (1.0, 0.5, 0.05, 2.0, 7.5)]  # x = 1, x < 1
        cases += [(0, 1.0), (0, 3.7), (2, 1.0), (2, 4.2)]
        cases += [(4, x) for x in (1.0, 0.3, 3.0)] + [(3, 2.5), (5, 2.5)]
        cases += [(6, 200.0), (8, 200.0), (8, 100.5), (7, 0.5)]  # underflow, overflow
        cases += [(12, 745.05)]  # exp(-745.05) would round to a subnormal
        cases += [(10, 1.0), (10, 0.4)]  # log-only factor at x = 1 and x < 1
        regions = np.array([r for r, _ in cases])
        nodes = np.array([[t] for _, t in cases])
        got, rnd = _compile(pis)(regions, nodes)
        got, rnd = got[:, 0], rnd[:, 0]
        for (r, node), g, e in zip(cases, got, rnd):
            i, kind = divmod(r, 3)
            lx = math.log(node) if kind == 1 else (kind - 1) * node
            want = _scalar_integrand(pis[i], lx, 0.0 if kind == 1 else lx)
            if want == 0.0 or math.isinf(want):
                assert g == want, (r, node)
            else:
                assert g == pytest.approx(want, rel=1e-13), (r, node)
                want_e = _scalar_cancellation(pis[i], lx) * want
                assert e == pytest.approx(want_e, rel=1e-12, abs=0.0), (r, node)
        assert 0.0 in got and math.inf in got
        # one factor of one atom each: no cancellation, and no bound computed
        assert _compile(pis[2:3])(regions[:1], nodes[:1])[1] is None


def _one_atom_tasks(g, p):
    """(integrand, lo, hi) of g**p on each piece of g holding one log-free atom."""
    from hardylab.norms import _ProductIntegrand

    return [(_ProductIntegrand(1.0, ((atoms, p),)), lo, hi)
            for atoms, lo, hi in zip(g.pieces, g.breakpoints, g.breakpoints[1:])
            if len(atoms) == 1 and not atoms[0].log_power]


def _exact_one_atom(mpmath, pi, lo, hi):
    """The integral of const * prod_j |c_j x**a_j|**q_j over (lo, hi], each
    double taken as exact, in mpmath at its working precision."""
    mpf = mpmath.mpf
    scale = mpf(pi.const)
    b = mpf(1)
    for (atom,), q in pi.factors:
        scale *= abs(mpf(atom.coef)) ** mpf(q)
        b += mpf(q) * mpf(atom.exponent)
    if lo == 0.0:
        return scale * mpf(hi) ** b / b
    if math.isinf(hi):
        return -scale * mpf(lo) ** b / b
    lam = mpmath.log(mpf(hi) / mpf(lo))  # (hi**b - lo**b)/b without cancellation
    return scale * mpf(lo) ** b * lam * mpmath.expm1(b * lam) / (b * lam) if b else scale * lam


class TestClosedForm:
    """Integrands whose factors are single log-free atoms are integrated in
    closed form, with an err that bounds the rounding of the doubles given."""

    def test_no_quadrature_for_one_atom_pieces(self, gk15_calls, evaluator_calls):
        from hardylab.extremal import family

        for p in (1.5, 2.0, 8.0):
            res = lp_norm(chi01(), p)
            assert abs(res.value - 1.0) <= res.err
        for p in (1.2, 1.7):
            lp_norm(hardy(family("zero", 1e-3, p)), p)
        assert gk15_calls() == 0 and evaluator_calls() == 0

    def test_err_audit_against_stored_atoms(self, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        from hardylab.extremal import default_eps_grid, family
        from hardylab.norms import _closed_form

        monkeypatch.setattr(mpmath.mp, "dps", 50)
        cases = []
        for kind in ("step", "zero", "inf"):
            for p in (1.2, 1.5, 1.9, 2.5, 3.0, 5.0, 8.0):
                for eps in default_eps_grid(kind, p):
                    f = family(kind, eps, p)
                    cases += [(p, hardy(f)), (p, dual_hardy(f))]
        for i in range(300):
            f = fuzz_generate(FuzzConfig(seed=50_000 + i))
            for p in (1.1, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0):
                cases += [(p, hardy(f)), (p, dual_hardy(f))]
        worst, count = 0.0, 0
        for p, g in cases:
            for pi, lo, hi in _one_atom_tasks(g, p):
                value, err = _closed_form(pi, lo, hi)
                miss = float(abs(mpmath.mpf(value) - _exact_one_atom(mpmath, pi, lo, hi)))
                assert miss <= err, (pi, lo, hi, value, err, miss)
                worst, count = max(worst, miss / err), count + 1
        assert count > 5000 and worst > 0.0

    @pytest.mark.parametrize("p", [1.3, 3.0])
    def test_identity_products_in_closed_form(self, p, gk15_calls):
        # Hf = x**0.7 / 1.7 where f = x**0.7 on (0, 1], and H*f = 1.2 x**-2.5
        # where f = 3 x**-2.5 on (1, inf): one atom times one atom
        f1 = make_piecewise([0, 1, INF], [[(1, 0.7, 0)], []])
        f2 = make_piecewise([0, 1, INF], [[], [(3, -2.5, 0)]])
        parts, fubini = ip_via_parts(f1, p), ipstar_via_fubini(f2, p)
        assert gk15_calls() == 0
        want_parts = p / (p - 1.0) * 1.7 ** (1.0 - p) / (0.7 * p + 1.0)
        want_fubini = 3.0 * p * 1.2 ** (p - 1.0) / (2.5 * p - 1.0)
        for res, want in ((parts, want_parts), (fubini, want_fubini)):
            assert abs(res.value - want) <= res.err + 1e-15 * want
            assert res.err < 1e-14 * want

    def test_wide_piece(self):
        from hardylab.cli import run

        # 310 decades: both lo/hi and hi/lo leave the doubles
        for atoms, want in (('{"c":1,"a":0.5,"k":0}', 1e20 / 2.0),
                            ('{"c":1,"a":0.5,"k":0},{"c":1,"a":0.2,"k":0}',
                             1e20 / 2.0 + 2.0 * 1e17 / 1.7 + 1e14 / 1.4)):
            spec = f'{{"breakpoints":[0,1e-300,1e10,"inf"],"pieces":[[],[{atoms}],[]]}}'
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run(["norm", "-f", spec, "-p", "2"])
            assert code == 0
            payload = json.loads(out.getvalue())
            assert payload["converged"]
            assert abs(payload["value"] - math.sqrt(want)) <= payload["err"] + 1e-15 * payload["value"]

    def test_geom_seeds_past_the_double_ratio(self):
        from hardylab.norms import _geom_seeds

        seeds = _geom_seeds(1e-300, 1e10)  # 1030 octaves
        assert len(seeds) == 1030 and seeds[0][0] == 1e-300 and seeds[-1][1] == 1e10

    def test_wide_piece_by_quadrature_within_err(self):
        from hardylab.funcmodel import PowerLogAtom
        from hardylab.norms import _integrate, _ProductIntegrand

        # x**-2.5 over 70 decades as two half atoms; with 24 seeds of about 3
        # decades each, |K15 - G7| understated the error by half
        atoms = (PowerLogAtom(0.5, -1.25), PowerLogAtom(0.5, -1.25))
        (value, err), = _integrate([[(_ProductIntegrand(1.0, ((atoms, 2.0),)), 1.0, 1e70)]],
                                   5e-10)
        assert abs(value - 2.0 / 3.0) <= err

    @pytest.mark.parametrize("coef, a, p, lo, hi", [
        (1e100, -0.5, 8.0, 2.0, 3.0),  # every point of the piece overflows
        (1e100, 0.0, 8.0, 2.0, 3.0),  # b = 1: exp(L + b ln x) grows with x
        (1e40, -2.0, 8.0, 3.0, INF),  # it crosses e**700 past lo
        (1e150, -0.4999999999, 2.0, 0.0, 1.0),  # only 1/b takes the value past it
    ])
    def test_overflow_named_inside(self, coef, a, p, lo, hi):
        from hardylab.funcmodel import PowerLogAtom
        from hardylab.norms import _closed_form, _ProductIntegrand

        pi = _ProductIntegrand(1.0, (((PowerLogAtom(coef, a),), p),))
        with pytest.raises(NotConverged, match="integrand overflows") as exc:
            _closed_form(pi, lo, hi)
        assert lo < float(str(exc.value).split("near x=")[1]) <= hi

    def test_divergent_side_named(self):
        from hardylab.funcmodel import PowerLogAtom
        from hardylab.norms import _closed_form, _ProductIntegrand

        # b = 1 + 2 * -0.5 = 0 on both unbounded pieces
        pi = _ProductIntegrand(1.0, (((PowerLogAtom(1.0, -0.5),), 2.0),))
        with pytest.raises(NormDiverges, match="diverges at zero"):
            _closed_form(pi, 0.0, 1.0)
        with pytest.raises(NormDiverges, match="diverges at infinity"):
            _closed_form(pi, 1.0, INF)
        value, err = _closed_form(pi, 0.5, 8.0)  # ln 16 on a bounded piece
        assert abs(value - math.log(16.0)) <= err

    def test_criterion_1_function_111(self, monkeypatch):
        """The quadrature's ||H*f||_2 of FuzzConfig(seed=50111), whose piece
        585.36 - 584.14 x**0.00369 cancels about 2.8 digits, lies within
        its err of a 40-digit integral of the stored atoms."""
        mpmath = pytest.importorskip("mpmath")

        monkeypatch.setattr(mpmath.mp, "dps", 40)
        g = dual_hardy(fuzz_generate(FuzzConfig(seed=50111)))
        res = lp_norm(g, 2.0, 1e-11)
        total = mpmath.mpf(0)
        for atoms, lo, hi in zip(g.pieces, g.breakpoints, g.breakpoints[1:]):
            if atoms:
                h = lambda x, atoms=atoms: sum(mpmath.mpf(a.coef) * x ** mpmath.mpf(a.exponent)
                                               for a in atoms) ** 2
                pts = [0, hi * 1e-30, hi * 1e-10, hi * 1e-3, hi] if lo == 0.0 else [lo, hi]
                total += mpmath.quad(h, [mpmath.mpf(t) for t in pts])
        assert abs(res.value - mpmath.sqrt(total)) <= res.err


@st.composite
def _closed_cases(draw):
    """(p, coef, exponent, lo, hi) of an integrable |c x**a|**p whose values
    stay well inside the doubles: b = a p + 1 near 0 or not, pieces at 0, at
    infinity, narrow or up to 300 decades wide, coefficients up to 1e+-150."""
    where = draw(st.sampled_from(["zero", "inf", "bounded"]))
    b = draw(st.one_of(st.floats(1e-12, 1e-3), st.floats(1e-3, 4.0)))
    if where == "inf" or (where == "bounded" and draw(st.booleans())):
        b = -b
    if where == "zero":
        lo, hi = 0.0, 10.0 ** draw(st.floats(-20.0, 20.0))
    elif where == "inf":
        lo, hi = 10.0 ** draw(st.floats(-20.0, 20.0)), INF
    else:
        decades = draw(st.one_of(st.floats(1e-9, 1.0), st.floats(1.0, 300.0)))
        lo = 10.0 ** draw(st.floats(-150.0, 150.0 - decades))
        hi = lo * 10.0 ** decades
        assume(lo < hi < INF)
    log10_c = draw(st.one_of(st.sampled_from([-150.0, 150.0]), st.floats(-150.0, 150.0)))
    p = draw(st.floats(1.05, min(6.0, max(1.06, 600.0 / max(1.0, abs(log10_c) * math.log(10))))))
    a = (b - 1.0) / p
    # the integrand, per unit x and per unit ln x, stays normal at the
    # piece's finite ends, where the quadrature evaluates it too: subnormal
    # values lose digits and ones below 5e-324 are 0
    for x in {lo, hi} - {0.0, INF}:
        for slope in (a * p, a * p + 1.0):
            assume(abs(p * log10_c * math.log(10) + slope * math.log(x)) < 600.0)
    return p, 10.0 ** log10_c, a, lo, hi


class TestClosedFormProperty:
    @settings(max_examples=150, deadline=None)
    @given(_closed_cases())
    def test_agrees_with_quadrature(self, case):
        from hardylab.funcmodel import PowerLogAtom
        from hardylab.norms import _integrate, _ProductIntegrand

        p, c, a, lo, hi = case
        closed = _ProductIntegrand(1.0, (((PowerLogAtom(c, a),), p),))
        # two half atoms: the same integrand, which the quadrature must take
        halves = _ProductIntegrand(1.0, (((PowerLogAtom(c / 2, a), PowerLogAtom(c / 2, a)), p),))
        (v1, e1), = _integrate([[(closed, lo, hi)]], INF)
        assert 0.0 <= e1 < v1
        (quad,) = _integrate([[(halves, lo, hi)]], 1e-9 * v1)
        if isinstance(quad, NotConverged):
            v2, e2 = quad.partial.value, quad.partial.err
        else:
            v2, e2 = quad
        assert abs(v1 - v2) <= e1 + e2
