import json
import math

import pytest

from conftest import clear_verify_caches
from hardylab.cli import FuzzConfig, fuzz_generate, parse_function_spec
from hardylab.errors import (
    BadExponent,
    DegenerateInput,
    DivergentAtInfinity,
    NegativityDetected,
    NormDiverges,
    NotMonotone,
)
from hardylab.funcmodel import PiecewiseFn, PowerLogAtom, make_piecewise, scale
from hardylab.verify import (
    P_GRID,
    Verdict,
    conjugate,
    crude_constants,
    sharp_constants,
    verify_crude,
    verify_theorem1,
    verify_theorem2,
)
from hardylab.verify import _verdict  # verdict-zone unit tests

INF = math.inf


def chi01():
    return make_piecewise([0, 1, INF], [[(1, 0, 0)], []], require_nonneg=True)


class TestConstants:
    def test_joint_point(self):
        c = sharp_constants(2.0)
        assert c.lower == 1.0 and c.upper == 1.0
        assert conjugate(2.0) == 2.0

    def test_large_p_regime(self):
        c = sharp_constants(3.0)
        assert c.lower == pytest.approx(2 ** (1 / 3))
        assert c.upper == 2.0

    def test_small_p_regime(self):
        c = sharp_constants(1.5)
        assert c.lower == 0.5
        assert c.upper == pytest.approx(0.5 ** (2 / 3))

    def test_bad_exponent(self):
        for p in (1.0, 0.5, -2.0, math.nan, math.inf):
            for constants in (sharp_constants, crude_constants):
                with pytest.raises(BadExponent):
                    constants(p)

    @pytest.mark.parametrize("p", [q for q in P_GRID if q != 2.0])
    def test_crude_strictly_wider(self, p):
        s, c = sharp_constants(p), crude_constants(p)
        assert c.lower < s.lower <= s.upper < c.upper

    @pytest.mark.parametrize("p", P_GRID)
    def test_ordering(self, p):
        s = sharp_constants(p)
        assert s.lower <= s.upper
        assert conjugate(p) == pytest.approx(p / (p - 1.0))


class TestVerdictZones:
    def test_holds_with_clear_slack(self):
        assert _verdict(0.5, 1e-6, 1e-12) is Verdict.HOLDS

    def test_holds_at_equality(self):
        assert _verdict(0.0, 1e-6, 1e-12) is Verdict.HOLDS
        assert _verdict(-5e-13, 1e-6, 1e-12) is Verdict.HOLDS

    def test_inconclusive_inside_budget(self):
        assert _verdict(-1e-8, 1e-6, 1e-12) is Verdict.INCONCLUSIVE

    def test_violated_beyond_budget(self):
        assert _verdict(-1e-3, 1e-6, 1e-12) is Verdict.VIOLATED


class TestTheorem1:
    def test_chi_p3(self):
        rep = verify_theorem1(chi01(), 3.0)
        assert rep.ratio == pytest.approx(4 ** (1 / 3), rel=1e-9)
        assert rep.holds

    def test_chi_p15(self):
        rep = verify_theorem1(chi01(), 1.5)
        # (Gamma(2.5)/3)^(2/3), both norms analytic
        assert rep.ratio == pytest.approx(0.5812236757548134, rel=1e-9)
        assert rep.holds
        assert rep.bounds.lower == 0.5

    def test_chi_p2_equality(self):
        rep = verify_theorem1(chi01(), 2.0)
        assert rep.ratio == pytest.approx(1.0, abs=1e-10)
        assert rep.holds

    def test_degenerate(self):
        zero = make_piecewise([0, INF], [[]])
        with pytest.raises(DegenerateInput):
            verify_theorem1(zero, 2.0)

    def test_divergent_input_rejected(self):
        # chi on (1, inf): ||Hf||_p is already infinite, caught by the
        # exponent test; the dual operator would reject it too
        tail = make_piecewise([0, 1, INF], [[], [(1, 0, 0)]])
        with pytest.raises(NormDiverges):
            verify_theorem1(tail, 2.0)
        from hardylab.operators import dual_hardy
        with pytest.raises(DivergentAtInfinity):
            dual_hardy(tail)


class TestNonnegCertificate:
    def test_certified_once_per_f(self, monkeypatch):
        import hardylab.verify as verify

        calls = 0
        real = verify._certify_nonneg

        def counted(f):
            nonlocal calls
            calls += 1
            real(f)

        monkeypatch.setattr(verify, "_certify_nonneg", counted)
        f = fuzz_generate(FuzzConfig(seed=10))
        for p in P_GRID:
            assert verify_theorem1(f, p).holds
            assert verify_crude(f, p).holds
        assert calls == 1

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("verdict", [verify_theorem1, verify_crude])
    def test_hand_built_signed_f_refused(self, verdict, p):
        # 1 on (0,1], -3 on (1,2], built without make_piecewise's check
        f = PiecewiseFn((0.0, 1.0, 2.0, INF),
                        ((PowerLogAtom(1.0, 0.0, 0),), (PowerLogAtom(-3.0, 0.0, 0),), ()))
        with pytest.raises(NegativityDetected):
            verdict(f, p)


class TestNormPairMemo:
    """verify keeps one f: its Hf and H*f serve every p, and verify_theorem1
    and verify_crude on equal (f, p, tol) share one pair of norms; the caches
    keep only the last pair, and no error."""

    @pytest.fixture
    def operator_calls(self, monkeypatch):
        """Counts verify's calls of hardy and dual_hardy, by name."""
        import hardylab.verify as verify

        calls = {"hardy": 0, "dual_hardy": 0}
        for name in calls:
            def counted(f, name=name, real=getattr(verify, name)):
                calls[name] += 1
                return real(f)

            monkeypatch.setattr(verify, name, counted)
        return calls

    @pytest.fixture
    def lp_norm_calls(self, monkeypatch):
        """Counts the norms verify computes, each norm of a batch apart."""
        import hardylab.verify as verify

        calls = 0
        real = verify.lp_norms

        def counted(gs, *args):
            nonlocal calls
            calls += len(gs)
            return real(gs, *args)

        monkeypatch.setattr(verify, "lp_norms", counted)
        return lambda: calls

    def test_crude_after_theorem1_shares_the_pair(self, lp_norm_calls):
        f = chi01()
        sharp = verify_theorem1(f, 3.0)
        crude = verify_crude(f, 3.0)
        assert lp_norm_calls() == 2
        assert (crude.ratio, crude.ratio_err) == (sharp.ratio, sharp.ratio_err)

    def test_value_equal_f_hits(self, lp_norm_calls):
        f, g = chi01(), chi01()
        assert f is not g and f == g
        verify_theorem1(f, 3.0)
        verify_crude(g, 3.0)
        assert lp_norm_calls() == 2

    @pytest.mark.parametrize("f2, p2, tol2", [
        (chi01(), 4.0, 1e-9),
        (chi01(), 3.0, 1e-10),
        (scale(chi01(), 2.0), 3.0, 1e-9),
    ], ids=["p", "tol", "f"])
    def test_other_arguments_recompute(self, lp_norm_calls, f2, p2, tol2):
        verify_theorem1(chi01(), 3.0, 1e-9)
        verify_crude(f2, p2, tol2)
        assert lp_norm_calls() == 4

    def test_only_the_last_pair_is_kept(self, lp_norm_calls):
        f = chi01()
        verify_theorem1(f, 3.0)
        verify_theorem1(f, 4.0)
        verify_crude(f, 3.0)
        assert lp_norm_calls() == 6

    def test_operators_built_once_over_the_grid(self, operator_calls):
        f = chi01()
        for p in P_GRID:
            verify_theorem1(f, p)
            verify_crude(f, p)
        assert operator_calls == {"hardy": 1, "dual_hardy": 1}

    def test_value_equal_f_rebuilt_between_p_hits(self, operator_calls):
        verify_theorem1(chi01(), 2.0)
        verify_theorem1(chi01(), 3.0)
        assert operator_calls == {"hardy": 1, "dual_hardy": 1}

    def test_reports_equal_a_cleared_memo(self):
        f = fuzz_generate(FuzzConfig(seed=23))
        kept = [(verify_theorem1(f, p), verify_crude(f, p)) for p in P_GRID]
        fresh = []
        for p in P_GRID:
            clear_verify_caches()
            fresh.append((verify_theorem1(f, p), verify_crude(f, p)))
        assert kept == fresh

    def test_divergent_hf_never_builds_the_dual(self, operator_calls):
        tail = make_piecewise([0, 1, INF], [[], [(1, 0, 0)]])
        for p in (2.0, 3.0):
            with pytest.raises(NormDiverges):
                verify_theorem1(tail, p)
        assert operator_calls["dual_hardy"] == 0

    def test_divergence_at_one_p_kept_from_the_next(self):
        # Hf ~ x^-0.3 at infinity: divergent at p = 2, finite at p = 4
        f = parse_function_spec("chi(0,1) + pow(-0.3,1,inf)")
        with pytest.raises(NormDiverges):
            verify_theorem1(f, 2.0)
        after = verify_theorem1(f, 4.0)
        clear_verify_caches()
        assert verify_theorem1(f, 4.0) == after

    def test_threads_racing_on_the_memo_get_their_own_reports(self):
        import sys
        import threading

        fs = [fuzz_generate(FuzzConfig(seed=seed)) for seed in (23, 67, 5, 11)]
        ps = (1.5, 3.0)
        want = {(i, p): verify_theorem1(f, p) for i, f in enumerate(fs) for p in ps}
        got, errors = [], []

        def work(i):
            try:
                for _ in range(25):
                    for p in ps:
                        got.append(((i, p), verify_theorem1(fs[i], p)))
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert len(got) == 200 and all(rep == want[key] for key, rep in got)

    @pytest.mark.parametrize("pieces, error", [
        ([[]], DegenerateInput),
        ([[(1, 0, 0)], [(-3, 0, 0)], []], NegativityDetected),
    ], ids=["degenerate", "signed"])
    def test_errors_raised_again(self, pieces, error):
        f = make_piecewise([0, *range(1, len(pieces)), INF], pieces)
        for p in (2.0, 3.0):
            for check in (verify_theorem1, verify_crude):
                with pytest.raises(error):
                    check(f, p)


class TestCrude:
    def test_chi_p3(self):
        rep = verify_crude(chi01(), 3.0)
        assert rep.bounds.lower == pytest.approx(2 / 3)
        assert rep.bounds.upper == 3.0
        assert rep.holds

    def test_chi_p2(self):
        rep = verify_crude(chi01(), 2.0)
        assert rep.bounds.lower == 0.5 and rep.bounds.upper == 2.0
        assert rep.holds

    @pytest.mark.parametrize("seed", [23, 67])
    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 4.0, 8.0])
    def test_fuzz_holds(self, seed, p):
        rep = verify_crude(fuzz_generate(FuzzConfig(seed=seed)), p)
        assert rep.holds


class TestTheorem2:
    def test_chi_p2(self):
        rep = verify_theorem2(chi01(), 2.0)
        assert rep.ratio == pytest.approx(1.0, abs=1e-10)
        assert rep.holds

    def test_chi_p3_sits_on_lower_bound(self):
        rep = verify_theorem2(chi01(), 3.0)
        assert rep.ratio == pytest.approx(2 ** (1 / 3), abs=1e-9)
        assert rep.verdict_lower is Verdict.HOLDS
        assert rep.verdict_upper is Verdict.HOLDS

    def test_not_monotone(self):
        up = make_piecewise([0, 1, INF], [[(1, 1, 0)], []])
        with pytest.raises(NotMonotone):
            verify_theorem2(up, 2.0)

    def test_constant_tail_diverges(self):
        const = make_piecewise([0, INF], [[(1, 0, 0)]], require_nonneg=True)
        with pytest.raises(NormDiverges):
            verify_theorem2(const, 2.0)

    def test_zero_phi_degenerate(self):
        with pytest.raises(DegenerateInput, match="a.e. zero"):
            verify_theorem2(make_piecewise([0, INF], [[]]), 2.0)

    @pytest.mark.parametrize("seed", [19, 84])
    @pytest.mark.parametrize("p", [2.0, 3.0, 8.0])
    def test_difference_bound_restated(self, seed, p):
        # for p >= 2: ||H(phi)-phi||_p <= (p-1)^(-1/p) ||phi||_p, which is
        # exactly the lower verdict of the monotone form
        phi = fuzz_generate(FuzzConfig(seed=seed, monotone=True))
        rep = verify_theorem2(phi, p)
        assert rep.verdict_lower is Verdict.HOLDS
        # ratio >= (p-1)^{1/p} <=> the restated inequality
        assert rep.ratio >= (p - 1.0) ** (1.0 / p) - rep.error_budget


class TestStabilityAndSerialization:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_shrinking_tol_never_flips_holds_to_violated(self, p):
        f = fuzz_generate(FuzzConfig(seed=5))
        coarse = verify_theorem1(f, p, 1e-6)
        fine = verify_theorem1(f, p, 1e-11)
        for a, b in ((coarse.verdict_lower, fine.verdict_lower),
                     (coarse.verdict_upper, fine.verdict_upper)):
            if a is Verdict.HOLDS:
                assert b is not Verdict.VIOLATED

    @pytest.mark.parametrize("k", [0, 12, 20, 50, 100, 300])
    def test_scaling_the_support_never_violates(self, k):
        # The ratio of chi(0, 10^-k] is that of chi(0,1] at every k; past
        # k = 12 the absolute tol may leave it Inconclusive, never Violated.
        f = make_piecewise([0, 10.0 ** -k, INF], [[(1, 0, 0)], []])
        for p in P_GRID:
            for check in (verify_theorem1, verify_crude):
                rep = check(f, p)
                sides = (rep.verdict_lower, rep.verdict_upper)
                assert Verdict.VIOLATED not in sides
                if k <= 12:
                    assert sides == (Verdict.HOLDS, Verdict.HOLDS)

    def test_report_serialization_schema(self):
        rep = verify_theorem1(chi01(), 3.0)
        payload = json.loads(json.dumps(rep.to_dict()))
        assert set(payload) == {"p", "ratio", "ratio_err", "lower", "upper",
                                "verdict_lower", "verdict_upper", "budget"}
        assert payload["verdict_lower"] == "Holds"


@pytest.mark.parametrize("seed", [31, 62])
@pytest.mark.parametrize("p", [1.25, 2.0, 3.0])
def test_theorem_equivalence_on_transformed_pair(seed, p):
    # verify_theorem1 on f and verify_theorem2 on phi = H*f agree, since the
    # transform swaps the norm pair exactly
    from hardylab.duality import f_to_phi

    f = fuzz_generate(FuzzConfig(seed=seed))
    phi = f_to_phi(f)
    rep1 = verify_theorem1(f, p)
    rep2 = verify_theorem2(phi, p)
    assert rep1.ratio == pytest.approx(
        rep2.ratio, abs=rep1.ratio_err + rep2.ratio_err + 1e-9)
    assert rep1.verdict_lower == rep2.verdict_lower
    assert rep1.verdict_upper == rep2.verdict_upper
