import math

import pytest

from hardylab.errors import BadExponent, EpsOutOfRange, InsufficientData, NotRepresentable
from hardylab.extremal import (
    FamilyKind,
    Sandwich,
    SweepRecord,
    default_eps_grid,
    eps_range,
    estimate_limit,
    family,
    limit_ratio,
    paper_bounds,
    sweep,
    sweep_to_csv,
)
from hardylab.funcmodel import PowerLogAtom, evaluate
from hardylab.norms import QuadResult
from hardylab.verify import sharp_constants


class TestSandwich:
    def test_contains(self):
        s = Sandwich(1.0, 2.0)
        assert s.contains(1.0) and s.contains(2.0)
        assert not s.contains(0.5)
        assert not s.contains(2.5)
        assert s.contains(0.5, slack=0.5) and s.contains(2.5, slack=0.5)
        assert not Sandwich(1.0, None).contains(0.99)
        assert not Sandwich(None, 2.0).contains(2.01)
        assert Sandwich(None, None).contains(-1e300)


class TestFamily:
    def test_step(self):
        f = family(FamilyKind.STEP, 0.01, 2.0)
        assert f.breakpoints == (0.0, 1.0, 1.01, math.inf)
        assert evaluate(f, 1.005) == 1.0
        assert evaluate(f, 0.5) == 0.0

    def test_zero_singular(self):
        f = family(FamilyKind.ZERO_SINGULAR, 0.1, 2.0)
        assert f.pieces[0] == (PowerLogAtom(1.0, -0.4, 0),)
        assert f.pieces[1] == ()

    def test_infinity_singular(self):
        f = family(FamilyKind.INFINITY_SINGULAR, 0.01, 3.0)
        assert f.pieces[0] == ()
        assert f.pieces[1][0].exponent == pytest.approx(-0.01 - 1 / 3)

    def test_eps_out_of_range(self):
        with pytest.raises(EpsOutOfRange):
            family(FamilyKind.ZERO_SINGULAR, 0.6, 2.0)  # 0.6 >= 1/p
        with pytest.raises(EpsOutOfRange):
            family(FamilyKind.INFINITY_SINGULAR, 0.7, 3.0)  # >= 1/p'
        with pytest.raises(EpsOutOfRange):
            family(FamilyKind.STEP, 0.0, 2.0)


class TestPaperBounds:
    def test_step_values(self):
        hb, sb = paper_bounds(FamilyKind.STEP, 0.01, 2.0)
        assert hb.lo == pytest.approx(9.90099e-5, rel=1e-5)
        assert hb.hi == pytest.approx(1.000099e-4, rel=1e-5)
        assert sb.lo == pytest.approx(9.90091e-5, rel=1e-5)
        assert sb.hi == pytest.approx(9.99992e-5, rel=1e-5)

    def test_zero_singular_one_sided(self):
        eps, p = 0.01, 1.5
        hb, sb = paper_bounds(FamilyKind.ZERO_SINGULAR, eps, p)
        assert hb.lo == pytest.approx(p ** p / (eps * p * (p - 1 + eps * p) ** p))
        assert hb.hi is None
        assert sb.lo is None
        assert sb.hi == pytest.approx(p ** p / (eps * p * (1 - eps * p) ** p))

    def test_infinity_singular_one_sided(self):
        eps, p = 0.01, 3.0
        hb, sb = paper_bounds(FamilyKind.INFINITY_SINGULAR, eps, p)
        assert sb.lo == pytest.approx(27.0 / (0.03 * 1.03 ** 3))
        assert sb.hi is None
        assert hb.lo is None
        assert hb.hi == pytest.approx(p ** p / (eps * p * (p - 1 - eps * p) ** p))

    @pytest.mark.parametrize("kind, eps, p", [
        (FamilyKind.STEP, 1e300, 2.0),  # eps**p overflows
        (FamilyKind.ZERO_SINGULAR, 1e-4, 700.0),  # p**p overflows
        (FamilyKind.INFINITY_SINGULAR, 1e-4, 700.0),
    ])
    def test_out_of_range_refused(self, kind, eps, p):
        with pytest.raises(NotRepresentable, match="leave the double range"):
            paper_bounds(kind, eps, p)
        with pytest.raises(NotRepresentable):
            sweep(kind, p, [eps])


@pytest.mark.parametrize("p", [1.0, 0.5, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda kind, p: sweep(kind, p),
    lambda kind, p: sweep(kind, p, [0.01]),
    lambda kind, p: family(kind, 0.01, p),
    lambda kind, p: paper_bounds(kind, 0.01, p),
    lambda kind, p: limit_ratio(kind, p),
    lambda kind, p: default_eps_grid(kind, p),
], ids=["sweep", "sweep-grid", "family", "paper_bounds", "limit_ratio",
        "default_eps_grid"])
def test_bad_exponent_refused(call, p):
    # p - 1 divides every constant and limit; unchecked, p = 1 raises
    # ZeroDivisionError and the zero family at p = 0.5 a complex-number TypeError
    for kind in FamilyKind:
        with pytest.raises(BadExponent):
            call(kind, p)


class TestSweep:
    def test_underflowed_norms_unconverged(self):
        # at p = 700 both norms of the step family underflow: each record is
        # unconverged with NaN norms, not a division by a zero norm
        records = sweep(FamilyKind.STEP, 700.0, [0.1, 0.01])
        assert [r.converged for r in records] == [False, False]
        assert all(math.isnan(r.ratio) and r.sandwich_ok is None for r in records)
        # eps**p underflows to 0.0 too: an upper bound of 0 on a positive
        # norm**p would be wrong, so the bound is absent
        assert all(r.sandwich_lo is None and r.sandwich_hi is None for r in records)

    def test_step_p2_identity(self):
        records = sweep(FamilyKind.STEP, 2.0, [0.1, 0.01, 0.001])
        assert [r.eps for r in records] == [0.1, 0.01, 0.001]
        for r in records:
            budget = (r.norm_h.err + r.norm_hstar.err) / r.norm_hstar.value
            assert r.ratio == pytest.approx(1.0, abs=budget + 1e-12)
            assert r.converged
            assert r.sandwich_ok
        assert estimate_limit(records) == pytest.approx(1.0, abs=1e-6)

    def test_default_grid_caps_singular_families(self):
        grid = default_eps_grid(FamilyKind.ZERO_SINGULAR, 8.0)
        assert all(e < 0.49 / 8.0 for e in grid)
        assert default_eps_grid(FamilyKind.STEP, 8.0)[0] == pytest.approx(0.1)

    def test_grid_validation(self):
        with pytest.raises(EpsOutOfRange):
            sweep(FamilyKind.ZERO_SINGULAR, 2.0, [0.6])

    @pytest.mark.parametrize("p", [2.5, 4.0])
    def test_step_sandwiches_and_theorem_consistency(self, p):
        records = sweep(FamilyKind.STEP, p, [1e-2, 1e-3, 1e-4])
        c = sharp_constants(p)
        for r in records:
            assert r.sandwich_ok
            # the record ratio is ||Hf||/||H*f||; the theorem bounds its inverse
            inv = 1.0 / r.ratio
            budget = 1e-6 * inv + 1e-9
            assert c.lower - budget <= inv <= c.upper + budget

    def test_zero_singular_approaches_lower_from_below(self):
        p = 1.5
        records = sweep(FamilyKind.ZERO_SINGULAR, p, [3e-2, 1e-2, 3e-3, 1e-3])
        target = limit_ratio(FamilyKind.ZERO_SINGULAR, p)
        gaps = [target - r.ratio for r in records]
        assert all(g > -1e-9 for g in gaps)  # never exceeds the constant
        assert gaps == sorted(gaps, reverse=True)  # monotone approach

    @pytest.mark.parametrize("p", [1.5, 3.0, 8.0])
    def test_step_ratio_monotone_approach(self, p):
        # empirical on the default grid; not a theorem-backed invariant
        records = sweep(FamilyKind.STEP, p)
        lim = limit_ratio(FamilyKind.STEP, p)
        gaps = [abs(r.ratio - lim) for r in records]
        assert gaps == sorted(gaps, reverse=True)

    @pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda k: k.value)
    def test_kind_given_as_its_string(self, kind):
        assert family(kind.value, 1e-3, 3.0) == family(kind, 1e-3, 3.0)
        assert sweep(kind.value, 3.0, [1e-3]) == sweep(kind, 3.0, [1e-3])
        assert paper_bounds(kind.value, 1e-3, 3.0) == paper_bounds(kind, 1e-3, 3.0)
        assert limit_ratio(kind.value, 3.0) == limit_ratio(kind, 3.0)
        assert eps_range(kind.value, 3.0) == eps_range(kind, 3.0)
        assert default_eps_grid(kind.value, 3.0) == default_eps_grid(kind, 3.0)

    def test_estimate_limit_step_p3(self):
        records = sweep(FamilyKind.STEP, 3.0, [1e-2, 1e-3, 1e-4])
        lim = estimate_limit(records)
        assert lim == pytest.approx(2.0 ** (-1 / 3), rel=2e-3)

    def test_estimate_limit_needs_three(self):
        records = sweep(FamilyKind.STEP, 2.0, [0.1, 0.01])
        with pytest.raises(InsufficientData):
            estimate_limit(records)

    def test_sweep_marks_unconverged_instead_of_aborting(self, monkeypatch):
        from hardylab import extremal
        from hardylab.errors import NotConverged

        real = extremal.lp_norms
        def flaky(gs, p, tol):
            # fail only the smallest grid point's norms
            forced = NotConverged("forced", partial=QuadResult(1.0, 2.0))
            return [forced if any(abs(b - 1.001) < 1e-12 for b in g.breakpoints) else r
                    for g, r in zip(gs, real(gs, p, tol))]

        monkeypatch.setattr(extremal, "lp_norms", flaky)
        records = extremal.sweep(FamilyKind.STEP, 2.0, [0.1, 0.01, 0.001])
        assert [r.converged for r in records] == [True, True, False]
        assert records[-1].sandwich_ok is None
        assert records[-1].norm_h.err == 2.0

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda k: k.value)
    def test_record_equals_its_point_swept_alone(self, kind, p):
        # the norms of a grid share evaluator calls, never their results
        records = sweep(kind, p)
        assert len(records) > 1
        for r in records:
            assert sweep(kind, p, [r.eps]) == [r]

    def test_grid_shares_one_compile(self, gk15_calls, evaluator_calls, monkeypatch):
        from hardylab import norms

        compiles = 0
        real = norms._compile

        def counted(pis):
            nonlocal compiles
            compiles += 1
            return real(pis)

        monkeypatch.setattr(norms, "_compile", counted)
        sweep(FamilyKind.STEP, 3.0)
        together = gk15_calls(), evaluator_calls()
        assert compiles == 1
        for eps in default_eps_grid(FamilyKind.STEP, 3.0):
            sweep(FamilyKind.STEP, 3.0, [eps])
        alone = gk15_calls() - together[0], evaluator_calls() - together[1]
        # the same segments, in fewer evaluator calls
        assert together[0] == alone[0]
        assert together[1] < alone[1]

    def test_one_tail_bound_per_cutoff(self, gamma_tail_calls, monkeypatch):
        from hardylab import norms

        cutoffs = 0
        real = norms._choose_cutoff

        def counted(*args):
            nonlocal cutoffs
            cutoffs += 1
            return real(*args)

        monkeypatch.setattr(norms, "_choose_cutoff", counted)
        # log-free: every end's envelope has q = 0, so the steps short of the
        # target are skipped and only the step that meets it is evaluated
        sweep(FamilyKind.INFINITY_SINGULAR, 3.0)
        assert cutoffs > 0
        assert gamma_tail_calls() == cutoffs

    def test_unconverged_records_excluded(self):
        good = sweep(FamilyKind.STEP, 2.0, [0.1, 0.01, 0.001])
        bad = SweepRecord(1e-4, QuadResult(math.nan, math.inf),
                          QuadResult(math.nan, math.inf),
                          math.nan, None, None, False, None)
        lim = estimate_limit([*good, bad])
        assert lim == pytest.approx(1.0, abs=1e-6)


class TestCsv:
    def test_schema_and_blank_optional(self):
        records = sweep(FamilyKind.ZERO_SINGULAR, 1.5, [1e-2, 1e-3])
        text = sweep_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == ("eps,norm_H,norm_H_err,norm_Hstar,norm_Hstar_err,"
                            "ratio,sandwich_lo,sandwich_hi")
        first = lines[1].split(",")
        assert len(first) == 8
        assert first[7] == ""  # one-sided sandwich: hi absent
        assert float(first[0]) == 1e-2
