"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines as they complete.  Every tolerance is pinned here, not configurable.
"""

import math
import random
import time

import numpy as np
import pytest

from hardylab.cli import FuzzConfig, fuzz_generate
from hardylab.duality import check_equivalence, f_to_phi, mollify
from hardylab.extremal import FamilyKind, family, sweep
from hardylab.funcmodel import evaluate, make_piecewise
from hardylab.norms import (
    CallableFn,
    ip_via_parts,
    ipstar_via_fubini,
    lp_norm,
    lp_norm_callable,
    numeric_hardy,
)
from hardylab.norms import _quad_with_singularities
from hardylab.operators import dual_hardy, hardy
from hardylab.verify import Verdict, verify_crude, verify_theorem1, verify_theorem2

INF = math.inf


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} [{status}] {description}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_p2_identity():
    """|  ||Hf||_2 - ||H*f||_2 | within combined bounds, bounds < 1e-6 rel."""
    start = time.time()
    worst_rel_err = 0.0
    ok = True
    for i in range(200):
        f = fuzz_generate(FuzzConfig(seed=50_000 + i))
        nh = lp_norm(hardy(f), 2.0, 1e-11)
        ns = lp_norm(dual_hardy(f), 2.0, 1e-11)
        if abs(nh.value - ns.value) > nh.err + ns.err:
            ok = False
        worst_rel_err = max(worst_rel_err,
                            nh.err / nh.value, ns.err / ns.value)
    elapsed = time.time() - start
    ok = ok and worst_rel_err < 1e-6 and elapsed < 60.0
    report(1, "p=2 identity over 200 fuzz functions", ok,
           f"worst rel bound {worst_rel_err:.2e}, {elapsed:.1f}s")


def test_criterion_2_theorem1_property_suite():
    """Zero Violated verdicts, sharp and crude, 200 fuzz x 8 exponents."""
    start = time.time()
    grid = (1.1, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 8.0)
    violated = 0
    checks = 0
    for i in range(200):
        f = fuzz_generate(FuzzConfig(seed=60_000 + i))
        for p in grid:
            for rep in (verify_theorem1(f, p), verify_crude(f, p)):
                for v in (rep.verdict_lower, rep.verdict_upper):
                    checks += 1
                    if v is Verdict.VIOLATED:
                        violated += 1
    elapsed = time.time() - start
    ok = violated == 0 and elapsed < 300.0
    report(2, "sharp + crude bounds over 200 fuzz x 8 exponents", ok,
           f"{checks} checks, {violated} violated, {elapsed:.1f}s")


def test_criterion_3_step_family_sharpness():
    """Step ratio within 0.5% of (p-1)^(-1/p) at eps=1e-4; sandwiches hold."""
    ok = True
    details = []
    for p in (2.5, 3.0, 4.0):
        records = sweep(FamilyKind.STEP, p)
        if not all(r.converged and r.sandwich_ok for r in records):
            ok = False
        smallest = min(records, key=lambda r: r.eps)
        assert smallest.eps == pytest.approx(1e-4)
        target = (p - 1.0) ** (-1.0 / p)
        rel = abs(smallest.ratio - target) / target
        details.append(f"p={p}: {rel:.2e}")
        if rel > 0.005:
            ok = False
    report(3, "step-family ratio at eps=1e-4 vs (p-1)^(-1/p), sandwiches", ok,
           "; ".join(details))


def test_criterion_4_zero_singular_family():
    """||Hf||/||H*f|| at p=1.5, eps=1e-3: within 2% of 2, never above."""
    p, eps = 1.5, 1e-3
    f = family(FamilyKind.ZERO_SINGULAR, eps, p)
    nh = lp_norm(hardy(f), p)
    ns = lp_norm(dual_hardy(f), p)
    ratio = nh.value / ns.value
    target = 1.0 / (p - 1.0)
    budget = (nh.err + ns.err) / ns.value + 1e-12 * target
    ok = abs(ratio - target) / target < 0.02 and ratio <= target + budget
    report(4, "zero-singular family at p=1.5, eps=1e-3", ok,
           f"ratio {ratio:.6f}, target {target}")


def test_criterion_5_infinity_singular_family():
    """||H*f||/||Hf|| at p=3, eps=1e-3: within 2% of 2, never above."""
    p, eps = 3.0, 1e-3
    f = family(FamilyKind.INFINITY_SINGULAR, eps, p)
    nh = lp_norm(hardy(f), p)
    ns = lp_norm(dual_hardy(f), p)
    ratio = ns.value / nh.value
    target = p - 1.0
    budget = (nh.err + ns.err) / nh.value + 1e-12 * target
    ok = abs(ratio - target) / target < 0.02 and ratio <= target + budget
    report(5, "infinity-singular family at p=3, eps=1e-3", ok,
           f"ratio {ratio:.6f}, target {target}")


def test_criterion_6_identity_cross_checks():
    """Both integral identities match the direct norms within 1e-6 rel."""
    worst = 0.0
    for i in range(50):
        f = fuzz_generate(FuzzConfig(seed=70_000 + i))
        for p in (1.5, 2.0, 3.0):
            direct_h = lp_norm(hardy(f), p).value ** p
            direct_s = lp_norm(dual_hardy(f), p).value ** p
            worst = max(worst,
                        abs(ip_via_parts(f, p).value - direct_h) / direct_h,
                        abs(ipstar_via_fubini(f, p).value - direct_s) / direct_s)
    ok = worst < 1e-6
    report(6, "by-parts and Fubini identities vs direct norms, 50 fuzz x 3 p",
           ok, f"worst rel gap {worst:.2e}")


def test_criterion_7_duality_equivalence():
    """Both transport identities and matching verdicts over 100 monotone fuzz."""
    worst_gap = 0.0
    ok = True
    for i in range(100):
        phi = fuzz_generate(FuzzConfig(seed=80_000 + i, monotone=True))
        rep = check_equivalence(phi, 2.0, tol=1e-8)  # raises on any failure
        worst_gap = max(worst_gap, rep.max_gap_difference_identity,
                        rep.max_gap_dual_identity)
        if rep.norm_gap_difference > rep.norm_budget_difference:
            ok = False
        if rep.norm_gap_phi > rep.norm_budget_phi:
            ok = False
    # verdict agreement on the transformed pair, a lighter sample
    for i in range(0, 100, 10):
        f = fuzz_generate(FuzzConfig(seed=81_000 + i))
        phi = f_to_phi(f)
        for p in (1.5, 2.0, 3.0):
            r1 = verify_theorem1(f, p)
            r2 = verify_theorem2(phi, p)
            if (r1.verdict_lower, r1.verdict_upper) != (
                    r2.verdict_lower, r2.verdict_upper):
                ok = False
    ok = ok and worst_gap < 1e-8
    report(7, "duality identities + verdict agreement, 100 monotone fuzz", ok,
           f"worst pointwise gap {worst_gap:.2e}")


def test_criterion_8_extremal_edge_case():
    """phi = chi(0,1] at p=3 sits exactly on the lower constant, Holds."""
    phi = make_piecewise([0, 1, INF], [[(1, 0, 0)], []], require_nonneg=True)
    rep = verify_theorem2(phi, 3.0)
    target = 2.0 ** (1.0 / 3.0)
    ok = (abs(rep.ratio - target) < 1e-9
          and rep.verdict_lower is Verdict.HOLDS
          and rep.verdict_upper is Verdict.HOLDS)
    report(8, "chi(0,1] at p=3: ratio == 2^(1/3), verdict Holds", ok,
           f"ratio - bound = {rep.ratio - target:.2e}")


def test_criterion_9_remark_reproduction():
    """Hf in L^p while f is not: black-box path on |x-1|^(-1/2) chi_[1,2]."""
    p = 2.0
    p_conj = 2.0

    def ev(x):
        if 1.0 < x <= 2.0:
            return (x - 1.0) ** (-1.0 / p)
        return 0.0

    f = CallableFn(ev, singular_points=(1.0,),
                   tail_exponent_hint=-10.0, zero_exponent_hint=0.0)

    # f**p truncated toward its singularity grows without bound
    truncated = []
    for delta in (1e-2, 1e-4, 1e-6):
        v, _ = _quad_with_singularities(lambda x: ev(x) ** p,
                                        1.0 + delta, 2.0, (1.0,), 1e-10)
        truncated.append(v)
    growing = all(b - a > 2.0 for a, b in zip(truncated, truncated[1:]))

    grid = np.unique(np.concatenate([
        np.geomspace(0.25, 8.0, 160),
        1.0 + np.geomspace(1e-10, 1.0, 80),
        2.0 - np.geomspace(1e-10, 1.0, 40)[::-1],
    ]))
    hf = numeric_hardy(f, grid)
    coarse = lp_norm_callable(hf, p, 1e-9)
    fine = lp_norm_callable(hf, p, 1e-10)
    stable = (math.isfinite(coarse.value)
              and abs(coarse.value - fine.value) < 1e-6)

    bounded = all(hf(x) <= p_conj / x * (1.0 + 1e-6) + 1e-12
                  for x in (1.0, 1.3, 2.0, 3.0, 5.0, 8.0, 20.0, 100.0))
    vanishes = hf(0.5) == 0.0

    ok = growing and stable and bounded and vanishes
    report(9, "remark function: truncated f^p diverges, ||Hf||_2 stable", ok,
           f"steps {[round(b - a, 2) for a, b in zip(truncated, truncated[1:])]}, "
           f"norm {coarse.value:.9f}, refinement change "
           f"{abs(coarse.value - fine.value):.2e}")


def _stepped_phi(rng: random.Random):
    n = rng.randint(1, 5)
    cuts = sorted(rng.uniform(0.1, 10.0) for _ in range(n))
    levels = sorted((rng.uniform(0.1, 5.0) for _ in range(n)), reverse=True)
    pieces = [[(lv, 0, 0)] for lv in levels] + [[]]
    return make_piecewise([0.0, *cuts, INF], pieces, require_nonneg=True)


def _affine_phi(rng: random.Random):
    n = rng.randint(1, 4)
    knots = sorted(rng.uniform(0.1, 10.0) for _ in range(n + 1))
    vals = sorted((rng.uniform(0.1, 5.0) for _ in range(n)), reverse=True)
    vals.append(0.0)
    pieces = [[(vals[0], 0, 0)]]
    for i in range(n):
        x0, x1, v0, v1 = knots[i], knots[i + 1], vals[i], vals[i + 1]
        slope = (v1 - v0) / (x1 - x0)
        pieces.append([(v0 - slope * x0, 0, 0), (slope, 1, 0)])
    pieces.append([])
    return make_piecewise([0.0, *knots, INF], pieces, require_nonneg=True)


def test_criterion_10_mollifier_suite():
    """phi_n <= phi_{n+1} <= phi at samples; norm within 1% at n=1024."""
    rng = random.Random(90_001)
    ok = True
    worst_norm_gap = 0.0
    for case in range(50):
        phi = _stepped_phi(rng) if case % 2 == 0 else _affine_phi(rng)
        m1 = mollify(phi, 1024)
        m2 = mollify(phi, 1025)
        cuts = [b for b in phi.breakpoints if 0.0 < b < INF]
        xs = np.geomspace(min(cuts) / 10.0, max(cuts) * 10.0, 40)
        for x in xs:
            a, b, c = evaluate(m1, x), evaluate(m2, x), evaluate(phi, x)
            if not (a <= b + 1e-10 and b <= c + 1e-10):
                ok = False
        n_phi = lp_norm(phi, 2.0)
        n_moll = lp_norm(m1, 2.0)
        gap = (n_phi.value - n_moll.value) / n_phi.value
        worst_norm_gap = max(worst_norm_gap, abs(gap))
        if not -1e-9 < gap < 0.01:
            ok = False
    report(10, "mollifier monotone below phi, norm within 1% at n=1024", ok,
           f"worst norm gap {worst_norm_gap:.2%} over 50 cases")
