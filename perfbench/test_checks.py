"""The checks can fail: wrong outputs are counted as failed ops.

    python3 -m pytest -q perfbench/test_checks.py

Each case feeds ``run.check_outputs`` an op whose output was tampered with:
a value shifted by twice its allowed error, a ratio outside the sharp
constants, a wrong sqrt(10), a swapped verdict.  The untouched output passes.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from workloads import Op


def failed_count(check, output, known_fault=False, rounds=3):
    """Failed ops when an op yields ``output`` in each of ``rounds`` rounds."""
    ops = [Op("op", lambda: None, check, known_fault)]
    failed, unexpected, _ = run.check_outputs(ops, rounds, [(0, output)])
    assert unexpected == (0 if known_fault else failed)
    return failed


def shifted(value, tol, sign=1.0):
    """value moved by twice the tolerance the checks allow it."""
    return value + sign * 2.0 * tol


# -- fuzz-general ------------------------------------------------------------

BPS = [0.0, 0.5, 2.0, math.inf]
PIECES = [[(2.0, 0.7, 0)], [(1.5, -0.4, 0)], [(3.0, -1.8, 0)]]


def report(ratio, err, p, pair, lower="Holds", upper="Holds"):
    lo, hi = pair(p)
    return {"p": p, "ratio": ratio, "ratio_err": err, "lower": lo, "upper": hi,
            "verdict_lower": lower, "verdict_upper": upper}


def fuzz_check(p):
    return lambda out: checks.check_fuzz(out[0], out[1], BPS, PIECES, p)


def fuzz_output(ratio, err, p, **verdicts):
    return (report(ratio, err, p, checks.sharp_pair, **verdicts),
            report(ratio, err, p, checks.crude_pair))


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_fuzz_oracle_value_shifted_by_twice_err(p):
    ref = checks.oracle_ratio(BPS, PIECES, int(p))
    err = 1e-10
    assert failed_count(fuzz_check(p), fuzz_output(ref, err, p)) == 0
    assert failed_count(fuzz_check(p), fuzz_output(shifted(ref, err), err, p)) == 3
    assert failed_count(fuzz_check(p), fuzz_output(shifted(ref, err, -1), err, p)) == 3


def test_fuzz_oracle_matches_direct_quadrature():
    import mpmath
    p = 3
    hf, hs = checks._averages(BPS, PIECES)
    ends = list(zip(BPS, BPS[1:]))

    def norm_p(parts):
        total = 0
        for atoms, (lo, hi) in zip(parts, ends):
            g = lambda x: sum(c * x ** e for c, e in atoms) ** p  # noqa: E731
            total += mpmath.quad(g, [lo, hi if math.isfinite(hi) else mpmath.inf])
        return total

    direct = float((norm_p(hs) / norm_p(hf)) ** (1.0 / p))
    assert direct == pytest.approx(checks.oracle_ratio(BPS, PIECES, p), rel=1e-12)


def test_fuzz_ratio_outside_sharp_constants():
    p = 1.5
    lo, hi = checks.sharp_pair(p)
    assert failed_count(fuzz_check(p), fuzz_output(0.5 * (lo + hi), 1e-12, p)) == 0
    assert failed_count(fuzz_check(p), fuzz_output(hi * 1.01, 1e-12, p)) == 3
    assert failed_count(fuzz_check(p), fuzz_output(lo * 0.99, 1e-12, p)) == 3


def test_fuzz_p2_ratio_not_one():
    assert failed_count(fuzz_check(2.0), fuzz_output(1.0, 1e-12, 2.0)) == 0
    assert failed_count(fuzz_check(2.0), fuzz_output(shifted(1.0, 1e-12), 1e-12, 2.0)) == 3


def test_fuzz_checked_on_err_alone():
    # a miss of 3e-15 with err 1e-15 fails, far below a 1e-12 relative floor
    assert failed_count(fuzz_check(2.0), fuzz_output(1.0 + 3e-15, 1e-15, 2.0)) == 3


def test_fuzz_swapped_verdict():
    p = 1.5
    lo, hi = checks.sharp_pair(p)
    out = fuzz_output(0.5 * (lo + hi), 1e-12, p, lower="Violated", upper="Holds")
    assert failed_count(fuzz_check(p), out) == 3


# -- extremal-sweep ----------------------------------------------------------

def exact_records(kind, p):
    """Records with the closed-form norm (zero: ||Hf||, inf: ||H*f||) and
    the other norm set so that the ratio sits on the sharp limit."""
    recs = []
    for eps in checks.eps_grid(kind, p):
        ex_h, ex_s = checks.exact_power(kind, eps, p)
        target = checks.sharp_limit(kind, p)
        if kind == "zero":
            h = ex_h ** (1 / p)
            s = h / target
        else:
            s = ex_s ** (1 / p)
            h = s / target
        recs.append({"eps": eps, "norm_H": h, "norm_H_err": 1e-12, "norm_Hstar": s,
                     "norm_Hstar_err": 1e-12, "converged": True,
                     "ratio": s / h if kind == "inf" else h / s})
    return recs


@pytest.mark.parametrize("kind,p,field", [("zero", 1.5, "norm_H"), ("inf", 3.0, "norm_Hstar")])
def test_sweep_closed_form_shifted_by_twice_err(kind, p, field):
    check = lambda recs: checks.check_sweep(kind, p, recs)  # noqa: E731
    recs = exact_records(kind, p)
    assert failed_count(check, recs) == 0
    bad = [dict(r) for r in recs]
    tol = bad[-1][field + "_err"] + checks.FLOOR * bad[-1][field]
    bad[-1][field] = shifted(bad[-1][field], tol)
    assert failed_count(check, bad) == 3


@pytest.mark.parametrize("kind,p,field", [("zero", 1.5, "norm_H"), ("inf", 3.0, "norm_Hstar")])
def test_sweep_floor_only_at_small_eps(kind, p, field):
    """A miss of 3 err within the floor passes at eps = 1e-4, but not at
    eps = 1e-1 nor with floor 0."""
    for i, floor, failed in ((-1, checks.FLOOR, 0), (-1, 0.0, 3), (0, checks.FLOOR, 3)):
        recs = [dict(r) for r in exact_records(kind, p)]
        recs[i][field] += 3.0 * recs[i][field + "_err"]
        assert 3.0 * recs[i][field + "_err"] < checks.FLOOR * recs[i][field]
        check = lambda out, f=floor: checks.check_sweep(kind, p, out, f)  # noqa: E731
        assert failed_count(check, recs) == failed


def test_sweep_limit_off_the_sharp_constant():
    check = lambda recs: checks.check_sweep("inf", 3.0, recs)  # noqa: E731
    recs = [dict(r) for r in exact_records("inf", 3.0)]
    for r in recs:
        r["norm_H"] *= 1.001
        r["ratio"] = r["norm_Hstar"] / r["norm_H"]
    assert failed_count(check, recs) == 3


# -- cli-monotone ------------------------------------------------------------

STEPS = [(1.0, 0.5, 0), (2.0, 3.0, 0)]
POLY = [(1.5, 2.0, 2), (0.5, 4.0, 1)]


def cli_out(payload, code=0):
    return code, json.dumps(payload)


def test_cli_norm_shifted_by_twice_err():
    for terms, p in ((STEPS, 2.7), (POLY, 3.0)):
        check = lambda out, t=terms, p=p: checks.check_cli("norm", t, p, *out)  # noqa: E731
        ref = checks.phi_norm(terms, p)
        assert failed_count(check, cli_out({"value": ref, "err": 1e-12})) == 0
        assert failed_count(check, cli_out({"value": shifted(ref, 1e-12), "err": 1e-12})) == 3
        assert failed_count(check, cli_out({"value": ref * (1 + 1e-14), "err": 0.0})) == 3


def test_cli_step_norm_closed_form():
    # phi = 3 on (0, 0.5], 2 on (0.5, 3]: ||phi||_2**2 = 9*0.5 + 4*2.5
    assert checks.phi_norm(STEPS, 2.0) == pytest.approx(math.sqrt(14.5), rel=1e-15)


def test_cli_diff_wrong_value():
    check = lambda out: checks.check_cli("diff", POLY, 0.0, *out)  # noqa: E731
    polys = checks.piece_polys(POLY)
    # H(phi) - phi on each piece, from the antiderivative of the polynomial
    pieces = []
    acc = 0.0
    for lo, hi, poly in polys:
        anti = [0.0] + [c / (j + 1) for j, c in enumerate(poly)]
        const = acc - sum(c * lo ** j for j, c in enumerate(anti))
        atoms = [{"c": const, "a": -1.0, "k": 0}]
        atoms += [{"c": c - poly[j - 1], "a": j - 1.0, "k": 0}
                  for j, c in enumerate(anti) if j >= 1]
        pieces.append(atoms)
        acc += sum(c * (hi ** j - lo ** j) for j, c in enumerate(anti))
    pieces.append([{"c": acc, "a": -1.0, "k": 0}])
    good = {"breakpoints": [0.0, *(hi for _, hi, _ in polys), "inf"], "pieces": pieces}
    assert failed_count(check, cli_out(good)) == 0
    good["pieces"][0][0]["c"] += 1e-6
    assert failed_count(check, cli_out(good)) == 3


def test_cli_swapped_verdicts():
    p = 3.0
    lo, hi = checks.sharp_pair(p)
    thm2 = lambda out: checks.check_cli("thm2", STEPS, p, *out)  # noqa: E731
    holds = report(0.5 * (lo + hi), 1e-12, p, checks.sharp_pair)
    assert failed_count(thm2, cli_out(holds)) == 0
    swapped = dict(holds, verdict_lower="Violated")
    assert failed_count(thm2, cli_out(swapped)) == 3
    assert failed_count(thm2, cli_out(swapped, code=1)) == 3
    duality = lambda out: checks.check_cli("duality", STEPS, p, *out)  # noqa: E731
    assert failed_count(duality, cli_out({"verdict": "pass"})) == 0
    assert failed_count(duality, cli_out({"verdict": "fail"})) == 3


def test_signed_input_checks():
    norm = lambda out: checks.check_signed_norm(*out)  # noqa: E731
    assert failed_count(norm, cli_out({"value": math.sqrt(10), "err": 1e-12}), True) == 0
    assert failed_count(norm, cli_out({"value": 1.0, "err": 9e-12}), True) == 3
    assert failed_count(norm, cli_out({"value": shifted(math.sqrt(10), 1e-12),
                                       "err": 1e-12}), True) == 3
    refusal = lambda out: checks.check_signed_refusal(*out)  # noqa: E731
    assert failed_count(refusal, (3, ""), True) == 0
    assert failed_count(refusal, cli_out({"verdict_lower": "Violated"}, code=1), True) == 3


def test_known_fault_counts_as_failed_but_not_unexpected():
    ops = [Op("fault", lambda: None, lambda out: "wrong", known_fault=True),
           Op("fine", lambda: None, lambda out: None)]
    failed, unexpected, _ = run.check_outputs(ops, 4, [(0, 1), (1, 1)])
    assert (failed, unexpected) == (4, 0)


def test_raised_and_changed_outputs_are_checked_individually():
    ops = [Op("op", lambda: None, lambda out: None if out == "ok" else "bad")]
    outputs = [(0, "ok"), (0, "bad"), (0, run.Raised(ValueError("boom")))]
    failed, unexpected, reasons = run.check_outputs(ops, 5, outputs)
    assert (failed, unexpected) == (2, 2)
    assert any("ValueError: boom" in r for r in reasons)


def test_workloads_do_not_load_the_checkers_mpmath():
    """peak_rss_mb is read before the checks run: mpmath must not be loaded
    by then, so that it measures hardylab's memory alone."""
    here = Path(__file__).resolve().parent
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "import workloads\n"
            "workloads.fuzz_general(1)\n"
            "assert 'mpmath' not in sys.modules, 'mpmath loaded'\n")
    subprocess.run([sys.executable, "-c", code, str(here), str(here.parent / "src")],
                   check=True, timeout=120)
