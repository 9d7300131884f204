import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from hardylab import cli
from hardylab.cli import (
    FuzzConfig,
    function_to_dsl,
    fuzz_generate,
    parse_function_spec,
    run,
)
from hardylab.errors import ParseError
from hardylab.funcmodel import (_certify_nonneg, add, evaluate, is_nonincreasing,
                                make_piecewise)
from hardylab.extremal import sweep
from hardylab.verify import Verdict, verify_crude, verify_theorem1

INF = math.inf

#: 1 on (0,1], -3 on (1,2]: outside the nonnegative domain of the theorems.
SIGNED = ('{"breakpoints":[0,1,2,"inf"],'
          '"pieces":[[{"c":1,"a":0,"k":0}],[{"c":-3,"a":0,"k":0}],[]]}')


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestParse:
    def test_chi(self):
        f = parse_function_spec("chi(1,1.01)")
        assert f.breakpoints == (0.0, 1.0, 1.01, INF)
        assert evaluate(f, 1.005) == 1.0
        assert evaluate(f, 0.5) == 0.0

    def test_pow(self):
        f = parse_function_spec("pow(-0.4,0,1)")
        assert evaluate(f, 0.5) == pytest.approx(0.5 ** -0.4)
        assert evaluate(f, 2.0) == 0.0

    def test_sum(self):
        f = parse_function_spec("chi(0,1)+pow(-2,1,inf)")
        assert evaluate(f, 0.5) == 1.0
        assert evaluate(f, 2.0) == pytest.approx(0.25)

    def test_json_dsl(self):
        f = parse_function_spec(
            '{"breakpoints":[0,1,"inf"],"pieces":[[{"c":1,"a":0,"k":0}],[]]}')
        assert evaluate(f, 0.5) == 1.0

    def test_parse_error_position(self):
        for spec in ("chi(0,1)+nonsense(2)", "chi(0,1)+wat("):
            with pytest.raises(ParseError) as info:
                parse_function_spec(spec)
            assert info.value.position == 9

    @pytest.mark.parametrize("spec, plain", [
        ("chi(0,1e+1)", "chi(0,10)"),
        ("pow(-0.5,0,+2)", "pow(-0.5,0,2)"),
    ])
    def test_plus_inside_parentheses(self, spec, plain):
        # only a '+' outside parentheses joins terms; one in a number is a sign
        assert parse_function_spec(spec) == parse_function_spec(plain)
        code, out, _ = capture(["norm", "-f", spec, "-p", "1.5"])
        assert (code, out) == capture(["norm", "-f", plain, "-p", "1.5"])[:2]
        assert code == 0

    def test_round_trip_through_dsl(self):
        f = parse_function_spec("chi(0,1)+pow(-2,1,inf)")
        g = parse_function_spec(json.dumps(function_to_dsl(f)))
        assert g == f


def _spec(pieces, breakpoints=(0, 1, "inf")):
    return json.dumps({"breakpoints": list(breakpoints), "pieces": pieces})


class TestMalformedInput:
    """Malformed specs and counts, and inputs whose exact result overflows,
    exit 3 with a message, never a traceback or a silent reading."""

    @pytest.mark.parametrize("argv", [
        ["apply", "hardy", "-f", _spec([[], []], [0, [1], "inf"])],
        ["apply", "hardy", "-f", _spec(5)],
        ["apply", "hardy", "-f", _spec([[5], []])],
        ["apply", "hardy", "-f", _spec([[{"c": "x", "a": 0}], []])],
        ["apply", "hardy", "-f", _spec([[{"c": 1, "a": 0, "k": 0.5}], []])],
        ["apply", "hardy", "-f", "pow(nan,0,1)"],
        ["apply", "hardy", "-f", _spec([[]], [0, "abc"])],
        ["apply", "hardy", "-f", _spec([[{"C": 1, "a": 0}], []])],
        ["fuzz", "--seed", "1", "--count", "-3"],
        # the average of x**1e300 on (0, 2] overflows its constant atom
        ["apply", "hardy", "-f", "pow(1e300,0,2)"],
        ["apply", "hardy", "-f", _spec([[{"c": 1e308}, {"c": 1e308}], []])],
        # JSON true and false are not read as 1 and 0
        ["apply", "hardy", "-f", _spec([[{"c": 1}], []], [False, True, "inf"])],
        ["apply", "hardy", "-f", _spec([[{"c": True, "a": False}], []])],
        ["apply", "hardy", "-f", _spec([[[1, 0, False]], []])],
        ["apply", "hardy", "-f", _spec([[{"c": 1, "coef": 4}], []])],
        # json.loads would keep the last of the two values
        ["apply", "hardy", "-f", '{"breakpoints":[0,1,"inf"],"pieces":[[{"c":1,"c":4}],[]]}'],
        # apply is exact: it takes no tolerance
        ["apply", "hardy", "-f", "chi(0,1)", "--tol", "1e-3"],
    ], ids=["list-breakpoint", "pieces-number", "atom-number", "string-coef",
            "fractional-k", "nan-exponent", "string-breakpoint", "unknown-key",
            "negative-count", "overflowing-average", "overflowing-sum",
            "boolean-breakpoint", "boolean-field", "boolean-list-atom",
            "coef-twice", "repeated-key", "apply-tol"])
    def test_exit_3(self, argv):
        code, out, err = capture(argv)
        assert code == 3
        assert out == ""
        assert ("error" in err) or ("NotRepresentable" in err)

    scalar = (st.none() | st.booleans() | st.integers() | st.floats()
              | st.sampled_from(["inf", "Inf", "abc", ""]))
    json_value = st.recursive(
        scalar,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(["c", "a", "k", "coef", "C"]), inner,
                          max_size=4),
        max_leaves=12,
    )
    atom = st.dictionaries(st.sampled_from(["c", "a", "k", "coef", "exponent", "C"]),
                           scalar, min_size=1, max_size=3) | json_value

    @staticmethod
    def _partition(cuts):
        """A valid partition with one list of arbitrary atoms per piece."""
        bps = [0, *sorted(set(cuts)), "inf"]
        pieces = st.lists(st.lists(TestMalformedInput.atom, max_size=3),
                          min_size=len(bps) - 1, max_size=len(bps) - 1)
        return st.fixed_dictionaries({"breakpoints": st.just(bps), "pieces": pieces})

    number = (st.integers(0, 4).map(str) | st.floats().map(repr)
              | st.sampled_from(["inf", "-1", "nan", "1e400", "", "x"]))
    term = st.one_of(
        st.tuples(st.just("chi"), st.lists(number, min_size=2, max_size=2)),
        st.tuples(st.just("pow"), st.lists(number, min_size=3, max_size=3)),
        st.tuples(st.sampled_from(["chi", "pow ", "exp"]), st.lists(number, max_size=4)),
    )

    @given(text=st.one_of(
        st.lists(st.floats(1e-3, 1e3), max_size=4).flatmap(_partition).map(json.dumps),
        st.fixed_dictionaries({"breakpoints": json_value, "pieces": json_value})
        .map(json.dumps),
        st.lists(term, min_size=1, max_size=4)
        .map(lambda terms: "+".join(f"{n}({','.join(a)})" for n, a in terms)),
        st.text(max_size=30),
    ))
    @settings(max_examples=300, deadline=None)
    def test_run_never_raises(self, text):
        assert capture(["apply", "hardy", "-f", text])[0] in (0, 3)


class TestDslSum:
    """A '+'-joined sum parses to the exact funcmodel.add fold of its terms,
    each built alone."""

    end = st.sampled_from([0.0, 0.5, 1.0, 2.5, 3.0, INF])

    @given(terms=st.lists(
        st.tuples(st.sampled_from([None, -0.5, 0.0, 1.0, 2.0]), end, end)
        .filter(lambda t: t[1] < t[2]),
        min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_sum_equals_fold(self, terms):
        text = "+".join(f"chi({lo},{hi})" if a is None else f"pow({a},{lo},{hi})"
                        for a, lo, hi in terms)
        ref = None
        for a, lo, hi in terms:
            bps = sorted({0.0, lo, hi, INF})
            atom = (1.0, 0.0 if a is None else a, 0)
            term = make_piecewise(bps, [[atom] if lo <= b < hi else []
                                        for b in bps[:-1]])
            ref = term if ref is None else add(ref, term)
        f = parse_function_spec(text)
        assert f == ref


class TestFuzzGenerate:
    def test_deterministic(self):
        cfg = FuzzConfig(seed=123456789)
        assert fuzz_generate(cfg) == fuzz_generate(cfg)

    def test_monotone_mode(self):
        for seed in (1, 2, 3, 4, 5):
            phi = fuzz_generate(FuzzConfig(seed=seed, monotone=True))
            assert is_nonincreasing(phi)
            _certify_nonneg(phi)

    def test_general_mode_admissible(self):
        for seed in (10, 20, 30):
            f = fuzz_generate(FuzzConfig(seed=seed))
            assert verify_crude(f, 2.0).holds


class TestRun:
    def test_verify_holds_exit_zero(self):
        code, out, _ = capture(["verify", "thm1", "-f", "chi(0,1)", "-p", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict_lower"] == "Holds"
        assert payload["ratio"] == pytest.approx(4 ** (1 / 3), rel=1e-8)

    def test_bad_exponent_exit_three(self):
        code, _, _ = capture(["verify", "thm1", "-f", "chi(0,1)", "-p", "0.5"])
        assert code == 3

    @pytest.mark.parametrize("argv, msg", [
        pytest.param(command + bad, msg, id=name + suffix)
        for name, command in {
            "norm": ["norm", "-f", "chi(0,1)"],
            "thm1": ["verify", "thm1", "-f", "chi(0,1)"],
            "thm2": ["verify", "thm2", "-f", "chi(0,1)"],
            "crude": ["verify", "crude", "-f", "chi(0,1)"],
            "duality": ["duality", "-f", "chi(0,1)"],
            "sweep": ["sweep", "--family", "step"],
            "fuzz": ["fuzz", "--seed", "1", "--count", "1"],
            "fuzz-count-0": ["fuzz", "--seed", "1", "--count", "0"],
        }.items()
        for suffix, bad, msg in (
            ("", ["-p", "inf"], "BadExponent: p must be finite"),
            ("-p-half", ["-p", "0.5"], "BadExponent: p must exceed 1"),
            ("-tol-nan", ["-p", "2", "--tol", "nan"], "BadTolerance: tol must be positive"),
            ("-tol-negative", ["-p", "2", "--tol", "-1"], "BadTolerance: tol must be positive"),
        )
    ])
    def test_infinite_exponent_exit_three(self, argv, msg):
        # the library refuses p and tol itself; the CLI adds no check of its
        # own.  At p = inf, p * 0 = NaN made every envelope NaN: the cutoff
        # search ran out (exit 2) and sweep printed NaN rows
        code, out, err = capture(argv)
        assert code == 3 and out == ""
        assert msg in err

    def test_parse_error_exit_three(self):
        code, _, err = capture(["verify", "thm1", "-f", "wat(", "-p", "2"])
        assert code == 3
        assert "parse error" in err

    def test_norm_reports_divergence(self):
        code, out, _ = capture(["norm", "-f", "pow(-0.5,1,inf)", "-p", "2"])
        assert code == 0
        assert json.loads(out)["diverges"] is True

    def test_norm_value(self):
        code, out, _ = capture(["norm", "-f", "chi(0,1)", "-p", "2"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-9)

    def test_apply_round_trips(self):
        code, out, _ = capture(["apply", "hardy", "-f", "chi(0,1)"])
        assert code == 0
        g = parse_function_spec(out)
        assert evaluate(g, 2.0) == pytest.approx(0.5)

    def test_sweep_csv_schema_and_determinism(self):
        argv = ["sweep", "--family", "step", "-p", "2",
                "--grid", "0.1", "0.01", "0.001"]
        code1, out1, err1 = capture(argv)
        code2, out2, _ = capture(argv)
        assert code1 == code2 == 0
        assert out1 == out2
        header = out1.split("\n")[0]
        assert header == ("eps,norm_H,norm_H_err,norm_Hstar,norm_Hstar_err,"
                          "ratio,sandwich_lo,sandwich_hi")
        assert "estimated eps->0 limit" in err1

    def test_sweep_short_grid_skips_limit(self):
        code, out, err = capture(["sweep", "--family", "step", "-p", "2",
                                  "--grid", "0.1", "0.01"])
        assert code == 0
        assert len(out.strip().split("\n")) == 3
        assert "too few" in err

    def test_sweep_json(self):
        code, out, _ = capture(["sweep", "--family", "step", "-p", "2",
                                "--grid", "0.1", "0.01", "0.001",
                                "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["limit"] == pytest.approx(1.0, abs=1e-6)
        assert len(payload["records"]) == 3

    def test_duality_auto_mollifies_steps(self):
        code, out, err = capture(["duality", "-f", "chi(0,1)", "-p", "2"])
        assert code == 0
        assert "mollifying" in err
        assert json.loads(out)["verdict"] == "pass"

    def test_duality_huge_breakpoint(self):
        # the identities are checked piece by piece, with no span of sample
        # points that would run past the double range above 2e307
        code, out, _ = capture(["duality", "-f", _spec(
            [[{"c": 1}], [{"c": 1, "a": -1}], [{"c": 1, "a": -1}]],
            [0, 1, 2e307, "inf"]), "-p", "2"])
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_fuzz_counts_and_determinism(self):
        argv = ["fuzz", "--seed", "7", "--count", "3", "-p", "2", "-p", "3"]
        code1, out1, _ = capture(argv)
        code2, out2, _ = capture(argv)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["violated"] == 0
        assert payload["first_failure"] is None
        # 3 cases x 2 p x 2 theorems x 2 sides
        assert payload["checks"] == 24

    def test_fuzz_monotone_holds(self):
        code, out, _ = capture(["fuzz", "--seed", "7", "--count", "3", "--monotone"])
        payload = json.loads(out)
        assert code == 0
        # 3 cases x 9 grid exponents x 1 theorem x 2 sides
        assert payload["checks"] == payload["holds"] == 54

    @pytest.mark.parametrize("lower, upper, want", [
        (Verdict.HOLDS, Verdict.HOLDS, 0),
        (Verdict.HOLDS, Verdict.INCONCLUSIVE, 2),
        (Verdict.VIOLATED, Verdict.HOLDS, 1),
        (Verdict.INCONCLUSIVE, Verdict.VIOLATED, 1),
    ])
    def test_verify_exit_code_follows_verdicts(self, monkeypatch, lower, upper, want):
        real = verify_theorem1(make_piecewise([0, 1, INF], [[(1, 0, 0)], []]), 3.0)
        monkeypatch.setattr(cli, "verify_theorem1", lambda f, p, tol: dataclasses.replace(
            real, verdict_lower=lower, verdict_upper=upper))
        code, out, _ = capture(["verify", "thm1", "-f", "chi(0,1)", "-p", "3"])
        assert code == want
        assert (json.loads(out)["verdict_lower"], json.loads(out)["verdict_upper"]) == (
            lower.value, upper.value)

    @pytest.mark.parametrize("converged, sandwich_ok, want", [
        (True, True, 0), (True, False, 1), (False, None, 2),
    ])
    def test_sweep_exit_code_follows_records(self, monkeypatch, converged,
                                             sandwich_ok, want):
        records = sweep("step", 2.0, [0.1, 0.01, 0.001])
        bad = dataclasses.replace(records[1], converged=converged, sandwich_ok=sandwich_ok)
        monkeypatch.setattr(cli, "sweep", lambda *args: [records[0], bad, records[2]])
        for fmt in ("csv", "json"):
            code, _, _ = capture(["sweep", "--family", "step", "-p", "2",
                                  "--format", fmt])
            assert code == want

    def test_thm2_zero_phi_degenerate(self):
        code, out, err = capture(["verify", "thm2", "-f", _spec([[]], [0, "inf"]),
                                  "-p", "2"])
        assert code == 3 and out == ""
        assert "degenerate input:" in err

    def test_fuzz_default_grid(self):
        # no -p given: the full verification grid is used
        code, out, _ = capture(["fuzz", "--seed", "3", "--count", "2"])
        assert code == 0
        payload = json.loads(out)
        # 2 cases x 9 grid exponents x 2 theorems x 2 sides
        assert payload["checks"] == 72
        assert payload["violated"] == 0

    def test_signed_norm_integrates_absolute_value(self):
        # 1 on (0,1], -3 on (1,2]: ||f||_2 = sqrt(1 + 9)
        code, out, _ = capture(["norm", "-f", SIGNED, "-p", "2"])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"] - math.sqrt(10.0)) <= payload["err"]

    @pytest.mark.parametrize("theorem", ["thm1", "crude"])
    def test_signed_verify_refused(self, theorem):
        code, out, err = capture(["verify", theorem, "-f", SIGNED, "-p", "3"])
        assert code == 3
        assert out == ""
        assert "NegativityDetected" in err

    @pytest.mark.parametrize("spec, lo, hi", [
        ('{"breakpoints":[0,3,"inf"],"pieces":[[],[{"c":1e40,"a":-2,"k":0}]]}', 3.0, INF),
        ('{"breakpoints":[0,0.1,"inf"],"pieces":[[{"c":1e40,"a":0.5,"k":0}],[]]}', 0.0, 0.1),
        ('{"breakpoints":[0,1,"inf"],"pieces":[[{"c":1e40,"a":0,"k":0}],[]]}', 0.0, 1.0),
    ], ids=["infinity-end", "zero-end", "interior"])
    def test_overflow_named_inside_support(self, spec, lo, hi):
        # |f|**8 overflows doubles; the message names an x where f lives
        code, out, err = capture(["norm", "-f", spec, "-p", "8"])
        assert code == 2
        assert out == ""
        assert "integrand overflows the double range" in err
        x = float(err.split("near x=")[1].split()[0])
        assert lo < x <= hi

    @pytest.mark.parametrize("argv, want, msg", [
        (["verify", "thm1", "-f", "chi(0,1)", "-p", "1e308"], 2,
         "remainder bound does not reach"),
        (["norm", "-f", _spec([[{"c": 0.01}], []]), "-p", "400"], 2,
         "the integral underflows the double range"),
        (["verify", "thm1", "-f", _spec([[{"c": 1e-200}], []]), "-p", "2"], 2,
         "the integral underflows the double range"),
        (["sweep", "--family", "step", "-p", "2", "--grid", "1e300"], 3,
         "NotRepresentable"),
        (["sweep", "--family", "zero", "-p", "700"], 3, "NotRepresentable"),
        (["sweep", "--family", "inf", "-p", "700"], 3, "NotRepresentable"),
    ], ids=["lgamma-overflow", "norm-underflow", "thm1-underflow", "step-eps-1e300",
            "zero-p700", "inf-p700"])
    def test_out_of_range_refused(self, argv, want, msg):
        code, out, err = capture(argv)
        assert (code, out) == (want, "")
        assert msg in err

    def test_underflowed_sweep_unconverged(self):
        code, out, _ = capture(["sweep", "--family", "step", "-p", "700"])
        assert code == 2
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 7 and all(row[1] == row[3] == "nan" for row in rows)
        assert all(row[6] == row[7] == "" for row in rows)  # underflowed bounds

    def test_zero_function_unchanged(self):
        zero = _spec([[]], breakpoints=(0, "inf"))
        code, out, _ = capture(["norm", "-f", zero, "-p", "2"])
        assert code == 0 and json.loads(out)["value"] == 0.0
        code, out, err = capture(["verify", "thm1", "-f", zero, "-p", "2"])
        assert (code, out) == (3, "") and "a.e. zero" in err

    def test_tiny_function_gets_verdict(self):
        # 1e-120 * chi(0,1] has atoms, so it is not a.e. zero however small
        code, out, _ = capture(["verify", "thm1", "-f", _spec([[{"c": 1e-120}], []]),
                                "-p", "2"])
        payload = json.loads(out)
        assert code == 0 and payload["ratio"] == pytest.approx(1.0, abs=payload["ratio_err"])

    def test_fuzz_computes_each_norm_pair_once(self, monkeypatch):
        import hardylab.verify as verify

        calls = 0
        real = verify.lp_norms

        def counted(gs, *args):
            nonlocal calls
            calls += len(gs)
            return real(gs, *args)

        monkeypatch.setattr(verify, "lp_norms", counted)
        code, _, _ = capture(["fuzz", "--seed", "7", "--count", "3", "-p", "2", "-p", "3"])
        assert code == 0
        # 3 cases x 2 p x (||Hf||, ||H*f||), shared by both theorems
        assert calls == 12

    def test_parser_reused_after_failed_parse(self):
        argv = ["norm", "-f", "chi(0,1)", "-p", "2"]
        alone = capture(argv)[:2]
        assert capture(["norm", "-p", "0.5"])[0] == 3
        assert capture(argv)[:2] == alone


def test_import_leaves_scipy_interpolate_unloaded():
    import hardylab

    src = os.path.dirname(os.path.dirname(hardylab.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import hardylab; "
            "print('scipy.interpolate' in sys.modules, "
            "'scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False"]
