import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from hardylab.cli import (
    FuzzConfig,
    function_to_dsl,
    fuzz_generate,
    parse_function_spec,
    run,
)
from hardylab.errors import ParseError
from hardylab.funcmodel import evaluate, is_nonincreasing
from hardylab.verify import verify_crude

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
        with pytest.raises(ParseError):
            parse_function_spec("chi(0,1)+nonsense(2)")
        try:
            parse_function_spec("chi(0,1)+nonsense(2)")
        except ParseError as exc:
            assert exc.position == 9

    def test_round_trip_through_dsl(self):
        f = parse_function_spec("chi(0,1)+pow(-2,1,inf)")
        g = parse_function_spec(json.dumps(function_to_dsl(f)))
        assert g == f


class TestFuzzGenerate:
    def test_deterministic(self):
        cfg = FuzzConfig(seed=123456789)
        assert fuzz_generate(cfg) == fuzz_generate(cfg)

    def test_monotone_mode(self):
        for seed in (1, 2, 3, 4, 5):
            phi = fuzz_generate(FuzzConfig(seed=seed, monotone=True))
            assert is_nonincreasing(phi)
            assert phi.nonneg

    def test_general_mode_admissible(self):
        for seed in (10, 20, 30):
            f = fuzz_generate(FuzzConfig(seed=seed))
            assert verify_crude(f, 2.0).holds

    def test_n_pieces_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(seed=1, n_pieces=7)


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

    def test_fuzz_computes_each_norm_pair_once(self, monkeypatch):
        import hardylab.verify as verify

        calls = 0
        real = verify.lp_norm

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(verify, "lp_norm", counted)
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
