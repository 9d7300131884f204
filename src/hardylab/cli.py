"""Command-line front end and reproducible fuzz generation.

Function DSL (also accepted everywhere a function is read):

  * JSON: {"breakpoints": [0, 1, "inf"], "pieces": [[{"c":1,"a":0,"k":0}], []]}
  * shorthands: chi(l,r) for the characteristic function of (l, r] and
    pow(a,l,r) for x**a on (l, r] (r may be inf); terms joined by '+'.

Subcommands: norm, apply, verify, sweep, duality, fuzz.  Machine-readable
output goes to stdout only, diagnostics to stderr.  Exit codes: 0 all
Holds/pass, 1 any Violated/fail, 2 any Inconclusive or unconverged
quadrature, 3 usage or parse errors.

Fuzzing uses the stdlib Mersenne Twister (random.Random) keyed by a 64-bit
seed, so corpora reproduce bit-exactly across platforms.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass

import random

from . import __version__
from .errors import (
    DegenerateInput,
    HardyLabError,
    InsufficientData,
    NormDiverges,
    NotConverged,
    ParseError,
)
from .duality import check_equivalence, has_jumps, mollify
from .extremal import (
    FamilyKind,
    estimate_limit,
    record_to_dict,
    sweep,
    sweep_to_csv,
)
from .funcmodel import PiecewiseFn, make_piecewise
from .norms import check_exponent, check_tol, lp_norm
from .operators import dual_hardy, hardy, hardy_minus_identity
from .verify import (
    P_GRID,
    Verdict,
    verify_crude,
    verify_theorem1,
    verify_theorem2,
)

_AUTO_MOLLIFY_N = 1024


@dataclass(frozen=True)
class FuzzConfig:
    """Deterministic generator settings for one fuzz case; see fuzz_generate."""

    seed: int
    monotone: bool = False


def fuzz_generate(config: FuzzConfig) -> PiecewiseFn:
    """A random admissible function, a bit-exact function of the config.

    General mode: random breakpoints in (0.1, 10) and one atom c * x**a per
    piece, c in (0.1, 10), a in (0, 2) on the first piece, (-3, -1.1) on the
    unbounded piece (empty half the time) and (-0.9, 2) in between.  So f
    admits both operators with finite norms over the whole p-grid: it is
    integrable at zero, decays faster than 1/x**1.1, and stays clear of the
    a = -1 antiderivative blow-up.
    Monotone mode: the dual average of such a density, which is continuous,
    nonincreasing, and vanishes at infinity by construction.
    """
    rng = random.Random(config.seed)
    n = rng.randint(1, 6)  # bounded pieces
    cuts = sorted(rng.uniform(0.1, 10.0) for _ in range(n))
    bps = [0.0, *cuts, math.inf]
    pieces = []
    for i in range(n + 1):
        if i == 0:
            a = rng.uniform(0.0, 2.0)
        elif i == n:
            if rng.random() < 0.5:
                pieces.append([])
                continue
            a = rng.uniform(-3.0, -1.1)
        else:
            a = rng.uniform(-0.9, 2.0)
        c = rng.uniform(0.1, 10.0)
        pieces.append([(c, a, 0)])
    f = make_piecewise(bps, pieces, require_nonneg=True)
    if config.monotone:
        return dual_hardy(f)
    return f


# ---------------------------------------------------------------------------
# Function DSL

_TERM_RE = re.compile(r"(chi|pow)\s*\(([^()]*)\)\s*$")
_TERM_SEP = re.compile(r"\+(?![^()]*\))")  # a '+' outside parentheses


def _parse_number(token: str, position: int) -> float:
    token = token.strip()
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"expected a number, got {token!r}", position=position)


def _unique_keys(pairs) -> dict:
    """object_pairs_hook: refuse a repeated key (json.loads keeps its last value)."""
    if len({key for key, _ in pairs}) < len(pairs):
        raise ParseError(f"a JSON object repeats a key: {[key for key, _ in pairs]}")
    return dict(pairs)


def _parse_json_spec(text: str) -> PiecewiseFn:
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", position=exc.pos)
    if not isinstance(obj, dict) or "breakpoints" not in obj or "pieces" not in obj:
        raise ParseError("JSON spec needs 'breakpoints' and 'pieces'", position=0)
    try:
        fields = (v for piece in obj["pieces"] for atom in piece
                  for v in (atom.values() if isinstance(atom, dict) else atom))
        if any(isinstance(v, bool) for v in (*obj["breakpoints"], *fields)):
            raise TypeError("true and false are not numbers")
        bps = [_parse_number(b, 0) if isinstance(b, str) else float(b)
               for b in obj["breakpoints"]]
        return make_piecewise(bps, obj["pieces"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed JSON spec: {exc}") from None


def parse_function_spec(text: str) -> PiecewiseFn:
    """Parse the JSON DSL or a '+'-joined sum of shorthand terms."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty function spec", position=0)
    if stripped.startswith("{"):
        return _parse_json_spec(stripped)
    terms = []
    position = 0
    for term in _TERM_SEP.split(text):
        m = _TERM_RE.match(term.strip())
        if m is None:
            raise ParseError(
                f"cannot parse term {term.strip()!r}", position=position
            )
        name, argstr = m.group(1), m.group(2)
        args = [_parse_number(t, position) for t in argstr.split(",")]
        if name == "chi":
            if len(args) != 2:
                raise ParseError("chi takes (l, r)", position=position)
            args = [0.0, *args]
        elif len(args) != 3:
            raise ParseError("pow takes (a, l, r)", position=position)
        a, lo, hi = args
        if not 0.0 <= lo < hi:
            raise ParseError(f"need 0 <= l < r, got l={lo}, r={hi}", position=position)
        if not math.isfinite(a):
            raise ParseError(f"need a finite exponent, got a={a}", position=position)
        terms.append(((1.0, a, 0), lo, hi))
        position += len(term) + 1
    # one partition for the sum; each piece holds the atom of every term covering it
    bps = sorted({0.0, math.inf}.union(*((lo, hi) for _, lo, hi in terms)))
    pieces = [[atom for atom, lo, hi in terms if lo <= b0 and b1 <= hi]
              for b0, b1 in zip(bps, bps[1:])]
    return make_piecewise(bps, pieces)


def function_to_dsl(f: PiecewiseFn) -> dict:
    """Round-trippable JSON form of a PiecewiseFn."""
    return {
        "breakpoints": ["inf" if math.isinf(b) else b for b in f.breakpoints],
        "pieces": [
            [{"c": a.coef, "a": a.exponent, "k": a.log_power} for a in piece]
            for piece in f.pieces
        ],
    }


# ---------------------------------------------------------------------------
# Subcommands


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _exit_from_verdicts(verdicts) -> int:
    if any(v is Verdict.VIOLATED for v in verdicts):
        return 1
    if any(v is Verdict.INCONCLUSIVE for v in verdicts):
        return 2
    return 0


def _cmd_norm(args) -> int:
    f = parse_function_spec(args.function)
    try:
        res = lp_norm(f, args.p, args.tol)
    except NormDiverges as exc:
        _emit({"p": args.p, "diverges": True, "detail": str(exc)})
        return 0
    _emit({"p": args.p, "value": res.value, "err": res.err, "converged": True})
    return 0


def _cmd_apply(args) -> int:
    f = parse_function_spec(args.function)
    op = {"hardy": hardy, "dual": dual_hardy, "diff": hardy_minus_identity}[args.operator]
    _emit(function_to_dsl(op(f)))
    return 0


def _cmd_verify(args) -> int:
    f = parse_function_spec(args.function)
    fn = {"thm1": verify_theorem1, "thm2": verify_theorem2, "crude": verify_crude}
    report = fn[args.theorem](f, args.p, args.tol)
    _emit(report.to_dict())
    return _exit_from_verdicts([report.verdict_lower, report.verdict_upper])


def _cmd_sweep(args) -> int:
    kind = FamilyKind(args.family)
    grid = args.grid if args.grid else None
    records = sweep(kind, args.p, grid, args.tol)
    try:
        limit = estimate_limit(records)
    except InsufficientData:
        limit = None
        print("too few converged records to extrapolate a limit",
              file=sys.stderr)
    if args.format == "json":
        _emit({
            "family": kind.value,
            "p": args.p,
            "records": [record_to_dict(r) for r in records],
            "limit": limit,
        })
    else:
        sys.stdout.write(sweep_to_csv(records))
        if limit is not None:
            print(f"estimated eps->0 limit: {limit!r}", file=sys.stderr)
    if any(not r.converged for r in records):
        return 2
    if any(r.sandwich_ok is False for r in records):
        return 1
    return 0


def _cmd_duality(args) -> int:
    phi = parse_function_spec(args.function)
    if has_jumps(phi):
        print(
            f"phi has jumps; auto-mollifying with n={_AUTO_MOLLIFY_N}",
            file=sys.stderr,
        )
        phi = mollify(phi, _AUTO_MOLLIFY_N)
    report = check_equivalence(phi, args.p, args.tol)
    _emit(report.to_dict())
    return 0


def _cmd_fuzz(args) -> int:
    verifiers = (verify_theorem2,) if args.monotone else (verify_theorem1, verify_crude)
    ps = args.p or P_GRID
    for p in ps:
        check_exponent(p)
    check_tol(args.tol)
    counts = {v: 0 for v in Verdict}
    first_failure = None
    for i in range(args.count):
        seed = (args.seed * 1000003 + i) % (1 << 63)
        f = fuzz_generate(FuzzConfig(seed=seed, monotone=args.monotone))
        for p in ps:
            for verifier in verifiers:
                rep = verifier(f, p, args.tol)
                for verdict in (rep.verdict_lower, rep.verdict_upper):
                    counts[verdict] += 1
                    if verdict is not Verdict.HOLDS and first_failure is None:
                        first_failure = {"seed": seed, "p": p, "verdict": verdict.value}
    _emit({
        "cases": args.count,
        "checks": sum(counts.values()),
        "holds": counts[Verdict.HOLDS],
        "violated": counts[Verdict.VIOLATED],
        "inconclusive": counts[Verdict.INCONCLUSIVE],
        "first_failure": first_failure,
    })
    return _exit_from_verdicts([v for v in Verdict if counts[v]])


def _count(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return int(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: it holds no per-call state."""
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Averaging-operator norms, sharp inequality checks, "
                    "extremal sweeps, and the monotone duality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_function(sp):
        sp.add_argument("-f", "--function", required=True,
                        help="function DSL (JSON or chi/pow shorthand)")

    def add_common(sp, function=True):
        if function:
            add_function(sp)
        sp.add_argument("--tol", type=float, default=1e-9,
                        help="absolute tolerance on the p-th power of norms")

    sp = sub.add_parser("norm", help="Lp norm of a function")
    add_common(sp)
    sp.add_argument("-p", type=float, required=True)
    sp.set_defaults(fn=_cmd_norm)

    sp = sub.add_parser("apply", help="apply an operator, print the result DSL")
    sp.add_argument("operator", choices=["hardy", "dual", "diff"])
    add_function(sp)
    sp.set_defaults(fn=_cmd_apply)

    sp = sub.add_parser("verify", help="verdicts for the two-sided bounds")
    sp.add_argument("theorem", choices=["thm1", "thm2", "crude"])
    add_common(sp)
    sp.add_argument("-p", type=float, required=True)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("sweep", help="extremal family sweep")
    sp.add_argument("--family", choices=[k.value for k in FamilyKind],
                    required=True)
    sp.add_argument("-p", type=float, required=True)
    sp.add_argument("--grid", type=float, nargs="*",
                    help="explicit eps grid (default: log-spaced 1e-1..1e-4)")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    add_common(sp, function=False)
    sp.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("duality", help="check the monotone equivalence")
    add_common(sp)
    sp.add_argument("-p", type=float, required=True)
    sp.set_defaults(fn=_cmd_duality)

    sp = sub.add_parser("fuzz", help="seeded property suite over random inputs")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--count", type=_count, default=20)
    sp.add_argument("--monotone", action="store_true")
    sp.add_argument("-p", type=float, action="append",
                    help="exponent (repeatable; default: the verification grid)")
    add_common(sp, function=False)
    sp.set_defaults(fn=_cmd_fuzz)
    return parser


def run(argv) -> int:
    """Entry point returning the exit code; never raises for expected errors."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 3
    print(f"hardylab {__version__}", file=sys.stderr)
    try:
        return args.fn(args)
    except ParseError as exc:
        pos = f" at position {exc.position}" if exc.position is not None else ""
        print(f"parse error{pos}: {exc}", file=sys.stderr)
        return 3
    except NotConverged as exc:
        print(f"quadrature did not converge: {exc}", file=sys.stderr)
        return 2
    except DegenerateInput as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 3
    except HardyLabError as exc:
        print(f"{exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
