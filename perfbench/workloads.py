"""The benchmark's workloads: seeded inputs, the timed calls, their checks.

A workload is one round of operations, built from the seed; a run repeats
whole rounds.  Every call goes through a hardylab module attribute looked up
at call time, so the wrappers that ``tracing`` installs see it.  hardylab gets
only what the benchmark generated: ``make_piecewise`` arguments or DSL text.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import checks

funcmodel = importlib.import_module("hardylab.funcmodel")
verify = importlib.import_module("hardylab.verify")
extremal = importlib.import_module("hardylab.extremal")
cli = importlib.import_module("hardylab.cli")


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its output.

    ``known_fault`` marks an op that fails today because of a known defect
    in the program; its failures are counted but do not make a run incorrect.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    known_fault: bool = False


# Each known defect of the program that a seeded input can meet only on some
# seeds is kept out of the seeded inputs, since a failure that depends on the
# seed cannot be counted the same in every run.  Each is exercised instead by
# a fixed op, the same in every round and on every seed, so that fixing the
# defect, or making it worse, moves the benchmark (see CHANGES.md).


# ---------------------------------------------------------------------------
# fuzz-general

#: The exponent grid of ``hardylab fuzz``: both regimes, p = 2 and p = 8.
P_GRID = (1.1, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 8.0)

#: Functions per round: every bounded-piece count 1..6 with and without an
#: atom on the unbounded piece, four times over.
FUZZ_FUNCTIONS = 48

#: Exponents closer to 0 than this are drawn again: dual_hardy's
#: coefficients c/a cancel there and verdicts can come out wrong.  NEAR_ZERO
#: keeps one such function in every round.
EXPONENT_GAP = 0.01

#: The function drawn as number 35 of seed 44 without the redraw: the middle
#: piece has exponent -1.6e-5, and verify_theorem1 at p = 2 reports a false
#: ``Violated`` (ratio 1 + 1.5e-12 against a budget of 5e-13).
NEAR_ZERO = (
    [0.0, 1.0848808964726149, 2.920722011236898, 6.936883245258844,
     8.607748507070518, 8.77893786532005, 9.60463563696397, math.inf],
    [[(4.587792705574817, 0.3513134363446717, 0)],
     [(9.284615670221957, -0.5573566790548257, 0)],
     [(5.193122103763166, -1.613012701939809e-05, 0)],
     [(1.5511255543408338, 1.9167488653111882, 0)],
     [(6.976391831040957, -0.6732175861390757, 0)],
     [(1.3510050123940525, -0.7678914597119523, 0)],
     [(0.20624677942497827, -2.5160999499530345, 0)]],
)


def fuzz_atoms(rng: random.Random, n: int, tail: bool):
    """Breakpoints and one power atom per piece, in FuzzConfig's ranges:
    cuts in (0.1, 10), exponent in (0, 2) next to zero, (-0.9, 2) in the
    middle, (-3, -1.1) on the unbounded piece, coefficients in (0.1, 10)."""
    cuts = sorted(rng.uniform(0.1, 10.0) for _ in range(n))
    pieces = []
    for i in range(n + 1):
        if i == n and not tail:
            pieces.append([])
            continue
        lo, hi = (0.0, 2.0) if i == 0 else (-3.0, -1.1) if i == n else (-0.9, 2.0)
        a = rng.uniform(lo, hi)
        while abs(a) < EXPONENT_GAP:
            a = rng.uniform(lo, hi)
        pieces.append([(rng.uniform(0.1, 10.0), a, 0)])
    return [0.0, *cuts, math.inf], pieces


def fuzz_ops(label: str, bps, pieces, ps, known_fault: bool = False) -> list[Op]:
    """One op per p on the function with these breakpoints and atoms."""
    f = funcmodel.make_piecewise(bps, pieces, require_nonneg=True)
    return [Op(label=f"{label} p={p}",
               call=lambda p=p: (verify.verify_theorem1(f, p), verify.verify_crude(f, p)),
               check=lambda out, p=p: checks.check_fuzz(
                   out[0].to_dict(), out[1].to_dict(), bps, pieces, p),
               known_fault=known_fault)
            for p in ps]


def fuzz_general(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for i in range(FUZZ_FUNCTIONS):
        bps, pieces = fuzz_atoms(rng, i % 6 + 1, (i // 6) % 2 == 1)
        ops += fuzz_ops(f"fuzz f{i}", bps, pieces, P_GRID)
    return ops + fuzz_ops("fuzz near-zero exponent", *NEAR_ZERO, [2.0], known_fault=True)


# ---------------------------------------------------------------------------
# extremal-sweep

#: (family, p range) strata; each gets two draws per round.  The power
#: families are swept in the regime where their ratio attains a constant.
SWEEP_STRATA = (
    ("step", 1.1, 1.5), ("step", 1.5, 1.95), ("step", 2.05, 3.0),
    ("step", 3.0, 5.0), ("step", 5.0, 8.0),
    ("zero", 1.1, 1.4), ("zero", 1.4, 1.7), ("zero", 1.7, 1.95),
    ("inf", 2.05, 3.0), ("inf", 3.0, 5.0), ("inf", 5.0, 8.0),
)


def _record(r) -> dict:
    return {"eps": r.eps, "norm_H": r.norm_h.value, "norm_H_err": r.norm_h.err,
            "norm_Hstar": r.norm_hstar.value, "norm_Hstar_err": r.norm_hstar.err,
            "ratio": r.ratio, "converged": r.converged}


def sweep_op(kind: str, p: float, floor: float = checks.FLOOR,
             known_fault: bool = False) -> Op:
    return Op(label=f"sweep {kind} p={p}",
              call=lambda: extremal.sweep(extremal.FamilyKind(kind), p),
              check=lambda out: checks.check_sweep(kind, p, [_record(r) for r in out], floor),
              known_fault=known_fault)


def extremal_sweep(seed: int) -> list[Op]:
    """Two draws per stratum, and the infinity family at p = 3 checked on
    err alone: its norm at eps = 1e-4 misses the closed form by more than
    err, as every power-family sweep down to 1e-4 can."""
    rng = random.Random(seed)
    ops = [sweep_op(kind, rng.uniform(lo, hi))
           for _ in range(2) for kind, lo, hi in SWEEP_STRATA]
    return ops + [sweep_op("inf", 3.0, floor=0.0, known_fault=True)]


# ---------------------------------------------------------------------------
# cli-monotone

#: 1 on (0,1], -3 on (1,2]: outside the nonnegative domain of the theorems.
SIGNED = '{"breakpoints":[0,1,2,"inf"],"pieces":[[{"c":1,"a":0,"k":0}],[{"c":-3,"a":0,"k":0}],[]]}'

#: A continuous piecewise-quadratic phi with a double root at its last cut,
#: drawn by seed 25 before the last term was made linear, and the p of its
#: ``duality`` call: a false EquivalenceViolated, exit 3.
DOUBLE_ROOT = (
    '{"breakpoints": [0.0, 0.7389023970608279, 2.4668747031226075, 4.054607053709674, "inf"], '
    '"pieces": [[{"c": 17.43689913664931, "a": 0, "k": 0}, {"c": -10.83033863275719, "a": 1, "k": 0}, '
    '{"c": 1.6843428871825918, "a": 2, "k": 0}], [{"c": 17.134849309160845, "a": 0, "k": 0}, '
    '{"c": -10.421556865787775, "a": 1, "k": 0}, {"c": 1.6843428871825918, "a": 2, "k": 0}], '
    '[{"c": 10.931183312968294, "a": 0, "k": 0}, {"c": -5.391981599285704, "a": 1, "k": 0}, '
    '{"c": 0.6649203643978803, "a": 2, "k": 0}], []]}',
    2.2039373996298326,
)

#: Four steps of height 4, 16 in all: ``duality`` at p = 5 takes about 60x
#: as long as on the seeded steps, which stay at most 5 high.
TALL_STEPS = [(4.0, b, 0) for b in (1.07, 2.96, 3.91, 5.05)]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def phi_json(terms) -> str:
    polys = checks.piece_polys(terms)
    return json.dumps({
        "breakpoints": [0.0, *(hi for _, hi, _ in polys), "inf"],
        "pieces": [[{"c": c, "a": j, "k": 0} for j, c in enumerate(poly) if c != 0.0]
                   for _, _, poly in polys] + [[]],
    })


def strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws from (lo, hi), one in each of n equal strata, shuffled, so
    that every round covers the range alike whatever the seed."""
    draws = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(draws)
    return draws


def monotone_inputs(rng: random.Random):
    """36 phi as (terms, DSL text); a term (w, b, d) is w*(b-x)**d on (0, b].

    Nine stepped phi in chi shorthand and nine in JSON, with 2..5 steps
    each; eighteen continuous piecewise-linear or -quadratic phi in JSON
    with 1..3 terms.  Step heights stay at most 5: from about 12,
    ``duality`` at large p takes 0.9 s instead of 15 ms, which would turn
    this CLI workload into a quadrature one; TALL_STEPS keeps one such call
    in every round.
    """
    out = []
    for i in range(9):
        terms = [(1.0, rng.uniform(0.2, 6.0), 0) for _ in range(2 + i % 4)]
        out.append((terms, "+".join(f"chi(0,{b!r})" for _, b, _ in terms)))
    for i in range(9):
        terms = [(rng.uniform(0.2, 1.0), rng.uniform(0.2, 6.0), 0) for _ in range(2 + i % 4)]
        out.append((terms, phi_json(terms)))
    for i in range(18):
        terms = [(rng.uniform(0.2, 3.0), rng.uniform(0.3, 5.0), rng.randint(1, 2))
                 for _ in range(1 + i % 3)]
        # phi vanishes linearly at its last cut: a double root there can make
        # ``duality`` report a false EquivalenceViolated (DOUBLE_ROOT)
        terms = sorted(terms, key=lambda t: t[1])
        terms[-1] = (*terms[-1][:2], 1)
        out.append((terms, phi_json(terms)))
    return out


def _cli_op(command: str, argv: list[str], terms, p: float) -> Op:
    return Op(label=" ".join(argv[:2]) + f" p={p}",
              call=lambda: run_cli(argv),
              check=lambda out: checks.check_cli(command, terms, p, *out))


def cli_monotone(seed: int) -> list[Op]:
    """Five calls per phi: thm2, duality, diff and norm at two p.  With three
    of five calls fast, the median op sits inside the cluster of fast calls,
    not on the gap between them and the quadrature-heavy ones.  p is drawn
    from (1.2, 6) by strata; norm of a polynomial phi takes p = 2, 3, 4."""
    rng = random.Random(seed)
    phis = monotone_inputs(rng)
    n = len(phis)
    p_thm2, p_dual = strata(rng, n, 1.2, 6.0), strata(rng, n, 1.2, 6.0)
    n_stepped = sum(all(d == 0 for _, _, d in terms) for terms, _ in phis)
    p_step = iter(strata(rng, 2 * n_stepped, 1.2, 6.0))
    ops = []
    for i, (terms, spec) in enumerate(phis):
        stepped = all(d == 0 for _, _, d in terms)
        ops += [
            _cli_op("thm2", ["verify", "thm2", "-f", spec, "-p", repr(p_thm2[i])],
                    terms, p_thm2[i]),
            _cli_op("duality", ["duality", "-f", spec, "-p", repr(p_dual[i])],
                    terms, p_dual[i]),
            _cli_op("diff", ["apply", "diff", "-f", spec], terms, 0.0),
        ]
        for j in range(2):
            p_norm = next(p_step) if stepped else float(2 + (2 * i + j) % 3)
            ops.append(_cli_op("norm", ["norm", "-f", spec, "-p", repr(p_norm)], terms, p_norm))
    ops.append(_cli_op("duality", ["duality", "-f", phi_json(TALL_STEPS), "-p", "5"],
                       TALL_STEPS, 5.0))
    spec, p = DOUBLE_ROOT
    ops.append(Op("duality double root", lambda: run_cli(["duality", "-f", spec, "-p", repr(p)]),
                  lambda out: checks.check_cli("duality", (), p, *out), known_fault=True))
    ops.append(Op("signed norm -p 2", lambda: run_cli(["norm", "-f", SIGNED, "-p", "2"]),
                  lambda out: checks.check_signed_norm(*out), known_fault=True))
    ops.append(Op("signed verify thm1 -p 3",
                  lambda: run_cli(["verify", "thm1", "-f", SIGNED, "-p", "3"]),
                  lambda out: checks.check_signed_refusal(*out), known_fault=True))
    return ops


WORKLOADS = {
    "fuzz-general": fuzz_general,
    "extremal-sweep": extremal_sweep,
    "cli-monotone": cli_monotone,
}
