"""Sharp-constant tables and inequality verdicts with explicit error budgets.

The two-sided relation between the dual average and the average of a
nonnegative f,

    lower(p) * ||Hf||_p  <=  ||H*f||_p  <=  upper(p) * ||Hf||_p,

has regime-dependent sharp constants: (p-1, (p-1)**(1/p)) for 1 < p <= 2 and
((p-1)**(1/p), p-1) for p >= 2, both pairs meeting at 1 when p = 2.  The
same table governs ||phi||_p against ||H(phi)-phi||_p for nonincreasing phi
with decay, which is the equivalent monotone form (see duality).  The cruder
classical bounds are (1/p', p) and are strictly wider for p != 2.

Verdicts are three-valued so quadrature imprecision is never reported as a
counterexample: a computed violation smaller than the error budget is
Inconclusive, never Violated.  Extremal inputs sit exactly on a bound, so
equality within the floating floor counts as Holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateInput
from .funcmodel import PiecewiseFn, _certify_nonneg
from .norms import DEFAULT_TOL, QuadResult, check_exponent, check_lp_defined, lp_norms, unwrap
from .operators import dual_hardy, hardy, hardy_minus_identity

#: Exponent grid used by the property and fuzz suites: both regimes, the
#: joint point p = 2, and a large-p stress case.
P_GRID = (1.1, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 8.0)


class Verdict(str, Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Constants:
    """A two-sided constant pair for the norm ratio at exponent p."""

    p: float
    lower: float
    upper: float


@dataclass(frozen=True)
class VerificationReport:
    ratio: float
    ratio_err: float
    bounds: Constants
    verdict_lower: Verdict
    verdict_upper: Verdict
    error_budget: float

    def to_dict(self) -> dict:
        return {
            "p": self.bounds.p,
            "ratio": self.ratio,
            "ratio_err": self.ratio_err,
            "lower": self.bounds.lower,
            "upper": self.bounds.upper,
            "verdict_lower": self.verdict_lower.value,
            "verdict_upper": self.verdict_upper.value,
            "budget": self.error_budget,
        }

    @property
    def holds(self) -> bool:
        return (self.verdict_lower is Verdict.HOLDS
                and self.verdict_upper is Verdict.HOLDS)


def conjugate(p: float) -> float:
    return p / (p - 1.0)


def sharp_constants(p: float) -> Constants:
    """The best possible (lower, upper) pair for ||H*f||_p / ||Hf||_p."""
    check_exponent(p)
    root = (p - 1.0) ** (1.0 / p)
    if p <= 2.0:
        lower, upper = p - 1.0, root
    else:
        lower, upper = root, p - 1.0
    return Constants(p, lower, upper)


def crude_constants(p: float) -> Constants:
    """The classical non-sharp pair (1/p', p)."""
    check_exponent(p)
    return Constants(p, 1.0 / conjugate(p), p)


def _ratio_with_err(num: QuadResult, den: QuadResult) -> tuple[float, float]:
    ratio = num.value / den.value
    hi = (num.value + num.err) / max(den.value - den.err, 1e-300)
    lo = max(num.value - num.err, 0.0) / (den.value + den.err)
    return ratio, max(hi - ratio, ratio - lo)


def _verdict(slack: float, budget: float, floor: float) -> Verdict:
    """Three-zone verdict on one side of a non-strict inequality.

    Equality is attained by extremal inputs, so anything down to the
    tolerance-independent floating floor counts as Holds; an apparent
    violation inside the quadrature budget is Inconclusive; only a violation
    exceeding the budget is reported as such.  Shrinking the tolerance can
    therefore move Inconclusive either way but never turns Holds into
    Violated.
    """
    if slack >= -floor:
        return Verdict.HOLDS
    if slack < -budget:
        return Verdict.VIOLATED
    return Verdict.INCONCLUSIVE


def _report(num: QuadResult, den: QuadResult, bounds: Constants) -> VerificationReport:
    ratio, ratio_err = _ratio_with_err(num, den)
    budget_l = ratio_err + abs(bounds.lower) * 1e-12
    budget_u = ratio_err + abs(bounds.upper) * 1e-12
    floor_l = abs(bounds.lower) * 1e-12 + 4e-16 * max(1.0, ratio)
    floor_u = abs(bounds.upper) * 1e-12 + 4e-16 * max(1.0, ratio)
    return VerificationReport(
        ratio=ratio,
        ratio_err=ratio_err,
        bounds=bounds,
        verdict_lower=_verdict(ratio - bounds.lower, budget_l, floor_l),
        verdict_upper=_verdict(bounds.upper - ratio, budget_u, floor_u),
        error_budget=max(budget_l, budget_u),
    )


#: The last f verified, compared by value, and what was built from it: Hf,
#: H*f once some p has passed Hf's divergence test, and the last norm pair
#: under its (p, tol).  Holding f means f was certified nonnegative.
_memo: dict = {}


def _norm_pair(f: PiecewiseFn, p: float, tol: float) -> tuple[QuadResult, QuadResult]:
    """(||H*f||_p, ||Hf||_p), the numerator and denominator of both verdicts.

    Each f not in ``_memo`` is certified first, so a signed input raises
    NegativityDetected instead of getting a verdict; an f without atoms (a.e.
    zero) raises DegenerateInput.  Hf is tested for divergence before H*f is built.
    ``_memo`` keeps one f, so a run of p values on it certifies f and builds
    each operator once, and verify_theorem1 and verify_crude called back to
    back on equal arguments share one pair; a raised error is not kept.
    """
    global _memo
    if not any(f.pieces):
        raise DegenerateInput("f is a.e. zero; the norm ratio is undefined")
    memo = _memo
    if memo.get("f") != f:
        _certify_nonneg(f)
        memo = _memo = {"f": f, "hf": hardy(f)}
    at, pair = memo.get("pair", (None, None))
    if at != (p, tol):
        check_lp_defined(memo["hf"], p)
        if "dual" not in memo:
            memo["dual"] = dual_hardy(f)
        den, num = map(unwrap, lp_norms([memo["hf"], memo["dual"]], p, tol))
        pair = num, den
        memo["pair"] = (p, tol), pair
    return pair


def verify_theorem1(f: PiecewiseFn, p: float,
                    tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check the sharp two-sided bounds on ||H*f||_p / ||Hf||_p.

    f is certified nonnegative, once per f; a signed f raises
    NegativityDetected.
    """
    bounds = sharp_constants(p)
    return _report(*_norm_pair(f, p, tol), bounds)


def verify_crude(f: PiecewiseFn, p: float,
                 tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check the classical bounds 1/p' <= ||H*f||_p / ||Hf||_p <= p.

    Strictly wider than the sharp pair for p != 2, so a sharp Holds implies
    a crude Holds.  Signed input is refused as in verify_theorem1.
    """
    bounds = crude_constants(p)
    return _report(*_norm_pair(f, p, tol), bounds)


def verify_theorem2(phi: PiecewiseFn, p: float,
                    tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check the equivalent monotone form on ||phi||_p / ||H(phi)-phi||_p.

    ``phi`` must be nonincreasing, nonnegative, with phi(+inf) = 0; the
    constant table is identical to verify_theorem1's, which is exactly the
    equivalence the duality module demonstrates.
    """
    bounds = sharp_constants(p)
    diff = hardy_minus_identity(phi)
    num, den = map(unwrap, lp_norms([phi, diff], p, tol))
    if not any(diff.pieces):
        raise DegenerateInput("H(phi)-phi is a.e. zero; the ratio is undefined")
    return _report(num, den, bounds)
