"""Extremal families, their closed-form norm sandwiches, and eps sweeps.

Three one-parameter families drive the norm ratio to the sharp constants:

  * Step: the characteristic function of (1, 1+eps], any eps > 0; the ratio
    ||Hf||_p / ||H*f||_p tends to (p-1)**(-1/p) as eps -> 0.
  * ZeroSingular: x**(eps - 1/p) on (0, 1], 0 < eps < 1/p; at 1 < p < 2 the
    same ratio tends to 1/(p-1) from below.
  * InfinitySingular: x**(-eps - 1/p) on (1, inf), 0 < eps < 1/p'; at p > 2
    the reciprocal ratio ||H*f||_p / ||Hf||_p tends to p-1.

Each family comes with closed-form two- or one-sided bounds on the relevant
norm**p ("sandwiches"); sweeps check every computed norm against them and a
small Richardson-style extrapolation estimates the eps -> 0 limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EpsOutOfRange, InsufficientData, NotConverged, NotRepresentable
from .funcmodel import PiecewiseFn, make_piecewise
from .norms import DEFAULT_TOL, QuadResult, check_exponent, lp_norms
from .operators import dual_hardy, hardy
from ._parallel import map_ordered


class FamilyKind(str, Enum):
    STEP = "step"
    ZERO_SINGULAR = "zero"
    INFINITY_SINGULAR = "inf"


class Sandwich(NamedTuple):
    """Closed-form bounds on a norm**p; either side may be absent."""

    lo: float | None
    hi: float | None

    def contains(self, value: float, slack: float = 0.0) -> bool:
        if self.lo is not None and value < self.lo - slack:
            return False
        if self.hi is not None and value > self.hi + slack:
            return False
        return True


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a sweep.

    ``ratio`` is the family's natural ratio (see module docstring); the
    sandwich fields bound the p-th power of the norm in its numerator.
    """

    eps: float
    norm_h: QuadResult
    norm_hstar: QuadResult
    ratio: float
    sandwich_lo: float | None
    sandwich_hi: float | None
    converged: bool
    sandwich_ok: bool | None


def eps_range(kind: FamilyKind | str, p: float) -> tuple[float, float]:
    kind = FamilyKind(kind)
    check_exponent(p)
    if kind is FamilyKind.STEP:
        return 0.0, math.inf
    if kind is FamilyKind.ZERO_SINGULAR:
        return 0.0, 1.0 / p
    return 0.0, 1.0 - 1.0 / p  # 1/p'


def _check_eps(kind: FamilyKind, eps: float, p: float) -> None:
    lo, hi = eps_range(kind, p)
    if not lo < eps < hi:
        raise EpsOutOfRange(
            f"{kind.value} family needs eps in ({lo}, {hi}), got {eps}"
        )


def family(kind: FamilyKind | str, eps: float, p: float) -> PiecewiseFn:
    """The exact family member as a PiecewiseFn (nonnegative by construction)."""
    kind = FamilyKind(kind)
    _check_eps(kind, eps, p)
    inf = math.inf
    if kind is FamilyKind.STEP:
        return make_piecewise([0.0, 1.0, 1.0 + eps, inf],
                              [[], [(1.0, 0.0, 0)], []],
                              require_nonneg=True)
    if kind is FamilyKind.ZERO_SINGULAR:
        return make_piecewise([0.0, 1.0, inf],
                              [[(1.0, eps - 1.0 / p, 0)], []],
                              require_nonneg=True)
    return make_piecewise([0.0, 1.0, inf],
                          [[], [(1.0, -eps - 1.0 / p, 0)]],
                          require_nonneg=True)


def paper_bounds(kind: FamilyKind | str, eps: float,
                 p: float) -> tuple[Sandwich, Sandwich]:
    """Closed-form sandwiches for (||Hf_eps||_p**p, ||H*f_eps||_p**p).

    NotRepresentable if a bound overflows the double range.  Every bound is
    positive, so one that underflows to 0.0 is left absent (None).
    """
    kind = FamilyKind(kind)
    _check_eps(kind, eps, p)
    try:
        if kind is FamilyKind.STEP:
            h_lo = eps ** p * (1.0 + eps) ** (1.0 - p) / (p - 1.0)
            s_lo = math.log1p(eps) ** p
            sands = (Sandwich(h_lo, h_lo + eps ** (p + 1.0)),
                     Sandwich(s_lo, s_lo * (1.0 + eps)))
        elif kind is FamilyKind.ZERO_SINGULAR:
            h_lo = p ** p / (eps * p * (p - 1.0 + eps * p) ** p)
            s_hi = p ** p / (eps * p * (1.0 - eps * p) ** p)
            sands = Sandwich(h_lo, None), Sandwich(None, s_hi)
        else:
            h_hi = p ** p / (eps * p * (p - 1.0 - eps * p) ** p)
            s_lo = p ** p / (eps * p * (1.0 + eps * p) ** p)
            sands = Sandwich(None, h_hi), Sandwich(s_lo, None)
    except OverflowError:  # a power past the double range: no bound at all
        sands = (Sandwich(math.inf, None),)
    if not all(math.isfinite(b) for sand in sands for b in sand if b is not None):
        raise NotRepresentable(f"the {kind.value} family's bounds at eps={eps}, "
                               f"p={p} leave the double range")
    return tuple(Sandwich(*(b or None for b in sand)) for sand in sands)


def limit_ratio(kind: FamilyKind | str, p: float) -> float:
    """The eps -> 0 limit of the family's natural norm ratio."""
    kind = FamilyKind(kind)
    check_exponent(p)
    if kind is FamilyKind.STEP:
        return (p - 1.0) ** (-1.0 / p)
    if kind is FamilyKind.ZERO_SINGULAR:
        return 1.0 / (p - 1.0)
    return p - 1.0


def default_eps_grid(kind: FamilyKind | str, p: float) -> tuple[float, ...]:
    """Log-spaced 1e-1 .. 1e-4, capped away from the divergence boundary.

    The sandwich relative width at eps = 1e-4 is about p*eps, comfortably
    inside half a percent for p <= 8; for the power families eps is capped
    at 0.49/p because quadrature degrades next to the boundary and the
    interesting regime is eps -> 0 anyway.
    """
    grid = np.geomspace(1e-1, 1e-4, 7)
    _, hi = eps_range(kind, p)
    if FamilyKind(kind) is not FamilyKind.STEP:
        grid = grid[grid < min(hi, 0.49 / p)]
    return tuple(float(e) for e in grid)


def _one_record(kind: FamilyKind, p: float, eps: float, sands: tuple[Sandwich, ...],
                *norms: QuadResult | NotConverged) -> SweepRecord:
    sand_h, sand_s = sands
    converged = not any(isinstance(n, NotConverged) for n in norms)
    nh, ns = (n.partial or QuadResult(math.nan, math.inf)
              if isinstance(n, NotConverged) else n for n in norms)
    if kind is FamilyKind.INFINITY_SINGULAR:
        ratio = ns.value / nh.value
        num_sand = sand_s
    else:
        ratio = nh.value / ns.value
        num_sand = sand_h
    ok = None
    if converged:
        # slack: propagated error on norm**p plus a floating allowance
        def pow_slack(n: QuadResult, v: float) -> float:
            return p * max(n.value, 1e-300) ** (p - 1.0) * n.err + 1e-11 * abs(v)

        ok = (sand_h.contains(nh.value ** p, pow_slack(nh, nh.value ** p))
              and sand_s.contains(ns.value ** p, pow_slack(ns, ns.value ** p)))
    return SweepRecord(
        eps=eps,
        norm_h=nh,
        norm_hstar=ns,
        ratio=ratio,
        sandwich_lo=num_sand.lo,
        sandwich_hi=num_sand.hi,
        converged=converged,
        sandwich_ok=ok,
    )


def sweep(kind: FamilyKind | str, p: float, eps_grid: Sequence[float] | None = None,
          tol: float = DEFAULT_TOL) -> list[SweepRecord]:
    """Norms, ratio, and sandwich checks over a decreasing eps grid.

    Records stay in eps-descending order; a grid point whose quadrature
    fails is marked unconverged instead of aborting the sweep.  All the
    norms of the grid share each evaluator call (norms.lp_norms).
    """
    kind = FamilyKind(kind)
    if eps_grid is None:
        grid = default_eps_grid(kind, p)
    else:
        grid = tuple(sorted((float(e) for e in eps_grid), reverse=True))
        for e in grid:
            _check_eps(kind, e, p)
    members = [(family(kind, e, p), paper_bounds(kind, e, p)) for e in grid]
    norms = lp_norms([op(f) for f, _ in members for op in (hardy, dual_hardy)], p, tol)
    cases = zip(grid, (sands for _, sands in members), norms[::2], norms[1::2])
    return map_ordered(lambda case: _one_record(kind, p, *case), cases)


def estimate_limit(records: Sequence[SweepRecord]) -> float:
    """Extrapolate the ratio to eps = 0 from the last three converged records.

    Quadratic polynomial through the three smallest-eps points, evaluated at
    eps = 0; on the default log-spaced grid this removes the leading O(eps)
    bias of the raw ratio.
    """
    good = [r for r in records if r.converged]
    if len(good) < 3:
        raise InsufficientData("at least three converged records are required")
    good = sorted(good, key=lambda r: r.eps)[:3]
    (x1, y1), (x2, y2), (x3, y3) = ((r.eps, r.ratio) for r in good)
    if len({x1, x2, x3}) < 3:
        raise InsufficientData("records must have distinct eps values")
    return (y1 * x2 * x3 / ((x1 - x2) * (x1 - x3))
            + y2 * x1 * x3 / ((x2 - x1) * (x2 - x3))
            + y3 * x1 * x2 / ((x3 - x1) * (x3 - x2)))


CSV_HEADER = "eps,norm_H,norm_H_err,norm_Hstar,norm_Hstar_err,ratio,sandwich_lo,sandwich_hi"


def sweep_to_csv(records: Sequence[SweepRecord]) -> str:
    """Render records in the fixed CSV schema (absent bounds are empty)."""
    lines = [CSV_HEADER]
    for r in records:
        row = record_to_dict(r)
        lines.append(",".join("" if row[key] is None else repr(row[key])
                              for key in CSV_HEADER.split(",")))
    return "\n".join(lines) + "\n"


def record_to_dict(r: SweepRecord) -> dict:
    return {
        "eps": r.eps,
        "norm_H": r.norm_h.value,
        "norm_H_err": r.norm_h.err,
        "norm_Hstar": r.norm_hstar.value,
        "norm_Hstar_err": r.norm_hstar.err,
        "ratio": r.ratio,
        "sandwich_lo": r.sandwich_lo,
        "sandwich_hi": r.sandwich_hi,
        "converged": r.converged,
        "sandwich_ok": r.sandwich_ok,
    }
