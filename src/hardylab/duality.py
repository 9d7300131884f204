"""Equivalence between the operator pair and the monotone difference form.

For nonincreasing, nonnegative, locally absolutely continuous phi with
phi(+inf) = 0, the density f(u) = u * |phi'(u)| satisfies

    H(phi)(x) - phi(x) = (Hf)(x)        and        phi(x) = (H*f)(x),

which transports the sharp two-sided inequalities between the two settings.
This module implements the transform in both directions, the sliding-window
mollifier that turns a stepped phi into an admissible continuous one from
below, and a combined numeric check of both identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EquivalenceViolated,
    JumpDiscontinuity,
    NoDecayAtInfinity,
    NotMonotone,
    NotRepresentable,
)
from .funcmodel import (
    TOL_EVAL,
    PiecewiseFn,
    PowerLogAtom,
    atoms_value,
    collect_atoms,
    derivative,
    is_nonincreasing,
    piece_index,
    subtract,
)
from .norms import DEFAULT_TOL, check_exponent, check_tol, lp_norms, unwrap
from .operators import cumulative_integral, dual_hardy, hardy


def _first_jump(phi: PiecewiseFn) -> float | None:
    """The first interior breakpoint where phi is discontinuous, or None."""
    for b, left, right in zip(phi.breakpoints[1:-1], phi.pieces, phi.pieces[1:]):
        lv, rv = atoms_value(left, b), atoms_value(right, b)
        if abs(lv - rv) > TOL_EVAL * max(1.0, abs(lv), abs(rv)):
            return b
    return None


def has_jumps(phi: PiecewiseFn) -> bool:
    """True when phi is discontinuous at some interior breakpoint."""
    return _first_jump(phi) is not None


def _check_decay(phi: PiecewiseFn) -> None:
    for atom in phi.pieces[-1]:
        if atom.exponent >= 0.0:
            raise NoDecayAtInfinity(
                "phi does not vanish at infinity (unbounded-piece exponent "
                f"{atom.exponent} >= 0)"
            )


def phi_to_f(phi: PiecewiseFn) -> PiecewiseFn:
    """The generating density f(u) = u * |phi'(u)| of a nonincreasing phi.

    Jumps of phi would put point masses into f, which the atom algebra
    cannot represent; stepped inputs must be mollified first.
    """
    if not is_nonincreasing(phi):
        raise NotMonotone("phi must be nonincreasing")
    _check_decay(phi)
    jump = _first_jump(phi)
    if jump is not None:
        raise JumpDiscontinuity(f"phi jumps at x={jump}; mollify first", x=jump)
    d = derivative(phi)
    pieces = tuple(
        collect_atoms(
            PowerLogAtom(-a.coef, a.exponent + 1.0, a.log_power) for a in piece
        )
        for piece in d.pieces
    )
    return PiecewiseFn(phi.breakpoints, pieces)


def f_to_phi(f: PiecewiseFn) -> PiecewiseFn:
    """The inverse direction of the equivalence: phi = H*f.

    Any nonnegative f that is locally integrable and has an integrable tail
    of f(u)/u generates a continuous nonincreasing phi with decay.
    """
    return dual_hardy(f)


def _is_polynomial_piece(atoms) -> bool:
    return all(
        a.log_power == 0
        and a.exponent >= 0.0
        and abs(a.exponent - round(a.exponent)) < 1e-12
        for a in atoms
    )


def _binomial_shift(atoms, h: float):
    """Atoms of x -> sum c*(x+h)**m for polynomial atoms, expanded exactly."""
    out = []
    for at in atoms:
        m = int(round(at.exponent))
        for j in range(m + 1):
            out.append(PowerLogAtom(
                at.coef * math.comb(m, j) * h ** (m - j), float(j), 0))
    return out


def mollify(phi: PiecewiseFn, n: int) -> PiecewiseFn:
    """The sliding-window average phi_n(x) = n * integral of phi over [x, x+1/n].

    Exact within the algebra for piecewise-polynomial phi (which covers the
    stepped and piecewise-affine inputs the mollifier exists for): the window
    antiderivative shift (x + 1/n) expands binomially.  General power-log
    pieces would leave the algebra, so they are rejected.

    The result is continuous, nonincreasing, nonnegative, below phi, and
    increases pointwise in n.
    """
    if n < 1 or n != int(n):
        raise ValueError("n must be a positive integer")
    if not is_nonincreasing(phi):
        raise NotMonotone("phi must be nonincreasing")
    for i, piece in enumerate(phi.pieces):
        if not _is_polynomial_piece(piece):
            raise NotRepresentable(
                "mollification of non-polynomial pieces leaves the power-log "
                f"algebra (piece {i})"
            )
    h = 1.0 / n
    big_a = cumulative_integral(phi)
    bps = set(phi.breakpoints)
    bps |= {b - h for b in phi.breakpoints if math.isfinite(b) and b - h > 0.0}
    new_bps = tuple(sorted(bps))
    pieces = []
    for lo, hi in zip(new_bps[:-1], new_bps[1:]):
        x_rep = lo + 1.0 if math.isinf(hi) else 0.5 * (lo + hi)
        i = piece_index(big_a, x_rep)
        j = piece_index(big_a, x_rep + h)
        shifted = _binomial_shift(big_a.pieces[j], h)
        atoms = [PowerLogAtom(n * a.coef, a.exponent, a.log_power) for a in shifted]
        atoms += [PowerLogAtom(-n * a.coef, a.exponent, a.log_power)
                  for a in big_a.pieces[i]]
        pieces.append(collect_atoms(atoms))
    return PiecewiseFn(new_bps, tuple(pieces))


def sample_grid(phi: PiecewiseFn, n: int = 64) -> np.ndarray:
    """Log-spaced identity-check grid spanning the breakpoints, off-breakpoint.

    Spans [smallest positive breakpoint / 10, 10 * largest finite breakpoint]
    and nudges any collision with a breakpoint, so the measure-zero piece
    convention never enters the comparison.  NotRepresentable if an end of
    that span falls outside the positive doubles.
    """
    finite = [b for b in phi.breakpoints if math.isfinite(b) and b > 0.0]
    lo = min(finite) / 10.0 if finite else 0.1
    hi = max(finite) * 10.0 if finite else 10.0
    if lo == 0.0 or math.isinf(hi):
        raise NotRepresentable(f"the sample span [{lo!r}, {hi!r}] of the identity "
                               "check leaves the double range")
    pts = np.geomspace(lo, hi, n)
    return np.where(np.isin(pts, phi.breakpoints), pts * 1.0000001, pts)


@dataclass(frozen=True)
class EquivalenceReport:
    max_gap_difference_identity: float
    max_gap_dual_identity: float
    norm_gap_difference: float
    norm_gap_phi: float
    norm_budget_difference: float
    norm_budget_phi: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "max_pointwise_gap_monot1": self.max_gap_difference_identity,
            "max_pointwise_gap_monot2": self.max_gap_dual_identity,
            "norm_gaps": [self.norm_gap_difference, self.norm_gap_phi],
            "verdict": self.verdict,
        }


def _atom_values(fns, xs: np.ndarray) -> np.ndarray:
    """value_at(x) of each atom of the piece of x, for every function of fns
    and every x of the increasing grid xs: an array (len(fns), len(xs),
    width) holding a piece's atoms in order, padded with 0.0."""
    xl = xs.tolist()
    width = max(len(atoms) for fn in fns for atoms in fn.pieces)
    v = np.zeros((len(fns), len(xl), width))
    for f, fn in enumerate(fns):
        # piece i holds the x in (b_i, b_(i+1)], as piece_index assigns them
        cuts = np.searchsorted(xs, fn.breakpoints, side="right").tolist()
        for i, atoms in enumerate(fn.pieces):
            s, e = cuts[i], cuts[i + 1]
            for j, at in enumerate(atoms):
                v[f, s:e, j] = [at.value_at(x) for x in xl[s:e]]
    return v


def _column_sum(v: np.ndarray) -> np.ndarray:
    """v summed over its last axis left to right, as atoms_value adds."""
    out = np.zeros(v.shape[:-1])
    with np.errstate(all="ignore"):
        for j in range(v.shape[-1]):
            out += v[..., j]
    return out


def _identity_gaps(pairs, xs: np.ndarray, tol: float) -> list[tuple[float, float]]:
    """For each pair (g, h), (largest relative gap of g and h over xs, its
    first x), or (0.0, nan).

    A gap over tol is judged again against the rounding scale, the sum of
    |atom values| of both sides at x (the rule of collect_atoms): next to a
    root of an expanded polynomial max(|g(x)|, |h(x)|) vanishes while the
    rounding of its atoms does not.  A point where that max is below 1e-290
    has gap 0, and a NaN gap is passed over.  Each gap is the one a point
    by point loop over evaluate gives.
    """
    v = _atom_values([fn for pair in pairs for fn in pair], xs)
    g, h = _column_sum(v[0::2]), _column_sum(v[1::2])
    mag = _column_sum(np.abs(np.concatenate([v[0::2], v[1::2]], axis=-1)))
    with np.errstate(all="ignore"):
        a, b = np.abs(g), np.abs(h)
        scale = np.where(b > a, b, a)  # Python's max(a, b): a NaN a is kept
        diff = np.abs(g - h)
        gap = diff / scale
        gap = np.where(gap > tol, diff / mag, gap)
    gap = np.where((scale < 1e-290) | ~(gap > 0.0), 0.0, gap)
    worst = gap.argmax(axis=1)  # the first of the largest
    return [(row[i], xs[i]) if row[i] > 0.0 else (0.0, math.nan)
            for row, i in zip(gap, worst.tolist())]


def check_equivalence(phi: PiecewiseFn, p: float,
                      tol: float = 1e-8) -> EquivalenceReport:
    """Verify both transport identities for one phi, pointwise and in norm.

    Checks, at the 64 points of sample_grid, that H(phi)-phi agrees with Hf
    and that H*f reproduces phi for f = phi_to_f(phi); then that the
    corresponding norms agree within their combined quadrature errors.  A
    failure raises EquivalenceViolated carrying the worst sample point: the
    identities are exact, so a violation means an implementation bug, never
    a property of the input.  ``tol`` bounds both pointwise gaps; a tenth of
    min(tol, DEFAULT_TOL) is the quadrature budget of the norms.
    """
    check_exponent(p)
    check_tol(tol)
    f = phi_to_f(phi)
    lhs_diff = subtract(hardy(phi), phi)  # phi_to_f certified phi nonincreasing
    rhs_diff = hardy(f)
    phi_back = f_to_phi(f)
    (gap1, x1), (gap2, x2) = _identity_gaps(
        [(lhs_diff, rhs_diff), (phi_back, phi)], sample_grid(phi), tol)
    quad_tol = min(tol, DEFAULT_TOL) * 0.1
    norms = list(map(unwrap, lp_norms([lhs_diff, rhs_diff, phi, phi_back], p, quad_tol)))
    pairs = norms[:2], norms[2:]
    gaps = [abs(a.value - b.value) for a, b in pairs]
    budgets = [a.err + b.err + 1e-12 * max(a.value, b.value, 1.0) for a, b in pairs]
    for gap, limit, label, x in (
            (gap1, tol, "difference identity", x1),
            (gap2, tol, "dual identity", x2),
            (gaps[0], budgets[0], "norm transport ||H(phi)-phi|| vs ||Hf||", None),
            (gaps[1], budgets[1], "norm transport ||phi|| vs ||H*f||", None)):
        if gap > limit:
            at = "" if x is None else f" at x={x}"
            raise EquivalenceViolated(f"{label} off by {gap}{at}", x=x, gap=gap)
    return EquivalenceReport(gap1, gap2, *gaps, *budgets, "pass")
