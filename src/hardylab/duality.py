"""Equivalence between the operator pair and the monotone difference form.

For nonincreasing, nonnegative, locally absolutely continuous phi with
phi(+inf) = 0, the density f(u) = u * |phi'(u)| satisfies

    H(phi)(x) - phi(x) = (Hf)(x)        and        phi(x) = (H*f)(x),

which transports the sharp two-sided inequalities between the two settings.
This module implements the transform in both directions, the sliding-window
mollifier that turns a stepped phi into an admissible continuous one from
below, and a check of both identities.

The check is algebra, not sampling.  All four sides are power-log
functions, so on each piece of the merged partition the atoms of one side
are matched against those of the other: grouped by log power, with
exponents that differ only by the operators' rounding of (a - 1) + 1 taken as
equal.  The groups' coefficient residues and exponent spreads, against the
size of all atoms on the piece, bound |lhs(x) - rhs(x)| over the sum of the
|atom values| at x, at every x of the piece.  So a pass holds on all of
(0, inf), however narrow a piece or large a breakpoint.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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
            "norm_budgets": [self.norm_budget_difference, self.norm_budget_phi],
            "verdict": self.verdict,
        }


#: Unit roundoff of a double.
_U = sys.float_info.epsilon / 2

#: |ln x| at an open end of a piece: every positive double lies in (e^-745, e^710).
_LN_OPEN_END = 745.0


def _identity_gap(g: PiecewiseFn, h: PiecewiseFn) -> tuple[float, float, float]:
    """(gap, lo, hi): how far g = h is from holding, on the worst piece
    (lo, hi] of the merged partition; (0.0, nan, nan) if it holds exactly.

    On a piece, g's atoms and h's negated atoms are grouped by log power k;
    sorted exponents within 8u(1 + |a0|) of the first exponent a0 of their
    group join it (u the unit roundoff).  A group with signed coefficient sum
    s, magnitude sum m and exponent spread d sums to at most r = |s| + m*d*L
    times x**a0 |ln x|**k at every x of the piece, to first order, where L is
    the largest |ln x| there (745 at an open end).  Over the sum of |atom
    values| of both sides at x, the scale at which collect_atoms judges
    rounding, |g(x) - h(x)| is then at most the largest r/m (a ratio of sums
    over the groups), and at most the sum of the r/M, where M sums m_b *
    x**(b - a0) over the groups of power k, each at the end of the piece that
    makes it smaller.  The gap is the smaller bound: the second keeps a
    rounded residue of a small coefficient small next to larger atoms.  So a
    gap within tol certifies the identity on all of (0, inf).

    The exponent tolerance takes in the operators' rounding: each side of
    check_equivalence's identities shifts an exponent by (a - 1) + 1 or
    (a + 1) - 1 at most four times, each rounding by about u(1 + |a|).
    """
    worst = (0.0, math.nan, math.nan)
    bps = sorted(set(g.breakpoints) | set(h.breakpoints))
    for lo, hi in zip(bps, bps[1:]):
        ends = [math.log(b) if 0.0 < b < math.inf else math.copysign(_LN_OPEN_END, b - 1.0)
                for b in (lo, hi)]
        ln_max = max(map(abs, ends))
        terms = sorted([(a.log_power, a.exponent, a.coef)
                        for a in g.pieces[piece_index(g, hi)]]
                       + [(a.log_power, a.exponent, -a.coef)
                          for a in h.pieces[piece_index(h, hi)]])
        groups = []  # [k, first exponent, signed sum, magnitude sum, last exponent]
        for k, a, c in terms:
            grp = groups[-1] if groups else None
            if grp and grp[0] == k and a - grp[1] <= 8 * _U * (1 + abs(grp[1])):
                grp[2:] = grp[2] + c, grp[3] + abs(c), a
            else:
                groups.append([k, a, c, abs(c), a])
        own = total = 0.0
        for k, a0, s, m, a1 in filter(lambda grp: grp[3], groups):
            r = abs(s) + m * (a1 - a0) * ln_max
            # capped below overflow: a smaller M only makes the bound larger
            big_m = sum(mb * math.exp(min((b - a0) * ends[0], (b - a0) * ends[1], 700.0))
                        for kb, b, _, mb, _ in groups if kb == k)
            own, total = max(own, r / m), total + r / big_m
        if min(own, total) > worst[0]:
            worst = (min(own, total), lo, hi)
    return worst


def check_equivalence(phi: PiecewiseFn, p: float,
                      tol: float = DEFAULT_TOL) -> EquivalenceReport:
    """Verify both transport identities for one phi, on (0, inf) and in norm.

    For f = phi_to_f(phi), checks atom by atom that H(phi)-phi agrees with
    Hf and that H*f reproduces phi on every piece (see _identity_gap: each
    gap bounds |lhs(x) - rhs(x)| / (sum of |atom values| at x) at every x,
    so no span of x is sampled and any breakpoint in the double range is
    checked); then that the corresponding norms agree within their combined
    quadrature errors.  A failure raises EquivalenceViolated carrying the
    worst piece, with x its left end: the identities are exact, so a
    violation means an implementation bug, never a property of the input.
    ``tol`` bounds both identity gaps; a tenth of min(tol, DEFAULT_TOL) is
    the quadrature budget of the norms.
    """
    check_exponent(p)
    check_tol(tol)
    f = phi_to_f(phi)
    lhs_diff = subtract(hardy(phi), phi)  # phi_to_f certified phi nonincreasing
    rhs_diff = hardy(f)
    phi_back = f_to_phi(f)
    gap1, lo1, hi1 = _identity_gap(lhs_diff, rhs_diff)
    gap2, lo2, hi2 = _identity_gap(phi_back, phi)
    quad_tol = min(tol, DEFAULT_TOL) * 0.1
    norms = list(map(unwrap, lp_norms([lhs_diff, rhs_diff, phi, phi_back], p, quad_tol)))
    pairs = norms[:2], norms[2:]
    gaps = [abs(a.value - b.value) for a, b in pairs]
    budgets = [a.err + b.err + 1e-12 * max(a.value, b.value, 1.0) for a, b in pairs]
    for gap, limit, label, x in (
            (gap1, tol, f"difference identity on ({lo1}, {hi1}]", lo1),
            (gap2, tol, f"dual identity on ({lo2}, {hi2}]", lo2),
            (gaps[0], budgets[0], "norm transport ||H(phi)-phi|| vs ||Hf||", None),
            (gaps[1], budgets[1], "norm transport ||phi|| vs ||H*f||", None)):
        if gap > limit:
            raise EquivalenceViolated(f"{label} off by {gap}", x=x, gap=gap)
    return EquivalenceReport(gap1, gap2, *gaps, *budgets, "pass")
