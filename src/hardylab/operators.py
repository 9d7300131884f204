"""Exact application of the averaging operator, its dual, and the difference.

For f in the piecewise power-log algebra,

    (Hf)(x)  = (1/x) * integral of f over (0, x]
    (H*f)(x) = integral of f(t)/t over (x, inf)

both land back in the algebra: per piece the result is the piece
antiderivative plus an accumulated constant, times x**-1 for H.  Constants
are accumulated in a single forward pass for H and a single backward pass
for H*, and endpoint values always come from the closed forms, never from
numerical limits.
"""

from __future__ import annotations

import math

from .errors import DivergentAtInfinity, DivergentAtZero, NotMonotone
from .funcmodel import (
    PiecewiseFn,
    PowerLogAtom,
    antiderivative_atoms,
    atoms_value,
    collect_atoms,
    is_nonincreasing,
    subtract,
)


def cumulative_integral(f: PiecewiseFn) -> PiecewiseFn:
    """G(x) = integral of f over (0, x], exactly, on the same partition.

    Requires every atom on the piece adjoining 0 to have exponent > -1 so the
    integral from 0 exists; then the first-piece antiderivative vanishes at 0
    and no limit evaluation is needed.
    """
    for atom in f.pieces[0]:
        if atom.exponent <= -1.0:
            raise DivergentAtZero(
                f"exponent {atom.exponent} on the piece adjoining 0 is not integrable"
            )
    pieces = []
    acc = 0.0  # integral over (0, b_i]
    for i, atoms in enumerate(f.pieces):
        lo, hi = f.breakpoints[i], f.breakpoints[i + 1]
        g = collect_atoms(a for at in atoms for a in antiderivative_atoms(at))
        g_lo = 0.0 if i == 0 else atoms_value(g, lo)
        pieces.append(collect_atoms((*g, PowerLogAtom(acc - g_lo, 0.0, 0))))
        if not math.isinf(hi):
            acc += atoms_value(g, hi) - g_lo
    return PiecewiseFn(f.breakpoints, tuple(pieces))


def hardy(f: PiecewiseFn) -> PiecewiseFn:
    """The average (Hf)(x) = (1/x) * integral of f over (0, x], exactly."""
    g = cumulative_integral(f)
    pieces = tuple(
        tuple(PowerLogAtom(a.coef, a.exponent - 1.0, a.log_power) for a in piece)
        for piece in g.pieces
    )
    return PiecewiseFn(f.breakpoints, pieces)


def dual_hardy(f: PiecewiseFn) -> PiecewiseFn:
    """(H*f)(x) = integral of f(t)/t over (x, inf), exactly.

    Requires every atom on the unbounded piece to have exponent < 0 (so
    f(t)/t is integrable at infinity); the antiderivative of f(t)/t on that
    piece then vanishes at infinity and the backward accumulation starts
    from 0.
    """
    for atom in f.pieces[-1]:
        if atom.exponent >= 0.0:
            raise DivergentAtInfinity(
                f"exponent {atom.exponent} on the unbounded piece is not integrable"
            )
    n = f.n_pieces
    pieces: list = [None] * n
    tail = 0.0  # integral of f(t)/t over (b_{i+1}, inf)
    for i in range(n - 1, -1, -1):
        lo, hi = f.breakpoints[i], f.breakpoints[i + 1]
        # an antiderivative of -f(t)/t, so the piece is tail - g(hi) + g(x)
        g = collect_atoms(b for a in f.pieces[i] for b in antiderivative_atoms(
            PowerLogAtom(-a.coef, a.exponent - 1.0, a.log_power)))
        g_hi = 0.0 if math.isinf(hi) else atoms_value(g, hi)
        pieces[i] = collect_atoms((PowerLogAtom(tail - g_hi, 0.0, 0), *g))
        if i > 0:
            tail += atoms_value(g, lo) - g_hi
    return PiecewiseFn(f.breakpoints, tuple(pieces))


def hardy_minus_identity(phi: PiecewiseFn) -> PiecewiseFn:
    """H(phi) - phi for nonincreasing nonnegative phi.

    The difference is the average of u*|phi'(u)|, so it is nonnegative.
    """
    if not is_nonincreasing(phi):
        raise NotMonotone("the difference operator needs a nonincreasing input")
    return subtract(hardy(phi), phi)
