"""Piecewise power-log function algebra on the positive half-line.

A function is a partition 0 = b_0 < b_1 < ... < b_n = inf together with one
atom list per piece; on the half-open piece (b_i, b_{i+1}] its value is
sum(c * x**a * ln(x)**k) over the atoms.  An empty list is the zero function
on that piece.  The class contains characteristic functions, powers, and the
logarithms produced by averaging steps, and it is closed under
differentiation, antidifferentiation, and the averaging operators built on
top (see operators).

Conventions:
  * pieces are half-open (lo, hi]; at a breakpoint the piece ending there
    wins.  The choice only matters on a measure-zero set.
  * infinity is always the last breakpoint and is handled by explicit
    ``math.isinf`` branches, never by evaluating atoms at it.
  * values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (LogPowerCapExceeded, MalformedPartition, NegativityDetected,
                     NotRepresentable)

#: Hard cap on ln-powers; each averaging step raises k by at most one, so the
#: cap bounds coefficient growth in the integration-by-parts recurrence.
LOG_POWER_CAP = 8

#: Atom coefficients below this magnitude are dropped during term collection.
COEF_FLOOR = 1e-300

#: Tolerance of the sign and monotonicity checks.
TOL_EVAL = 1e-9

_SAMPLES_PER_PIECE = 256


@dataclass(frozen=True)
class PowerLogAtom:
    """One term c * x**a * ln(x)**k with integer k >= 0."""

    coef: float
    exponent: float
    log_power: int = 0

    def __post_init__(self):
        c, a, k = self.coef, self.exponent, self.log_power
        if not (math.isfinite(c) and math.isfinite(a)):
            raise NotRepresentable("atom coefficient and exponent must be finite")
        if k != int(k) or k < 0:
            raise ValueError("log_power must be a nonnegative integer")
        if k > LOG_POWER_CAP:
            raise LogPowerCapExceeded(
                f"log power {k} exceeds the supported cap {LOG_POWER_CAP}"
            )
        if type(c) is not float or type(a) is not float or type(k) is not int:
            object.__setattr__(self, "coef", float(c))
            object.__setattr__(self, "exponent", float(a))
            object.__setattr__(self, "log_power", int(k))

    def value_at(self, x: float) -> float:
        try:
            v = self.coef * x ** self.exponent
        except OverflowError:  # as a numpy scalar x gives it, ln(x)**k applied
            v = math.copysign(math.inf, self.coef)
        if self.log_power:
            v *= math.log(x) ** self.log_power
        return v


_LONG_KEYS = {"c": "coef", "a": "exponent", "k": "log_power"}


def as_atom(obj) -> PowerLogAtom:
    """Coerce an atom given as PowerLogAtom, (c, a[, k]) tuple, or mapping.

    A mapping has the keys c, a, k or coef, exponent, log_power, a and k
    defaulting to 0; one without c, with another key, or giving a field
    under both its names raises TypeError.
    """
    if isinstance(obj, PowerLogAtom):
        return obj
    if isinstance(obj, dict):
        fields = {_LONG_KEYS.get(key, key): v for key, v in obj.items()}
        if len(fields) < len(obj):
            raise TypeError(f"atom {obj!r} gives a field under both its names")
        return PowerLogAtom(**{"exponent": 0.0, "log_power": 0, **fields})
    return PowerLogAtom(*obj)


def collect_atoms(atoms) -> tuple[PowerLogAtom, ...]:
    """Merge atoms sharing (exponent, log_power); drop negligible coefficients.

    An atom alone in its group is kept as it is.  A merged coefficient
    within n * eps of the sum of the n magnitudes it was summed from is the
    rounding residue of terms that cancel, and is dropped like one below
    COEF_FLOOR.  Past an overflowed magnitude that test cannot tell, so the
    coefficient is kept, and one that overflowed itself raises
    NotRepresentable.
    """
    atoms = atoms if isinstance(atoms, (tuple, list)) else tuple(atoms)
    if len(atoms) < 2:  # nothing to merge: a lone atom stays unless below COEF_FLOOR
        return tuple(atoms) if not atoms or abs(atoms[0].coef) >= COEF_FLOOR else ()
    acc: dict[tuple[float, int], list] = {}
    for at in atoms:
        entry = acc.setdefault((at.exponent, at.log_power), [0.0, 0.0, 0, at])
        entry[0] += at.coef
        entry[1] += abs(at.coef)
        entry[2] += 1
    return tuple(
        at if n == 1 else PowerLogAtom(c, a, k)
        for (a, k), (c, mag, n, at) in sorted(acc.items())
        if abs(c) >= COEF_FLOOR
        and (abs(c) > n * sys.float_info.epsilon * mag or mag == math.inf)
    )


def atoms_value(atoms, x: float) -> float:
    """The atoms' values at x added left to right (sum compensates from 3.12 on)."""
    total = 0.0
    for at in atoms:
        total += at.value_at(x)
    return total


@dataclass(frozen=True)
class PiecewiseFn:
    """A validated piecewise power-log function on (0, inf).

    No sign certificate is kept; verify checks the f it is given.
    """

    breakpoints: tuple[float, ...]
    pieces: tuple[tuple[PowerLogAtom, ...], ...]

    @property
    def n_pieces(self) -> int:
        return len(self.pieces)


def make_piecewise(breakpoints, pieces, require_nonneg: bool = False) -> PiecewiseFn:
    """Build and validate a PiecewiseFn.

    ``breakpoints`` must increase strictly from 0 to math.inf; ``pieces`` is
    one atom list per interval (atoms may be PowerLogAtom instances, (c, a, k)
    tuples, or {"c","a","k"} mappings).  With ``require_nonneg`` a piece
    whose atoms all have c > 0 and an even log power is nonnegative term by
    term; a log-free piece with integer exponents, mixed signs included, is
    checked exactly at its critical points; every other piece is sampled
    densely.  NegativityDetected is raised if a checked value falls below
    -TOL_EVAL (scaled); see _certify_nonneg.
    """
    bps = tuple(float(b) for b in breakpoints)
    if len(bps) < 2 or bps[0] != 0.0 or not math.isinf(bps[-1]):
        raise MalformedPartition(
            "breakpoints must start at 0 and end at +inf"
        )
    for lo, hi in zip(bps, bps[1:]):
        if not lo < hi:
            raise MalformedPartition(f"breakpoints not strictly increasing at {lo!r}")
    if len(pieces) != len(bps) - 1:
        raise MalformedPartition(
            f"{len(bps) - 1} pieces expected, got {len(pieces)}"
        )
    norm_pieces = tuple(collect_atoms(as_atom(a) for a in piece) for piece in pieces)
    f = PiecewiseFn(bps, norm_pieces)
    if require_nonneg:
        _certify_nonneg(f)
    return f


def _sample_range(lo: float, hi: float) -> tuple[float, float]:
    """Ends of the checked part of the piece (lo, hi].

    lo is moved just inside (hi * 1e-12 when lo is 0); an unbounded piece is
    cut at max(1, lo) * 1e9.
    """
    if math.isinf(hi):
        hi = max(1.0, lo) * 1e9
    return (hi * 1e-12 if lo <= 0.0 else lo * (1.0 + 1e-12)), hi


def piece_samples(lo: float, hi: float, n: int = _SAMPLES_PER_PIECE) -> np.ndarray:
    """Log-spaced sample points inside (lo, hi], endpoint-adjacent included."""
    lo_eff, hi = _sample_range(lo, hi)
    base = np.geomspace(lo_eff, hi, n)
    extra = np.array([lo_eff, hi * (1.0 - 1e-12)])
    return np.unique(np.concatenate([base, extra]))


def _atom_arrays(atoms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients, exponents and log powers of a nonempty atom list."""
    c, a, k = np.array([(at.coef, at.exponent, at.log_power) for at in atoms]).T
    return c, a, k


def _sum_at(c, a, k, xs: np.ndarray) -> np.ndarray:
    """sum(c * x**a * ln(x)**k) over the atom arrays, at every point of xs.

    A term that overflows is ±inf, as in PowerLogAtom.value_at.
    """
    x = xs[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        return (c * x ** a * np.log(x) ** k).sum(axis=1)


def _check_points(lo: float, hi: float, w, a, k, n: int) -> np.ndarray:
    """Points of the piece (lo, hi] at which to check sum(w * x**a * ln(x)**k).

    For log-free terms with integer exponents these are the two ends of
    piece_samples' range and the critical points between them: the real
    roots of the polynomial sum(a * w * x**(a - min a)).  A continuous
    function takes its largest and smallest values on a closed interval at
    an end or a critical point, so these points decide a bound on the whole
    range.  The real part of every root is kept if it falls inside, however
    large its imaginary part: a point too many never loosens a check.  Terms
    with logs or non-integer exponents, a polynomial of degree above n
    (np.roots builds a degree-squared companion matrix) and one whose
    coefficients overflow get piece_samples(lo, hi, n) instead.
    """
    top, low = a.max(), a.min()
    if not k.any() and (a == np.round(a)).all() and top - low <= n:
        poly = np.zeros(int(top - low) + 1)
        with np.errstate(over="ignore"):
            poly[(top - a).astype(int)] = a * w
        if np.isfinite(poly).all():
            lo_eff, hi = _sample_range(lo, hi)
            hi_eff = hi * (1.0 - 1e-12)
            roots = np.roots(poly).real
            inside = roots[(roots > lo_eff) & (roots < hi_eff)]
            return np.unique(np.concatenate([[lo_eff, hi_eff], inside]))
    return piece_samples(lo, hi, n)


def _certify_nonneg(f: PiecewiseFn) -> None:
    """Raise NegativityDetected unless every piece of f is nonnegative.

    A piece whose atoms all have c > 0 and an even log power is nonnegative
    term by term.  Any other piece is refused if its value at one of its
    _check_points falls below -TOL_EVAL * max(1, largest |value| there).  On a
    log-free piece with integer exponents those points hold the piece's
    smallest and largest values, so the certificate is exact on the whole
    checked range; other pieces are sampled at 256 points.
    """
    for i, atoms in enumerate(f.pieces):
        if all(at.coef > 0.0 and at.log_power % 2 == 0 for at in atoms):
            continue  # every atom is >= 0 on (0, inf): an exact certificate
        c, a, k = _atom_arrays(atoms)
        xs = _check_points(f.breakpoints[i], f.breakpoints[i + 1], c, a, k,
                           _SAMPLES_PER_PIECE)
        vals = _sum_at(c, a, k, xs)
        bad = np.flatnonzero(vals < -TOL_EVAL * max(1.0, np.abs(vals).max()))
        if bad.size:
            x, v = float(xs[bad[0]]), float(vals[bad[0]])
            raise NegativityDetected(
                f"function evaluates to {v} < 0 at x={x}", x=x, value=v
            )


def piece_index(f: PiecewiseFn, x: float) -> int:
    """Index of the piece containing x under the (lo, hi] convention."""
    i = bisect.bisect_left(f.breakpoints, x) - 1
    return min(max(i, 0), f.n_pieces - 1)


def evaluate(f: PiecewiseFn, x: float) -> float:
    """Value of f at x > 0.  At a breakpoint the piece ending there is used."""
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"evaluation point must be a positive finite real, got {x!r}")
    return atoms_value(f.pieces[piece_index(f, x)], x)


def antiderivative_atoms(atom: PowerLogAtom) -> list[PowerLogAtom]:
    """Atoms of an antiderivative of the given atom (no integration constant).

    For exponent a != -1 the integration-by-parts recurrence produces
    x**(a+1) times a degree-k polynomial in ln x; for a == -1 the result is
    c * ln(x)**(k+1) / (k+1), which raises the log power by one.
    """
    c, a, k = atom.coef, atom.exponent, atom.log_power
    if a == -1.0:
        if k + 1 > LOG_POWER_CAP:
            raise LogPowerCapExceeded(
                f"antidifferentiating ln^{k}/x exceeds the log power cap"
            )
        return [PowerLogAtom(c / (k + 1), 0.0, k + 1)]
    out = []
    coef = c / (a + 1.0)
    for j in range(k, -1, -1):
        out.append(PowerLogAtom(coef, a + 1.0, j))
        coef *= -j / (a + 1.0)
    return out


def derivative_atoms(atom: PowerLogAtom) -> list[PowerLogAtom]:
    c, a, k = atom.coef, atom.exponent, atom.log_power
    out = []
    if a != 0.0:
        out.append(PowerLogAtom(c * a, a - 1.0, k))
    if k > 0:
        out.append(PowerLogAtom(c * k, a - 1.0, k - 1))
    return out


def derivative(f: PiecewiseFn) -> PiecewiseFn:
    """Piecewise derivative on the same partition.

    Jumps at breakpoints are not represented; the result is the classical
    derivative on the open interior of each piece, which is all the integral
    identities here need.
    """
    pieces = tuple(
        collect_atoms(d for at in piece for d in derivative_atoms(at))
        for piece in f.pieces
    )
    return PiecewiseFn(f.breakpoints, pieces)


def is_nonincreasing(f: PiecewiseFn) -> bool:
    """Monotonicity check, exact on log-free pieces with integer exponents.

    True iff x*f'(x) stays below TOL_EVAL * max(1, |f(x)|) at the _check_points
    of every piece and f does not jump upward at any breakpoint.  The
    x-weighting makes the test invariant under dilation and coefficient
    scaling.  A log-free piece whose atoms all have a*c <= 0 is
    nonincreasing term by term and needs no points.  On any other log-free
    piece with integer exponents the points include where x*f'(x) is largest
    on the checked range, so a rise anywhere on it shows there.  Pieces with
    log atoms or mixed-sign non-integer exponents are sampled at 128 points.
    """
    for i, atoms in enumerate(f.pieces):
        if all(at.log_power == 0 and at.exponent * at.coef <= 0.0 for at in atoms):
            continue  # every atom is nonincreasing on (0, inf): an exact certificate
        c, a, k = _atom_arrays(atoms)
        # x * (c x^a ln^k x)' = a c x^a ln^k x + k c x^a ln^(k-1) x
        logs = k > 0
        qc = np.concatenate([a * c, k[logs] * c[logs]])
        qa = np.concatenate([a, a[logs]])
        qk = np.concatenate([k, k[logs] - 1.0])
        xs = _check_points(f.breakpoints[i], f.breakpoints[i + 1], qc, qa, qk, 128)
        slopes = _sum_at(qc, qa, qk, xs)
        if (slopes > TOL_EVAL * np.maximum(1.0, np.abs(_sum_at(c, a, k, xs)))).any():
            return False
    for b, left, right in zip(f.breakpoints[1:-1], f.pieces, f.pieces[1:]):
        lv, rv = atoms_value(left, b), atoms_value(right, b)
        if rv > lv + TOL_EVAL * max(1.0, abs(lv), abs(rv)):
            return False
    return True


def _covering_piece(f: PiecewiseFn, lo: float) -> int:
    """Piece of f whose interval contains (lo, next-merged-breakpoint]."""
    i = bisect.bisect_right(f.breakpoints, lo) - 1
    return min(max(i, 0), f.n_pieces - 1)


def _scaled(atoms, c: float):
    """The atoms times c; at c = 1.0 the atoms themselves."""
    if c == 1.0:
        return atoms
    return [PowerLogAtom(c * a.coef, a.exponent, a.log_power) for a in atoms]


def linear_combination(f: PiecewiseFn, g: PiecewiseFn,
                       cf: float = 1.0, cg: float = 1.0) -> PiecewiseFn:
    """cf*f + cg*g on the merged partition."""
    bps = tuple(sorted(set(f.breakpoints) | set(g.breakpoints)))
    pieces = []
    for lo in bps[:-1]:
        fi = _covering_piece(f, lo)
        gi = _covering_piece(g, lo)
        atoms = [*_scaled(f.pieces[fi], cf), *_scaled(g.pieces[gi], cg)]
        pieces.append(collect_atoms(atoms))
    return PiecewiseFn(bps, tuple(pieces))


def add(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    return linear_combination(f, g, 1.0, 1.0)


def subtract(f: PiecewiseFn, g: PiecewiseFn) -> PiecewiseFn:
    return linear_combination(f, g, 1.0, -1.0)


def scale(f: PiecewiseFn, c: float) -> PiecewiseFn:
    pieces = tuple(collect_atoms(_scaled(piece, c)) for piece in f.pieces)
    return PiecewiseFn(f.breakpoints, pieces)


def dilate(f: PiecewiseFn, lam: float) -> PiecewiseFn:
    """The function x -> f(lam * x), staying inside the algebra.

    c*x**a*ln(x)**k composed with lam*x expands binomially in ln(lam), so the
    atom list per piece grows by at most a factor k+1.
    """
    if not lam > 0.0:
        raise ValueError("dilation factor must be positive")
    bps = tuple(0.0 if b == 0.0 else b / lam for b in f.breakpoints)
    llam = math.log(lam)
    pieces = []
    for piece in f.pieces:
        atoms = []
        for at in piece:
            base = at.coef * lam ** at.exponent
            for j in range(at.log_power + 1):
                atoms.append(PowerLogAtom(
                    base * math.comb(at.log_power, j) * llam ** (at.log_power - j),
                    at.exponent, j))
        pieces.append(collect_atoms(atoms))
    return PiecewiseFn(bps, tuple(pieces))
