"""Lp norms with propagated error bounds, plus numeric fallback operators.

The driver integrates products of powers of atom sums,

    const * prod_j (sum of atoms_j)(x) ** q_j,

which covers g**p for the norm itself as well as the two alternative
integral identities (integration by parts, Fubini) used as cross-checks.

Machinery: every piece of the partition contributes regions, and all
regions share one error budget.

  * compact interior segments are integrated in x; the ends 0 and infinity
    in log coordinates (t = -ln x and t = ln x), where an endpoint-singular
    or slowly-decaying integrand turns into a smooth exponentially-decaying
    one.  Each end stops at a cutoff in t where the analytic remainder bound
    of the leading-atom envelope M * exp(-s*t) * t**q, an upper incomplete
    gamma value, drops below tol / (4 * number of ends), pushed further
    until the remainder is also tiny next to the end's own mass.  Half of
    the bound is added to the value and half to the error, which keeps the
    result inside [value - err, value + err].
  * the integrands are compiled once into numpy arrays, and every
    evaluation is one call over a batch of Gauss7/Kronrod15 segments of any
    regions: the seeds of all regions, each cutoff push, and each round of
    the adaptive loop.  The segments of an integral sit in one list, sorted
    worst first each round like QUADPACK's qags/qagi error list; a round
    bisects the worst segments, as many as the summed error of the whole
    integral, remainders included, needs to meet max(tol, 1e-12 * |value|).
    The pair difference is the local error estimate and the global error is
    the sum of local estimates.
  * integrals computed together (lp_norms) share each evaluator call, but
    each keeps its own segments, budget, cutoffs and err, and fails alone.
  * divergence is decided up front by the leading-exponent tests: at zero
    a_min * p <= -1 diverges, on the unbounded piece a_max * p >= -1 does.

A piece whose factors are each one log-free atom c * x**a integrates in
closed form, |c|**p * x**(a*p + 1) / (a*p + 1) for g**p, with no quadrature;
its err is a forward bound on the rounding of the doubles given (see
_closed_form).  Any other atom sum is raised to its real power pointwise
inside the quadrature; ln(x)**(k*p) has no closed antiderivative for
non-integer k*p.  There the err adds to the Kronrod estimates a bound on the
cancellation in each atom sum (see _compile).  Values, closed or not, are
computed in log space throughout so that norms of functions spanning
hundreds of orders of magnitude neither overflow nor silently lose their
far-field mass.

The quadrature's part of a result is an estimate validated by refinement,
not a certified enclosure.  The rounding bounds are added to err past the
budget test: bisection cannot shrink them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce
from operator import add, itemgetter
from typing import Callable

import numpy as np
from scipy.special import exprel, gammaincc

from .errors import (
    BadExponent,
    BadTolerance,
    DivergentAtInfinity,
    DivergentAtZero,
    NormDiverges,
    NotConverged,
)
from .funcmodel import PiecewiseFn, PowerLogAtom
from .operators import dual_hardy, hardy

DEFAULT_TOL = 1e-9

#: Relative error floor: budgets below this fraction of the value are treated
#: as met, since double precision cannot resolve them anyway.
_REL_FLOOR = 1e-12

_LN_HUGE = 700.0
_U = sys.float_info.epsilon / 2.0  # unit roundoff
_E = math.e
_MAX_INTERVALS = 4096  # segment cap of one integral


@dataclass(frozen=True)
class QuadResult:
    """A numerical value with an absolute error bound.

    The true quantity lies in [value - err, value + err].  For pieces
    integrated in closed form, err holds a first-order bound on rounding;
    for the rest, it rests on the estimate quality of the Gauss/Kronrod pair,
    validated by refinement (recomputing at tol/10 stays within err), not
    certified by interval arithmetic.
    """

    value: float
    err: float

    def __post_init__(self):
        if self.err < 0.0:
            raise ValueError("error bound must be nonnegative")


@dataclass(frozen=True)
class CallableFn:
    """A black-box function on (0, inf) with just enough side information.

    ``singular_points`` are quadrature breakpoints where the function or a
    derivative blows up or jumps; the exponent hints give the asymptotic
    powers at 0 and infinity for integrability checks and grid continuations.
    """

    evaluator: Callable[[float], float]
    singular_points: tuple[float, ...] = ()
    tail_exponent_hint: float = 0.0
    zero_exponent_hint: float = 0.0

    def __call__(self, x: float) -> float:
        return self.evaluator(x)


# ---------------------------------------------------------------------------
# Gauss 7 / Kronrod 15 pair (nodes and weights on [-1, 1], QUADPACK values)

_GK15 = (
    # node                  Gauss weight            Kronrod weight
    (0.0000000000000000, 0.4179591836734694, 0.2094821410847278),
    (+0.2077849550078985, 0.0000000000000000, 0.2044329400752989),
    (-0.2077849550078985, 0.0000000000000000, 0.2044329400752989),
    (+0.4058451513773972, 0.3818300505051189, 0.1903505780647854),
    (-0.4058451513773972, 0.3818300505051189, 0.1903505780647854),
    (+0.5860872354676911, 0.0000000000000000, 0.1690047266392679),
    (-0.5860872354676911, 0.0000000000000000, 0.1690047266392679),
    (+0.7415311855993944, 0.2797053914892767, 0.1406532597155259),
    (-0.7415311855993944, 0.2797053914892767, 0.1406532597155259),
    (+0.8648644233597691, 0.0000000000000000, 0.1047900103222502),
    (-0.8648644233597691, 0.0000000000000000, 0.1047900103222502),
    (+0.9491079123427585, 0.1294849661688697, 0.0630920926299785),
    (-0.9491079123427585, 0.1294849661688697, 0.0630920926299785),
    (+0.9914553711208126, 0.0000000000000000, 0.0229353220105292),
    (-0.9914553711208126, 0.0000000000000000, 0.0229353220105292),
)


_XI, _WG, _WK = (np.array(col) for col in zip(*_GK15))
_W = np.array([_WK, _WG])


def _gk15(fn, reg, a, b):
    """Kronrod-15 values, |K15 - G7| errors and Kronrod integrals of fn's
    rounding bound (0 where it has none) of n segments (arrays of region ids
    and ends), and (region, node, value) of each row's first non-finite
    integrand value, all from one fn call.  einsum sums a row in a fixed
    order, where a BLAS matmul rounds it by its place in the batch."""
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * _XI
    fv, rv = fn(reg, nodes)
    s_k, s_g = np.einsum("ij,kj->ki", fv, _W)
    rnd = np.zeros(len(a)) if rv is None else np.einsum("ij,j->i", rv, _WK) * np.abs(half)
    bad = ~np.isfinite(fv)
    rows = np.flatnonzero(bad.any(1)) if bad.any() else ()
    fails = [(int(reg[r]), nodes[r][bad[r]][0], fv[r][bad[r]][0]) for r in rows]
    return s_k * half, np.abs(s_k - s_g) * np.abs(half), rnd, fails


def _geom_seeds(a: float, b: float) -> list[tuple[float, float]]:
    """Seed segments for a compact interval, log-subdivided into octaves when
    it is wide: on a segment of many octaves, |K15 - G7| of a steep power
    such as x**-2.5 is below its true error.  b / a overflows past about 308
    decades; the difference of logs does not."""
    if a <= 0.0 or b / a <= 16.0:
        return [(a, b)]
    n = max(2, int(math.ceil(math.log2(b) - math.log2(a))))
    edges = np.geomspace(a, b, n + 1)
    return list(zip(edges[:-1], edges[1:]))


def _doubling_seeds(t0: float, t1: float) -> list[tuple[float, float]]:
    """Doubling-width seed segments, finest near t0 where the mass sits."""
    seeds = []
    left = t0
    width = 1.0
    while left < t1:
        right = min(left + width, t1)
        seeds.append((left, right))
        left = right
        width *= 2.0
    return seeds


# ---------------------------------------------------------------------------
# Product-of-powers integrand over one piece, evaluated in log space


@dataclass(frozen=True)
class _ProductIntegrand:
    """const * prod_j (atom-sum_j)(x)**power_j on one piece."""

    const: float
    factors: tuple[tuple[tuple[PowerLogAtom, ...], float], ...]


def _compile(pis):
    """One evaluator fn(region, nodes) for a list of product integrands.

    Region 3*i + kind is integrand i's zero end in t = -ln x (kind 0), its
    interior in x (kind 1) or its infinity end in t = ln x (kind 2), the
    ends with the Jacobian exp(-+t).  Per region, atoms are padded into
    arrays of log|c|, exponent, sign, sign at x < 1 and log power (atoms
    first); values are |atom sum|**power in log space, shifted by the largest
    atom, with log atoms dropped at x = 1, 0 on underflow, +inf on overflow.

    fn returns the values and, if some factor sums several atoms, a bound on
    their rounding from cancellation: log|sum| is off by about 4u * sum|atoms|
    / |sum| (u the unit roundoff), so the value by 4u * sum_j |q_j| *
    (sum|atoms_j| / |sum atoms_j|) over the factors j of several atoms; else
    None.
    """
    n_f = max(len(pi.factors) for pi in pis)
    n_a = max(len(atoms) for pi in pis for atoms, _ in pi.factors)
    tab = np.zeros((5, n_a, len(pis), n_f))
    tab[0, 1:] = -np.inf  # padding atoms; a padded factor is 1**0
    tab[2:4] = 1.0
    # interior?, t sign, ln const, Jacobian, powers, cancellation weights
    cols = np.zeros((len(pis), 4 + 2 * n_f))
    for i, pi in enumerate(pis):
        cols[i, 2] = math.log(pi.const)
        for j, (atoms, q) in enumerate(pi.factors):
            cols[i, 4 + j] = q
            if len(atoms) > 1:
                cols[i, 4 + n_f + j] = 4.0 * _U * abs(q)
            for k, at in enumerate(atoms):
                sg = math.copysign(1.0, at.coef)
                tab[:, k, i, j] = (math.log(abs(at.coef)), at.exponent, sg,
                                   -sg if at.log_power % 2 else sg, at.log_power)
    has_logs = tab[4].any()
    multi = cols[:, 4 + n_f:].any()
    tab, cols = np.repeat(tab, 3, axis=2), np.repeat(cols, 3, axis=0)
    kind = np.arange(len(cols)) % 3
    cols[:, 0], cols[:, 1], cols[:, 3] = kind == 1, kind - 1, kind != 1

    def fn(reg, nodes):
        c = cols[reg].T[:, :, None]
        ln_c, expo, sign, sign_neg, logp = tab[:, :, reg, None]
        rnd = None
        with np.errstate(all="ignore"):
            lx = np.where(c[0] > 0.0, np.log(nodes), c[1] * nodes)
            log_h = c[2] + c[3] * lx
            lx3 = lx[:, :, None]
            m = ln_c + expo * lx3
            if has_logs:
                m = m + logp * np.maximum(np.log(np.abs(lx3)), -1e300)
                sign = np.where(lx3 < 0.0, sign_neg, sign)
            best = m.max(axis=0)
            mags = np.exp(m - best)
            s = np.abs((sign * mags).sum(axis=0))
            flog = best + np.log(s)
            for j in range(n_f):
                log_h = log_h + c[4 + j] * flog[..., j]
            log_h[log_h <= -745.0] = -np.inf
            out = np.exp(log_h)
            if multi:  # a sum that cancels to 0 has value 0, and so no rounding
                cond = mags.sum(axis=0) / np.maximum(s, 1e-300)
                rnd = out * np.einsum("ijk,ki->ij", cond, c[4 + n_f:, :, 0])
        out[log_h >= _LN_HUGE] = np.inf
        return out, rnd

    return fn


def _envelope(pi: _ProductIntegrand, at_zero: bool) -> tuple[float, float, float]:
    """(log M, s, q) of the bound M * exp(-s*t) * t**q in log coordinates.

    Valid for t >= 1, i.e. x <= 1/e on the zero side and x >= e on the tail:
    each atom is dominated there by (sum |c|) * x**a_ext * |ln x|**k_max with
    a_ext the extreme exponent of its factor.  NormDiverges if s <= 0.
    """
    log_m = math.log(pi.const)
    expo = 0.0
    q = 0.0
    for atoms, power in pi.factors:
        exts = [a.exponent for a in atoms]
        a_ext = min(exts) if at_zero else max(exts)
        expo += power * a_ext
        q += power * max(a.log_power for a in atoms)
        log_m += power * math.log(reduce(add, (abs(a.coef) for a in atoms), 0.0))
    s = (expo + 1.0) if at_zero else -(expo + 1.0)
    if s <= 0.0:
        raise NormDiverges(f"integral diverges at {'zero' if at_zero else 'infinity'}")
    return log_m, s, q


def _closed_form(pi: _ProductIntegrand, lo: float, hi: float) -> tuple[float, float]:
    """(value, err) of the integral of const * prod_j |c_j x**a_j|**q_j over
    (lo, hi], which is exp(L) * x**(b - 1) with L = ln const + sum q_j ln|c_j|
    and b = 1 + sum q_j a_j, in log space:

        exp(L + b ln hi - ln b)             on (0, hi], b > 0,
        exp(L + b ln lo - ln(-b))           on (lo, inf), b < 0,
        exp(L + b ln x) * Lam * exprel(-|b| Lam)   on a bounded piece,

    with Lam = ln(hi/lo) and x = hi if b >= 0, else lo.  NormDiverges for a b
    on the wrong side; NotConverged, naming a point of the piece, if the
    integrand per unit ln x, exp(L + b ln x), or the value reaches
    exp(_LN_HUGE), as the quadrature would refuse it.

    err bounds the rounding of the doubles given, not a quadrature estimate.
    With u the unit roundoff, n factors, and log and exp within 2u each:
    every term of L rounds by at most 3u of itself and their sum by n u of
    their magnitudes, so L is off by (n + 3) u S_L, S_L = |ln const| + sum
    |q_j ln|c_j||; b is off by db = (n + 1) u (1 + sum |q_j a_j|), which is
    large next to b where b = a p + 1 cancels near the divergence boundary;
    b ln x is off by db |ln x| + 3u |b ln x|, and L + b ln x rounds by u of
    S_L + |b ln x|.  At an end, ln b is off by -ln(1 - db/|b|) (no bound once
    db >= |b|) and 2u |ln b|.  On a bounded piece Lam = log1p((hi - lo)/lo)
    is within 3u of itself (ln hi - ln lo, past the doubles' range of hi/lo,
    too).  The slope of ln exprel(-w) in w >= 0 is 1/w - 1/(e**w - 1), at
    most min(1/2, 1/w), so db moves ln(Lam exprel(-|b| Lam)) by at most db
    min(Lam, 1/|b|), and the 4u relative rounding of w = |b| Lam by 4u; Lam,
    exprel, the product and its log add 3u, 3u, u and 2u |ln(Lam exprel)|.
    The final sum rounds by u of its magnitude and exp by 2u.  The total d
    bounds the error of ln value to first order, so value * expm1(d) bounds
    that of the value.
    """
    n = len(pi.factors)
    terms = [math.log(pi.const), *(q * math.log(abs(atoms[0].coef))
                                   for atoms, q in pi.factors)]
    slopes = [q * atoms[0].exponent for atoms, q in pi.factors]
    log_c = reduce(add, terms)
    b = reduce(add, slopes, 1.0)
    s_l = reduce(add, map(abs, terms))
    db = (n + 1) * _U * reduce(add, map(abs, slopes), 1.0)
    for end, ok in (("zero", lo > 0.0 or b > 0.0), ("infinity", hi < math.inf or b < 0.0)):
        if not ok:
            raise NormDiverges(f"integral diverges at {end}")
    if lo == 0.0 or math.isinf(hi):
        x = hi if lo == 0.0 else lo
        log_f = -math.log(abs(b))
        d_f = (-math.log1p(-db / abs(b)) if db < abs(b) else math.inf) + 2.0 * _U * abs(log_f)
    else:
        ratio = (hi - lo) / lo
        lam = math.log1p(ratio) if ratio < math.inf else math.log(hi) - math.log(lo)
        x = hi if b >= 0.0 else lo
        log_f = math.log(lam * float(exprel(-abs(b) * lam)))
        d_f = db * min(lam, 1.0 / abs(b) if b else math.inf) + _U * (11.0 + 2.0 * abs(log_f))
    ln_x = math.log(x)
    log_top = log_c + b * ln_x
    log_v = log_top + log_f
    if not (log_top < _LN_HUGE and log_v < _LN_HUGE):  # NaN too: L overflowed
        t = (_LN_HUGE - log_c) / b if b else math.inf  # where exp(L + b ln x) is e**700
        x = min(max(math.exp(min(t, 709.0)), math.nextafter(lo, hi)), hi)
        raise NotConverged(f"integrand overflows the double range near x={x}")
    d = ((n + 4) * s_l + 4.0 * abs(b * ln_x) + abs(log_v) + 2.0) * _U + db * abs(ln_x) + d_f
    log_err = log_v + (math.log(math.expm1(d)) if d < 1.0 else d)  # ln(e**d - 1) < d
    return math.exp(log_v), math.exp(log_err) if log_err < 709.0 else math.inf


def _log_gamma_tail(log_m: float, s: float, q: float, t: float) -> float:
    """log of M * integral of exp(-s*u) * u**q over (t, inf), s > 0, q >= 0."""
    quot = gammaincc(q + 1.0, s * t)
    if quot <= 0.0:
        return -math.inf
    try:
        log_gamma = math.lgamma(q + 1.0)
    except OverflowError:  # past q ~ 2.5e305 there is no bound in doubles
        return math.inf
    return log_m - (q + 1.0) * math.log(s) + log_gamma + math.log(quot)


def _choose_cutoff(log_m: float, s: float, q: float, t0: float,
                   target: float) -> tuple[float, float]:
    """(t, log remainder bound at t) at the first of the steps t <- 1.6*t + 1
    from max(t0, 1), at most 240, whose bound meets the target.  For q = 0 the
    bound is M * exp(-s*t) / s, so the steps with s*t short of ln M - ln s -
    ln target are taken without a gammaincc call, but only below s*t = 700:
    past about 745 gammaincc underflows to 0, which ends the search there."""
    log_target = math.log(target) if target > 0.0 else -745.0
    reach = log_m - math.log(s) - log_target if q == 0.0 else -math.inf
    reach = min(reach - 1e-6 * (1.0 + abs(reach)), 700.0)  # a NaN stays NaN
    t = max(t0, 1.0)
    for _ in range(240):
        if not s * t < reach:
            log_rem = _log_gamma_tail(log_m, s, q, t)
            if log_rem <= log_target:
                return t, log_rem
        t = t * 1.6 + 1.0
    raise NotConverged("remainder bound does not reach the error budget")


def _integrate(jobs, tol: float) -> list:
    """One integral per job, a list of tasks (pi, lo, hi), sharing evaluator calls.

    A task whose factors are each one log-free atom is integrated by
    _closed_form and takes no part in the quadrature.  Quadrature task i of
    all the jobs has regions 3i (zero end), 3i + 1 (interior) and 3i + 2
    (infinity end) of one table; each seed pass, cutoff push and adaptive
    round is one _gk15 call.  A job keeps its own ends, list of segments,
    segment cap and goal max(tol, _REL_FLOOR * |value|), so it returns the
    (value, err) it would alone, or the NotConverged it would raise.  The
    rounding bounds, of the closed forms and of the evaluator's cancellation,
    are added to err at the end, past the goal, which bisection cannot bring
    them under.  A job with tasks whose value ends below the normal doubles
    underflowed, and is NotConverged too.
    """
    out = [None] * len(jobs)  # a job's NotConverged, or its (value, err) at the end
    ends, seeds, segs = ([[] for _ in jobs] for _ in range(3))
    exact = [[0.0, 0.0] for _ in jobs]  # sum of a job's closed forms, and its err
    pis, owner = [], []
    for j, job in enumerate(jobs):
        for pi, lo, hi in job:
            if all(len(atoms) == 1 and not atoms[0].log_power for atoms, _ in pi.factors):
                try:
                    v, e = _closed_form(pi, lo, hi)
                except NotConverged as exc:
                    out[j] = out[j] or exc
                    continue
                total = exact[j][0] + v
                exact[j] = [total, exact[j][1] + e + _U * abs(total)]  # and the sum's rounding
                continue
            i = len(pis)
            pis.append(pi)
            owner.append(j)
            if lo == 0.0:
                lo = min(hi, 1.0 / _E)
                ends[j].append([3 * i, _envelope(pi, True), -math.log(lo), math.inf])
            x1 = max(lo, _E) if math.isinf(hi) else hi
            if lo < x1:
                seeds[j] += [(3 * i + 1, a, b) for a, b in _geom_seeds(lo, x1)]
            if math.isinf(hi):
                ends[j].append([3 * i + 2, _envelope(pi, False), math.log(x1), math.inf])
    fn = _compile(pis) if pis else None

    def run(live, batch):
        """Evaluate the live jobs' non-empty (region, a, b) seeds into segments
        (-err, region, a, b, value, rounding bound); a non-finite value fails a
        job.  Returns the live jobs not failed."""
        todo = [seed for j in live for seed in batch[j] if seed[2] > seed[1]]
        if not todo:
            return list(live)
        regs, a, b = (np.array(col) for col in zip(*todo))
        v, e, r, fails = _gk15(fn, regs, a, b)
        for item in zip((-e).tolist(), regs.tolist(), a.tolist(), b.tolist(), v.tolist(),
                        r.tolist()):
            segs[owner[item[1] // 3]].append(item)
        for reg, t, v in fails:
            j = owner[reg // 3]
            if out[j] is None:
                with np.errstate(over="ignore"):  # an end's node is t = -+ln x
                    x = t if reg % 3 == 1 else float(np.exp((reg % 3 - 1) * t))
                what = ("integrand overflows the double range" if v == math.inf
                        else "non-finite integrand value")
                out[j] = NotConverged(f"{what} near x={x}")
        return [j for j in live if out[j] is None]

    live = range(len(jobs))
    for push in range(7):
        # cut each end where its remainder meets tol / (4 * the job's ends),
        # then push the cutoff until the remainder is also small next to the
        # end's value, so tiny integrals (extremal families at small eps) are
        # not polluted by an absolute-scale remainder term
        for j in live:
            for end in ends[j]:
                reg, env, t_cut, rem = end
                mass = reduce(add, (item[4] for item in segs[j] if item[1] == reg), 0.0)
                goal = max(0.1 * _REL_FLOOR * (abs(mass) + rem), 1e-320)
                goal = goal if push else tol / (4.0 * len(ends[j]))
                if push and rem <= goal:
                    continue
                try:  # at an infinite tol: t_cut and its bound, as t_cut >= 1
                    t_new, log_rem = _choose_cutoff(*env, t_cut, goal)
                except NotConverged as exc:
                    out[j] = exc
                    break
                if t_new > t_cut or not push:
                    seeds[j] += [(reg, a, b) for a, b in _doubling_seeds(t_cut, t_new)]
                    end[2:] = t_new, math.exp(min(log_rem, _LN_HUGE))
        live = [j for j in live if out[j] is None and seeds[j]]
        if not live:
            break
        run(live, seeds)
        seeds = [[] for _ in jobs]
    # global adaptive bisection: each round a job bisects its worst segments, as
    # many as its goal needs, until its interval cap or the floating floor
    # sums run left to right, never by builtin sum, which compensates from 3.12 on
    rems = [0.5 * reduce(add, map(itemgetter(3), job_ends), 0.0) for job_ends in ends]

    def totals(j):  # (value, err) of job j, half the remainder bound in each
        return (reduce(add, map(itemgetter(4), segs[j]), exact[j][0]) + rems[j],
                rems[j] - reduce(add, map(itemgetter(0), segs[j]), 0.0))

    live = [j for j in range(len(jobs)) if out[j] is None]
    while live:
        children = {}
        for j in live:
            items = segs[j]
            items.sort()  # worst first; ties by region, then a
            value, err = totals(j)
            goal = max(tol, _REL_FLOOR * abs(value))
            n = 0
            while err > goal and len(items) + n < _MAX_INTERVALS:
                neg_e, _, a, b = items[n][:4]
                if -neg_e <= 1e-16 * (abs(value) + 1e-300) or (b - a) <= 1e-15 * abs(a):
                    break  # splitting is below double precision resolution
                err += neg_e
                n += 1
            if n:
                children[j] = [half for _, r, a, b, *_ in items[:n]
                               for half in ((r, a, 0.5 * (a + b)), (r, 0.5 * (a + b), b))]
                del items[:n]
        live = run(list(children), children)
    for j in range(len(jobs)):
        if out[j] is None:
            segs[j].sort(key=lambda item: item[1:3])  # sum in spatial order
            v, e = totals(j)
            missed = e > max(tol, _REL_FLOOR * abs(v))
            e += 1e-16 * abs(v) + exact[j][1] + reduce(add, map(itemgetter(5), segs[j]), 0.0)
            out[j] = (NotConverged(f"error budget {tol} not met (reached {e})",
                                   partial=QuadResult(v, e)) if missed else (v, e))
            if jobs[j] and abs(v) < sys.float_info.min:
                out[j] = NotConverged("the integral underflows the double range")
    return out


# ---------------------------------------------------------------------------
# Public norm interface


def check_exponent(p: float) -> None:
    """BadExponent unless 1 < p < inf."""
    if not 1.0 < p < math.inf:
        raise BadExponent(f"p must {'be finite' if p > 1.0 else 'exceed 1'}, got {p}")


def check_tol(tol: float) -> None:
    """BadTolerance unless tol > 0; an infinite tol is allowed."""
    if not tol > 0.0:
        raise BadTolerance(f"tol must be positive, got {tol}")


def check_lp_defined(g: PiecewiseFn, p: float) -> None:
    """Leading-exponent integrability tests; raises NormDiverges on failure."""
    check_exponent(p)
    if g.pieces[0]:
        a_min = min(a.exponent for a in g.pieces[0])
        if a_min * p <= -1.0:
            raise NormDiverges(
                f"norm diverges at zero: leading exponent {a_min} with p={p}"
            )
    if g.pieces[-1]:
        a_max = max(a.exponent for a in g.pieces[-1])
        if a_max * p >= -1.0:
            raise NormDiverges(
                f"norm diverges at infinity: leading exponent {a_max} with p={p}"
            )


def _norm_from_power(vp: float, ep: float, p: float) -> QuadResult:
    """Propagate the error on integral(g**p) to the norm itself.

    Uses the derivative bound |d v**(1/p)| <= v**(1/p-1)/p * err evaluated at
    the low end of the interval; when the interval reaches 0 the exact
    interval endpoints are used instead.
    """
    value = vp ** (1.0 / p)
    if vp - ep > 0.0:
        nerr = (vp - ep) ** (1.0 / p - 1.0) / p * ep
    else:
        nerr = max((vp + ep) ** (1.0 / p) - value, value)
    return QuadResult(value, nerr)


def unwrap(result):
    """A result of lp_norms itself, or the NotConverged in its place raised."""
    if isinstance(result, NotConverged):
        raise result
    return result


def lp_norms(gs, p: float, tol: float = DEFAULT_TOL) -> list:
    """lp_norm of each g, the integrals sharing every evaluator call.

    Each integral keeps its own budget and err, so each result equals
    lp_norm's of that g alone, or is the NotConverged that lp_norm raises.
    The divergence tests of all the gs run, in order, before any quadrature.
    """
    check_exponent(p)
    check_tol(tol)
    for g in gs:
        check_lp_defined(g, p)
    jobs = [[(_ProductIntegrand(1.0, ((atoms, p),)), lo, hi)
             for atoms, lo, hi in zip(g.pieces, g.breakpoints, g.breakpoints[1:])
             if atoms] for g in gs]
    return [r if isinstance(r, NotConverged) else _norm_from_power(*r, p)
            for r in _integrate(jobs, tol)]


def lp_norm(g: PiecewiseFn, p: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """(integral of |g|**p over (0, inf))**(1/p) with an error bound.

    ``g`` may take either sign; ``tol`` is an absolute budget on the whole
    integral of |g|**p, with a 1e-12 relative floor for values too large
    for double precision to do better.  The returned err bounds the norm
    itself.
    """
    return unwrap(lp_norms([g], p, tol)[0])


def _identity_integral(f: PiecewiseFn, g: PiecewiseFn, const: float, p: float,
                       tol: float) -> QuadResult:
    """const * integral of f * g**(p-1) over (0, inf), for g = Hf or H*f."""
    check_tol(tol)
    check_lp_defined(g, p)
    tasks = [
        (_ProductIntegrand(const, ((atoms, 1.0), (g.pieces[i], p - 1.0))),
         f.breakpoints[i], f.breakpoints[i + 1])
        for i, atoms in enumerate(f.pieces) if atoms and g.pieces[i]
    ]
    return QuadResult(*unwrap(_integrate([tasks], tol)[0]))


def ip_via_parts(f: PiecewiseFn, p: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """integral of (Hf)**p computed by the integration-by-parts identity

        p' * integral of f(x) * (Hf)(x)**(p-1)

    Must agree with lp_norm(hardy(f), p)**p; keeping the two routes separate
    is the point, so this one never calls the norm of Hf.
    """
    check_exponent(p)
    return _identity_integral(f, hardy(f), p / (p - 1.0), p, tol)


def ipstar_via_fubini(f: PiecewiseFn, p: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """integral of (H*f)**p computed by the Fubini identity

        p * integral of f(x) * (H*f)(x)**(p-1)

    Must agree with lp_norm(dual_hardy(f), p)**p.
    """
    check_exponent(p)
    return _identity_integral(f, dual_hardy(f), p, p, tol)


# ---------------------------------------------------------------------------
# Numeric oracle path for black-box functions


def _quad_with_singularities(fn, a, b, singular, budget):
    """(value, err) of the integral of a black-box scalar fn over [a, b].

    QUADPACK qagp with the singular points inside as breakpoints, asking for
    max(budget, _REL_FLOOR * |value|).  An infinite b is split at far =
    max(1, a, 2 * the largest singular point above a): qagp up to far, qagi
    beyond, each on half the budget.  err gets 1e-16 * |value| and what an
    unlisted jump past far shows: how far the tail split again at 2 * far
    differs past both errs.  A part QUADPACK calls divergent, or any flagged
    tail, raises NormDiverges.
    """
    from scipy.integrate import quad

    def part(lo, hi, share):
        points = sorted({s for s in singular if lo < s < hi})
        value, err, _, *flag = quad(fn, lo, hi, points=points or None, epsabs=share,
                                    epsrel=_REL_FLOOR, limit=50 * (len(points) + 1),
                                    full_output=1)
        if flag and (math.isinf(hi) or "divergent" in flag[0]):
            raise NormDiverges(f"integral over ({lo}, {hi}): {flag[0].splitlines()[0]}")
        return np.array([value, err])

    if math.isinf(b):
        far = max(1.0, a, *(2.0 * s for s in singular if s > a))
        tail = part(far, b, 0.5 * budget)
        check = part(far, 2.0 * far, 0.25 * budget) + part(2.0 * far, b, 0.25 * budget)
        value, err = part(a, far, 0.5 * budget) + tail
        err += max(0.0, abs(tail[0] - check[0]) - tail[1] - check[1])
    else:
        value, err = part(a, b, budget)
    return float(value), float(err + 1e-16 * abs(value))


def _grid_nodes(grid, singular):
    """The grid, checked, plus the singular points inside it; and those points."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or len(g) < 2 or g[0] <= 0.0 or np.any(np.diff(g) <= 0.0):
        raise ValueError("grid must be an increasing sequence of positive reals")
    cuts = sorted({s for s in singular if g[0] < s < g[-1]})
    return np.union1d(g, cuts), cuts


def _pchip(g, vals, cuts):
    """The monotone cubic through (g, vals), one PCHIP per stretch between
    cuts: a cubic across a kink overshoots, and a node there alone flattens
    the slope at the kink to 0."""
    from scipy.interpolate import PchipInterpolator, PPoly

    ends = [0, *np.searchsorted(g, cuts).tolist(), len(g) - 1]
    return PPoly(np.hstack([PchipInterpolator(g[i:k + 1], vals[i:k + 1]).c
                            for i, k in zip(ends, ends[1:])]), g)


def numeric_hardy(f: CallableFn, grid) -> CallableFn:
    """Tabulated average of a black-box nonnegative function.

    The cumulative integral is accumulated node to node with singular-aware
    quadrature, interpolated by a monotone cubic (cumulative integrals of
    nonnegative integrands are monotone, and shape beats raw accuracy here),
    and divided by x.  Below the grid the hinted power is used; beyond it the
    cumulative is frozen, which is exact for compactly supported inputs.  f's
    singular points inside the grid become nodes (see _pchip); the nodes are
    the output's singular points.
    """
    if f.zero_exponent_hint <= -1.0:
        raise DivergentAtZero(
            f"hinted exponent {f.zero_exponent_hint} at 0 is not integrable"
        )
    g, cuts = _grid_nodes(grid, f.singular_points)
    cum = np.cumsum([_quad_with_singularities(f.evaluator, lo, hi,
                                              f.singular_points, 1e-12)[0]
                     for lo, hi in zip([0.0, *g[:-1]], g)])
    interp = _pchip(g, cum, cuts)
    g0, g_last = float(g[0]), float(g[-1])
    cum0, cum_last = float(cum[0]), float(cum[-1])
    zh = f.zero_exponent_hint

    def ev(x: float) -> float:
        if x <= 0.0:
            raise ValueError("average is defined for x > 0 only")
        if x < g0:
            return cum0 * (x / g0) ** (zh + 1.0) / x
        if x <= g_last:
            return float(interp(x)) / x
        return cum_last / x

    return CallableFn(ev, tuple(g.tolist()), tail_exponent_hint=-1.0,
                      zero_exponent_hint=zh)


def numeric_dual_hardy(f: CallableFn, grid) -> CallableFn:
    """Tabulated dual average: backward cumulative of f(t)/t, interpolated.

    A nonnegative tail hint is accepted only when the function actually
    vanishes past the grid (compact support).  Below the first node g0, f is
    continued as f(g0) * (x/g0)**a, a the zero hint.  The nodes, as in
    numeric_hardy, are the output's singular points.
    """
    g, cuts = _grid_nodes(grid, f.singular_points)
    g_last = float(g[-1])
    if f.tail_exponent_hint >= 0.0:
        if any(f.evaluator(g_last * m) > 0.0 for m in (2.0, 10.0, 100.0)):
            raise DivergentAtInfinity(
                f"hinted tail exponent {f.tail_exponent_hint} is not integrable"
            )
    over_t = lambda t: f.evaluator(t) / t
    vals = np.cumsum([_quad_with_singularities(over_t, lo, hi, f.singular_points,
                                               1e-12)[0]
                      for lo, hi in zip(g[::-1], [math.inf, *g[:0:-1]])])[::-1]
    interp = _pchip(g, vals, cuts)
    g0 = float(g[0])
    s0, s_last = float(vals[0]), float(vals[-1])
    f0 = f.evaluator(g0)
    zh = f.zero_exponent_hint
    th = min(f.tail_exponent_hint, 0.0)

    def ev(x: float) -> float:
        if x <= 0.0:
            raise ValueError("dual average is defined for x > 0 only")
        if x < g0:  # (1 - (x/g0)**zh) / zh, which is ln(g0/x) at zh = 0
            return s0 + f0 * math.log(g0 / x) * float(exprel(zh * math.log(x / g0)))
        if x <= g_last:
            return float(interp(x))
        return s_last * (x / g_last) ** th

    return CallableFn(ev, tuple(g.tolist()), tail_exponent_hint=th,
                      zero_exponent_hint=min(zh, 0.0))


def lp_norm_callable(f: CallableFn, p: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """Oracle-grade Lp norm of a black-box nonnegative function.

    Integrability at zero is decided up front from the zero hint; the
    integral of g**p over (0, inf) is _quad_with_singularities'.  Error
    estimates come from the quadrature rules, so this is a cross-check
    tool, not a bound certificate.
    """
    check_exponent(p)
    check_tol(tol)
    if f.zero_exponent_hint * p + 1.0 <= 0.0:
        raise NormDiverges("norm diverges at zero by the hinted exponent")
    gp = lambda x: max(f.evaluator(x), 0.0) ** p
    value, err = _quad_with_singularities(gp, 0.0, math.inf, f.singular_points, tol)
    if err > max(tol, _REL_FLOOR * abs(value)):
        raise NotConverged(
            f"error budget {tol} not met (reached {err})",
            partial=QuadResult(value, err),
        )
    return _norm_from_power(value, err, p)
