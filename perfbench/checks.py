"""Independent checks of hardylab's outputs.

Nothing here calls hardylab.  Every reference value is recomputed from the
inputs the benchmark generated:

  * fuzz: the averages Hf and H*f of one-atom-per-piece power functions in
    closed form, and for integer p their p-th power integrals by binomial
    expansion at 60 significant digits (mpmath);
  * the sharp constants from the paper's table, and the classical pair;
  * the extremal families: exact norm**p where a closed form exists, the
    paper's sandwiches otherwise, and a quadratic eps -> 0 extrapolation;
  * the monotone CLI inputs: ||phi||_p and H(phi) - phi from their own
    formulas.

Each ``check_*`` function returns None when the output is right and a short
reason string when it is not.
"""

from __future__ import annotations

import json
import math

DIGITS = 60
SQRT10 = math.sqrt(10.0)

#: Relative floor of double precision in the README's numerical contract.
#: It is added to err only where err alone is seen to fail: the extremal
#: closed forms at eps <= FLOOR_EPS (up to 37x err, 4e-13 relative; see
#: CHANGES.md).  A fixed op checks one such sweep on err alone.
FLOOR = 1e-12
FLOOR_EPS = 3.2e-3


# ---------------------------------------------------------------------------
# Constants


def sharp_pair(p: float) -> tuple[float, float]:
    """The paper's best (lower, upper) for ||H*f||_p / ||Hf||_p."""
    root = (p - 1.0) ** (1.0 / p)
    return (p - 1.0, root) if p <= 2.0 else (root, p - 1.0)


def crude_pair(p: float) -> tuple[float, float]:
    """The classical pair (1/p', p) with p' = p/(p-1)."""
    return (p - 1.0) / p, p


def _within(value: float, err: float, lo: float, hi: float) -> bool:
    return lo - err <= value <= hi + err


# ---------------------------------------------------------------------------
# fuzz-general: closed-form averages and an integer-p oracle


def _ends(bps):
    """(lo, hi) per piece in mpmath; hi is None on the unbounded piece."""
    import mpmath  # imported here so that peak_rss_mb measures hardylab alone

    return [(mpmath.mpf(lo), None if math.isinf(hi) else mpmath.mpf(hi))
            for lo, hi in zip(bps, bps[1:])]


def _averages(bps, pieces):
    """Hf and H*f per piece as [(coef, exponent), ...] in mpmath.

    ``pieces[i]`` is [] or [(c, a, 0)] on (bps[i], bps[i+1]].  On a piece
    with atom c*x**a:
        Hf  = (C(lo) - c*lo**(a+1)/(a+1)) / x + c/(a+1) * x**a
        H*f = (T(hi) + c*hi**a/a)             - c/a     * x**a
    where C(lo) is the integral of f over (0, lo] and T(hi) that of f(t)/t
    over (hi, inf).
    """
    import mpmath

    ends = _ends(bps)
    hf = []
    acc = mpmath.mpf(0)
    for (lo, hi), piece in zip(ends, pieces):
        if not piece:
            hf.append([(acc, mpmath.mpf(-1))])
            continue
        c, a = mpmath.mpf(piece[0][0]), mpmath.mpf(piece[0][1])
        hf.append([(acc - c * lo ** (a + 1) / (a + 1), mpmath.mpf(-1)),
                   (c / (a + 1), a)])
        if hi is not None:
            acc += c * (hi ** (a + 1) - lo ** (a + 1)) / (a + 1)
    hs = [None] * len(pieces)
    tail = mpmath.mpf(0)
    for i in range(len(pieces) - 1, -1, -1):
        (lo, hi), piece = ends[i], pieces[i]
        if not piece:
            hs[i] = [(tail, mpmath.mpf(0))]
            continue
        c, a = mpmath.mpf(piece[0][0]), mpmath.mpf(piece[0][1])
        hi_term = 0 if hi is None else c * hi ** a / a
        hs[i] = [(tail + hi_term, mpmath.mpf(0)), (-c / a, a)]
        if lo > 0:
            tail += hi_term - c * lo ** a / a
    return hf, hs


def _power_integral(atoms, lo, hi, p: int):
    """Integral of (sum coef*x**e)**p over (lo, hi] for a two-atom sum."""
    import mpmath

    atoms = [(c, e) for c, e in atoms if c != 0]
    total = mpmath.mpf(0)
    if not atoms:
        return total
    if len(atoms) == 1:
        atoms.append((mpmath.mpf(0), mpmath.mpf(0)))
    (c1, e1), (c2, e2) = atoms
    for k in range(p + 1):
        coef = mpmath.binomial(p, k) * c1 ** k * c2 ** (p - k)
        if coef == 0:
            continue
        e = k * e1 + (p - k) * e2
        if e == -1:
            if lo == 0 or hi is None:
                raise ValueError("log term at an unbounded end")
            total += coef * mpmath.log(hi / lo)
            continue
        upper = 0 if hi is None else hi ** (e + 1)
        lower = 0 if lo == 0 else lo ** (e + 1)
        total += coef * (upper - lower) / (e + 1)
    return total


def oracle_ratio(bps, pieces, p: int) -> float:
    """||H*f||_p / ||Hf||_p for integer p, from 60-digit closed forms."""
    import mpmath

    with mpmath.workdps(DIGITS):
        hf, hs = _averages(bps, pieces)
        ends = _ends(bps)
        ih = sum(_power_integral(at, lo, hi, p) for at, (lo, hi) in zip(hf, ends))
        ihs = sum(_power_integral(at, lo, hi, p) for at, (lo, hi) in zip(hs, ends))
        return float((ihs / ih) ** (mpmath.mpf(1) / p))


def check_fuzz(sharp: dict, crude: dict, bps, pieces, p: float) -> str | None:
    """Both reports (``VerificationReport.to_dict()``) for one (f, p)."""
    for name, rep, (lo, hi) in (("thm1", sharp, sharp_pair(p)),
                                ("crude", crude, crude_pair(p))):
        if rep["verdict_lower"] != "Holds" or rep["verdict_upper"] != "Holds":
            return f"{name} verdicts {rep['verdict_lower']}/{rep['verdict_upper']}"
        if not _within(rep["ratio"], rep["ratio_err"], lo, hi):
            return f"{name} ratio {rep['ratio']} outside [{lo}, {hi}]"
    ratio, err = sharp["ratio"], sharp["ratio_err"]
    if p == 2.0 and abs(ratio - 1.0) > err:
        return f"ratio {ratio} != 1 at p = 2 (err {err})"
    if p == int(p):
        ref = oracle_ratio(bps, pieces, int(p))
        if abs(ratio - ref) > err:
            return f"ratio {ratio} vs exact {ref} exceeds err {err}"
    return None


# ---------------------------------------------------------------------------
# extremal-sweep


def eps_grid(kind: str, p: float) -> list[float]:
    """1e-1 .. 1e-4 in half decades; the power families stay below
    min(divergence boundary, 0.49/p)."""
    grid = [10.0 ** (-1.0 - k / 2.0) for k in range(7)]
    if kind == "zero":
        grid = [e for e in grid if e < min(1.0 / p, 0.49 / p)]
    elif kind == "inf":
        grid = [e for e in grid if e < min(1.0 - 1.0 / p, 0.49 / p)]
    return grid


def exact_power(kind: str, eps: float, p: float) -> tuple[float | None, float | None]:
    """Exact (||Hf||_p**p, ||H*f||_p**p) where a closed form exists.

    zero family f = x**(eps-1/p) on (0,1]: Hf = x**a/(a+1) on (0,1] and
    1/((a+1)x) beyond, so ||Hf||_p**p = (a+1)**-p * (1/(eps p) + 1/(p-1)).
    inf family f = x**(-eps-1/p) on (1,inf): H*f = 1/b on (0,1] and x**-b/b
    beyond with b = eps+1/p, so ||H*f||_p**p = b**-p * (1 + 1/(eps p)).
    """
    if kind == "zero":
        a1 = eps - 1.0 / p + 1.0
        return a1 ** -p * (1.0 / (eps * p) + 1.0 / (p - 1.0)), None
    if kind == "inf":
        b = eps + 1.0 / p
        return None, b ** -p * (1.0 + 1.0 / (eps * p))
    return None, None


def sandwich(kind: str, eps: float, p: float):
    """The paper's bounds ((lo, hi) for ||Hf||**p, (lo, hi) for ||H*f||**p)."""
    if kind == "step":
        h_lo = eps ** p * (1.0 + eps) ** (1.0 - p) / (p - 1.0)
        s_lo = math.log1p(eps) ** p
        return (h_lo, h_lo + eps ** (p + 1.0)), (s_lo, s_lo * (1.0 + eps))
    if kind == "zero":
        return ((p ** p / (eps * p * (p - 1.0 + eps * p) ** p), None),
                (None, p ** p / (eps * p * (1.0 - eps * p) ** p)))
    return ((None, p ** p / (eps * p * (p - 1.0 - eps * p) ** p)),
            (p ** p / (eps * p * (1.0 + eps * p) ** p), None))


def sharp_limit(kind: str, p: float) -> float:
    if kind == "step":
        return (p - 1.0) ** (-1.0 / p)
    if kind == "zero":
        return 1.0 / (p - 1.0)
    return p - 1.0


def extrapolate(points) -> float:
    """Quadratic through the three smallest-eps (eps, ratio) points, at 0."""
    (x1, y1), (x2, y2), (x3, y3) = sorted(points)[:3]
    return (y1 * x2 * x3 / ((x1 - x2) * (x1 - x3))
            + y2 * x1 * x3 / ((x2 - x1) * (x2 - x3))
            + y3 * x1 * x2 / ((x3 - x1) * (x3 - x2)))


#: The extrapolated limit must match the sharp constant this closely.
LIMIT_RTOL = 1e-6


def _norm_ok(value: float, err: float, eps: float, p: float, exact, bounds,
             floor: float) -> bool:
    """A norm against the p-th root of its exact norm**p or sandwich."""
    if exact is not None:
        tol = err + (floor * abs(value) if eps <= FLOOR_EPS else 0.0)
        return abs(value - exact ** (1.0 / p)) <= tol
    lo, hi = bounds
    return ((lo is None or value >= lo ** (1.0 / p) - err)
            and (hi is None or value <= hi ** (1.0 / p) + err))


def check_sweep(kind: str, p: float, records: list[dict],
                floor: float = FLOOR) -> str | None:
    """Records of one sweep, as dicts with eps, norm_H(_err), norm_Hstar(_err),
    ratio and converged.  ``floor`` is added to err at the closed forms below
    FLOOR_EPS; 0 checks them on err alone."""
    grid = eps_grid(kind, p)
    got = [r["eps"] for r in records]
    if len(got) != len(grid) or any(abs(g - e) > 1e-12 * e for g, e in zip(got, grid)):
        return f"eps grid {got} != {grid}"
    points = []
    for r in records:
        eps = r["eps"]
        if not r["converged"]:
            return f"eps={eps} did not converge"
        nh, eh, ns, es = r["norm_H"], r["norm_H_err"], r["norm_Hstar"], r["norm_Hstar_err"]
        ex_h, ex_s = exact_power(kind, eps, p)
        sw_h, sw_s = sandwich(kind, eps, p)
        if not _norm_ok(nh, eh, eps, p, ex_h, sw_h, floor):
            return f"eps={eps}: ||Hf|| = {nh} +- {eh} off its reference"
        if not _norm_ok(ns, es, eps, p, ex_s, sw_s, floor):
            return f"eps={eps}: ||H*f|| = {ns} +- {es} off its reference"
        ratio = ns / nh if kind == "inf" else nh / ns
        if abs(r["ratio"] - ratio) > FLOOR * ratio:
            return f"eps={eps}: ratio {r['ratio']} != norm quotient {ratio}"
        points.append((eps, ratio))
    limit, target = extrapolate(points), sharp_limit(kind, p)
    if abs(limit - target) > LIMIT_RTOL * target:
        return f"limit {limit} not near the sharp constant {target}"
    return None


# ---------------------------------------------------------------------------
# cli-monotone: phi = sum_j w_j * (b_j - x)_+ ** d_j  (d_j = 0: a step)


def phi_value(terms, x: float) -> float:
    return sum(w * (b - x) ** d for w, b, d in terms if x <= b)


def hardy_minus_phi(terms, x: float) -> float:
    """(1/x) * integral of phi over (0, x] - phi(x), term by term."""
    total = 0.0
    for w, b, d in terms:
        rest = (b - x) ** (d + 1) if x < b else 0.0
        total += w * (b ** (d + 1) - rest) / (d + 1)
    return total / x - phi_value(terms, x)


def piece_polys(terms) -> list[tuple[float, float, list[float]]]:
    """phi on each (lo, hi] between cuts as polynomial coefficients in x,
    lowest degree first.  The CLI inputs are written from these, so the
    checks integrate exactly the polynomials the program was given."""
    cuts = sorted({0.0, *(b for _, b, _ in terms)})
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        poly = [0.0] * (1 + max(d for _, _, d in terms))
        for w, b, d in terms:
            if b >= hi:
                for j in range(d + 1):
                    poly[j] += w * math.comb(d, j) * b ** (d - j) * (-1.0) ** j
        out.append((lo, hi, poly))
    return out


def _poly_power_integral(terms, p: int) -> float:
    """Integral of phi**p over (0, inf) for integer p, piece by piece."""
    total = 0.0
    for lo, hi, poly in piece_polys(terms):
        power = [1.0]
        for _ in range(p):
            power = [sum(power[i] * poly[k - i]
                         for i in range(len(power)) if 0 <= k - i < len(poly))
                     for k in range(len(power) + len(poly) - 1)]
        total += sum(c * (hi ** (j + 1) - lo ** (j + 1)) / (j + 1)
                     for j, c in enumerate(power))
    return total


def phi_norm(terms, p: float) -> float:
    """||phi||_p: closed form for steps, polynomial expansion for integer p."""
    if all(d == 0 for _, _, d in terms):
        cuts = sorted({0.0, *(b for _, b, _ in terms)})
        vp = sum(phi_value(terms, hi) ** p * (hi - lo)
                 for lo, hi in zip(cuts, cuts[1:]))
        return vp ** (1.0 / p)
    return _poly_power_integral(terms, int(p)) ** (1.0 / p)


def dsl_value(spec: dict, x: float) -> float:
    """Evaluate the CLI's JSON function DSL at x > 0 (pieces are (lo, hi])."""
    bps = [math.inf if isinstance(b, str) else float(b) for b in spec["breakpoints"]]
    for i, piece in enumerate(spec["pieces"]):
        if bps[i] < x <= bps[i + 1]:
            return sum(at["c"] * x ** at["a"] * math.log(x) ** at["k"] for at in piece)
    raise ValueError(f"x={x} outside the partition")


def sample_points(terms) -> list[float]:
    """24 log-spaced points from below the first to beyond the last cut."""
    cuts = [b for _, b, _ in terms]
    lo, hi = min(cuts) / 8.0, max(cuts) * 4.0
    return [lo * (hi / lo) ** (i / 23.0) * (1.0 + 1e-7) for i in range(24)]


def _load(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def check_cli(command: str, terms, p: float, code: int, stdout: str) -> str | None:
    """One CLI call on a monotone phi given as terms (w, b, d)."""
    out = _load(stdout)
    if code != 0 or out is None:
        return f"{command}: exit {code}"
    if command == "norm":
        ref = phi_norm(terms, p)
        if abs(out["value"] - ref) > out["err"]:
            return f"norm {out['value']} +- {out['err']} vs exact {ref}"
    elif command == "thm2":
        if out["verdict_lower"] != "Holds" or out["verdict_upper"] != "Holds":
            return f"thm2 verdicts {out['verdict_lower']}/{out['verdict_upper']}"
        lo, hi = sharp_pair(p)
        if not _within(out["ratio"], out["ratio_err"], lo, hi):
            return f"thm2 ratio {out['ratio']} outside [{lo}, {hi}]"
    elif command == "duality":
        if out["verdict"] != "pass":
            return f"duality verdict {out['verdict']}"
    elif command == "diff":
        for x in sample_points(terms):
            got, ref = dsl_value(out, x), hardy_minus_phi(terms, x)
            if abs(got - ref) > 1e-9 * max(1.0, abs(ref)):
                return f"H(phi)-phi at x={x}: {got} vs {ref}"
    else:
        raise ValueError(f"unknown command {command!r}")
    return None


def check_signed_norm(code: int, stdout: str) -> str | None:
    """``norm -p 2`` of 1 on (0,1], -3 on (1,2]: sqrt(1 + 9)."""
    out = _load(stdout)
    if code != 0 or out is None:
        return f"norm: exit {code}"
    if abs(out["value"] - SQRT10) > out["err"]:
        return f"signed norm {out['value']} != sqrt(10)"
    return None


def check_signed_refusal(code: int, stdout: str) -> str | None:
    """``verify thm1`` on a signed f lies outside the theorem: exit 3."""
    if code != 3:
        return f"signed thm1 gave exit {code}, not a refusal (3)"
    return None
