"""hardylab: the averaging operator pair and its sharp norm relations.

Exact application of (Hf)(x) = (1/x) * integral(f, 0..x) and its dual
(H*f)(x) = integral(f(t)/t, x..inf) on a closed piecewise power-log algebra,
Lp norms with propagated error bounds, verdicts for the sharp two-sided
inequalities between the two norms (and their equivalent monotone form),
extremal-family sweeps, and a CLI.
"""

__version__ = "0.1.0"

from .errors import (
    BadExponent,
    BadTolerance,
    DegenerateInput,
    DivergentAtInfinity,
    DivergentAtZero,
    EpsOutOfRange,
    EquivalenceViolated,
    HardyLabError,
    InsufficientData,
    JumpDiscontinuity,
    LogPowerCapExceeded,
    MalformedPartition,
    NegativityDetected,
    NoDecayAtInfinity,
    NormDiverges,
    NotConverged,
    NotMonotone,
    NotRepresentable,
    ParseError,
)
from .funcmodel import (
    PiecewiseFn,
    PowerLogAtom,
    derivative,
    evaluate,
    is_nonincreasing,
    make_piecewise,
)
from .operators import cumulative_integral, dual_hardy, hardy, hardy_minus_identity
from .norms import (
    CallableFn,
    QuadResult,
    ip_via_parts,
    ipstar_via_fubini,
    lp_norm,
    lp_norm_callable,
    lp_norms,
    numeric_dual_hardy,
    numeric_hardy,
)
from .verify import (
    Constants,
    P_GRID,
    VerificationReport,
    Verdict,
    sharp_constants,
    verify_crude,
    verify_theorem1,
    verify_theorem2,
)
from .extremal import (
    FamilyKind,
    Sandwich,
    SweepRecord,
    estimate_limit,
    family,
    paper_bounds,
    sweep,
)
from .duality import check_equivalence, f_to_phi, mollify, phi_to_f
from .cli import FuzzConfig, fuzz_generate, parse_function_spec

__all__ = [name for name in dir() if not name.startswith("_")]
