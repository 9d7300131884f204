"""hardylab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fuzz-general --seed 1 --seconds 20 --trace 0

Run from the repository root; hardylab is imported from ./src.  The run
times cold imports of hardylab (setup_s), builds the workload's inputs from
the seed, then repeats whole rounds of its operations until --seconds have
passed, with the calibration kernel run before every operation.  Every
operation's output is checked against values computed by ``checks`` after
the timed phase.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under --trace 0 and the per-layer metrics of
``tracing`` under --trace 1.  Diagnostics go to stderr; --trace 1 also writes
perfbench/out/trace-<workload>-<seed>.json.

Every time is calibrated: raw seconds * REF_KERNEL_S / (the duration of the
calibration kernel measured next to it in the same run), so a machine that
runs everything slower or faster for a while moves both alike and the ratio
stays put.  An op's latency is scaled by the mean of the 2*WINDOW+1 kernel
runs centred on it.

setup_s is the one exception: it is the median raw wall time of
1 + 2*SETUP_CHILDREN cold imports, each timed from the first statement of a
fresh interpreter: this process's own, SETUP_CHILDREN child interpreters
before the timed phase and as many after it.  The import's cost (reading
and unmarshalling modules, loading scipy's shared objects) follows the
kernel's swings only partly, so scaling by the kernel widened its spread
instead of narrowing it (see README.md).
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
os.environ.pop("HARDYLAB_THREADS", None)
sys.path.insert(0, str(ROOT / "src"))
try:
    import hardylab  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot import hardylab from {ROOT / 'src'}: {exc}")
SETUP_RAW_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Fixed reference duration of ``kernel()``, about its mean on the 2-core
#: sandbox (Python 3.11.7) where the benchmark was calibrated; calibrated
#: seconds are seconds on a machine where the kernel takes this long.
REF_KERNEL_S = 3.0e-4

#: Half-width of the kernel window that calibrates one op's latency.
WINDOW = 5

#: Child interpreters that time a cold import before, and again after, the
#: timed phase.
SETUP_CHILDREN = 3

_CHILD_IMPORT = (
    "import time; t0 = time.perf_counter()\n"
    "import sys; sys.path.insert(0, sys.argv[1])\n"
    "import hardylab\n"
    "print(time.perf_counter() - t0)\n"
)

_KERNEL_XS = tuple(1.0 + i / 97.0 for i in range(97))


def kernel() -> float:
    """Fixed pure-Python math.log/math.exp work, about 0.3 ms."""
    s = 0.0
    for _ in range(16):
        for x in _KERNEL_XS:
            s += math.exp(-0.5 * math.log(x))
    return s


class Raised:
    """An exception an operation raised, kept as its output."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text


def child_setups(n: int) -> list[float]:
    """Raw seconds of a cold ``import hardylab`` in each of n fresh
    interpreters, run one after another and timed inside each."""
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", _CHILD_IMPORT, str(ROOT / "src")],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=60, check=True)
        out.append(float(proc.stdout))
    return out


def timed_phase(ops, seconds: float):
    """Whole rounds of ``ops`` until ``seconds`` have passed.

    Returns (rounds, op latencies, kernel durations, outputs) where outputs
    holds (op index, output) for each op's first output and for every later
    output that differs from it.
    """
    clock = time.perf_counter
    latencies, kernels, outputs = [], [], []
    first = [None] * len(ops)
    rounds = 0
    deadline = clock() + seconds
    while True:
        for i, op in enumerate(ops):
            k0 = clock()
            kernel()
            t0 = clock()
            try:
                out = op.call()
            except Exception as exc:  # a failed op is counted, not fatal
                out = Raised(exc)
            t1 = clock()
            kernels.append(t0 - k0)
            latencies.append(t1 - t0)
            if rounds == 0:
                first[i] = out
                outputs.append((i, out))
            elif out != first[i]:
                outputs.append((i, out))
        rounds += 1
        if clock() >= deadline:
            return rounds, latencies, kernels, outputs


def calibrate(latencies, kernels) -> list[float]:
    """Each latency * REF_KERNEL_S / mean kernel duration in its window."""
    prefix = [0.0, *itertools.accumulate(kernels)]
    n = len(kernels)
    out = []
    for i, lat in enumerate(latencies):
        lo, hi = max(0, i - WINDOW), min(n, i + WINDOW + 1)
        out.append(lat * REF_KERNEL_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return out


def check_outputs(ops, rounds: int, outputs):
    """(failed ops, failed ops not marked known_fault, first reasons)."""
    failed = unexpected = 0
    reasons = []
    repeats = [rounds] * len(ops)
    for i, _ in outputs:
        repeats[i] -= 1
    seen = set()
    for i, out in outputs:
        op = ops[i]
        # the first output stands for every later run of the op equal to it
        weight = 1 + repeats[i] if i not in seen else 1
        seen.add(i)
        if isinstance(out, Raised):
            reason = out.text
        else:
            try:
                reason = op.check(out)
            except Exception as exc:  # malformed output
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None:
            continue
        failed += weight
        if not op.known_fault:
            unexpected += weight
        if len(reasons) < 5:
            reasons.append(f"{op.label}: {reason}")
    return failed, unexpected, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(hardylab.__file__).resolve().parents:
        print(f"perfbench: hardylab was imported from {hardylab.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    ops = workloads.WORKLOADS[args.workload](args.seed)
    setups = [SETUP_RAW_S, *child_setups(SETUP_CHILDREN)]
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        rounds, lat, kern, outputs = timed_phase(ops, args.seconds)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += child_setups(SETUP_CHILDREN)
    failed, unexpected, reasons = check_outputs(ops, rounds, outputs)

    n = len(lat)
    cal = calibrate(lat, kern)
    factor = sum(cal) / sum(lat)
    ops_per_s = n / sum(cal)
    print(f"perfbench: {args.workload} seed={args.seed}: {rounds} rounds of "
          f"{len(ops)} ops, kernel mean {statistics.mean(kern) * 1e6:.1f} us, "
          f"raw ops/s {n / sum(lat):.2f}, setups " + " ".join(f"{t:.3f}" for t in setups)
          + " s", file=sys.stderr)
    for line in reasons:
        print(f"perfbench: failed op {line}", file=sys.stderr)

    if tracer:
        metrics = {}
        for key in tracing.TRACED:
            prefix = tracing.metric_prefix(*key)
            metrics[f"{prefix}.calls"] = {"value": tracer.calls[key] / n, "unit": "calls/op"}
            metrics[f"{prefix}.self_ms"] = {
                "value": tracer.self_s[key] * factor * 1e3 / n, "unit": "ms/op"}
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "ops": n, "kernel_factor": factor, "ops_per_s_traced": ops_per_s,
            "metrics": metrics}, indent=2) + "\n")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(cal) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(cal, n=10)[-1] * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": unexpected == 0, "attempted": n,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
