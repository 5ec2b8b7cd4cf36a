"""Run one attnio benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload stream --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and NOTES.md): stream, tile, oracles, sweep.
The run imports attnio from ``src/`` of the checkout it sits in, makes
the workload's inputs from ``--seed``, runs one untimed warm-up pass,
then repeats timed passes over the workload's fixed op list for
``--seconds``.  Every op's answers are checked on every pass.

``--trace 0`` reports the end-to-end metrics (wall_s, io_per_s,
peak_rss_mb, setup_s).  ``--trace 1`` alternates plain passes with
passes during which the public functions of each attnio layer are
wrapped (tracer.py), and reports per-layer self times, counts and rates,
plus the tracing overhead; the spans of the last traced pass are written
to ``bench/out/spans-<workload>.csv``.

Times are normalized to one host speed.  The 2-core host this was tuned
on runs all code up to 2x slower in spells of seconds to minutes.  Just
before each op a fixed reference loop (workloads.reference_loop) is
timed; a pass's slowdown is its mean reference-loop time over
REF_LOOP_S, and its host seconds divided by that slowdown are its
normalized seconds.  Timed metrics are medians over the passes of a run
(NOTES.md gives the spreads this removes).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Failure messages go to stderr.
"""

import os

# One thread for every numeric library, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
# Spelled out so that parsing arguments imports nothing that setup_s times.
WORKLOAD_NAMES = ("stream", "tile", "oracles", "sweep")
# Fresh interpreters that repeat the set-up, so setup_s is a median.
SETUP_REPEATS = 8
# Reference loops timed after each set-up; their median gives its slowdown.
SETUP_REF_LOOPS = 21
# The reference loop's time on the 2-vCPU Xeon host of NOTES.md in a quiet
# spell.  A fixed constant, so normalized seconds compare across runs.
REF_LOOP_S = 0.00115
SETUP_TIMEOUT_S = 60
MIN_PASSES = 3


def use_checkout_source() -> None:
    """Import attnio from this checkout's src/ and nowhere else."""
    if not (SRC / "attnio" / "__init__.py").is_file():
        raise SystemExit(f"error: no attnio package under {SRC}; "
                         "run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))


def timed_setup(workload: str, seed: int):
    """Import numpy and attnio, then build the workload's ops from the seed.

    Returns the ops and the set-up's normalized seconds: its host seconds
    over the slowdown that the reference loops run right after it show.
    """
    t0 = perf_counter()
    import numpy  # noqa: F401
    import attnio  # noqa: F401
    import workloads
    ops = workloads.WORKLOADS[workload](seed)
    seconds = perf_counter() - t0
    loops = []
    for _ in range(SETUP_REF_LOOPS):
        r0 = perf_counter()
        workloads.reference_loop()
        loops.append(perf_counter() - r0)
    return ops, seconds * REF_LOOP_S / statistics.median(loops)


def setup_in_fresh_interpreter(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _median(values: list[float]) -> float:
    """Median, or 0 when no pass had a passing op (the run is then not correct)."""
    return statistics.median(values) if values else 0.0


class Passes:
    """Results of repeated passes over one op list, one entry per pass."""

    def __init__(self):
        self.walls: list[float] = []       # host seconds of the ops, checks included
        self.slowdowns: list[float] = []   # mean reference-loop time / REF_LOOP_S
        self.io_rates: list[float] = []    # simulated words per normalized second simulating
        self.attempted = 0
        self.failures: list[str] = []

    def norm_walls(self) -> list[float]:
        return [w / f for w, f in zip(self.walls, self.slowdowns)]

    def norm_wall(self) -> float:
        """Median normalized seconds of one pass."""
        return _median(self.norm_walls())

    def norm_io_rate(self) -> float:
        """Median simulated words per normalized second in the calls that
        simulated them (0 when the workload simulates none)."""
        return _median(self.io_rates)


def add_pass(ops, pinned, passes: Passes) -> None:
    """Run one pass over the op list and record it."""
    import workloads

    results, failed = workloads.run_pass(ops, pinned)
    passes.attempted += len(ops)
    passes.failures.extend(failed)
    if not results:
        return
    done = results.values()
    slowdown = statistics.fmean(r.ref_s for r in done) / REF_LOOP_S
    passes.walls.append(sum(r.wall_s for r in done))
    passes.slowdowns.append(slowdown)
    io_seconds = sum(r.io_seconds for r in done if r.io_words)
    if io_seconds:
        passes.io_rates.append(sum(r.io_words for r in done) * slowdown / io_seconds)


def timed_passes(ops, pinned, seconds: float, min_passes: int = MIN_PASSES) -> Passes:
    """Repeat passes until ``seconds`` have elapsed (at least ``min_passes``)."""
    passes = Passes()
    deadline = perf_counter() + seconds
    runs = 0
    while runs < min_passes or perf_counter() < deadline:
        add_pass(ops, pinned, passes)
        runs += 1
    return passes


def tail_context(passes: Passes) -> str:
    """Sample count, median and the highest percentile with ten samples
    beyond it, of normalized pass seconds; then the host's own figures."""
    walls, n = passes.norm_walls(), len(passes.walls)
    if not n:
        return "no pass completed an op"
    text = f"{n} passes, normalized median {statistics.median(walls):.4f}s"
    if n <= 10:
        text += f", max {max(walls):.4f}s (too few passes for a tail percentile)"
    else:
        q = 100 * (n - 10) // n
        text += f", p{q} {statistics.quantiles(walls, n=100)[q - 1]:.4f}s"
    return (text + f"; host median {statistics.median(passes.walls):.4f}s"
            f" at median slowdown {statistics.median(passes.slowdowns):.2f}")


def run_untraced(args, ops, pinned, own_setup: float):
    """End-to-end metrics; returns (metrics, passes, sum-check failures)."""
    import workloads

    setups = [own_setup] + [setup_in_fresh_interpreter(args.workload, args.seed)
                            for _ in range(SETUP_REPEATS)]
    _, warm_failures = workloads.run_pass(ops, pinned)
    passes = timed_passes(ops, pinned, args.seconds)
    passes.attempted += len(ops)
    passes.failures[:0] = warm_failures
    metrics = {
        "wall_s": (passes.norm_wall(), "s"),
        "io_per_s": (passes.norm_io_rate(), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    print(f"# {args.workload} seed={args.seed}: {tail_context(passes)}; "
          f"{len(setups)} set-ups")
    return metrics, passes, []


def run_traced(args, ops, pinned):
    """Per-layer metrics; returns (metrics, traced passes, sum-check failures).

    Plain and traced passes alternate, so the tracing overhead compares
    passes that ran under the same host conditions.  Times and rates are
    normalized by the slowdown of the traced pass they came from.
    """
    import workloads
    from tracer import PER_LAYER, Tracer

    _, warm_failures = workloads.run_pass(ops, pinned)
    base, traced, tracer = Passes(), Passes(), Tracer()
    per_pass, check_failures = [], []
    deadline = perf_counter() + args.seconds
    while len(per_pass) < MIN_PASSES or perf_counter() < deadline:
        add_pass(ops, pinned, base)
        tracer.install()
        try:
            add_pass(ops, pinned, traced)
        finally:
            tracer.uninstall()
        figures, failed_checks = tracer.pass_metrics()
        slowdown = traced.slowdowns[-1] if traced.slowdowns else 1.0
        scale = {"s": 1 / slowdown, "us": 1 / slowdown, "1/s": slowdown}
        per_pass.append({name: value * scale.get(PER_LAYER.get(name), 1)
                         for name, value in figures.items()})
        check_failures.extend(failed_checks)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{args.workload}.csv")

    metrics = {name: (statistics.median(p[name] for p in per_pass), unit)
               for name, unit in PER_LAYER.items() if name in per_pass[0]}
    metrics["trace.wall_s"] = (traced.norm_wall(), "s")
    metrics["trace.overhead_s"] = (traced.norm_wall() - base.norm_wall(), "s")
    print(f"# {args.workload} seed={args.seed}: traced {tail_context(traced)}; "
          f"untraced {tail_context(base)}; spans of the last pass in {OUT_DIR.name}/")
    traced.attempted += base.attempted + len(ops)
    traced.failures[:0] = warm_failures + base.failures
    return metrics, traced, check_failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time imports plus input generation, print it, exit")
    args = parser.parse_args(argv)

    use_checkout_source()
    ops, own_setup = timed_setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    import workloads

    pinned = workloads.load_pinned()[args.workload]
    if args.trace:
        metrics, passes, check_failures = run_traced(args, ops, pinned)
    else:
        metrics, passes, check_failures = run_untraced(args, ops, pinned, own_setup)
    for message in passes.failures + check_failures:
        print(f"FAIL {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not passes.failures and not check_failures,
        "attempted": passes.attempted,
        "failed": len(passes.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
