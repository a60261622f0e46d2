"""chebspline benchmark: one seeded workload per run, one JSON result line.

    python3 bench/run.py --workload sample|build|refine|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  With --trace 0 the run times whole passes over the workload's
operations until S seconds of operation time have been measured, checks
every operation once against its oracle outside the timed region, and
prints the end-to-end metrics.  With --trace 1 it runs one untraced and one
traced pass and prints the per-layer metrics.  The last line of standard
output is the result object; the line before it records the machine and
the run.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import os

# pin BLAS threads before numpy loads, so one run stays on one core
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

PERF = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Latency statistics are taken over each operation's median across passes,
# which a burst of outside load during one pass does not move.  The tail is
# the highest whole percentile that keeps ten operations beyond it.
TAIL_BEYOND = 10
MIN_OPS = 40
MIN_PASSES = {"sample": 3, "build": 2, "refine": 2, "cli": 1}
SETUP_REPEATS = 5
WALL_LIMIT_S = 140.0
EPS = 2.0 ** -52


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sample", "build", "refine", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (times setup_s)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# machine and run record
# ---------------------------------------------------------------------------

def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def machine_info(args) -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS}}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def make_ops(args, work: str):
    import workloads as W
    if args.workload == "cli":
        ctx = W.CliContext(ROOT, work)
        return W.cli_ops(args.seed, ctx), ctx
    return W.WORKLOADS[args.workload](args.seed), None


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Process start to first timed operation, in fresh child processes:
    (raw seconds, seconds at reference start-up speed).  Each probe is
    followed by the start-up reference of bench/speed.py and scaled by it."""
    import speed as SP
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, os.path.abspath(__file__), "--workload",
                args.workload, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--setup-probe"]
        t0 = PERF()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            dt = PERF() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        raw.append(dt)
        scaled.append(dt * SP.startup_factor())
    return raw, scaled


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

class Outcome:
    def __init__(self, n: int):
        self.ok = [True] * n
        self.errors: list[float] = []
        self.unexpected: list[str] = []     # failures that make a run incorrect
        self.failures: list[str] = []


def execute(op, speed):
    """(result, seconds, exception, speed factor) of one timed call; the
    factor averages the reference speed just before and just after it."""
    f0 = speed.factor()
    t0 = PERF()
    try:
        res = op.run()
        exc = None
    except Exception as e:  # classified by the caller
        res, exc = None, e
    dt = PERF() - t0
    return res, dt, exc, 0.5 * (f0 + speed.factor())


def classify(k: int, op, res, exc, outcome: Outcome):
    """Check one operation's result outside the timed region.  Every failure
    counts in failed; one that is not a known library failure (an op marked
    may_fail that raised a library error or failed its check) also makes
    the run incorrect."""
    from chebspline.errors import ChebsplineError

    import oracles as O
    if exc is None:
        try:
            outcome.errors.append(op.check(res))
            return
        except O.CheckFailed as e:
            exc = e
        except ChebsplineError as e:
            exc = e
    outcome.ok[k] = False
    msg = f"{op.kind} [{op.size}]: {type(exc).__name__}: {str(exc)[:160]}"
    outcome.failures.append(msg)
    if not (op.may_fail and isinstance(exc, (O.CheckFailed, ChebsplineError))):
        outcome.unexpected.append(msg)


def timed_passes(args, ops, speed, deadline: float):
    """Whole passes until the measured time and count are reached.
    Returns the outcome, (operation index, raw s, reference s) per timed
    call, and the number of passes."""
    outcome = Outcome(len(ops))
    times: list[tuple[int, float, float]] = []
    passes = 0
    while True:
        for k, op in enumerate(ops):
            res, dt, exc, f = execute(op, speed)
            times.append((k, dt, dt * f))
            if passes == 0:
                classify(k, op, res, exc, outcome)
            res = None
        passes += 1
        if (sum(t[1] for t in times) >= args.seconds
                and passes >= MIN_PASSES[args.workload]) or PERF() > deadline:
            break
    return outcome, times, passes


def one_pass(ops, speed) -> float:
    """Seconds at reference speed of one unchecked pass."""
    total = 0.0
    for op in ops:
        _, dt, _, f = execute(op, speed)
        total += dt * f
    return total


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail_pct(n: int) -> int:
    return math.floor(100.0 * (1.0 - TAIL_BEYOND / n))


def percentile(values, pct: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values), pct))


def end_to_end(args, ops, outcome, times, col: int, setup) -> dict:
    """Metrics from column col of times (1 raw, 2 at reference speed)."""
    ok = outcome.ok
    per_op = [[] for _ in ops]
    for t in times:
        per_op[t[0]].append(t[col])
    med = [statistics.median(ts) for ts in per_op]
    worst = max(outcome.errors, default=0.0)
    if args.workload == "cli":
        rss_kb = max(max(op.rss_kb, default=0) for op in ops)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (sum(ok) / sum(med), "ops/s"),
        "op_p50_ms": (1e3 * statistics.median(med), "ms"),
        "op_tail_ms": (1e3 * percentile(med, tail_pct(len(ops))), "ms"),
        "ok_frac": (sum(ok) / len(ok), "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "fwd_err_log10": (math.log10(1.0 + worst / EPS), "decades"),
    }


def import_seconds() -> list[float]:
    import workloads as W
    env = W.child_env(SRC)
    out = []
    for _ in range(3):
        t0 = PERF()
        code, text, _ = W.run_child([sys.executable, "-c", "import chebspline.cli"],
                                    env, ROOT)
        out.append(PERF() - t0)
        if code != 0:
            raise RuntimeError(f"import chebspline.cli failed: {text[-300:]}")
    return out


def crosscheck(args, work: str, import_s: float) -> list[dict]:
    """Single calls matching the baseline table of ROADMAP item 1."""
    import numpy as np

    import gen
    import workloads as W
    from chebspline import basis, descriptors, refine

    def median_of(fn, reps=3):
        ts = []
        for _ in range(reps):
            t0 = PERF()
            fn()
            ts.append(PERF() - t0)
        return statistics.median(ts)

    demo = os.path.join(ROOT, "demos", "descriptors")
    trig4 = descriptors.load_object(os.path.join(demo, "trig_m4_open_curve.json"))
    rows = []
    if args.workload == "sample":
        xs = np.linspace(trig4.space.a, trig4.space.b, 1000)
        rows.append(("sample_basis, 1000 points, trig_m4_open_curve", 0.098,
                     median_of(lambda: basis.sample_basis(trig4.space, xs))))
    elif args.workload == "build":
        tmpl = gen.mixed_space(np.random.default_rng(args.seed), 1000, 4)
        rows.append(("table build, K = 1000 (mixed, order 4)", 0.67, median_of(
            lambda: basis.make_spline_space(tmpl.partition, tmpl.sections).table)))
    elif args.workload == "refine":
        rows.append(("elevate_order r=1, 4-section trig_m4_open_curve", 0.083,
                     median_of(lambda: refine.elevate_order(trig4.space, trig4, 1))))
    else:
        rows.append(("CLI import chebspline.cli", 0.31, import_s))
        surf = os.path.join(demo, "rounded_square_surface.json")
        t0 = PERF()
        code, text, _ = W.run_child(
            [sys.executable, "-m", "chebspline.cli", "surface", "--input", surf,
             "--output", os.path.join(work, "s200.csv"), "--samples", "200"],
            W.child_env(SRC), ROOT)
        if code != 0:
            raise RuntimeError(f"surface --samples 200 failed: {text[-300:]}")
        rows.append(("CLI surface --samples 200", 5.4, PERF() - t0))
    return [{"case": c, "baseline_s": b, "measured_s": round(m, 4)} for c, b, m in rows]


def traced(args, ops, ctx, work: str, speed):
    """Check pass, untraced pass, traced pass; per-layer metrics of the last."""
    import tracing as TR

    outcome = Outcome(len(ops))
    for k, op in enumerate(ops):
        res, _, exc, _ = execute(op, speed)
        classify(k, op, res, exc, outcome)
        res = None
    if ctx is not None:
        ctx.in_process = True       # the layer split needs the calls in-process
    plain = one_pass(ops, speed)
    tracer = TR.Tracer()
    tracer.install()
    try:
        with_trace = one_pass(ops, speed)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    imp = import_seconds()
    metrics["cli.import_s"] = (statistics.median(imp), "s")
    metrics["trace.overhead_frac"] = (with_trace / plain - 1.0, "ratio")
    extra = {"spans": len(tracer.spans),
             "ramps_expected": sum(op.ramps for op in ops),
             "untraced_pass_s": round(plain, 4), "traced_pass_s": round(with_trace, 4),
             "crosscheck": crosscheck(args, work, statistics.median(imp))}
    return metrics, extra, outcome


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    t_start = PERF()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chebspline", "__init__.py")):
        print(f"error: no chebspline package under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    # one core for the run and every child it starts, so the reference
    # kernel measures the core the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    warnings.simplefilter("ignore", RuntimeWarning)
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if args.setup_probe:
            make_ops(args, work)
            print("ready", flush=True)
            return 0
        import speed as SP
        speed = SP.Speed()
        setup_raw, setup = ([], []) if args.trace else setup_seconds(args)
        ops, ctx = make_ops(args, work)
        if len(ops) < MIN_OPS:
            raise RuntimeError(f"{len(ops)} operations per pass; the tail "
                               f"percentile needs {MIN_OPS}")
        info = machine_info(args)
        info["ops_per_pass"] = len(ops)
        if args.trace:
            metrics, extra, outcome = traced(args, ops, ctx, work, speed)
            info.update(extra)
            attempted = len(ops)
        else:
            outcome, times, passes = timed_passes(args, ops, speed,
                                                  t_start + WALL_LIMIT_S)
            metrics = end_to_end(args, ops, outcome, times, 2, setup)
            raw = end_to_end(args, ops, outcome, times, 1, setup_raw)
            info.update({"passes": passes, "timed_ops": len(times),
                         "tail_percentile": tail_pct(len(ops)),
                         "tail_samples": len(ops),
                         "setup_runs_s": [round(s, 4) for s in setup_raw],
                         "failed_frac": 1.0 - metrics["ok_frac"][0],
                         "raw": {name: value for name, (value, _) in raw.items()},
                         "speed_factor": statistics.median(
                             t[2] / t[1] for t in times if t[1] > 0)})
            attempted = len(times)
        failed = outcome.ok.count(False) if args.trace else sum(
            1 for t in times if not outcome.ok[t[0]])
        info["failures"] = outcome.failures
        info["unexpected"] = outcome.unexpected
        info["wall_s"] = round(PERF() - t_start, 3)
        print(json.dumps({"info": info}))
        print(json.dumps({
            "correct": not outcome.unexpected,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
