"""gesturegen benchmark: one workload per process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload train-60 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

With --trace 0 the last stdout line is the result with every end-to-end
metric; with --trace 1 it carries every per-layer metric from one traced
call instead. See perfbench/README.md.
"""
from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool before numpy is imported (checked at runtime).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"      # results and span dumps (git-ignored)
WORK_DIR = HERE / "_work"   # per-run corpora and outputs, removed at exit (git-ignored)
MIN_CALLS = 5               # a warm-up call, then at least four measured calls

# The shared host's speed drifts by up to 1.8x over seconds to minutes,
# and there is no hardware counter to count cycles instead. So a run times
# a fixed reference kernel before and after every set-up and call, and
# multiplies each interval by REFERENCE_KERNEL_S / (the mean of the two
# kernel times). REFERENCE_KERNEL_S is a typical kernel time on the 2-core
# reference machine (a VM on a shared Xeon host), so a normalised time
# reads as seconds on that machine at a typical speed. On that machine this cut the spread of run medians
# by half or more on every workload.
REFERENCE_KERNEL_S = 0.05

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
RAW_TIMES = ("setup_s", "clips_per_s")


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS loaded in this process."""
    found = {}
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def run_conditions(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
    }


class Tally:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int = 0):
        self.attempted += attempted
        self.failed += failed


def reference_kernel() -> float:
    """Seconds of a fixed mix of interpreter, elementwise and BLAS work
    shaped like the package's: scan-like recurrences over 128 x 16 state
    from 60 frames (in cache) and 300 frames (out of cache), and
    128 x 128 matmuls. It runs no package code."""
    rng = np.random.default_rng(0)
    decay = rng.uniform(0.5, 1.0, (300, 128, 16))
    drive = rng.standard_normal((300, 128, 16))
    w = rng.standard_normal((128, 128)) / 128.0
    t0 = perf_counter()
    for _ in range(12):
        acc = 0.0
        for i in range(20_000):
            acc += i * 0.5
        state = np.zeros((128, 16))
        for k in range(60):
            state = decay[k] * state + drive[0]
        for _ in range(20):
            state = w @ state
        np.exp(-decay[:60]).sum()
    for _ in range(3):
        h = np.empty_like(decay)
        state = np.zeros((128, 16))
        for k in range(300):
            state = decay[k] * state + drive[k]
            h[k] = state
        (h * decay).sum(axis=2)
    return perf_counter() - t0


class Clock:
    """Times calls in wall seconds, raw and normalised to machine speed."""

    def __init__(self):
        self.last = reference_kernel()

    def time(self, fn, *args):
        """Returns (fn's result, raw seconds, normalised seconds)."""
        t0 = perf_counter()
        try:
            result = fn(*args)
            raw = perf_counter() - t0
        finally:
            before, self.last = self.last, reference_kernel()
        return result, raw, raw * 2.0 * REFERENCE_KERNEL_S / (before + self.last)


def timed_calls(workload, seconds: float, tally: Tally, clock: Clock, setups=None) -> list:
    """Call the workload until `seconds` have passed, and at least
    MIN_CALLS times. Returns (raw seconds, normalised seconds, clips) for
    each call that succeeded, except the first, which warms up.

    With a `setups` list, a set-up is timed before each of the first
    MIN_CALLS calls, so that set-ups sample the run as the calls do; the
    calls use the first set-up's state.
    """
    calls = []
    deadline = perf_counter() + seconds
    index = 0
    while index < MIN_CALLS or perf_counter() < deadline:
        if setups is not None and index < MIN_CALLS:
            state, raw, norm = clock.time(workload.setup, workload.workdir / f"setup-{index}")
            setups.append((raw, norm))
            workload.state = workload.state or state
        try:
            (ops, clips), raw, norm = clock.time(workload.call, index)
        except Exception:  # count the failed operation and keep measuring
            traceback.print_exc()
            tally.add(1, 1)
            if not calls and index + 1 >= MIN_CALLS:
                break
        else:
            calls.append((raw, norm, clips))
            tally.add(ops)
        index += 1
    return calls[1:]


def run_checks(checks_fn, tally: Tally) -> bool:
    try:
        checks = checks_fn()
    except Exception:
        traceback.print_exc()
        tally.add(1, 1)
        return False
    for check in checks:
        print(f"check {check!r}")
        tally.add(1, not check.ok)
    return all(c.ok for c in checks)


def measure(workload, seconds: float, tally: Tally):
    """End-to-end metrics normalised to machine speed, the same metrics
    raw, and the normalised seconds of each timed call."""
    clock = Clock()
    setups = []
    calls = timed_calls(workload, seconds, tally, clock, setups)
    if not calls:
        return None, None, None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw, norm = ({"setup_s": median(s[col] for s in setups),
                  "clips_per_s": median(c[2] / c[col] for c in calls),
                  "peak_rss_mb": rss} for col in (0, 1))
    return norm, raw, [c[1] for c in calls]


def measure_traced(workload, seconds: float, tally: Tally, dump_path: Path):
    """Per-layer metrics: an untraced loop for half the time, then one
    traced call."""
    from workloads import Check

    clock = Clock()
    workload.state = workload.setup(workload.workdir / "setup-0")
    untraced = timed_calls(workload, seconds / 2.0, tally, clock)
    if not untraced:
        return None, []
    tracer = tracing.Tracer()

    def traced_call():
        with tracer:
            t0 = perf_counter()
            ops, _ = workload.call(len(untraced) + 1)
            return ops, perf_counter() - t0

    try:
        (ops, wall), raw, norm = clock.time(traced_call)
    except Exception:  # no per-layer result without the traced call
        traceback.print_exc()
        tally.add(1, 1)
        return None, []
    tally.add(ops)
    tracer.dump(dump_path)
    metrics = tracing.per_layer_metrics(tracer, wall, median(c[1] for c in untraced),
                                        wall * norm / raw)
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    check = Check("layer self times sum to the traced wall time",
                  abs(layer_sum - wall) <= 0.01 * wall,
                  f"{layer_sum:.4f} s vs {wall:.4f} s over {len(tracer.spans)} spans")
    return metrics, [check]


def run_one(args, workloads) -> int:
    spec = workloads.WORKLOADS[args.workload]
    conditions = run_conditions(args.seed)
    print(f"workload {spec.name}")
    print("conditions " + json.dumps(conditions, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{spec.name}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally()
    tag = f"{spec.name}-s{args.seed}-t{args.trace}"
    try:
        workload = workloads.build(spec, args.seed, workdir)
        if args.trace:
            metrics, trace_checks = measure_traced(workload, args.seconds, tally,
                                                   OUT_DIR / f"trace-{tag}.json")
            raw = timing = None
        else:
            metrics, raw, timing = measure(workload, args.seconds, tally)
            trace_checks = []
        if metrics is None:
            print("no successful timed call; no result", file=sys.stderr)
            return 1
        checks_ok = run_checks(lambda: workload.checks() + trace_checks, tally)
        summary = workload.summary(timing) if checks_ok and timing else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    threads_ok = all(n == 1 for n in conditions["blas_threads"].values())
    if not threads_ok:
        print(f"BLAS is not pinned to one thread: {conditions['blas_threads']}")
    if not args.trace:
        summary = {**{m: (v, UNITS[m]) for m, v in metrics.items()}, **summary}
        summary.update({f"raw.{m}": (raw[m], UNITS[m]) for m in RAW_TIMES})
    for name, (value, unit) in summary.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {"correct": checks_ok and threads_ok and tally.failed == 0,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {m: {"value": v, "unit": UNITS[m]} for m, v in metrics.items()}}
    record = {"workload": spec.name, "trace": args.trace, "seconds": args.seconds,
              "conditions": conditions, "summary": {k: v for k, (v, _) in summary.items()},
              **result}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args, names) -> int:
    """Each workload in a fresh process, so peak RSS and warm-up do not carry over."""
    code = 0
    for name in names:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        code = max(code, proc.returncode)
    return code


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as e:
        print(f"cannot import gesturegen from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    names = tuple(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
