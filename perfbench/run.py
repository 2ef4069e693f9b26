"""motbound benchmark: seeded workloads against the unmodified library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run builds its inputs from the seed (set-up, repeated and timed), then
repeats the workload's fixed operation list ("pass") in a closed loop.  The
number of passes is ``--seconds`` over the workload's nominal pass time,
rounded, at least one: it depends on the arguments only, never on the speed
of the machine, so ``attempted`` and ``failed`` repeat for a given seed.  Every
operation's output is checked (see checks.py).  An operation that reports
an error (raises, exits non-zero, writes an error row) or returns an output
failing a check counts in ``failed``; ``correct`` is false when an output
was wrong (not when the program reported an error), when a fingerprint
changed between passes, or when the self-test missed an injected fault.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.

The end-to-end times are costs in "ref", units of a fixed piece of
reference work (see ``reference_unit_s``) timed between operations: an
operation's latency divided by the median time of the reference units
nearest to it, so that most of the host's speed drift cancels.  The plain
seconds are printed on the lines above the JSON.

BLAS runs in one thread (the thread variables found are recorded): with a
thread per core on a small shared machine, the solver's matrix-vector
products time the scheduler more than the program, and the thread count
changes summation order, hence pivot paths and which instances fail.

With ``--trace 1`` the first half of the passes (at least one) runs untraced
and the rest (at least one) with the layer wrappers of tracer.py installed;
the difference of the two halves' median pass time is the tracing overhead.
Per-layer values are per traced pass, except ``measures.discretize_s`` and
``measures.check_convex_order_s``, which are per set-up.  Spans go to
``.perfbench/spans-<workload>-seed<N>.npz`` in the checkout.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_FOUND = {k: os.environ.get(k) for k in BLAS_VARS}
os.environ.update(dict.fromkeys(BLAS_VARS, "1"))  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 5
IMPORT_REPS = 5   # this process's import and four more in fresh interpreters
WORKLOAD_NAMES = ("two_date_dense", "three_date_asian", "desk_batch")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import motbound from this checkout's src/ and nowhere else."""
    if not (SRC / "motbound" / "__init__.py").is_file():
        raise ImportError(f"no motbound package under {SRC}")
    sys.path.insert(0, str(SRC))
    import motbound
    if Path(motbound.__file__).resolve().parent != SRC / "motbound":
        raise ImportError(f"motbound imported from {motbound.__file__}, not from {SRC}")
    return motbound


def child_import_s() -> float:
    """Import time of the benchmark's modules in a fresh interpreter, timed
    inside it the way this process times its own (from the first line)."""
    here = Path(__file__).resolve().parent
    code = ("import time; t = time.perf_counter(); import sys; "
            f"sys.path[:0] = [{str(SRC)!r}, {str(here)!r}]; import checks, tracer, workloads; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None


def environment(args, motbound_threads):
    import numpy
    import scipy
    return {"git_commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas_threads_found": BLAS_FOUND,  # set to 1 for the run
            "MOTBOUND_THREADS_found": motbound_threads,  # removed for the run: sweeps stay serial
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def pass_count(plan, seconds):
    return max(1, round(seconds / plan.pass_s))


REF_SHARE = 0.06      # reference work after an operation: this share of its latency, one unit at least
REF_NEIGHBOURS = 15   # units nearest in time to an operation whose median is its reference time
_REF = {}


def reference_unit_s(kind: str) -> float:
    """Time one fixed unit of reference work, about 10 ms, of the kind the
    workload's own operations do: "dense" is rank-one updates and
    vector-matrix products on a 300 x 300 array, then an interpreter loop,
    as in the simplex on large LPs; "calls" is many numpy calls on arrays of
    a few dozen entries, as in small LPs, where call overhead dominates.
    The library is not involved, so a change to it cannot move this time;
    the host's speed, which drifts on a shared machine, moves both alike."""
    import numpy as np
    if not _REF:
        rng = np.random.default_rng(0)
        _REF.update(square=rng.standard_normal((300, 300)), vec=rng.standard_normal(40),
                    wide=rng.standard_normal((40, 200)))
    t = time.perf_counter()
    if kind == "dense":
        b = _REF["square"].copy()
        v = b[0].copy()
        for _ in range(25):
            b -= 1e-9 * np.outer(v @ b, v)
        acc = 0
        for i in range(60000):
            acc += i * i
    else:
        vec, wide = _REF["vec"], _REF["wide"]
        for _ in range(900):
            y = vec @ wide
            np.where(y > 0.0, y, np.inf).argmin()
    return time.perf_counter() - t


def reference_work(kind: str, min_s: float, samples: list) -> None:
    """Units of reference work until ``min_s`` has passed (one at least),
    each appended to ``samples`` as (midpoint, seconds)."""
    spent = 0.0
    while spent == 0.0 or spent < min_s:
        start = time.perf_counter()
        unit = reference_unit_s(kind)
        samples.append((start + unit / 2, unit))
        spent += unit


def run_passes(plan, count, execute, tracer=None, first_op=0):
    """``count`` passes over the plan's operations, with reference work
    between operations.  Each record's ``ref`` is the median time of the
    reference units nearest to it in time."""
    import numpy as np
    passes, samples, mids = [], [], []
    op_id = first_op
    for _ in range(count):
        ctx = {}
        records = []
        reference_work(plan.reference, 0.0, samples)
        for op in plan.ops:
            if tracer is not None:
                tracer.op_id = op_id
            start = time.perf_counter()
            rec = execute(op, ctx)
            mids.append(start + rec.latency / 2)
            reference_work(plan.reference, REF_SHARE * rec.latency, samples)
            records.append(rec)
            op_id += 1
        passes.append(records)
    at = np.array([t for t, _ in samples])
    units = np.array([u for _, u in samples])
    for rec, mid in zip((r for recs in passes for r in recs), mids):
        rec.ref = float(np.median(units[np.argsort(np.abs(at - mid))[:REF_NEIGHBOURS]]))
    return passes


def tail_percentile(latencies):
    """Highest percentile with at least ten operations beyond it, or None
    with fewer than 20 operations."""
    n = len(latencies)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def layer_metrics(tr, traced, untraced, setup_self, setup_reps):
    n = len(traced)
    self_s, calls, counters = tr.self_s, tr.calls, tr.counters

    def per_pass_s(*names):
        return sum(self_s.get(name, 0.0) for name in names) / n

    bounds = counters.get("mot.bounds", 0.0)
    traced_wall = statistics.median(sum(r.latency for r in recs) for recs in traced)
    untraced_wall = statistics.median(sum(r.latency for r in recs) for recs in untraced)
    values = {
        "lp.solve_s": (per_pass_s("lp.solve"), "s"),
        "lp.solve_calls": (calls.get("lp.solve", 0) / n, "count"),
        "lp.pivots": (counters.get("lp.pivots", 0.0) / n, "count"),
        "lp.rows": (tr.maxima.get("lp.rows", 0.0), "count"),
        "lp.cols": (tr.maxima.get("lp.cols", 0.0), "count"),
        "lp.nnz": (tr.maxima.get("lp.nnz", 0.0), "count"),
        "lp.failures": (counters.get("lp.solve.failures", 0.0) / n, "count"),
        "mot.self_s": (per_pass_s("mot.bound", "mot.decompose_and_solve", "mot.strike_sweep",
                                  "mot.random_feasible_coupling"), "s"),
        "mot.extract_hedge_s": (per_pass_s("mot.extract_hedge"), "s"),
        "mot.verification_grids_s": (per_pass_s("mot.verification_grids"), "s"),
        "mot.bound_calls": (bounds / n, "count"),
        "mot.first_dual_ok_ratio": (counters.get("mot.first_dual_ok", 0.0) / bounds if bounds else 0.0, "ratio"),
        "hedge.verify_s": (per_pass_s("hedge.verify"), "s"),
        "hedge.verify_cells": (counters.get("hedge.verify_cells", 0.0) / n, "count"),
        "hedge.slackness_s": (per_pass_s("hedge.slackness"), "s"),
        "hedge.price_s": (per_pass_s("hedge.price"), "s"),
        "hedge.self_s": (tr.layer_self_s("hedge") / n, "s"),
        "hedge.max_violation": (tr.maxima.get("hedge.max_violation", 0.0), "1"),
        "payoff.tabulate_s": (per_pass_s("payoff.tabulate"), "s"),
        "payoff.tabulate_cells": (counters.get("payoff.tabulate_cells", 0.0) / n, "count"),
        "payoff.pointwise_s": (per_pass_s("payoff.evaluate", "payoff.evaluate_last_axis",
                                          "payoff.last_coord_kinks"), "s"),
        "payoff.evaluate_calls": (calls.get("payoff.evaluate", 0) / n, "count"),
        "payoff.last_axis_calls": (calls.get("payoff.evaluate_last_axis", 0) / n, "count"),
        "envelope.dual_value_s": (per_pass_s("envelope.dual_value", "envelope.evaluate_dual"), "s"),
        "envelope.improve_u2_s": (per_pass_s("envelope.improve_u2"), "s"),
        "envelope.convex_envelope_s": (per_pass_s("envelope.convex_envelope"), "s"),
        "envelope.convex_envelope_calls": (calls.get("envelope.convex_envelope", 0) / n, "count"),
        "envelope.convex_envelope_points": (counters.get("envelope.convex_envelope_points", 0.0) / n, "count"),
        "measures.discretize_s": (setup_self.get("measures.discretize", 0.0) / setup_reps, "s"),
        "measures.check_convex_order_s": (setup_self.get("measures.check_convex_order", 0.0) / setup_reps, "s"),
        "measures.detect_barriers_s": (per_pass_s("measures.detect_barriers"), "s"),
        "measures.self_s": (tr.layer_self_s("measures") / n, "s"),
        "cli.self_s": (per_pass_s("cli.main"), "s"),
        "cli.calls": (calls.get("cli.main", 0) / n, "count"),
        "cli.artifact_bytes": (sum(r.checked.artifact_bytes for recs in traced for r in recs) / n, "bytes"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.spans": (sum(calls.values()) / n, "count"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    motbound_threads = os.environ.pop("MOTBOUND_THREADS", None)
    try:
        import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import checks
    import tracer as tracing
    import workloads
    import_s = time.perf_counter() - T0

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, motbound_threads, import_s, workdir, checks, tracing, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, motbound_threads, import_s, workdir, checks, tracing, workloads) -> int:
    env = environment(args, motbound_threads)
    print("env " + json.dumps(env, sort_keys=True))
    build = workloads.WORKLOADS[args.workload]
    tr = tracing.Tracer() if args.trace else None

    # set-up: inputs, admissibility, input files, one untimed warm-up operation
    if tr is not None:
        tr.install()
    reps, warm_failures = [], []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        plan = build(args.seed, workdir)
        warm = checks.execute(plan.warmup, {}, tr.pause if tr is not None else contextlib.nullcontext)
        reps.append(time.perf_counter() - t)
        warm_failures += [f"warm-up {warm.name}: {f}" for f in warm.checked.failures + warm.checked.errors]
    imports = [import_s] + [child_import_s() for _ in range(IMPORT_REPS - 1)]
    setup_s = statistics.median(imports) + statistics.median(reps)
    print(f"setup: import median {statistics.median(imports):.4f} s over {IMPORT_REPS} interpreters "
          f"({', '.join(f'{t:.4f}' for t in imports)}), input generation + warm-up median "
          f"{statistics.median(reps):.4f} s over {SETUP_REPS} repetitions")

    count = pass_count(plan, args.seconds)
    if tr is None:
        passes = run_passes(plan, count, checks.execute)
        traced = untraced = None
    else:
        setup_self = dict(tr.self_s)
        tr.uninstall()
        tr.reset()
        untraced = run_passes(plan, max(1, count // 2), checks.execute)
        tr.install()
        traced = run_passes(plan, max(1, count - count // 2),
                            lambda op, ctx: checks.execute(op, ctx, tr.pause),
                            tracer=tr, first_op=len(untraced) * len(plan.ops))
        tr.uninstall()
        passes = untraced + traced

    mismatches = checks.determinism(passes)
    digest = hashlib.sha256("\n".join(r.checked.fingerprint for r in passes[0]).encode()).hexdigest()
    missing = checks.selftest(workdir)
    records = [r for recs in passes for r in recs]
    latencies = [r.latency for r in records]
    walls = [sum(r.latency for r in recs) for recs in passes]
    wall_refs = [sum(r.cost for r in recs) for recs in passes]
    failed = [r for r in records if r.checked.failed]

    for p, recs in enumerate(passes, start=1):
        print(f"pass {p}: wall {walls[p - 1]:.4f} s = {wall_refs[p - 1]:.2f} ref"
              + (" (traced)" if traced and p > len(untraced) else ""))
    for rec in passes[0]:
        print(f"  {rec.latency:9.4f} s {rec.cost:9.2f} ref  {rec.name}  [{rec.checked.fingerprint[:60]}]")
    for rec in failed:
        print(f"FAILED {rec.name}: {'; '.join(rec.checked.errors + rec.checked.failures)}")
    for line in warm_failures:
        print(f"FAILED {line}")
    print(f"determinism: {len(passes)} passes x {len(plan.ops)} operations, "
          f"{len(mismatches)} fingerprint mismatches; pass-1 fingerprint {digest}")
    for line in mismatches:
        print(f"  MISMATCH {line}")
    print("selftest: every injected fault was caught" if not missing
          else f"selftest: injected faults NOT caught: {', '.join(missing)}")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_ref": (statistics.median(wall_refs), "ref"),
        "op_p50_ref": (statistics.median(r.cost for r in records), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"metric wall_s {statistics.median(walls):.6f} s (median pass, not normalised)")
    print(f"metric op_p50_s {statistics.median(latencies):.6f} s (not normalised)")
    print(f"metric ref_s {statistics.median(r.ref for r in records):.6f} s (median reference work)")
    print(f"metric failed_frac {len(failed) / len(records):.6f} ratio ({len(failed)}/{len(records)})")
    print(f"metric operations {len(records)} count ({len(passes)} passes)")
    tail = tail_percentile(latencies)
    if tail is not None:
        print(f"metric op_tail_s {tail[1]:.6f} s (p{tail[0]:.1f})")
    for name, (value, unit) in end_to_end.items():
        print(f"metric {name} {value:.6f} {unit}")

    if tr is None:
        metrics = {name: {"value": float(v), "unit": u} for name, (v, u) in end_to_end.items()}
    else:
        metrics = layer_metrics(tr, traced, untraced, setup_self, SETUP_REPS)
        for name, m in metrics.items():
            print(f"layer {name} {m['value']:.6g} {m['unit']}")
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        print(f"trace: {tr.write(spans_file)} spans written to {spans_file.relative_to(ROOT)}")

    wrong = [r for r in failed if r.checked.failures]
    correct = not wrong and not warm_failures and not missing and not mismatches
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
