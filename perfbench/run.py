"""Benchmark for homsums: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 55 --trace 0

Run from the root of a checkout of the repository (the package is imported
from ``src/``).  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run plus the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller result file
with provenance goes to ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import time

from probe import PYTHON_REF_S, python_probe

# One CPU for the run and its children: the host's speed at times differs
# between its CPUs, and the probes must run where the ops run.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
SETUP_PROBE = python_probe()  # before set-up, which it brackets with the probe after it
T_START = time.perf_counter()  # set-up time counts from here, before any heavy import

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBE_WINDOW = 8  # probes around an op whose median scales its latency
SETUP_REPEATS = 3  # this process plus two fresh set-up-only processes
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (``statistics.quantiles``' inclusive method)."""
    xs = sorted(values)
    h = (len(xs) - 1) * p
    lo = int(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def measure(w, seconds: float, tracer=None) -> dict[str, dict]:
    """Run whole cycles until ``seconds`` have passed; time and check each op.

    Without a tracer every cycle is untraced.  With one, cycles alternate
    traced and untraced (ending on an untraced one), so host-speed drift
    during the run falls on both phases alike and their difference is the
    tracing overhead.  Returns a summary per phase.

    The workload's probe runs before the first op and after each op.  Each
    op's latency is also given in reference seconds: scaled by the probe's
    time at reference speed over the median of the PROBE_WINDOW probes nearest
    it (half before it, half after), which follows the host's drift without
    the jitter of one probe.
    The metrics are computed from those; the summary of the raw latencies is
    kept beside them.
    """
    phases = ("traced", "untraced") if tracer is not None else ("untraced",)
    ops: list[tuple[str, str, float, float]] = []  # (phase, slot, start, latency)
    failures: dict[str, list[str]] = {ph: [] for ph in phases}
    op_id = 0
    t0 = time.perf_counter()
    probes = [w.probe()]
    c = 0
    while c < len(phases) or c % len(phases) or time.perf_counter() - t0 < seconds:
        phase = phases[c % len(phases)]
        traced = phase == "traced"
        if traced:
            tracer.install()
        w.tracer = tracer if traced else None
        for slot, arg in w.cycle(c):
            if traced:
                tracer.begin_op(op_id)
            op_id += 1
            start = time.perf_counter()
            try:
                result = w.run(slot, arg)
                lat = time.perf_counter() - start
                problem = w.check(slot, arg, result)
            except Exception:
                lat = time.perf_counter() - start
                problem = f"{slot}: " + traceback.format_exc(limit=3)
            finally:
                if traced:
                    tracer.end_op()
            probes.append(w.probe())
            ops.append((phase, slot, start - t0, lat))
            if problem:
                failures[phase].append(problem)
        if traced:
            tracer.uninstall()
        c += 1
    w.tracer = None
    by_slot = {ph: {s: [] for s in w.slots} for ph in phases}
    raw = {ph: {s: [] for s in w.slots} for ph in phases}
    log = {ph: [] for ph in phases}
    half = PROBE_WINDOW // 2
    for k, (phase, slot, start, lat) in enumerate(ops):
        # probes[k] ran just before op k, probes[k + 1] just after it.
        scale = w.probe_ref_s / statistics.median(probes[max(0, k + 1 - half):k + 1 + half])
        by_slot[phase][slot].append(lat * scale)
        raw[phase][slot].append(lat)
        log[phase].append((start, slot, lat, scale))
    return {
        ph: {**summarize(w, by_slot[ph], failures[ph]), "raw": summarize(w, raw[ph], failures[ph]), "ops": log[ph]}
        for ph in phases
    }


def summarize(w, by_slot: dict[str, list[float]], failures: list[str]) -> dict:
    lats = [x for xs in by_slot.values() for x in xs]
    tail = percentile(lats, w.tail_percentile)
    return {
        "slot_median_s": {s: statistics.median(xs) for s, xs in by_slot.items()},
        "attempted": len(lats),
        "failed": len(failures),
        "failures": failures[:20],
        "cycles": len(lats) // len(w.slots),
        # Ops per second of op time over the whole run: every second of the
        # run weighs alike, which averages out the most host-speed drift.
        "ops_per_s": len(lats) / sum(lats),
        "latency_p50_s": percentile(lats, 0.5),
        "latency_tail_s": tail,
        "tail_percentile": 100 * w.tail_percentile,
        "tail_samples_beyond": sum(x > tail for x in lats),
    }


def setup_in_child(args) -> tuple[float, float]:
    """(reference seconds, wall-clock seconds) of a fresh process's set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    return res["setup_s"], res["setup_wall_s"]


def layer_metrics(tracer, w, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics: times and counts per op of the traced phase, except
    ``partitions.*``, which are per process (set-up included; for cli-cold, per
    child process)."""
    ops = traced["attempted"]
    totals = tracer.layer_totals()
    cnt = tracer.counts

    def per_op(x):
        return x / ops

    def self_s(span):
        return per_op(totals.get(span, (0, 0.0, 0.0))[2])

    def calls(span):
        return per_op(totals.get(span, (0, 0.0, 0.0))[0])

    procs = cnt["cli.children", "ops"] or 1
    builds = tracer.builds
    tv_calls = totals.get("contract.type_value", (0, 0, 0))[0]
    distinct = cnt["contract.type_value_distinct", "ops"]
    samples = cnt["montecarlo.samples", "ops"]
    mc_total = totals.get("montecarlo.estimate_moment", (0, 0.0, 0.0))[1]
    m = {
        "partitions.class_build_s": (sum(b[1] for b in builds) / procs, "s/proc"),
        "partitions.class_builds": (len(builds) / procs, "count/proc"),
        "partitions.class_size": (sum(b[2] for b in builds) / procs, "count/proc"),
        "contract.type_value_s": (self_s("contract.type_value"), "s/op"),
        "contract.type_value_calls": (per_op(tv_calls), "count/op"),
        "contract.type_value_distinct": (per_op(distinct), "count/op"),
        "contract.memo_hit_ratio": (1 - distinct / tv_calls if tv_calls else 0.0, "ratio"),
        "contract.weighted_sum_self_s": (self_s("contract.weighted_sum"), "s/op"),
        "kernels.int_entries_s": (self_s("kernels.int_entries"), "s/op"),
        "kernels.slice_kernel_s": (self_s("kernels.slice_kernel"), "s/op"),
        "kernels.slice_kernel_calls": (calls("kernels.slice_kernel"), "count/op"),
        "kernels.contraction_square_sum_s": (self_s("kernels.contraction_square_sum"), "s/op"),
    }
    for span in ("classical.gaussian_fourth_moment", "classical.formula", "classical.oracle",
                 "free.formula", "free.oracle", "free.semicircular_moment", "free.contraction_identity"):
        m[f"{span}_s"] = (self_s(span), "s/op")
        m[f"{span}_calls"] = (calls(span), "count/op")
    m.update({
        "diagnostics.analyze_family_s": (self_s("diagnostics.analyze_family"), "s/op"),
        "verify.run_verification_s": (self_s("verify.run_verification"), "s/op"),
        "cli.child_wall_s": (per_op(cnt["cli.child_wall_s", "ops"]), "s/op"),
        "cli.child_peak_rss_mb": (max(getattr(w, "traced_child_rss_mb", None) or [0.0]), "MB"),
        "montecarlo.estimate_s": (self_s("montecarlo.estimate_moment"), "s/op"),
        "montecarlo.samples": (per_op(samples), "count/op"),
        "montecarlo.bytes_per_sample_computed": (
            cnt["montecarlo.bytes_computed", "ops"] / samples if samples else 0.0, "B"),
        "montecarlo.samples_per_s": (samples / mc_total if mc_total else 0.0, "1/s"),
        "trace.ops_per_s_untraced": (untraced["ops_per_s"], "1/s"),
        "trace.ops_per_s_traced": (traced["ops_per_s"], "1/s"),
        "trace.overhead_pct": (100 * (untraced["ops_per_s"] / traced["ops_per_s"] - 1), "%"),
    })
    return m


def provenance(args, w) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "homsums").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": w.params(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ[k] for k in BLAS_PINS},
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, print the set-up time, exit")
    args = parser.parse_args()

    if not (SRC / "homsums" / "__init__.py").is_file():
        print(f"error: no homsums package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for key in BLAS_PINS:  # single-threaded BLAS/OpenMP, for this process and its children
        os.environ[key] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    import homsums.cli  # noqa: F401  (every homsums module, loaded before any wrapping)

    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    pinned = json.loads((HERE / "pinned.json").read_text())
    w = WORKLOADS[args.workload](args.seed, OUT, pinned)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # class builds happen in set-up for the in-process workloads
    w.setup()
    setup_wall_s = time.perf_counter() - T_START
    setup_s = setup_wall_s * PYTHON_REF_S / ((SETUP_PROBE + python_probe()) / 2)
    if tracer is not None:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    if tracer is None:
        setups, setups_wall = zip((setup_s, setup_wall_s), *(setup_in_child(args) for _ in range(SETUP_REPEATS - 1)))
        phases = measure(w, args.seconds)
        res = phases["untraced"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (res["ops_per_s"], "1/s"),
            "latency_p50_s": (res["latency_p50_s"], "s"),
            "latency_tail_s": (res["latency_tail_s"], "s"),
            "peak_rss_mb": (w.peak_rss_mb(), "MB"),
        }
        extra = {"setup_samples_s": setups, "setup_wall_samples_s": setups_wall}
    else:
        phases = measure(w, args.seconds, tracer)
        metrics = layer_metrics(tracer, w, phases["traced"], phases["untraced"])
        spans_path = OUT / f"{w.name}-seed{args.seed}-spans.npz"
        tracer.save(str(spans_path))
        extra = {"spans_file": str(spans_path.relative_to(ROOT)), "spans": len(tracer.start)}

    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    record = {
        "provenance": provenance(args, w),
        "error_rate": failed / attempted,
        "setup_errors": w.setup_errors,
        "phases": phases,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    main_phase = phases["untraced"]
    print(f"{w.name} seed={args.seed} trace={args.trace}: {attempted} ops, {failed} failed, "
          f"error_rate={failed / attempted:g}")
    if not args.trace:
        print(f"  latency_tail_s is p{main_phase['tail_percentile']:.1f} over {main_phase['attempted']} ops "
              f"({main_phase['tail_samples_beyond']} beyond it)")
        wall = main_phase["raw"]
        print(f"  times are reference seconds; in wall-clock seconds: setup_s = {statistics.median(setups_wall):.6g}, "
              f"ops_per_s = {wall['ops_per_s']:.6g}, latency_p50_s = {wall['latency_p50_s']:.6g}, "
              f"latency_tail_s = {wall['latency_tail_s']:.6g}")
    for msg in record["setup_errors"] + [f for p in phases.values() for f in p["failures"]][:5]:
        print(f"  FAILED {msg.strip()}")
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v:.6g} {u}")
    print(json.dumps({
        "correct": failed == 0 and not w.setup_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
