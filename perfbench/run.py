#!/usr/bin/env python3
"""kkvd benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Run from the root of a kkvd checkout:

    python3 perfbench/run.py                  # every workload, each in its own process
    python3 perfbench/run.py --workload certify-corpus --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --self-check     # every workload briefly, traced and untraced

One workload runs in this process, single-threaded and closed-loop: the
next operation starts when the previous one returns.  ``--trace 0`` times
operations for ``--seconds`` seconds of operation time and reports the
end-to-end metrics; ``--trace 1`` runs two passes of the workload's
operations under per-layer span wrappers and reports the per-layer metrics.  Every answer
is checked outside the timed region.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the same result, with details, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("certify-corpus", "crosscheck-mixed", "cli-files")
END_TO_END = [
    ("throughput_ops_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]
#: set-ups per untraced run, the first in the run's own process and the
#: rest in fresh processes spread over the run; setup_s is their median
SETUP_REPEATS = 15
#: per-layer metrics that must be nonzero in a traced --self-check of each
#: workload: the layers README.md says do their work there
LAYER_WORK = {
    "certify-corpus": [
        "complexes.build_calls", "complexes.link_calls", "complexes.delete_vertex_calls",
        "kruskal_katona.is_extremal_calls", "decomposition.certify_extremal_s",
        "decomposition.cert_nodes", "decomposition.validate_s",
        "io.certificate_document_s", "io.cert_bytes",
    ],
    "crosscheck-mixed": [
        "complexes.link_calls", "complexes.faces_enumerated",
        "decomposition.certify_exhaustive_s", "decomposition.find_shelling_s",
        "homology.boundary_entries", "homology.rank_gf2_s", "homology.rank_q_s",
        "homology.reduced_betti_s", "homology.reisner_calls",
    ],
    "cli-files": [
        "complexes.faces_enumerated", "kruskal_katona.segment_s", "kruskal_katona.shadow_s",
        "kruskal_katona.delta_s", "decomposition.cert_nodes", "homology.rank_q_s",
        "homology.refused_s", "io.parse_facets_s", "io.format_facets_s",
        "io.certificate_document_s", "io.cert_bytes", "cli.main_s", "cli.stdout_bytes",
    ],
}


class OpTimeout(Exception):
    """An operation passed its time limit."""


def _alarm(signum, frame):
    raise OpTimeout("operation passed its time limit")


def preflight() -> None:
    """Make this checkout's kkvd and test oracles importable, or exit 2."""
    needed = [ROOT / "src" / "kkvd" / "__init__.py", ROOT / "tests" / "oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a kkvd checkout, missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def setup(name: str, seed: int, workdir: Path):
    """Import kkvd and build the workload's inputs; returns (workload, seconds)."""
    start = time.perf_counter()
    import kkvd
    import workloads

    wl = workloads.WORKLOADS[name](seed, ROOT, workdir)
    elapsed = time.perf_counter() - start
    if not Path(kkvd.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: kkvd imported from {kkvd.__file__}, not this checkout", file=sys.stderr)
        sys.exit(2)
    return wl, elapsed


def setup_in_fresh_process(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def timed_op(wl, item, tracer):
    """Run one operation under its time limit; returns (result, error, seconds)."""
    # a fault operation stops wherever its time limit cuts it, so tracing
    # it would make the counts depend on the machine's speed
    traced = tracer is not None and not wl.is_fault(item)
    if traced:
        tracer.on = True
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, wl.limit(item))
        try:
            result = wl.run(item)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:
        result, error = None, exc
    else:
        error = None
    elapsed = time.perf_counter() - start
    if traced:
        tracer.on = False
        tracer.totals["bench.op_total_s"] += elapsed
    return result, error, elapsed


def measure(wl, seconds: float, tracer=None, quick: bool = False, idle=None) -> dict:
    """Closed-loop run of whole passes over the workload's items.

    Untraced: passes until `seconds` of operation time and enough samples
    for the tail percentile.  Traced: a fixed number of passes, so that
    counts repeat exactly; --quick cuts either to one pass.  `idle(timed)`,
    if given, runs before each operation, outside the timing.  The
    first pass keeps the workload's order and each later pass is shuffled
    by a fixed generator, so that an input's repeats follow different
    operations and its fastest time is not set by what runs before it.
    """
    n = len(wl.items)
    order = list(range(n))
    shuffle = random.Random(0).shuffle
    if tracer is not None:
        budget = n * (1 if quick else wl.trace_passes)
    min_samples = 0 if quick else wl.min_samples
    verified: dict = {}
    ops: list[tuple[float, bool, int]] = []
    problems: list[str] = []
    completed = 0
    timed = 0.0
    while True:
        if tracer is not None:
            if len(ops) >= budget:
                break
        elif timed >= seconds and completed >= min_samples and not len(ops) % n:
            break
        if ops and not len(ops) % n:
            shuffle(order)
        if idle is not None:
            idle(timed)
        index = order[len(ops) % n]
        item = wl.items[index]
        result, error, elapsed = timed_op(wl, item, tracer)
        timed += elapsed
        problem = None
        if error is None:
            key = wl.digest(item, result)
            if verified.get(index) != key:
                problem = wl.check(item, result)
                if problem is None:
                    verified[index] = key
        elif not (isinstance(error, OpTimeout) and wl.is_fault(item)):
            problem = f"{type(error).__name__}: {error}"
        ok = error is None and problem is None
        completed += ok
        ops.append((elapsed, ok, index))
        if problem is not None:
            problems.append(f"{_describe(item)}: {problem}")
    return {"ops": ops, "timed_s": timed, "problems": problems}


def _describe(item) -> str:
    argv = getattr(item, "argv", None)
    return "kkvd " + " ".join(argv) if argv else repr(item)[:120]


def end_to_end(wl, run: dict, setup_times: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics, and details that name the tail percentile.

    Throughput is completed operations over all operation time, failed
    operations' time included.  For the percentiles every completed
    operation counts the fastest time the run saw for the same input (an
    item a pass holds more than once is one input): a run repeats the same
    pass many times, and the host slows single operations two- to fivefold
    at random, which would otherwise put the host's slowdowns, not the
    inputs that cost most, at the tail.
    """
    best: dict[int, float] = {}
    for t, _, index in run["ops"]:
        key = id(wl.items[index])
        best[key] = min(t, best.get(key, t))
    ms = sorted(best[id(wl.items[index])] * 1000 for _, ok, index in run["ops"] if ok)
    rank = max(1, math.ceil(wl.tail_pct / 100 * len(ms)))
    values = {
        "throughput_ops_s": len(ms) / run["timed_s"],
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": ms[rank - 1],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "tail_percentile": wl.tail_pct,
        "samples": len(ms),
        "samples_beyond_tail": len(ms) - rank,
        "inputs": len(best),
        "passes": len(run["ops"]) // len(wl.items),
        "timed_s": run["timed_s"],
        "setup_samples_s": setup_times,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, details


def run_workload(args) -> int:
    preflight()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    wl, first_setup = setup(args.workload, args.seed, workdir)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": first_setup}))
            return 0
        setup_times = [first_setup]

        def idle(timed):
            # set-ups spread evenly over the run meet the host's fast and slow
            # stretches as the operations do
            due = (len(setup_times) - 1) * args.seconds / (SETUP_REPEATS - 1)
            if len(setup_times) < SETUP_REPEATS and timed >= due:
                setup_times.append(setup_in_fresh_process(args.workload, args.seed))

        signal.signal(signal.SIGALRM, _alarm)
        # the inputs live as long as the run: keep the collector off them
        gc.collect()
        gc.freeze()
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        untraced = not (args.quick or args.trace)
        run = measure(wl, args.seconds, tracer, args.quick, idle if untraced else None)
        while untraced and len(setup_times) < SETUP_REPEATS:
            idle(math.inf)
    finally:
        wl.close()
    for problem in run["problems"][:10]:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    if tracer is not None:
        traced_ops = sum(not wl.is_fault(wl.items[i]) for _, _, i in run["ops"])
        metrics, details = tracer.report(), {"traced_ops": traced_ops}
    else:
        metrics, details = end_to_end(wl, run, setup_times)
    result = {
        "correct": not run["problems"],
        "attempted": len(run["ops"]),
        "failed": sum(not ok for _, ok, _ in run["ops"]),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, details=details, problems=run["problems"][:100])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_children(args, trace_modes, quick: bool) -> list[tuple[str, int, dict | None]]:
    """Each workload in its own process; returns (workload, trace, result)."""
    out = []
    for name in WORKLOADS:
        for trace in trace_modes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--quick"] if quick else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            out.append((name, trace, result))
    return out


def print_summary(results) -> None:
    for name, trace, result in results:
        if result is None:
            print(f"{name} (trace {trace}): no result")
            continue
        print(f"{name} (trace {trace}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:>14.6g} {m['unit']}")


def self_check(args) -> int:
    args.seconds = min(args.seconds, 0.5)
    results = run_children(args, (0, 1), quick=True)
    print_summary(results)
    ok = True
    for name, trace, result in results:
        if result is None or not result["correct"]:
            print(f"self-check: {name} (trace {trace}) FAILED")
            ok = False
            continue
        idle = [m for m in LAYER_WORK[name] if trace and not result["metrics"][m]["value"]]
        if idle:
            print(f"self-check: {name} (trace 1): no work recorded in {', '.join(idle)}")
            ok = False
    print("self-check: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload briefly, traced and untraced, with all checks")
    parser.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.self_check:
        preflight()
        return self_check(args)
    if args.workload != "all":
        return run_workload(args)
    preflight()
    results = run_children(args, (args.trace,), quick=False)
    print_summary(results)
    combined = {
        "correct": all(r is not None and r["correct"] for _, _, r in results),
        "attempted": sum(r["attempted"] for _, _, r in results if r),
        "failed": sum(r["failed"] for _, _, r in results if r),
        "metrics": {
            f"{name}/{metric}": m
            for name, _, r in results if r
            for metric, m in r["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
