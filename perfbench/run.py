#!/usr/bin/env python3
"""qflab's benchmark. Run it from the repository root:

    python3 perfbench/run.py --workload concave_batch --seed 1 --seconds 30 --trace 0

One process, one caller, each op after the last (a closed loop). The run
imports qflab and builds the workload's inputs; the time from the start of
this process until then is setup_s. It then runs whole rounds of ops,
starting another while that is expected to end nearer to ``--seconds``
than stopping (at the previous round's duration) or while fewer than
MIN_OPS ops were attempted. Every op's output is checked, untimed,
against independent computations (perfbench/oracle.py).
With ``--trace 1`` it instead runs the workload's fixed number of rounds
with per-layer wrappers installed (perfbench/tracer.py) and prints the
per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; metric names and units come
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

MIN_OPS = 40
TAIL_PCT = 75      # with MIN_OPS ops, at least ten lie beyond it
WORKLOAD_NAMES = ("concave_batch", "nonconcave_solve", "rounds", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup(args, root):
    """Import qflab (timed on its own, for cli.import_ms) and build the
    workload's inputs."""
    sys.path.insert(1, str(root / "src"))
    t0 = time.perf_counter()
    import qflab.cli  # noqa: F401  (what a CLI invocation imports)
    import_s = time.perf_counter() - t0
    import workloads
    lib = workloads.Lib()
    workdir = root / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](lib, args.seed, workdir)
    return wl, lib, import_s


def close(wl, root):
    """Remove what set-up wrote; the work directory goes once it is empty."""
    if hasattr(wl, "close"):
        wl.close()
    with contextlib.suppress(OSError):   # absent, or in use by another run
        (root / ".perfbench-work").rmdir()


def process_age():
    """Seconds since this process started. The kernel keeps the start time
    in clock ticks, so this reads up to one tick (10 ms at 100 Hz) long."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(wl, args, traced):
    """Run whole rounds. Returns (attempted, failed, known, errors, latencies,
    rates), ``rates`` being each round's ops that did not fail per second
    spent in its ops."""
    import workloads
    attempted = failed = known = 0
    errors, latencies, rates = [], [], []
    started = time.perf_counter()
    last_round = 0.0
    r = 0
    while True:
        round_start = time.perf_counter()
        if traced:
            if r == wl.trace_rounds:
                break
        elif attempted >= MIN_OPS and round_start - started + last_round / 2 > args.seconds:
            break   # stopping now ends nearer to --seconds than another round
        ops = wl.ops(r)
        gc.collect()
        busy, ok = 0.0, 0
        for op in ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except op.known_failure:
                busy += time.perf_counter() - t0
                failed += 1
                known += 1
                continue
            except Exception as e:  # boundary: record the failure and go on
                busy += time.perf_counter() - t0
                failed += 1
                print(f"op {op.kind} (round {r}) failed: {e!r}", file=sys.stderr)
                if not isinstance(e, workloads.OpFailed):
                    traceback.print_exc(file=sys.stderr)
                continue
            elapsed = time.perf_counter() - t0
            busy += elapsed
            ok += 1
            latencies.append(elapsed)
            problems = op.check(out)
            if problems:
                errors.append(f"{op.kind} (round {r}): " + "; ".join(problems[:3]))
        rates.append(ok / busy)
        last_round = time.perf_counter() - round_start
        r += 1
    return attempted, failed, known, errors, latencies, rates


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qflab" / "__init__.py").is_file():
        print("perfbench: no qflab source at ./src/qflab; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wl, lib, import_s = setup(args, root)
    setup_s = process_age()
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer(lib)
    try:
        attempted, failed, known, errors, latencies, rates = measure(
            wl, args, traced=bool(args.trace))
    finally:
        if tracer is not None:
            tracer.restore()
        close(wl, root)
    ops_per_s = statistics.median(rates)
    if args.trace:
        values = tracer.metrics(1e3 * import_s, ops_per_s)
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * percentile(latencies, TAIL_PCT),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(rates)} rounds, "
          f"{attempted} ops, {failed} failed ({known} known fault), "
          f"{len(errors)} failed checks, op_tail_ms is p{TAIL_PCT}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
