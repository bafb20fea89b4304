"""End-to-end benchmark of latslice, with an optional layer-traced run.

    python3 bench/run.py --workload cross-count --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`, nothing is installed.  One client runs the workload's fixed op list
in a closed loop in this single process (no `jobs`, no process pool) and
checks every output.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the exit code is 0 only
when every op passed its check.

--trace 0 reports the end-to-end metrics with tracing off, every time
normalised to a reference host speed (see `speed`):
  wall_s       seconds per pass over the op list, ops and their checks
  op_p50_ms    median op latency
  op_p90_ms    90th-percentile op latency
  setup_s      median of SETUP_REPS rounds of importing latslice and building
               the seeded inputs
  peak_rss_mb  peak resident memory of this process
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of `tracer.LAYER_METRICS`.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import speed
import summary
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
# Seconds of untimed warm-up ops before the timed passes.
WARMUP_S = 1.0

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_latslice():
    """Import latslice afresh from SRC; returns its layer modules."""
    for name in list(tracer.latslice_modules()):
        del sys.modules[name]
    pkg = importlib.import_module("latslice")
    if Path(pkg.__file__).resolve().parent != SRC / "latslice":
        raise ImportError(f"latslice imported from {pkg.__file__}, not from {SRC}")
    names = tracer.LAYERS + ("reptheory",)
    return SimpleNamespace(**{n: importlib.import_module(f"latslice.{n}") for n in names})


def setup(workload, seed, gauge):
    """Import and input generation, SETUP_REPS times; returns the last
    round's plan and the median round time at the reference speed."""
    times = []
    for _ in range(SETUP_REPS):
        gauge.sample()
        t0 = time.perf_counter()
        ls = import_latslice()
        plan = workloads.build(workload, ls, seed)
        times.append((t0, time.perf_counter()))
    gauge.sample()
    return plan, statistics.median([gauge.normalise(t0, t1) for t0, t1 in times])


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, label, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{label}: {problem}")


def run_op(op):
    """Run and check one op; returns (end of the run, output, problem)."""
    try:
        out = op.run()
    except Exception as e:  # an op that raises is a failed op, not a crash
        return time.perf_counter(), None, f"raised {type(e).__name__}: {e}"
    run_end = time.perf_counter()
    try:
        problem = op.check(out)
    except Exception as e:
        problem = f"check raised {type(e).__name__}: {e}"
    return run_end, out, problem


def run_pass(plan, tally, gauge, spans=None):
    """One pass over the op list, sampling host speed between ops; returns
    the pass's (start, end).  When given, spans[i] collects op i's (start,
    end of run, end of check)."""
    t0 = time.perf_counter()
    outputs, problems = [], []
    for i, op in enumerate(plan.ops):
        gauge.maybe_sample()
        start = time.perf_counter()
        run_end, out, problem = run_op(op)
        if spans is not None:
            spans[i].append((start, run_end, time.perf_counter()))
        outputs.append(out)
        problems.append(problem)
    if all(p is None for p in problems):
        for i, problem in plan.pass_check(outputs):
            problems[i] = problems[i] or problem
    for op, problem in zip(plan.ops, problems):
        tally.record(op.label, problem)
    return t0, time.perf_counter()


def warm_up(plan, tally):
    """Run ops in list order, checked but untimed, for about WARMUP_S."""
    t0 = time.perf_counter()
    for op in plan.ops:
        _, _, problem = run_op(op)
        tally.record(op.label, problem)
        if time.perf_counter() - t0 >= WARMUP_S:
            break


def end_to_end(plan, seconds, setup_s, tally, gauge):
    """Warm up, then run whole passes while the next one fits in the time
    left (always at least one).

    Every interval is normalised to the reference speed (see `speed`), and
    each op's typical time is its median over the passes, so a stall moves
    one sample, not the result: wall_s is the sum of the ops' median
    run-and-check times, and the latency percentiles are taken over the
    ops' median run times.
    """
    start = time.perf_counter()
    warm_up(plan, tally)
    spans = [[] for _ in plan.ops]
    passes = []
    while True:
        t0, t1 = run_pass(plan, tally, gauge, spans)
        passes.append(t1 - t0)
        if t1 - start + statistics.median(passes) > seconds:
            break
    gauge.sample()
    latency_ms = [
        statistics.median([gauge.normalise(s, r) * 1000 for s, r, _ in op]) for op in spans
    ]
    values = {
        "wall_s": sum(statistics.median([gauge.normalise(s, e) for s, _, e in op]) for op in spans),
        "op_p50_ms": summary.percentile(latency_ms, 50),
        "op_p90_ms": summary.percentile(latency_ms, 90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "passes": len(passes),
        "ops_per_pass": len(plan.ops),
        "op_samples": len(plan.ops) * len(passes),
        "tail_percentile_supported": summary.tail_percentile(len(plan.ops)),
        "raw_wall_s": sum(statistics.median([e - s for s, _, e in op]) for op in spans),
        "speed_probe_s": [min(gauge.probes), statistics.median(gauge.probes), max(gauge.probes)],
    }
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, info


def traced(plan, tally, gauge):
    """An untraced pass, then the same pass traced; the reference op, if
    any, is traced again on its own for the layer shares."""
    warm_up(plan, tally)
    plain = run_pass(plan, tally, gauge)
    spans, probes = tracer.Tracer(), tracer.CountProbes()
    with tracer.Instrumentation(spans, probes) as inst:
        traced_pass = run_pass(plan, tally, gauge)
    gauge.sample()
    values = tracer.layer_values(spans, inst, probes)
    plain_wall, traced_wall = gauge.normalise(*plain), gauge.normalise(*traced_pass)
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["share.validate_chain_in_chain_to_slice"] = spans.share(
        "lattice.validate_chain", "slicecorr.chain_to_slice"
    )
    shares = spans
    if plan.reference is not None:
        shares = tracer.Tracer()
        with tracer.Instrumentation(shares, tracer.CountProbes()):
            _, _, problem = run_op(plan.reference)
        tally.record(plan.reference.label, problem)
    values["share.char_poly_in_count_slice_fiber"] = shares.share(
        "linalg.char_poly", "countlab.count_slice_fiber"
    )
    values["share.quotient_basis_trivial_in_count_chain_fiber"] = shares.share(
        "lattice.quotient_basis_trivial", "countlab.count_chain_fiber"
    )
    left = tracer.leftover_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers left behind: {left}")
    info = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}
    return {k: (values[k], unit) for k, (unit, _) in tracer.LAYER_METRICS.items()}, info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "latslice" / "__init__.py").is_file():
        print(f"error: no latslice sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    gauge = speed.SpeedGauge()
    plan, setup_s = setup(args.workload, args.seed, gauge)
    tally = Tally()
    if args.trace:
        metrics, info = traced(plan, tally, gauge)
    else:
        metrics, info = end_to_end(plan, args.seconds, setup_s, tally, gauge)
    info.update(
        workload=args.workload,
        seed=args.seed,
        python=sys.version.split()[0],
        nproc=len(os.sched_getaffinity(0)),
        failed_share=tally.failed / tally.attempted,
    )
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
