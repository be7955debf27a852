"""Layered benchmark for periodlines, one workload per invocation:

    python3 perfbench/run.py --workload free-corpus --seed 1 --seconds 30 --trace 0

It imports the library from src/ of the checkout it sits in, builds the
workload's inputs and oracles from the seed, and runs the workload's pass of
ops in a closed loop (one process, one thread; the next op starts when the
previous one returns) until --seconds have passed, at least once.  Every op's
output is checked by an oracle independent of the library.  With --trace 1 a
further pass runs with spans around the calls into each layer.

Every time is reported at reference host speed: scaled by the timing of a
fixed piece of reference work next to it, which cancels the slow spells of a
shared host (hostspeed.py).  End-to-end metrics: setup_s is the median of
five set-ups (import, inputs, oracles, backends); each op's latency is its
median over the passes, wall_s their sum, op_p50_ms and op_p90_ms their
median and nearest-rank 90th percentile; peak_rss_mb is the process's peak
before any tracing; ok_ratio is the share of ops that passed their check.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0 and the
per-layer metrics with --trace 1.  The full record (seed, Python version,
nproc, git commit, per-op verdicts, raw latencies and reference timings,
both metric sets) is written to perfbench/results/, and a traced run writes
its spans there too.
Tests of the benchmark itself: python3 -m pytest perfbench/tests
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 5
SETUP_REFERENCE_REPEATS = 5
LIBRARY_MODULES = ("words", "freewords", "backends", "geometry", "fourgon", "constants",
                   "harness", "testutil", "cli")

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spans  # noqa: E402
from workloads import FAILED, OK, WORKLOADS, WRONG  # noqa: E402


def import_library():
    """Import the library afresh, so that set-up time includes the import."""
    for name in [n for n in sys.modules if n == "periodlines" or n.startswith("periodlines.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("periodlines." + m)
                              for m in LIBRARY_MODULES})


def git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(ops, env, verdicts, by_label, tracer=None):
    """Run every op once, between timings of the reference work, and judge
    it as soon as it returns; the check is not timed.  Returns the raw op
    latencies and the n + 1 reference timings around them."""
    latencies, refs = [], [hostspeed.reference_time()]
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t = perf_counter()
        try:
            out, exc = op.run(env), None
        except Exception as e:  # an op that raises is a failed op, not a crash
            out, exc = None, e
        latencies.append(perf_counter() - t)
        refs.append(hostspeed.reference_time())
        try:
            verdict, detail = op.check(out, exc)
        except (KeyError, TypeError, ValueError, AttributeError, IndexError) as e:
            verdict, detail = WRONG, f"malformed output: {type(e).__name__}: {e}"
        del out, exc
        verdicts[verdict] += 1
        entry = by_label.setdefault(op.label, {OK: 0, FAILED: 0, WRONG: 0, "detail": ""})
        entry[verdict] += 1
        if verdict != OK and not entry["detail"]:
            entry["detail"] = detail
    return latencies, refs


def scaled(latencies, refs):
    """Each latency at reference speed, from the reference timings beside it."""
    return [hostspeed.scale(t, refs[i], refs[i + 1]) for i, t in enumerate(latencies)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "periodlines" / "__init__.py").is_file():
        print(f"error: no library at {src / 'periodlines'}", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))

    # a set-up is long next to an op, so more reference work is timed beside it
    setup_times, setup_refs = [], [hostspeed.reference_time(SETUP_REFERENCE_REPEATS)]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        lib = import_library()
        workload = WORKLOADS[args.workload](lib, args.seed)
        setup_times.append(perf_counter() - t0)
        setup_refs.append(hostspeed.reference_time(SETUP_REFERENCE_REPEATS))
    if not Path(lib.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported {lib.cli.__file__}, not the checkout's library", file=sys.stderr)
        return 2

    env = SimpleNamespace(free=getattr(workload, "free", None), fp=getattr(workload, "fp", None))
    verdicts, by_label = Counter(), {}
    passes, pass_refs = [], []  # raw op latencies and reference timings of each pass
    start = perf_counter()
    while True:
        latencies, refs = run_pass(workload.ops, env, verdicts, by_label)
        passes.append(latencies)
        pass_refs.append(refs)
        if perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Every pass runs the same ops, so each op's latency is its median over
    # the passes, each sample at reference speed (hostspeed.py).
    per_pass = [scaled(lat, refs) for lat, refs in zip(passes, pass_refs)]
    op_lat = [statistics.median(lat[i] for lat in per_pass) for i in range(len(workload.ops))]
    wall = sum(op_lat)
    end_to_end = {
        "setup_s": (statistics.median(scaled(setup_times, setup_refs)), "s"),
        "wall_s": (wall, "s"),
        "op_p50_ms": (statistics.median(op_lat) * 1e3, "ms"),
        "op_p90_ms": (sorted(op_lat)[math.ceil(0.9 * len(op_lat)) - 1] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": (verdicts[OK] / sum(verdicts.values()), "ratio"),
    }

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    per_layer, spans_file = None, None
    if args.trace:
        tracer = spans.Tracer()
        patches = spans.install(tracer, lib)
        traced_env = SimpleNamespace(
            **{k: v and spans.BackendProxy(v, tracer) for k, v in vars(env).items()})
        try:
            traced_wall = sum(scaled(*run_pass(workload.ops, traced_env, verdicts, by_label,
                                                tracer)))
        finally:
            spans.uninstall(patches)
        per_layer = spans.layer_metrics(tracer, traced_wall, wall)
        spans_file = RESULTS / f"{stem}-spans.tsv.gz"
        tracer.write(spans_file)

    attempted = sum(verdicts.values())
    failed = verdicts[FAILED] + verdicts[WRONG]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "platform": platform.platform(),
        "load": "closed loop, one process, one thread",
        "passes": len(passes),
        "ops_per_pass": len(workload.ops),
        "op_samples": len(op_lat),
        "reference_s": hostspeed.REFERENCE_S,
        "setup_samples_s": setup_times,
        "setup_reference_s": setup_refs,
        "pass_walls_s": [sum(lat) for lat in passes],
        "pass_walls_scaled_s": [sum(lat) for lat in per_pass],
        "op_labels": [op.label for op in workload.ops],
        "op_latencies_s": passes,
        "op_reference_s": pass_refs,
        "attempted": attempted,
        "failed": failed,
        "correct": verdicts[WRONG] == 0,
        "verdicts": by_label,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": per_layer and {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "spans": spans_file and os.path.relpath(spans_file, ROOT),
    }
    out_file = RESULTS / f"{stem}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    metrics = per_layer if args.trace else end_to_end
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes of {len(workload.ops)} ops, "
          f"{verdicts[OK]} ok, {verdicts[FAILED]} failed, {verdicts[WRONG]} wrong; "
          f"record {os.path.relpath(out_file, ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
