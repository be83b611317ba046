#!/usr/bin/env python3
"""metanov benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload oracle_profiles --seed 1 --seconds 30 --trace 0

Queries are sent as a closed loop with one client: each starts when the
previous one has returned, on the main thread, and every answer is checked
against its known value.  A pass is one trip through the workload's query
list; passes repeat while another one fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics: ``wall_ref_s`` (median over
passes of one pass's query time at reference host speed, see ``speed.py``),
``setup_s`` (median over fresh ``--setup-only`` processes of start to inputs
ready, also at reference speed) and ``peak_rss_mib``; it prints the plain
wall time ``wall_s`` and keeps it and the plain setup times in the record.  ``--trace 1``
alternates traced and untraced passes and reports the per-layer metrics of
the traced ones and the tracing overhead.  Its counters must match per query
across traced passes, across traced runs of the same inputs and source
(kept in ``.bench_out/``), and the sizes known for the fixed queries.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the full result record.  The exit code is 0 when every answer and every
counter check is right, 1 when one is not, and 2 when the checkout has no
metanov sources to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime, perf_counter, process_time

from speed import REFERENCE_PROBE_S, SpeedProbe, probe_s

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import metanov, build the inputs and exit (times setup_s)")
    return p.parse_args(argv)


def build_queries(workload: str, seed: int):
    """Import metanov from this checkout and build the workload's queries."""
    sys.path.insert(0, str(SRC))
    import metanov
    import workloads

    if not Path(metanov.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"metanov imported from {metanov.__file__}, not {SRC}")
    return workloads.WORKLOADS[workload](seed)


def monotonic_now() -> float:
    # CLOCK_MONOTONIC is one system-wide clock, so a child's reading can be
    # compared with the parent's.
    return clock_gettime(CLOCK_MONOTONIC)


def setup_times(args, n: int) -> list[tuple[float, float]]:
    """Start-to-ready times of n fresh --setup-only processes, in wall time
    and at reference speed.  The child reports when its inputs were ready,
    so a time excludes the child's exit and the parent's polling; it then
    reports the host's speed, probed just after."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(n):
        t0 = monotonic_now()
        child = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        ready, probe = map(float, child.stdout.split()[-2:])
        times.append((ready - t0, (ready - t0) * REFERENCE_PROBE_S / probe))
    return times


def run_pass(queries, tracer=None, probe=None) -> dict:
    """One closed-loop trip through the queries; returns timings and
    failures.  With a speed probe, query times leave out the probe's own
    time and come also at reference speed (``ref_s``)."""
    latencies, refs, failures, counters = [], [], [], []
    cpu0 = process_time()
    for qid, q in enumerate(queries):
        if tracer is not None:
            tracer.query_id = qid
            before = Counter(tracer.counters)
        if probe is not None:
            first = probe.start()
        t0 = perf_counter()
        try:
            result = q.call()
            failure = None if q.check(result) else f"got {result!r}"
        except Exception as exc:  # a raising query is a failed query; keep going
            traceback.print_exc(file=sys.stderr)
            failure = f"raised {exc!r}"
        t1 = perf_counter()
        if probe is None:
            latencies.append(t1 - t0)
        else:
            own, ref = probe.stop(first, t0, t1)
            latencies.append(own)
            refs.append(ref)
        if failure:
            failures.append(f"{q.label}: {failure}, expected {q.expected}")
        if tracer is not None:
            counters.append(dict(tracer.counters - before))
    groups: dict[str, float] = defaultdict(float)
    groups_ref: dict[str, float] = defaultdict(float)
    for q, dt, ref in zip(queries, latencies, refs or latencies):
        groups[q.group] += dt
        groups_ref[q.group] += ref
    return {"wall_s": sum(latencies), "ref_s": sum(refs) if refs else None,
            "cpu_s": process_time() - cpu0,
            "traced": tracer is not None, "groups": dict(groups),
            "groups_ref": dict(groups_ref) if refs else None,
            "failures": failures, "counters": counters}


def repeat(seconds: float, minimum: int, one_pass) -> list[dict]:
    """Call one_pass(i) at least ``minimum`` times, then while another pass
    as long as the last one still fits in ``seconds`` of query time."""
    passes = []
    while (len(passes) < minimum
           or sum(p["wall_s"] for p in passes) + passes[-1]["wall_s"] <= seconds):
        passes.append(one_pass(len(passes)))
    return passes


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "metanov").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"metanov_commit": commit, "metanov_src_sha256": digest.hexdigest()}


def untraced_run(args, queries, source) -> tuple[list[dict], dict]:
    # Setup is sampled before and after the passes, so that the median
    # spans the run rather than one moment of a shared machine.  The first
    # sample, which may compile bytecode, is not kept.
    setup = setup_times(args, SETUP_SAMPLES // 2 + 1)[1:]
    with SpeedProbe() as probe:
        passes = repeat(args.seconds, 1, lambda i: run_pass(queries, probe=probe))
    setup += setup_times(args, SETUP_SAMPLES - len(setup))
    metrics = {
        "wall_ref_s": (statistics.median(p["ref_s"] for p in passes), "s"),
        "setup_s": (statistics.median(ref for _, ref in setup), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return passes, {"metrics": metrics, "problems": [],
                    "setup_samples_s": [raw for raw, _ in setup],
                    "setup_ref_samples_s": [ref for _, ref in setup],
                    "wall_s": statistics.median(p["wall_s"] for p in passes),
                    "probe_samples": len(probe.samples),
                    "probe_median_s": statistics.median(dt for _, dt in probe.samples)}


def counter_problems(queries, per_query: list[list[dict]], stored: Path) -> list[str]:
    """Per-query counters must repeat exactly across traced passes and
    traced runs of the same inputs and source, and match the sizes known
    for the fixed queries."""
    runs = [("this run", counts) for counts in per_query[1:]]
    if stored.exists():
        runs.append((stored.name, json.loads(stored.read_text())))
    else:
        stored.write_text(json.dumps(per_query[0]))
    problems = []
    for where, counts in runs:
        for q, got, again in zip(queries, per_query[0], counts):
            if got != again:
                problems.append(f"{q.label}: counters {got}, but {again} in {where}")
    for q, got in zip(queries, per_query[0]):
        for name, want in q.invariants.items():
            if got.get(name, 0) != want:
                problems.append(f"{q.label}: {name} = {got.get(name, 0)}, expected {want}")
    return problems


def traced_run(args, queries, source) -> tuple[list[dict], dict]:
    import tracer as tracing

    tracers = []

    def one_pass(i):
        if i % 2:
            return run_pass(queries)
        tracers.append(tracing.Tracer())
        with tracers[-1]:
            return run_pass(queries, tracers[-1])

    passes = repeat(args.seconds, 2, one_pass)
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    layers = [t.per_layer() for t in tracers]
    metrics = {}
    for name, unit in tracing.PER_LAYER.items():
        if name == "trace.overhead":
            value = 100.0 * (statistics.median(p["wall_s"] for p in traced)
                             / statistics.median(p["wall_s"] for p in plain) - 1.0)
        elif unit == "s":
            value = statistics.median(layer[name] for layer in layers)
        else:
            value = layers[0][name]
        metrics[name] = (value, unit)

    OUT.mkdir(exist_ok=True)
    inputs = hashlib.sha256("\n".join(
        [source["metanov_src_sha256"], Path(tracing.__file__).read_text()]
        + [q.label for q in queries]).encode()).hexdigest()
    problems = counter_problems(queries, [p["counters"] for p in traced],
                                OUT / f"counters-{args.workload}-{inputs[:16]}.json")
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "queries": [q.label for q in queries],
        "spans": tracers[0].spans,
        "counters_per_query": traced[0]["counters"],
    }))
    return passes, {
        "metrics": metrics, "problems": problems,
        "trace_overhead_pct": metrics["trace.overhead"][0],
        "trace_file": str(trace_file.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        queries = build_queries(args.workload, args.seed)
    except (ImportError, KeyError) as exc:
        print(f"error: cannot set up workload {args.workload!r}: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        ready = monotonic_now()
        print(ready, probe_s())
        return 0

    source = source_identity()
    passes, result = (traced_run if args.trace else untraced_run)(args, queries, source)
    attempted = len(queries) * len(passes)
    failures = [label for p in passes for label in p["failures"]]
    correct = not failures and not result["problems"]
    groups = sorted({q.group for q in queries})
    untraced = [p for p in passes if not p["traced"]]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        **source,
        "queries": [q.label for q in queries],
        "attempted": attempted, "failed_frac": len(failures) / attempted,
        "failures": failures, "counter_problems": result["problems"],
        "metrics": {name: value for name, (value, _) in result["metrics"].items()},
        "group_s": {g: statistics.median(p["groups"][g] for p in untraced) for g in groups},
        "group_ref_s": ({g: statistics.median(p["groups_ref"][g] for p in untraced)
                         for g in groups} if not args.trace else None),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_ref_s": [p["ref_s"] for p in passes],
        "pass_cpu_s": [p["cpu_s"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "trace_overhead_pct": None,
        **{k: v for k, v in result.items() if k not in ("metrics", "problems")},
    }
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:32s} {value:14.6f} {unit}")
    if args.trace:
        for g in groups:
            print(f"{g + '_s':32s} {record['group_s'][g]:14.6f} s")
    else:
        print(f"{'wall_s':32s} {record['wall_s']:14.6f} s")
        for g in groups:
            print(f"{g + '_ref_s':32s} {record['group_ref_s'][g]:14.6f} s")
    for problem in failures + result["problems"]:
        print(f"FAILED: {problem}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
