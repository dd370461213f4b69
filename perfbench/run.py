#!/usr/bin/env python3
"""Benchmark of the emcgm library: one named workload per invocation.

    python3 perfbench/run.py --workload sort_2host --seed 1 --seconds 30 --trace 0

Run from the repository root. The script builds perfbench/ (the library from
src/ plus bench_main.cpp) into .bench_build/perfbench, asks the benchmark
binary for the reference output digests, then runs one repetition per
process until --seconds have passed. It checks every repetition's output
against the reference and its counts against the first repetition's,
prints a provenance line and a table, and prints as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, from untraced repetitions; with --trace 1 they are
the per-layer ones, from alternating untraced and traced repetitions (the
traced ones arm the library's obs.trace switch and are folded into span
self times here).

Workloads, metric definitions and which layer metric should move which
end-to-end metric are in perfbench/README.md.
"""

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "emcgm_perfbench")
JOB_FILE = os.path.join(HERE, "jobsvc_mix.json")
WORKLOADS = ("sort_2host", "listrank_4host_ft", "jobsvc_mix")

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "parallel_ios": "count",
    "wire_bytes": "bytes",
    "tenant_turnaround_p50_s": "s",
}

PER_LAYER = {
    "emcgm.start_s": "s",
    "emcgm.step_p50_s": "s",
    "emcgm.step_max_s": "s",
    "emcgm.steps": "count",
    "emcgm.finish_s": "s",
    "emcgm.barrier_self_s": "s",
    "emcgm.commit_s": "s",
    "emcgm.commits": "count",
    "emcgm.group_self_s": "s",
    "emcgm.output_collect_s": "s",
    "pdm.read_ops": "count",
    "pdm.write_ops": "count",
    "pdm.blocks": "count",
    "pdm.full_stripe_frac": "ratio",
    "pdm.retries": "count",
    "pdm.fsyncs": "count",
    "pdm.bytes_stored_per_input_byte": "ratio",
    "pdm.context_read_s": "s",
    "pdm.context_write_s": "s",
    "pdm.inbox_read_s": "s",
    "pdm.outbox_write_s": "s",
    "pdm.prefetch_s": "s",
    "pdm.drain_wait_s": "s",
    "pdm.queue_depth_max": "count",
    "net.payload_bytes": "bytes",
    "net.payload_per_wire": "ratio",
    "net.retransmissions": "count",
    "net.rounds": "count",
    "net.post_s": "s",
    "net.collect_s": "s",
    "net.pair_s": "s",
    "net.heartbeat_s": "s",
    "routing.app_rounds": "count",
    "routing.comm_steps": "count",
    "routing.h_max_bytes": "bytes",
    "algo.compute_s": "s",
    "algo.ref_std_sort_s": "s",
    "cgm.native_run_s": "s",
    "svc.parse_s": "s",
    "svc.submit_s": "s",
    "svc.ticks": "count",
    "svc.steps": "count",
    "svc.steps_per_tick": "ratio",
    "svc.tick_p50_s": "s",
    "svc.tick_max_s": "s",
    "svc.preemptions": "count",
    "svc.runnable_wait_ticks": "count",
    "svc.hi_prio_turnaround_s": "s",
    "obs.trace_overhead_frac": "ratio",
    "obs.spans": "count",
    "obs.self_time_sum_s": "s",
    "proc.user_s": "s",
    "proc.sys_s": "s",
    "proc.minor_faults": "count",
}

# Span kind (as exported) -> per-layer self-time metric.
SPAN_METRIC = {
    "superstep": "emcgm.barrier_self_s",
    "commit": "emcgm.commit_s",
    "group_step": "emcgm.group_self_s",
    "output_collect": "emcgm.output_collect_s",
    "context_read": "pdm.context_read_s",
    "context_write": "pdm.context_write_s",
    "inbox_read": "pdm.inbox_read_s",
    "outbox_write": "pdm.outbox_write_s",
    "io_prefetch": "pdm.prefetch_s",
    "io_drain": "pdm.drain_wait_s",
    "net_post": "net.post_s",
    "net_collect": "net.collect_s",
    "net_pair": "net.pair_s",
    "heartbeat": "net.heartbeat_s",
    "compute": "algo.compute_s",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def median(xs):
    return statistics.median(xs) if xs else 0.0


# ------------------------------------------------------------------ build --

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are not next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", BUILD_DIR, "-j", jobs])


def step(cmd):
    # Build chatter goes to stderr: stdout carries only results.
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build step failed: " + " ".join(cmd))


def bench(args, timeout):
    """Run the benchmark binary once in a process of its own; return its
    JSON line."""
    try:
        proc = subprocess.run([BINARY] + args, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("benchmark binary timed out: " + " ".join(args))
    sys.stderr.write(proc.stderr)
    if proc.returncode:
        fail("benchmark binary exited with %d: %s"
             % (proc.returncode, " ".join(args)))
    return json.loads(proc.stdout)


# ------------------------------------------------------------------ trace --

class Span:
    __slots__ = ("name", "t0", "t1", "parent", "children")

    def __init__(self, name, t0, t1):
        self.name, self.t0, self.t1 = name, t0, t1
        self.parent, self.children = None, []

    def contains(self, other, eps=0.002):
        return self.t0 <= other.t0 + eps and other.t1 <= self.t1 + eps


def nest(spans):
    """Link each span of one lane to its innermost enclosing span."""
    spans.sort(key=lambda s: (s.t0, -s.t1))
    stack = []
    for s in spans:
        while stack and not stack[-1].contains(s):
            stack.pop()
        if stack:
            s.parent = stack[-1]
            stack[-1].children.append(s)
        stack.append(s)
    return spans


def covered(span):
    """Length of the union of the span's children, clipped to the span."""
    total, end = 0.0, span.t0
    for c in sorted(span.children, key=lambda c: c.t0):
        lo, hi = max(c.t0, end), min(c.t1, span.t1)
        if hi > lo:
            total += hi - lo
            end = hi
    return total


def reduce_trace(path, window=None):
    """Fold a Chrome trace into per-kind self times (seconds), span counts
    and the executor queue-depth high-water mark.

    Spans nest by time within their lane (one host's store group, the
    barrier lane, one network pair). A lane's outermost spans, other than
    the barrier lane's, belong to the innermost barrier-lane span around
    them: host work and pair simulations run inside a superstep. A span's
    self time is its duration minus the union of its children, so host
    threads that overlap in time are not counted twice against it.
    """
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    proc_name, lanes, depth_max = {}, {}, 0
    lo, hi = window if window else (float("-inf"), float("inf"))
    for e in events:
        ph = e.get("ph")
        if ph == "M" and e["name"] == "process_name":
            proc_name[e["pid"]] = e["args"]["name"]
        elif ph == "X" and e["ts"] >= lo and e["ts"] + e["dur"] <= hi:
            s = Span(e["name"], e["ts"], e["ts"] + e["dur"])
            lanes.setdefault((e["pid"], e["tid"]), []).append(s)
        elif ph == "C" and e["name"] == "io_queue_depth" and lo <= e["ts"] <= hi:
            depth_max = max(depth_max, e["args"]["depth"])

    # Tenants of a job-service trace own disjoint pid ranges; their process
    # names carry a "<tenant>: " prefix.
    def tenant(pid):
        name = proc_name.get(pid, "")
        return name.rsplit(": ", 1)[0] if ": " in name else ""

    barrier = {tenant(pid): (pid, 0) for pid, name in proc_name.items()
               if name.endswith("engine")}
    for key in lanes:
        nest(lanes[key])
    for ten, lane in barrier.items():
        backbone = lanes.get(lane, [])
        starts = [s.t0 for s in backbone]
        for key, spans in lanes.items():
            if key == lane or tenant(key[0]) != ten:
                continue
            for s in spans:
                if s.parent is not None:
                    continue
                b = bisect.bisect_right(starts, s.t0 + 0.002) - 1
                up = backbone[b] if b >= 0 else None
                while up is not None and not up.contains(s):
                    up = up.parent
                if up is not None:
                    s.parent = up
                    up.children.append(s)

    self_s, count = {}, {}
    for spans in lanes.values():
        for s in spans:
            self_s[s.name] = self_s.get(s.name, 0.0) + (s.t1 - s.t0) - covered(s)
            count[s.name] = count.get(s.name, 0) + 1
    return ({k: v * 1e-6 for k, v in self_s.items()}, count, depth_max)


def traced_metrics(rep):
    window = None
    if "win0_ns" in rep:
        window = (rep["win0_ns"] / 1000.0, rep["win1_ns"] / 1000.0)
    try:
        self_s, count, depth_max = reduce_trace(rep["trace"], window)
    finally:
        os.remove(rep["trace"])
    m = {metric: self_s.get(kind, 0.0) for kind, metric in SPAN_METRIC.items()}
    m["emcgm.commits"] = count.get("commit", 0)
    m["pdm.queue_depth_max"] = depth_max
    m["obs.spans"] = sum(count.values())
    m["obs.self_time_sum_s"] = sum(self_s.values())
    return m


# ---------------------------------------------------------------- results --

def check(ref, cmp, reps, is_svc):
    """Count attempted and failed operations: every repetition's output
    against the reference, its counts against the first repetition's."""
    golden = next((r["counts"] for r in reps if "counts" in r), None)
    attempted = failed = 0
    if cmp is not None:
        attempted += 1
        failed += cmp["native_hash"] != ref["hash"]
    for rep in reps:
        ok = "error" not in rep and rep["counts"] == golden
        if is_svc:
            attempted += len(ref["tenants"])
            if not ok:
                failed += len(ref["tenants"])
                continue
            for got, want in zip(rep["tenants"], ref["tenants"]):
                failed += not (got["ok"] and want["ok"] and
                               got["hash"] == want["hash"])
        else:
            attempted += 1
            failed += not (ok and rep["hash"] == ref["hash"])
    return attempted, failed


def end_to_end(reps, is_svc):
    counts = reps[0]["counts"]
    if is_svc:
        turnaround = [t["turnaround_s"] for r in reps for t in r["tenants"]]
    else:
        turnaround = [r["setup_s"] + r["run_s"] for r in reps]
    return {
        "setup_s": median([r["setup_s"] for r in reps]),
        "run_s": median([r["run_s"] for r in reps]),
        "cpu_s": median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": median([r["maxrss_kb"] for r in reps]) / 1024.0,
        "parallel_ios": counts["parallel_ios"],
        # Bytes carried between hosts: framed wire bytes on the simulated
        # network; sort_2host has none and hands its cross-host batches
        # over in memory, so there it is that payload.
        "wire_bytes": counts["wire_bytes"] or counts.get("comm_bytes", 0),
        "tenant_turnaround_p50_s": median(turnaround),
    }


def per_layer(untraced, traced, cmp, is_svc):
    m = {k: 0.0 for k in PER_LAYER}
    c = untraced[0]["counts"]
    med = lambda key, reps=untraced: median([r[key] for r in reps])
    if not is_svc:
        m.update({
            "emcgm.start_s": med("start_s"),
            "emcgm.step_p50_s": med("step_p50_s"),
            "emcgm.step_max_s": med("step_max_s"),
            "emcgm.steps": c["steps"],
            "emcgm.finish_s": med("finish_s"),
            "pdm.bytes_stored_per_input_byte":
                c["stored_bytes"] / c["input_bytes"],
            "net.rounds": c["net_rounds"],
            "routing.comm_steps": c["comm_steps"],
            "routing.h_max_bytes": c["h_max_bytes"],
            "algo.ref_std_sort_s": cmp["ref_std_sort_s"],
            "cgm.native_run_s": cmp["native_run_s"],
        })
    else:
        hi_prio = max(t["priority"] for t in untraced[0]["tenants"])
        m.update({
            "svc.parse_s": med("parse_s"),
            "svc.submit_s": med("submit_s"),
            "svc.ticks": c["ticks"],
            "svc.steps": c["tenant_steps"],
            "svc.steps_per_tick": c["tenant_steps"] / c["ticks"],
            "svc.tick_p50_s": med("tick_p50_s"),
            "svc.tick_max_s": med("tick_max_s"),
            "svc.preemptions": c["preemptions"],
            "svc.runnable_wait_ticks": c["runnable_wait_ticks"],
            "svc.hi_prio_turnaround_s": median(
                [t["turnaround_s"] for r in untraced for t in r["tenants"]
                 if t["priority"] == hi_prio]),
        })
    ops = c["parallel_ios"]
    m.update({
        "pdm.read_ops": c["read_ops"],
        "pdm.write_ops": c["write_ops"],
        "pdm.blocks": c["blocks"],
        "pdm.full_stripe_frac": c["full_stripe_ops"] / ops if ops else 0.0,
        "pdm.retries": c["retries"],
        "pdm.fsyncs": c["fsyncs"],
        "net.payload_bytes": c["payload_bytes"],
        "net.payload_per_wire":
            c["payload_bytes"] / c["wire_bytes"] if c["wire_bytes"] else 0.0,
        "net.retransmissions": c["retransmissions"],
        "routing.app_rounds": c["app_rounds"],
        "proc.user_s": med("user_s"),
        "proc.sys_s": med("sys_s"),
        "proc.minor_faults": med("minflt"),
    })
    folded = [traced_metrics(r) for r in traced]
    for key in folded[0]:
        m[key] = median([f[key] for f in folded])
    m["obs.trace_overhead_frac"] = med("run_s", traced) / med("run_s") - 1.0
    coverage = median([f["obs.self_time_sum_s"] / r["run_s"]
                       for f, r in zip(folded, traced)])
    return m, {"self_time_sum_over_traced_run_s": coverage}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opt = ap.parse_args()
    if opt.seed < 0:
        fail("--seed must be a non-negative integer")

    build()
    os.makedirs(TRACE_DIR, exist_ok=True)
    common = ["--workload", opt.workload, "--seed", str(opt.seed),
              "--jobs", JOB_FILE]
    is_svc = opt.workload == "jobsvc_mix"
    ref = bench(["ref"] + common, timeout=120)
    cmp = None
    if opt.trace and not is_svc:
        cmp = bench(["cmp"] + common, timeout=120)

    # One process per repetition, until --seconds have passed; with
    # --trace 1 every second repetition is traced.
    reps, t0 = [], time.monotonic()
    while len(reps) < 3 + opt.trace or time.monotonic() - t0 < opt.seconds:
        args = ["rep"] + common
        if opt.trace and len(reps) % 2 == 1:
            args += ["--trace-path", os.path.join(
                TRACE_DIR, "%s-%d-%d-%d.json" % (
                    opt.workload, opt.seed, os.getpid(), len(reps)))]
        rep = bench(args, timeout=120)
        rep["traced"] = "--trace-path" in args
        reps.append(rep)
    measured = time.monotonic() - t0
    attempted, failed = check(ref, cmp, reps, is_svc)

    good = [r for r in reps if "error" not in r]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not untraced or (opt.trace and not traced):
        fail("no successful repetition to report")
    if opt.trace:
        values, extra = per_layer(untraced, traced, cmp, is_svc)
        units = PER_LAYER
    else:
        values, extra = end_to_end(untraced, is_svc), {}
        units = END_TO_END
    try:
        os.rmdir(TRACE_DIR)
    except OSError:
        pass

    print("provenance: " + json.dumps(dict({
        "workload": opt.workload, "seed": opt.seed, "trace": opt.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "compiler": reps[0]["compiler"], "build_type": reps[0]["build_type"],
        "repetitions": len(reps), "measured_s": measured}, **extra)))
    for name, value in values.items():
        print("  %-34s %16.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
