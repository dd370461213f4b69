#!/usr/bin/env python3
"""Validate a Chrome trace (and optional metrics sibling) emitted by obs/.

Usage: validate_trace.py <trace.json> [<trace.metrics.json>]

Checks, stdlib-only (CI runs this on real bench output):
  * the trace parses as JSON and has the traceEvents envelope;
  * every event is a known ph type ("X" complete, "M" metadata, "C" counter);
  * every "X" span has a known name/category, non-negative ts/dur, and the
    step/round coordinates in args;
  * per (pid, tid) lane, "X" spans nest properly: treating each span as the
    interval [ts, ts+dur], spans on one lane either nest or are disjoint
    (within a small float tolerance), matching the open-stack discipline the
    engine asserts at runtime;
  * the metrics JSON (when given) carries the expected schema tag and every
    superstep row has phase/wall_s/predicted_io_s plus the unified counter
    namespace (io.* at minimum).

Exit status 0 = valid; 1 = validation failure (with a message); 2 = usage.
"""
import json
import re
import sys

SPAN_NAMES = {
    "superstep", "group_step", "context_read", "inbox_read", "compute",
    "outbox_write", "context_write", "net_post", "net_collect", "net_pair",
    "deliver", "commit", "recovery", "heartbeat", "output_collect",
    "io_prefetch", "io_drain", "rejoin", "rebalance", "sched_step",
}
# Required args keys per counter-track name.
COUNTER_KEYS = {
    "pdm": ("io_ops", "wire_bytes", "comm_bytes"),
    "io_queue_depth": ("depth",),
    "membership_epoch": ("epoch",),
}
SPAN_CATEGORIES = {"engine", "io", "compute", "net", "ckpt"}
PHASES = {"compute", "regroup", "final", "output"}
METRICS_SCHEMA = "emcgm-metrics/1"
# Process names: "host 3" / "engine", optionally tenant-scoped by the job
# service ("jobA: host 3"); tenant labels are sanitized to [A-Za-z0-9_.-]
# by the tracer. Thread names: the barrier lane, net pair lanes, and one
# lane per store group.
PROCESS_NAME_RE = re.compile(r"^([A-Za-z0-9_.-]+: )?(engine|host \d+)$")
THREAD_NAME_RE = re.compile(r"^(barrier|net pair \d+|group \d+)$")
# Events on one lane are sorted and stack-checked with this slack (us):
# timestamps are ns-derived doubles, so exact equality is too strict.
EPS = 1e-6


def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_trace(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: missing traceEvents envelope")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents empty")

    lanes = {}
    n_spans = 0
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph not in ("X", "M", "C"):
            fail(f"{path}: event {i}: unknown ph {ph!r}")
        if ph == "M":
            if e.get("name") not in ("process_name", "thread_name"):
                fail(f"{path}: event {i}: unknown metadata {e.get('name')!r}")
            label = e.get("args", {}).get("name")
            if not isinstance(label, str):
                fail(f"{path}: metadata event {i}: missing args.name")
            pattern = (PROCESS_NAME_RE if e["name"] == "process_name"
                       else THREAD_NAME_RE)
            if not pattern.match(label):
                fail(f"{path}: metadata event {i}: "
                     f"unrecognized {e['name']} {label!r}")
            continue
        if ph == "C":
            name = e.get("name")
            if name not in COUNTER_KEYS:
                fail(f"{path}: counter event {i}: unknown name {name!r}")
            args = e.get("args", {})
            for key in COUNTER_KEYS[name]:
                if key not in args:
                    fail(f"{path}: counter event {i}: missing {key}")
            continue
        n_spans += 1
        if e.get("name") not in SPAN_NAMES:
            fail(f"{path}: span {i}: unknown name {e.get('name')!r}")
        if e.get("cat") not in SPAN_CATEGORIES:
            fail(f"{path}: span {i}: unknown category {e.get('cat')!r}")
        ts, dur = e.get("ts"), e.get("dur")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{path}: span {i}: bad ts {ts!r}")
        if not isinstance(dur, (int, float)) or dur < 0:
            fail(f"{path}: span {i}: bad dur {dur!r}")
        args = e.get("args", {})
        for key in ("step", "round"):
            if not isinstance(args.get(key), int):
                fail(f"{path}: span {i}: args.{key} missing or non-integer")
        lanes.setdefault((e.get("pid"), e.get("tid")), []).append(
            (ts, ts + dur, e["name"]))
    if n_spans == 0:
        fail(f"{path}: no complete ('X') spans")

    # Per-lane nesting: sort by (start asc, end desc) and run an interval
    # stack — a span must close before anything that opened before it.
    for lane, spans in lanes.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []
        for start, end, name in spans:
            while stack and start >= stack[-1][1] - EPS:
                stack.pop()
            if stack and end > stack[-1][1] + EPS:
                fail(f"{path}: lane {lane}: span {name!r} "
                     f"[{start}, {end}] overlaps enclosing "
                     f"{stack[-1][2]!r} [{stack[-1][0]}, {stack[-1][1]}]")
            stack.append((start, end, name))

    print(f"validate_trace: {path}: OK "
          f"({n_spans} spans, {len(lanes)} lanes, "
          f"{sum(1 for e in events if e.get('ph') == 'C')} counter samples)")


def validate_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != METRICS_SCHEMA:
        fail(f"{path}: schema {doc.get('schema')!r}, want {METRICS_SCHEMA!r}")
    for key in ("num_disks", "block_bytes", "model", "supersteps", "totals"):
        if key not in doc:
            fail(f"{path}: missing {key}")
    steps = doc["supersteps"]
    if not isinstance(steps, list) or not steps:
        fail(f"{path}: supersteps empty")
    for i, s in enumerate(steps):
        if s.get("phase") not in PHASES:
            fail(f"{path}: step {i}: unknown phase {s.get('phase')!r}")
        for key in ("step", "round", "wall_s", "predicted_io_s", "counters"):
            if key not in s:
                fail(f"{path}: step {i}: missing {key}")
        if s["wall_s"] < 0 or s["predicted_io_s"] < 0:
            fail(f"{path}: step {i}: negative time")
        counters = s["counters"]
        if not any(k.startswith("io.") for k in counters):
            fail(f"{path}: step {i}: no io.* counters")
        if any(not isinstance(value, int) for value in counters.values()):
            fail(f"{path}: step {i}: non-integer counter")
    total_pred = sum(s["predicted_io_s"] for s in steps)
    if abs(total_pred - doc["totals"]["predicted_io_s"]) > 1e-6 * max(
            1.0, total_pred):
        fail(f"{path}: per-step predicted_io_s sums to {total_pred}, "
             f"totals says {doc['totals']['predicted_io_s']}")
    print(f"validate_trace: {path}: OK ({len(steps)} superstep rows)")


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        return 2
    validate_trace(argv[1])
    if len(argv) == 3:
        validate_metrics(argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
