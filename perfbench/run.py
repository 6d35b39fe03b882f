#!/usr/bin/env python3
"""Host-time benchmark of the nestsim simulator.

Builds the benchmark program (perfbench/main.exe) from source with dune,
runs one workload and prints every metric by name with its unit.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Run it from the repository root:

    python3 perfbench/run.py --workload netperf-single --seed 1 \
        --seconds 25 --trace 0

Each pass of the workload runs in a fresh process.  Passes repeat until
--seconds of host time have gone (at least three; six with --trace 1).
--trace 0 reports the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced passes, reports the per-layer metrics and
writes the spans to .perfbench/spans-<workload>-seed<seed>.json.

A cell that raises, or whose result digest differs from the golden one
(or, for a seed without golden digests, from its other runs), counts as
failed, and the exit status is then 1.  --emit-golden prints one pass's
digests in the format of perfbench/golden.txt instead.  See
perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("netperf-single", "netperf-pair", "fleet", "fleet-overload")
FLEETS = ("fleet", "fleet-overload")
CELLS = {"netperf-single": 18, "netperf-pair": 12, "fleet": 1,
         "fleet-overload": 1}
MODES = ("nocont", "nat", "brfusion", "samenode", "natx", "overlay", "hostlo")
TARGET = "./perfbench/main.exe"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
GOLDEN = os.path.join("perfbench", "golden.txt")
SPANS_DIR = ".perfbench"
MIN_PASSES = 3
BUILD_TIMEOUT_S = 840
PASS_TIMEOUT_S = 120

# Devices the netperf cells traverse, with ':' mapped to '-'.  Hops on
# any other device are reported as net.hops.other.
HOP_DEVICES = (
    "virbr0", "tap-vm1", "tap-vm2", "vm1-docker0", "vm2-docker0",
    "vm1-brf-pod-nd", "vm1-pod-ov-br", "vm2-pod-ov-br", "vm1-pod-ov.encap",
    "vm1-pod-ov.decap", "vm2-pod-ov.encap", "vm2-pod-ov.decap", "hostlo-pod")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("sim_req_per_s", "1/s"))

# Every traced run reports all of these.  A layer that the workload does
# not reach from outside reads 0 (README.md says which).
PER_LAYER = (
    (("sim.events", "count"), ("sim.words_per_event", "words/event"),
     ("sim.words_per_request", "words/req"), ("sim.ns_per_event", "ns"),
     ("sim.engine_self_ms", "ms"), ("sim.unlabeled_ms", "ms"),
     ("sim.gc.minor_words", "words"), ("sim.gc.minor_collections", "count"),
     ("sim.gc.major_collections", "count"),
     ("sim.gc.promoted_words", "words"), ("sim.kernel.event_ns", "ns"),
     ("sim.kernel.event_words", "words/event"),
     ("sim.kernel.sharded_delivery_ns", "ns"),
     ("sim.kernel.null_per_delivery", "ratio"),
     ("sim.kernel.hdr_record_ns", "ns"), ("net.host_softirq_ms", "ms"),
     ("net.guest_softirq_ms", "ms"), ("net.syscall_ms", "ms"))
    + tuple(("net.hops." + d, "count") for d in HOP_DEVICES)
    + (("net.hops.other", "count"), ("net.hops.total", "count"),
       ("net.flow_cache.hit_rate", "ratio"),
       ("net.flow_cache.lookups", "count"),
       ("net.overlay_cache.hit_rate", "ratio"),
       ("net.overlay_cache.lookups", "count"), ("net.dropped", "count"),
       ("net.kernel.snat_ns", "ns"), ("virt.vhost_ms", "ms"),
       ("core.deploy_ms", "ms"), ("core.deploy_words", "words"),
       ("workloads.app_ms", "ms"))
    + tuple((f"workloads.netperf.{kind}_ms.{m}", "ms")
            for m in MODES for kind in ("stream", "rr"))
    + (("loadgen.offered", "count"), ("loadgen.shed", "count"),
       ("loadgen.lost", "count"), ("loadgen.completed", "count"),
       ("loadgen.shed_ratio", "ratio"),
       ("loadgen.kernel.arrival_ns.fixed", "ns"),
       ("loadgen.kernel.arrival_ns.burn", "ns"),
       ("orch.scale_events", "count"), ("orch.pods", "count"),
       ("trace.span_ms", "ms"), ("trace.wall_s", "s"),
       ("trace.untraced_wall_s", "s"), ("trace.overhead_pct", "%")))

# Engine profile label -> metric of its layer.
LABEL_GROUPS = ("net.host_softirq_ms", "net.guest_softirq_ms",
                "net.syscall_ms", "virt.vhost_ms", "sim.unlabeled_ms",
                "workloads.app_ms")


def label_group(label):
    if label == "<unlabeled>":
        return "sim.unlabeled_ms"
    if label.startswith("vhost-"):
        return "virt.vhost_ms"
    if label == "host:softirq":
        return "net.host_softirq_ms"
    if label.endswith(":softirq"):
        return "net.guest_softirq_ms"
    if label.endswith(":sys") or label.endswith(":soft"):
        return "net.syscall_ms"
    return "workloads.app_ms"


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def ratio(a, b):
    return a / b if b else 0.0


def build():
    # The shared dune cache lives outside the checkout; keep the build in it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(["dune", "build", "--root", ".", TARGET], env=env,
                           stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if r.returncode != 0 or not os.path.isfile(EXE):
        die(f"build failed (dune exit {r.returncode})")


def load_golden():
    golden = {}
    with open(GOLDEN) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                seed, workload, cell, digest = line.split()
                golden[(int(seed), workload, cell)] = digest
    return golden


class Checks:
    """Cell accounting plus the correctness checks that span passes."""

    def __init__(self, workload, seed, golden):
        self.workload, self.seed = workload, seed
        self.golden = golden
        self.seeded = any(k[:2] == (seed, workload) for k in golden)
        self.seen = {}
        self.exact = {}
        self.attempted = self.failed = 0

    def fail(self, msg):
        self.failed += 1
        print(f"perfbench: FAILED {msg}", file=sys.stderr)

    def same(self, store, key, value, what):
        first = store.setdefault(key, value)
        if first != value:
            self.fail(f"{what}: {value!r}, earlier {first!r}")
            return False
        return True

    def cell(self, c, exact_words):
        """Checks one cell record; returns whether it is good."""
        self.attempted += 1
        cid = c["id"]
        if "error" in c:
            self.fail(f"{cid}: {c['error']}")
            return False
        key = (self.seed, self.workload, cid)
        if self.seeded:
            ok = c["digest"] == self.golden.get(key)
            if not ok:
                self.fail(f"{cid}: digest {c['digest']}, golden "
                          f"{self.golden.get(key)}")
                return False
        elif not self.same(self.seen, key, c["digest"], f"{cid} digest"):
            return False
        # Exact-repeat counters: every pass of a cell reads the same.
        exact = {"events": c["events"], "deploy_words": c["deploy_words"],
                 **c["counters"], **c.get("books", {})}
        if exact_words:
            exact["call_words"] = c["call_words"]
        for k, v in sorted(exact.items()):
            if not self.same(self.exact, (cid, k), v, f"{cid} {k}"):
                return False
        b = c.get("books")
        if b and b["offered"] != b["shed"] + b["lost"] + b["completed"]:
            self.fail(f"{cid}: books do not balance {b}")
            return False
        return True


def run_pass(args, checks, traced=False, shards=None, domains=None):
    """One fresh process running every cell once.  Returns its record
    with only the good cells kept, or None when the process failed."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed)]
    if traced:
        cmd.append("--traced")
    if shards:
        cmd += ["--shards", str(shards)]
    if domains:
        cmd += ["--domains", str(domains)]
    spawn = time.time()
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=PASS_TIMEOUT_S)
        d = json.loads(r.stdout)
        if r.returncode != 0:
            raise ValueError(f"exit {r.returncode}")
    except (subprocess.TimeoutExpired, ValueError) as e:
        checks.attempted += CELLS[args.workload]
        checks.failed += CELLS[args.workload]
        print(f"perfbench: FAILED pass process: {e}", file=sys.stderr)
        return None
    # Allocation is exact only for untraced passes of one split on one
    # domain (Gc.minor_words counts the calling domain).
    exact_words = (not traced and shards is None and domains is None
                   and args.workload != "fleet")
    d["spawn"] = spawn
    d["cells"] = [c for c in d["cells"]
                  if checks.cell(c, exact_words=exact_words)]
    return d


def median(xs):
    return statistics.median(xs) if xs else 0.0


def upper_quartile(xs):
    """Host timings here are bimodal: a steady loaded speed plus
    episodes, seconds to minutes long, when the shared host runs up to
    40 % faster.  The median of a run flips between the two modes with
    the episodes' share of the run; the upper quartile reads the loaded
    speed unless three quarters of the run were fast."""
    if len(xs) < 2:
        return median(xs)
    return statistics.quantiles(xs, n=4, method="inclusive")[2]


def per_cell(passes, key, stat=upper_quartile):
    """Sum over cells of [stat] of each cell's values across passes."""
    by_cell = {}
    for d in passes:
        for c in d["cells"]:
            by_cell.setdefault(c["id"], []).append(c[key])
    return sum(stat(v) for v in by_cell.values())


def pass_sum(d, key):
    return sum(c[key] for c in d["cells"])


def end_to_end(passes):
    wall = per_cell(passes, "call_s")
    return {
        "wall_s": wall,
        # Process start to the first timed call, plus the rest of the
        # pass's deployments: all of a pass's set-up work.
        "setup_s": upper_quartile(
            [d["ready"] - d["spawn"] + pass_sum(d, "deploy_s")
             for d in passes]),
        "peak_rss_mb": median([d["peak_rss_mb"] for d in passes]),
        "sim_req_per_s": ratio(per_cell(passes, "ops", median), wall),
    }


def set_net(m, d):
    """Layer books of one untraced pass (they repeat exactly)."""
    tot = {}
    for c in d["cells"]:
        for k, v in c["counters"].items():
            tot[k] = tot.get(k, 0.0) + v

    def total(pred):
        return sum(v for k, v in tot.items() if pred(k))

    def field(k):
        return k.rsplit(".", 1)[-1]

    for k, v in tot.items():
        if k.startswith("hop."):
            dev = k[4:].replace(":", "-")
            name = "net.hops." + (dev if dev in HOP_DEVICES else "other")
            m[name] += v
            m["net.hops.total"] += v
    ns = lambda f: total(lambda k: k.startswith("ns.") and f(field(k)))
    ov = lambda f: total(lambda k: k.startswith("fc.overlay.") and field(k) == f)
    hits, misses = ns(lambda f: f == "flow_cache_hits"), \
        ns(lambda f: f == "flow_cache_misses")
    m["net.flow_cache.lookups"] = hits + misses
    m["net.flow_cache.hit_rate"] = ratio(hits, hits + misses)
    hits, misses = ov("hits"), ov("misses")
    m["net.overlay_cache.lookups"] = hits + misses
    m["net.overlay_cache.hit_rate"] = ratio(hits, hits + misses)
    m["net.dropped"] = ns(lambda f: f.startswith("dropped_"))


def set_breakdown(m, checks, d):
    """Label-group breakdown of one traced pass.  The groups plus the
    engine's self time add up to the pass's workload span exactly."""
    span = 1e3 * pass_sum(d, "call_s")
    for c in d["cells"]:
        for label, _, secs in c["profile"]:
            m[label_group(label)] += 1e3 * secs
        kind = "stream" if c["call"] == "tcp_stream" else "rr"
        m[f"workloads.netperf.{kind}_ms.{c['mode']}"] += 1e3 * c["call_s"]
    labelled = sum(m[g] for g in LABEL_GROUPS)
    if labelled > span:
        checks.fail(f"profiled labels ({labelled:.3f} ms) exceed the "
                    f"workload span ({span:.3f} ms)")
    m["trace.span_ms"] = span
    m["sim.engine_self_ms"] = span - labelled


def set_gc(m, passes):
    for k in ("minor_collections", "major_collections", "promoted_words"):
        m["sim.gc." + k] = median(
            [sum(c["gc"][k] for c in d["cells"]) for d in passes])


def per_layer(args, checks, untraced, traced):
    m = {name: 0.0 for name, _ in PER_LAYER}
    m["trace.wall_s"] = per_cell(traced, "call_s")
    m["trace.untraced_wall_s"] = per_cell(untraced, "call_s")
    m["trace.overhead_pct"] = 100 * ratio(
        m["trace.wall_s"] - m["trace.untraced_wall_s"],
        m["trace.untraced_wall_s"])
    if not untraced or not traced:
        return m
    first = untraced[0]
    if args.workload in FLEETS:
        m["trace.span_ms"] = 1e3 * median([pass_sum(d, "call_s")
                                           for d in traced])
        b = first["cells"][0]["books"] if first["cells"] else {}
        for k in ("offered", "shed", "lost", "completed"):
            m["loadgen." + k] = b.get(k, 0)
        m["loadgen.shed_ratio"] = ratio(b.get("shed", 0), b.get("offered", 0))
        m["orch.scale_events"] = b.get("scale_events", 0)
        m["orch.pods"] = b.get("pods", 0)
        # Gc.minor_words counts the calling domain only: allocation and
        # GC come from single-domain calls.
        gc_passes = untraced if args.workload != "fleet" else [
            d for d in [run_pass(args, checks, domains=1)] if d]
        if gc_passes and gc_passes[0]["cells"]:
            words = pass_sum(gc_passes[0], "call_words")
            m["sim.gc.minor_words"] = words
            m["sim.words_per_request"] = ratio(words, b.get("completed", 0))
            set_gc(m, gc_passes)
        return m
    events, words = pass_sum(first, "events"), pass_sum(first, "call_words")
    m["sim.events"] = events
    m["sim.gc.minor_words"] = words
    m["sim.words_per_event"] = ratio(words, events)
    m["sim.words_per_request"] = ratio(words, pass_sum(first, "ops"))
    m["sim.ns_per_event"] = median(
        [1e9 * ratio(pass_sum(d, "call_s"), pass_sum(d, "events"))
         for d in untraced])
    set_gc(m, untraced)
    set_net(m, first)
    m["core.deploy_ms"] = median([1e3 * pass_sum(d, "deploy_s")
                                  for d in untraced])
    m["core.deploy_words"] = pass_sum(first, "deploy_words")
    # The traced pass with the median workload span carries the
    # breakdown, so that its parts add up to one measured span.
    by_span = sorted(traced, key=lambda d: pass_sum(d, "call_s"))
    set_breakdown(m, checks, by_span[len(by_span) // 2])
    return m


def write_spans(path, traced):
    """The benchmark's own spans: a root span per cell with deploy and
    call children; profile label groups are aggregate children of the
    call (host time summed over the label's events, placed at the call's
    start)."""
    spans = []

    def add(parent, name, start, dur, aggregate=False):
        spans.append({"id": len(spans) + 1, "parent": parent, "name": name,
                      "start_s": start, "dur_ms": 1e3 * dur,
                      "aggregate": aggregate})
        return len(spans)

    for d in traced:
        for c in d["cells"]:
            end = c["call_start"] + c["call_s"]
            cell = add(0, "cell " + c["id"], c["start"], end - c["start"])
            if c["deploy_s"]:
                add(cell, "deploy", c["start"], c["deploy_s"])
            call = add(cell, c["call"], c["call_start"], c["call_s"])
            for label, _, secs in c["profile"]:
                add(call, label, c["call_start"], secs, aggregate=True)
    children = {}
    for s in spans:
        children[s["parent"]] = children.get(s["parent"], 0.0) + s["dur_ms"]
    for s in spans:
        s["self_ms"] = s["dur_ms"] - children.get(s["id"], 0.0)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(spans, f, indent=0)


def kernels():
    r = subprocess.run([EXE, "--kernels"], stdout=subprocess.PIPE, text=True,
                       timeout=PASS_TIMEOUT_S)
    if r.returncode != 0:
        die(f"kernels failed (exit {r.returncode})")
    return json.loads(r.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--emit-golden", action="store_true")
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    build()
    checks = Checks(args.workload, args.seed,
                    {} if args.emit_golden else load_golden())
    if args.emit_golden:
        d = run_pass(args, checks)
        for c in d["cells"] if d else []:
            print(args.seed, args.workload, c["id"], c["digest"])
        sys.exit(0 if d and not checks.failed else 1)

    start, passes = time.time(), []
    min_passes = MIN_PASSES * (2 if args.trace else 1)
    while len(passes) < min_passes or time.time() - start < args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 1
        d = run_pass(args, checks, traced=traced)
        passes.append((traced, d))
    untraced = [d for t, d in passes if d and not t]
    traced = [d for t, d in passes if d and t]
    # Without golden digests for this seed, the fleet must digest the
    # same on one shard as on the measured split.
    if args.workload in FLEETS and not checks.seeded:
        run_pass(args, checks, shards=1, domains=1)

    if args.trace:
        metrics = per_layer(args, checks, untraced, traced)
        metrics.update(kernels())
        write_spans(os.path.join(
            SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.json"), traced)
        spec = PER_LAYER
    else:
        metrics = end_to_end(untraced)
        spec = END_TO_END
    for name, unit in spec:
        print(f"{name:<40} {metrics[name]:20.6f} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in spec}}))
    sys.exit(0 if checks.failed == 0 else 1)


if __name__ == "__main__":
    main()
