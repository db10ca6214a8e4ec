#!/usr/bin/env python3
"""End-to-end benchmark of COBRA's three user-facing paths.

One command builds cobra_perfbench (Release, in .bench_build/perfbench),
runs one workload in its own process, checks every op's output and
prints the metrics as the last line of stdout:

    python3 perfbench/run.py --workload sweep|search|serve \\
        --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics; --trace 1 makes a separate
traced run and prints the per-layer metrics, a per-layer self-time
table (stderr) and a Perfetto-loadable span file.

Other modes:
    --steadiness            two interleaved sets of untraced runs per
                            workload; per-set medians and quartiles
                            (--out FILE appends the table to FILE)
    --write-golden          store output digests for --seed
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "cobra_perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-runs")
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")

WORKLOADS = ("sweep", "search", "serve")
DEFAULT_SEED = 1
# An untraced run reports the median set-up time of this many fresh
# processes: its own (the set-up its timed region uses) and the rest
# in set-up-only processes, half before it and half after it. Every one
# is the process's first, cold set-up.
SETUP_SAMPLES = 15
# Child time limits, so a run ends within 180 s even if every child
# hangs: 130 + 14 x 2.5 = 165 s. A set-up takes milliseconds.
CHILD_TIMEOUT_S = 130.0
SETUP_TIMEOUT_S = 2.5
# Untraced runs per set in --steadiness.
RUNS_PER_SET = 5

# Every metric the benchmark prints, with its unit, in BENCHMARK.json
# order. The self-tests check both tables against BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "sim_kips": "kips",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

DESIGNS = ("tourney", "b2", "tagel", "refbig")
PER_LAYER = {
    "program.build_ms": "ms",
    "sim.construct_ms": "ms",
    **{f"sim.run_kcps.{d}": "kcps" for d in DESIGNS},
    "sim.replay_kcps": "kcps",
    "sim.pool_busy_frac": "frac",
    "exec.oracle_ns_per_inst": "ns",
    "trace.capture_ms": "ms",
    "trace.decode_ms": "ms",
    "trace.record_ms": "ms",
    "trace.batch_kbranch_per_s": "kbranch/s",
    **{f"bpu.predict_update_ns.{d}": "ns" for d in DESIGNS},
    "warp.ff_kips": "kips",
    "warp.warm_hit_frac": "frac",
    **{f"search.tier{k}_s": "s" for k in range(4)},
    "search.functional_evals": "count",
    "search.evals_saved": "count",
    "search.pruned_frac": "frac",
    "serve.admit_ms": "ms",
    "serve.run_ms": "ms",
    "serve.publish_ms": "ms",
    "serve.parse_us": "us",
    "serve.journal_append_us": "us",
    "core.cycles_per_kinst": "cycles/kinst",
    "frontend.packets_killed_pki": "pki",
    "frontend.ghist_replays_pki": "pki",
    "bpu.mpki": "mpki",
    "bench.trace_overhead_frac": "frac",
}


class BenchError(Exception):
    """A failure that ends the run without a result line."""


class PercentileRefused(BenchError):
    """Too few samples beyond the requested percentile."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---- Statistics ----------------------------------------------------------

MIN_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank q-quantile of @p samples (an actual sample).

    Refuses (PercentileRefused) unless at least MIN_BEYOND samples lie
    beyond the chosen rank, so a tail figure always rests on a tail."""
    n = len(samples)
    if n == 0:
        raise PercentileRefused(f"p{q * 100:g} of no samples")
    k = max(0, math.ceil(q * n) - 1)
    beyond = n - 1 - k
    if beyond < MIN_BEYOND:
        raise PercentileRefused(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"{MIN_BEYOND} are required")
    return sorted(samples)[k]


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


# ---- Build ---------------------------------------------------------------

def build():
    """Configure (once) and build cobra_perfbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("COBRA sources (src/) are missing; cannot build")
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "cobra_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


# ---- Running cobra_perfbench ----------------------------------------------

def child_env():
    """The child's environment without COBRA_* overrides, which would
    change the schedule or the loop under measurement."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("COBRA_")}


def run_child(cmd, timeout=CHILD_TIMEOUT_S):
    """Run @p cmd in its own process; return (exit status, peak RSS MB).

    The peak RSS comes from wait4() on that child alone, so each
    workload's figure is its own process's high-water mark."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=child_env())
    deadline = time.monotonic() + timeout
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise BenchError(f"{cmd[0]} timed out after {timeout:.0f} s")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ru.ru_maxrss / 1024.0


def run_program(workload, seed, seconds, trace, setup_only=False):
    """Run one workload; returns (report, trace events or None, rss)."""
    out = os.path.join(RUNS_DIR, f"{workload}-{seed}-{trace}-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    try:
        code, rss_mb = run_child(
            [BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", f"{seconds:g}", "--trace", str(trace),
             "--out", out] + (["--setup-only"] if setup_only else []),
            SETUP_TIMEOUT_S if setup_only else CHILD_TIMEOUT_S)
        if code != 0:
            raise BenchError(f"cobra_perfbench exited with status {code}")
        with open(os.path.join(out, "report.json")) as f:
            report = json.load(f)
        events = None
        if trace:
            src = os.path.join(out, "trace.json")
            with open(src) as f:
                events = json.load(f)["traceEvents"]
            keep = os.path.join(ROOT, ".bench_build",
                                f"perfbench-trace-{workload}-{seed}.json")
            shutil.copyfile(src, keep)
            log(f"span file (Perfetto): {keep}")
        return report, events, rss_mb
    finally:
        shutil.rmtree(out, ignore_errors=True)


# ---- Output check --------------------------------------------------------

def canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def checked_output(workload, op):
    """The part of an op's output the goldens pin."""
    out = op["output"]
    if out is None:
        return None
    if workload == "sweep":
        return canonical(out)
    if workload == "search":
        return out["frontier_json"]
    result = out["result"]
    if result is None:
        return None
    points = [{k: v for k, v in p.items() if k != "wall_seconds"}
              for p in result["points"]]
    return canonical(points)


def digest(workload, op):
    text = checked_output(workload, op)
    return None if text is None else hashlib.sha256(
        text.encode()).hexdigest()


def dominates(a, b):
    """Pareto dominance over (accuracy max, area min, latency min)."""
    ge = (a["accuracy"] >= b["accuracy"] and a["area_um2"] <= b["area_um2"]
          and a["latency"] <= b["latency"])
    gt = (a["accuracy"] > b["accuracy"] or a["area_um2"] < b["area_um2"]
          or a["latency"] < b["latency"])
    return ge and gt


COMMIT_SLACK = 16


def invariant_error(workload, op):
    """Checks that hold for every seed; returns a reason or None."""
    if not op["ok"]:
        return op["error"] or "op failed"
    out = op["output"]
    if workload == "sweep":
        r = out["result"]
        if r["deadlocked"] or r["diagnostics"]:
            return "deadlocked"
        if op["insts"] < out["warmup"] + out["max_insts"]:
            return "instruction budget not met"
        return None
    if workload == "search":
        doc = json.loads(out["frontier_json"])
        frontier = doc["frontier"]
        tagel = [c for c in doc["candidates"] if c["id"] == "preset-tagel"]
        if not frontier or not tagel or "detailed" not in tagel[0]:
            return "TAGE-L anchor missing or uncertified"
        ref = dict(tagel[0]["detailed"], area_um2=tagel[0]["area_um2"],
                   latency=tagel[0]["latency"])
        if not any(p["id"] == "preset-tagel" or dominates(p, ref)
                   for p in frontier):
            return "frontier holds neither TAGE-L nor a point dominating it"
        return None
    req, result = out["request"], out["result"]
    if result is None:
        return "no result document"
    if result.get("status") != "ok":
        return f"request {result.get('status')}: {result.get('reason', '')}"
    want = len(req["designs"]) * len(req["workloads"])
    if len(result["points"]) != want:
        return "wrong number of points"
    for p in result["points"]:
        if p.get("status") != "ok" or p.get("deadlocked"):
            return f"point {p.get('label')} {p.get('status')}"
        # The measured region starts where warm-up's last commit
        # group ended, so it may come up short by less than a group.
        if "warp" not in req and p["insts"] < req["insts"] - COMMIT_SLACK:
            return "instruction budget not met"
    return None


def golden_path(workload, seed):
    return os.path.join(GOLDEN_DIR, f"{workload}-seed{seed}.json")


def load_golden(workload, seed):
    path = golden_path(workload, seed)
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)["digests"]


def check_ops(workload, ops, golden):
    """Returns (attempted, failed, first failure reasons)."""
    failed, reasons = 0, []
    for op in ops:
        try:
            why = invariant_error(workload, op)
        except (KeyError, TypeError, ValueError) as e:
            why = f"malformed output ({e!r})"
        if why is None and golden is not None:
            want = golden.get(op["id"])
            if want is None:
                why = "no golden digest for this op"
            elif digest(workload, op) != want:
                why = "output differs from the golden digest"
        if why is not None:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"{op['id']} ({op.get('pass')}): {why}")
    return len(ops), failed, reasons


# ---- End-to-end metrics --------------------------------------------------

def latency_samples(workload, ops):
    """Per-op turnaround in seconds: a sweep point, a search stage
    (tiers 0-3, then the frontier), or a serve request from submission
    to result."""
    if workload == "search":
        return [s for op in ops for s in op["stages"]]
    return [op["wall_s"] for op in ops]


def end_to_end(report, rss_mb, passed, setups):
    """@p setups: cold set-up times of fresh processes, the run's own
    among them."""
    ops = report["ops"]
    lat = latency_samples(report["workload"], ops)
    insts = sum(op["insts"] for op in ops if op["ok"])
    log(f"{report['workload']}: {len(ops)} ops, {len(lat)} latency "
        f"samples, {insts} simulated insts, {len(setups)} cold set-ups")
    if report["client_cpu_s"]:
        log(f"client thread: {report['client_cpu_s']:.3f} s of "
            f"{report['cpu_s']:.3f} s cpu_s")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": report["wall_s"],
        "cpu_s": report["cpu_s"],
        "sim_kips": insts / report["wall_s"] / 1e3,
        "latency_p50_ms": percentile(lat, 0.5) * 1e3,
        "latency_p90_ms": percentile(lat, 0.9) * 1e3,
        "peak_rss_mb": rss_mb,
        "ok_frac": passed / len(ops) if ops else 0.0,
    }


# ---- Per-layer metrics ---------------------------------------------------

class SpanSet:
    """Spans of one traced run, with parent links and self time."""

    def __init__(self, events):
        self.spans = []
        for e in events:
            a = e["args"]
            self.spans.append({
                "name": e["name"], "t0": e["ts"] / 1e6,
                "dur": e["dur"] / 1e6, "id": a["span"],
                "parent": a["parent"], "counts": a["counts"]})
        self.by_id = {s["id"]: s for s in self.spans}
        self.children = {}
        for s in self.spans:
            self.children.setdefault(s["parent"], []).append(s)

    def named(self, name, probes=None):
        """Spans called @p name; probes=True/False filters on whether
        they sit under the probe suite."""
        out = [s for s in self.spans if s["name"] == name]
        if probes is not None:
            out = [s for s in out if self.under_probes(s) == probes]
        return out

    def under_probes(self, s):
        while s["parent"] >= 0:
            s = self.by_id[s["parent"]]
            if s["name"] == "probes":
                return True
        return False

    def self_time(self, s):
        """Duration minus the part its children's intervals cover."""
        t0, t1 = s["t0"], s["t0"] + s["dur"]
        ivs = sorted((max(t0, c["t0"]), min(t1, c["t0"] + c["dur"]))
                     for c in self.children.get(s["id"], []))
        covered, end = 0.0, t0
        for a, b in ivs:
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        return s["dur"] - covered

    def self_table(self):
        rows = {}
        for s in self.spans:
            r = rows.setdefault(s["name"], [0, 0.0, 0.0])
            r[0] += 1
            r[1] += s["dur"]
            r[2] += self.self_time(s)
        return rows


def ratio(num, den):
    return num / den if den else 0.0


def result_rates(results):
    """Simulated-event rates per kilo-instruction over SimResults."""
    def total(*keys):
        return sum(r.get(k, 0) for r in results for k in keys)
    insts = total("insts")
    return {
        "core.cycles_per_kinst": 1e3 * ratio(total("cycles"), insts),
        "frontend.packets_killed_pki":
            1e3 * ratio(total("packetsKilled", "packets_killed"), insts),
        "frontend.ghist_replays_pki":
            1e3 * ratio(total("ghistReplays", "ghist_replays"), insts),
        "bpu.mpki": 1e3 * ratio(
            total("condMispredicts", "cond_mispredicts",
                  "jalrMispredicts", "jalr_mispredicts"), insts),
    }


def per_layer(report, spans):
    workload = report["workload"]
    m = {}

    def med(name):
        return statistics.median(s["dur"] for s in spans.named(name)) * 1e3

    m["program.build_ms"] = med("program.build")
    m["sim.construct_ms"] = med("sim.construct")
    runs = spans.named("sim.run")
    for d in DESIGNS:
        sel = [s for s in runs if s["counts"]["design"] == d
               and s["counts"]["mode"] == "execute"]
        m[f"sim.run_kcps.{d}"] = ratio(
            sum(s["counts"]["sim_cycles"] for s in sel),
            sum(s["dur"] for s in sel)) / 1e3
    rep = [s for s in runs if s["counts"]["mode"] == "replay"]
    m["sim.replay_kcps"] = ratio(
        sum(s["counts"]["sim_cycles"] for s in rep),
        sum(s["dur"] for s in rep)) / 1e3

    client = {"sweep": "sweep.run", "search": "search.client",
              "serve": "serve.client"}[workload]
    own = spans.named(client, probes=False)
    m["sim.pool_busy_frac"] = ratio(
        sum(s["counts"]["cpu_s"] for s in own),
        sum(s["dur"] * s["counts"]["jobs"] for s in own))

    caps = spans.named("trace.capture")
    m["exec.oracle_ns_per_inst"] = 1e9 * ratio(
        sum(s["dur"] for s in caps), sum(s["counts"]["insts"] for s in caps))
    m["trace.capture_ms"] = med("trace.capture")
    m["trace.decode_ms"] = med("trace.decode")
    m["trace.record_ms"] = med("trace.record")
    batch = spans.named("trace.batch_eval")
    m["trace.batch_kbranch_per_s"] = ratio(
        sum(s["counts"]["lanes"] * s["counts"]["branches"] for s in batch),
        sum(s["dur"] for s in batch)) / 1e3
    for d in DESIGNS:
        sel = [s for s in spans.named("bpu.trace_eval")
               if s["counts"]["design"] == d]
        m[f"bpu.predict_update_ns.{d}"] = 1e9 * ratio(
            sum(s["dur"] for s in sel),
            sum(s["counts"]["branches"] for s in sel))
    ff = spans.named("warp.ff")
    m["warp.ff_kips"] = ratio(sum(s["counts"]["insts"] for s in ff),
                              sum(s["dur"] for s in ff)) / 1e3

    # Workload-level layers come from the workload's own traced ops
    # when it has them, else from the probe suite's small run.
    native = {"search": workload == "search", "serve": workload == "serve"}
    reqs = spans.named("serve.request", probes=not native["serve"])
    warp = [s for s in reqs if s["counts"]["kind"] == "warp"]
    m["warp.warm_hit_frac"] = ratio(
        sum(s["counts"]["warm_hits"] for s in warp),
        sum(s["counts"]["intervals"] for s in warp))

    searches = spans.named("search.run", probes=not native["search"])
    for k in range(4):
        tiers = spans.named(f"search.tier{k}", probes=not native["search"])
        m[f"search.tier{k}_s"] = ratio(sum(s["dur"] for s in tiers),
                                       len(searches))
    m["search.functional_evals"] = ratio(
        sum(s["counts"]["functional_evals"] for s in searches),
        len(searches))
    m["search.evals_saved"] = ratio(
        sum(s["counts"]["evals_saved"] for s in searches), len(searches))
    m["search.pruned_frac"] = ratio(
        sum(s["counts"]["evals_saved"] for s in searches),
        sum(s["counts"]["pool"] for s in searches))

    for part in ("admit", "run", "publish"):
        sel = spans.named(f"serve.{part}", probes=not native["serve"])
        m[f"serve.{part}_ms"] = percentile([s["dur"] for s in sel],
                                           0.5) * 1e3
    for part in ("parse", "journal_append"):
        sel = spans.named(f"serve.{part}")
        m[f"serve.{part}_us"] = 1e6 * ratio(
            sum(s["dur"] for s in sel),
            sum(s["counts"]["count"] for s in sel))

    # Modelled events: the workload's own simulated points, or the
    # probe suite's points for search (whose points stay internal).
    if workload == "sweep":
        results = [s["counts"]["result"]
                   for s in spans.named("sim.point", probes=False)]
    elif workload == "serve":
        results = [p for op in report["ops"] if op["pass"] == "traced"
                   and op["output"] and op["output"]["result"]
                   and "warp" not in op["output"]["request"]
                   for p in op["output"]["result"]["points"]]
    else:
        results = [s["counts"]["result"] for s in runs
                   if s["counts"]["mode"] == "execute"]
    m.update(result_rates(results))

    m["bench.trace_overhead_frac"] = (
        report["traced_wall_s"] / report["untraced_wall_s"] - 1.0)
    return m


def print_self_table(spans):
    rows = spans.self_table()
    total = sum(r[2] for r in rows.values())
    print(f"{'span':28s} {'count':>6s} {'total_ms':>11s} {'self_ms':>11s}"
          f" {'self%':>6s}", file=sys.stderr)
    for name, (n, dur, self_s) in sorted(rows.items(),
                                         key=lambda kv: -kv[1][2]):
        print(f"{name:28s} {n:6d} {dur * 1e3:11.2f} {self_s * 1e3:11.2f}"
              f" {100 * ratio(self_s, total):6.1f}", file=sys.stderr)
    layers = {}
    for name, (_, _, self_s) in rows.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    print("self time per layer: " + ", ".join(
        f"{k} {v * 1e3:.1f} ms" for k, v in
        sorted(layers.items(), key=lambda kv: -kv[1])), file=sys.stderr)


# ---- One measured run ----------------------------------------------------

def result_line(correct, attempted, failed, values, units):
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def cold_setups(workload, seed, seconds, n):
    """Set-up times of @p n set-up-only processes."""
    return [run_program(workload, seed, seconds, 0, setup_only=True)[0]
            ["setup_s"] for _ in range(n)]


def measure(workload, seed, seconds, trace):
    """Run, check and compute; returns the result line."""
    setups = []
    if not trace:
        setups += cold_setups(workload, seed, seconds, SETUP_SAMPLES // 2)
    report, events, rss_mb = run_program(workload, seed, seconds, trace)
    if not trace:
        setups.append(report["setup_s"])
        setups += cold_setups(workload, seed, seconds,
                              SETUP_SAMPLES - len(setups))
    golden = load_golden(workload, seed)
    if golden is None:
        log(f"seed {seed} has no golden outputs: {workload} ops are "
            "checked against invariants only (unchecked)")
    attempted, failed, reasons = check_ops(workload, report["ops"], golden)
    failed += report.get("probe_failures", 0)
    for r in reasons:
        log(f"FAILED {r}")
    if trace:
        spans = SpanSet(events)
        print_self_table(spans)
        values, units = per_layer(report, spans), PER_LAYER
    else:
        values = end_to_end(report, rss_mb, attempted - failed, setups)
        units = END_TO_END
    return result_line(failed == 0, attempted, failed, values, units)


# ---- Golden digests ------------------------------------------------------

def write_golden(seed, seconds):
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for workload in WORKLOADS:
        report, _, _ = run_program(workload, seed, seconds, 0)
        _, failed, reasons = check_ops(workload, report["ops"], None)
        if failed:
            raise BenchError(f"{workload}: refusing to store goldens of "
                             f"failing ops: {reasons}")
        digests = {op["id"]: digest(workload, op) for op in report["ops"]}
        with open(golden_path(workload, seed), "w") as f:
            json.dump({"workload": workload, "seed": seed,
                       "seconds": seconds, "digests": digests}, f,
                      indent=1, sort_keys=True)
            f.write("\n")
        log(f"wrote {golden_path(workload, seed)} ({len(digests)} ops)")


# ---- Steadiness ----------------------------------------------------------

def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}


def cpu_times():
    """(steal, total) jiffies over all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steadiness(seconds, first_seed):
    """Two interleaved sets of untraced runs (A, B, A, B, ...) per
    workload, each run a fresh `run.py` process with its own seed."""
    bounds = load_bounds()
    start = cpu_times()
    began = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())
    values = {w: {"A": [], "B": []} for w in WORKLOADS}
    for i in range(RUNS_PER_SET):
        for k, s in enumerate(("A", "B")):
            seed = first_seed + 2 * i + k
            for w in WORKLOADS:
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", w, "--seed", str(seed),
                       "--seconds", f"{seconds:g}", "--trace", "0"]
                res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                     text=True, timeout=200)
                if res.returncode != 0:
                    raise BenchError(f"{w} seed {seed} failed")
                line = json.loads(res.stdout.strip().splitlines()[-1])
                if not line["correct"]:
                    raise BenchError(f"{w} seed {seed}: incorrect output")
                values[w][s].append(
                    {k2: v["value"] for k2, v in line["metrics"].items()})
                log(f"set {s} run {i + 1}/{RUNS_PER_SET} {w} seed {seed}")

    end = cpu_times()
    out = []
    out.append(f"steadiness, started {began}: {RUNS_PER_SET} runs per set, "
               f"sets A and B interleaved, seeds {first_seed}.."
               f"{first_seed + 2 * RUNS_PER_SET - 1}, --seconds "
               f"{seconds:g}")
    if start and end:
        # CPU time the hypervisor gave to other guests: host contention.
        steal = ratio(end[0] - start[0], end[1] - start[1])
        out.append(f"host steal time during the runs: {100 * steal:.1f}% "
                   "of all CPU time")
    out.append("spread = (q3 - q1) / median over all runs of the "
               "workload; shift = how much worse set B's median is than "
               "set A's")
    out.append("accept: shift <= bound, and spread <= bound except for "
               "setup_s; steady: spread < bound / 3")
    hdr = (f"{'workload':8s} {'metric':16s} {'unit':5s} {'bound':>6s} "
           f"{'A median':>11s} {'A q1':>11s} {'A q3':>11s} "
           f"{'B median':>11s} {'B q1':>11s} {'B q3':>11s} "
           f"{'shift':>7s} {'spread':>7s}  accept  steady")
    out.append(hdr)
    for w in WORKLOADS:
        for name, meta in bounds.items():
            a = [v[name] for v in values[w]["A"]]
            b = [v[name] for v in values[w]["B"]]
            allv = a + b
            qa, qb = quartiles(a), quartiles(b)
            sign = 1.0 if meta["better"] == "lower" else -1.0
            shift = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            q = quartiles(allv)
            spread = (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
            accept = shift <= meta["bound"] and (
                name == "setup_s" or spread <= meta["bound"])
            steady = ("-" if name == "setup_s"
                      else "yes" if spread < meta["bound"] / 3 else "no")
            out.append(
                f"{w:8s} {name:16s} {meta['unit']:5s} {meta['bound']:6.2f} "
                f"{qa[1]:11.5g} {qa[0]:11.5g} {qa[2]:11.5g} "
                f"{qb[1]:11.5g} {qb[0]:11.5g} {qb[2]:11.5g} "
                f"{shift:+7.3f} {spread:7.3f}  "
                f"{'ok' if accept else 'FAIL':6s}  {steady}")
    return "\n".join(out) + "\n"


# ---- Entry point ---------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    ap.add_argument("--out", help="steadiness: also append the table here")
    args = ap.parse_args(argv)

    try:
        build()
        if args.write_golden:
            write_golden(args.seed, args.seconds)
            return 0
        if args.steadiness:
            table = steadiness(args.seconds, args.seed)
            sys.stdout.write(table)
            if args.out:
                with open(args.out, "a") as f:
                    f.write("\n" + table)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        line = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, KeyError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
