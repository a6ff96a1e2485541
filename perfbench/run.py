#!/usr/bin/env python3
"""perfbench: the repository benchmark (see perfbench/README.md).

One run of one workload, from the root of a source checkout:

    python3 perfbench/run.py --workload tcp_read_mostly --seed 1 --seconds 20 --trace 0

builds the hotman library, the hotmand daemon and the harness (Release, into
.bench_build/perfbench), runs the harness once and prints every metric by
name with its unit and sample counts. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. The exit code is non-zero when a correctness check failed.

Steadiness check (repeats each workload with seeds first-seed.., untraced):

    python3 perfbench/run.py --steady 10 [--workload W ...] [--seconds 20]
        [--save FILE] [--against FILE]

prints each end-to-end metric's median, quartiles and quartile spread
against its bound; --save keeps the medians, --against compares them with a
saved set (the second median may not be worse than the first by more than
the bound).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
HOTMAND = os.path.join(BUILD_DIR, "hotman", "tools", "hotmand")
LOG_DIR = os.path.join(BUILD_DIR, "logs")
BUILD_TYPE = "Release"
RUN_DEADLINE_S = 175  # a run (build excluded) must end within 180 s
HOP_TYPES = ("client_get", "client_put", "get_replica", "get_ack",
             "put_replica", "put_ack")
# The harness's host speed reference kernel (SpeedReference) takes this long
# on the nominal host; gated times are scaled to it.
REF_NOMINAL_US = 1000.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# --- build ------------------------------------------------------------------

def build():
    """Configures once, then builds incrementally. Raises on failure."""
    if not os.path.isdir(os.path.join(ROOT, "src")) or not os.path.isfile(
            os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no hotman source tree at " + ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_harness",
                  "hotmand", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))


def build_record():
    """Host and build facts every result carries."""
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except OSError:
        commit = ""
    record = {
        "cores": os.cpu_count(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "sanitize": cache.get("HOTMAN_SANITIZE", ""),
        "hotmand": os.path.relpath(HOTMAND, ROOT),
        "commit": commit or "unknown (not a git checkout)",
    }
    if record["build_type"] == "Debug" or record["sanitize"]:
        log("WARNING: %s%s build: timings are not representative"
            % (record["build_type"], " + sanitizers" if record["sanitize"] else ""))
    return record


# --- one run ----------------------------------------------------------------

def run_harness(workload, seed, seconds, trace):
    """Runs the harness once; the parsed RAW measurement object."""
    os.makedirs(LOG_DIR, exist_ok=True)
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--hotmand", HOTMAND, "--log-dir", LOG_DIR]
    # Own process group: a timeout takes the daemons down with the harness.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("harness exceeded %d s" % RUN_DEADLINE_S)
    raw = [line for line in out.splitlines() if line.startswith("RAW ")]
    if proc.returncode != 0 or not raw:
        raise RuntimeError("harness failed (exit %d)" % proc.returncode)
    return json.loads(raw[-1][4:])


def window(raw, label):
    return next(w for w in raw["windows"] if w["label"] == label)


def ops(w):
    return w["gets"] + w["puts"]


def ratio(num, den):
    return num / den if den else 0.0


def failures(raw):
    """Failed ops over every measured window, plus daemons that did not exit 0."""
    bad_exits = sum(1 for code in raw["daemon_exit_codes"] if code != 0)
    return bad_exits + sum(w["get_fail"] + w["put_fail"] + w["check_fail"]
                           for w in raw["windows"])


def quiet_slices(w):
    """The window's one-second slices during which the hypervisor stole no
    more CPU time from the machine than in the median slice (the steal
    column of /proc/stat): at least half of them, all of them on a quiet
    host. On a shared host, stolen time is the largest source of run-to-run
    noise, and it comes in bursts of seconds."""
    cut = statistics.median(s.get("steal", 0.0) for s in w["slices"])
    return [s for s in w["slices"] if s.get("steal", 0.0) <= cut]


def slice_rate(w):
    """Median over the quiet slices of completed ops per second."""
    return statistics.median(s["ops"] / s["wall_s"] for s in quiet_slices(w))


def slice_latency(w, kind, pct):
    """Median over the quiet slices of each slice's percentile; the whole
    window's percentile when the slices carry no latencies (the sim's
    virtual-time latencies come from a fixed virtual span instead)."""
    per = [s[kind][pct] for s in quiet_slices(w) if s.get(kind, {}).get("n", 0) > 0]
    return statistics.median(per) if per else w[kind][pct]


def cpu_us_per_op(w):
    """CPU microseconds (user + system) the daemons and the harness spent
    per completed op over the whole window. CPU time leaves out the time
    the hypervisor stole and the time threads waited for a core."""
    return ratio((w["server_cpu_s"] + w["client_cpu_s"]) * 1e6, ops(w))


def steal_note(w):
    steal = [s.get("steal", 0.0) for s in w["slices"]]
    quiet = [s.get("steal", 0.0) for s in quiet_slices(w)]
    return "host steal %.1f%% over the window, %.1f%% in the %d quiet slices" % (
        100 * statistics.mean(steal), 100 * statistics.mean(quiet), len(quiet))


def speed_factor(w):
    """The reference kernel's nominal time over its median time in the
    window: below 1 while the host runs slow. A CPU or wall time times this
    factor is the time the nominal host would have taken."""
    return REF_NOMINAL_US / (1e6 * statistics.median(w["ref_s"]))


def end_to_end(raw):
    w = window(raw, "measure")
    speed = speed_factor(w)
    # The sim's latencies are virtual time, which host speed does not touch.
    wall = 1.0 if "cache_hits" in w else speed
    return {
        "ops_per_s": slice_rate(w) / speed,
        "cpu_us_per_op": cpu_us_per_op(w) * speed,
        "get_p50_us": slice_latency(w, "get_us", "p50") * wall,
        "put_p50_us": slice_latency(w, "put_us", "p50") * wall,
        # Boot stalls and host contention only ever add set-up time, so the
        # fastest set-up is the one that measures the set-up work itself;
        # the median over set-ups is the per-layer setup.median_s.
        "setup_s": min(raw["setup_s"]) * speed,
        "server_rss_mib": sum(raw["server_rss_kib"]) / 1024.0,
    }


def stats_deltas(w):
    """Counter deltas over the traced window summed over the daemons, and
    each histogram's count-weighted mean p50/p99 at the window's end."""
    counters = {}
    for before, after in zip(w["stats_before"], w["stats_after"]):
        b = before.get("counters", {})
        for name, value in after.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value - b.get(name, 0)
    hist = {}
    for after in w["stats_after"]:
        for name, h in after.get("histograms", {}).items():
            acc = hist.setdefault(name, [0, 0.0, 0.0])
            acc[0] += h["count"]
            acc[1] += h["count"] * h["p50_us"]
            acc[2] += h["count"] * h["p99_us"]
    hist = {name: (ratio(s50, n), ratio(s99, n)) for name, (n, s50, s99) in hist.items()}
    return counters, hist


def per_layer(raw):
    w = window(raw, "traced")
    untraced = window(raw, "untraced")
    n = ops(w)
    c, hist = stats_deltas(w)
    get = lambda name: c.get(name, 0)  # noqa: E731
    gets_coordinated = get("gets_coordinated")
    coord_get = hist.get("get_latency_us", (0.0, 0.0))
    coord_put = hist.get("put_latency_us", (0.0, 0.0))
    is_sim = "cache_hits" in w
    m = {
        "ops_per_s.unscaled": slice_rate(w),
        "host.ref_kernel_us": 1e6 * statistics.median(w["ref_s"]),
        "net.frames_per_op": ratio(get("net.frames_sent"), n),
        "net.bytes_per_op": ratio(get("net.bytes_sent"), n),
        # Every net.dropped_* increment also counts in net.frames_dropped.
        "net.drops": get("net.frames_dropped"),
        "net.reconnects": get("net.connections_opened"),
        "sharded.cross_posts_per_op": ratio(get("sharded.cross_posts"), n),
        "sharded.mailbox_overflows": get("sharded.mailbox_overflows"),
        "cluster.coord_get_p50_us": coord_get[0],
        "cluster.coord_get_p99_us": coord_get[1],
        "cluster.coord_put_p50_us": coord_put[0],
        "cluster.coord_put_p99_us": coord_put[1],
        "cluster.outside_coord_get_us": w["get_us"]["p50"] - coord_get[0],
        "cluster.replica_gets_per_get": ratio(get("replica_gets_served"), gets_coordinated),
        "cluster.replica_puts_per_put": ratio(get("replica_puts_applied"),
                                              get("puts_coordinated")),
        "cluster.read_repairs_per_get": ratio(get("read_repairs"), gets_coordinated),
        "cluster.fast_read_share": ratio(get("fast_read_hits"), gets_coordinated),
        "cluster.hot_read_share": ratio(get("hot_read_hits"), gets_coordinated),
        "cluster.demotions_per_get": ratio(
            get("fast_read_demotions") + get("hot_read_demotions"), gets_coordinated),
        "cluster.ops_failed": get("gets_failed") + get("puts_failed"),
        "cache.hit_ratio": ratio(w.get("cache_hits", 0),
                                 w.get("cache_hits", 0) + w.get("cache_misses", 0)),
        "cache.pinned": w.get("cache_pinned", 0),
        "cache.hit_call_us": w.get("hit_call_us", 0.0),
        "core.miss_issue_us": w.get("miss_call_us", 0.0),
        "sim.loop_us_per_op": ratio(w["wall_s"] * 1e6, n) if is_sim else 0.0,
        "server_cpu_us_per_op": ratio(w["server_cpu_s"] * 1e6, n),
        "client_cpu_us_per_op": ratio(w["client_cpu_s"] * 1e6, n),
        "trace.overhead": ratio(slice_rate(w), slice_rate(untraced)),
        "setup.retries": raw["setup_retries"],
        "setup.median_s": statistics.median(raw["setup_s"]),
        "get_p99_us": w["get_us"]["p99"],
        "put_p99_us": w["put_us"]["p99"],
        "get_p999_us": w["get_us"]["p999"],
        "put_p999_us": w["put_us"]["p999"],
        "get_samples": w["get_us"]["n"],
        "put_samples": w["put_us"]["n"],
        "op_fail_ratio": ratio(failures(raw), sum(ops(x) for x in raw["windows"])),
    }
    for t in HOP_TYPES:
        p50, p99 = hist.get("net.frame_latency." + t, (0.0, 0.0))
        m["net.hop_p50_us." + t] = p50
        m["net.hop_p99_us." + t] = p99
    if raw["probes"].get("probe_store_ok") != 1:
        raise RuntimeError("the docstore probe could not preload its store")
    m.update({k: v for k, v in raw["probes"].items() if not k.startswith("probe_")})
    return m


def run_once(spec, workload, seed, seconds, trace):
    """One measured run: (result object, human-readable lines, raw)."""
    raw = run_harness(workload, seed, seconds, trace)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(raw) if trace else end_to_end(raw)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError("metrics not measured: " + ", ".join(missing))
    attempted = sum(ops(w) for w in raw["windows"])
    failed = failures(raw)
    lines = []
    for w in raw["windows"]:
        lines.append("window %-8s %7.3f s  gets=%d puts=%d  failed: get=%d put=%d check=%d"
                     % (w["label"], w["wall_s"], w["gets"], w["puts"], w["get_fail"],
                        w["put_fail"], w["check_fail"]))
        lines.append("  " + steal_note(w))
    last = raw["windows"][-1]
    counts = {}
    for kind in ("get", "put"):
        per = [s[kind + "_us"]["n"] for s in quiet_slices(last) if kind + "_us" in s]
        counts[kind] = "n=%d %ss" % (last[kind + "_us"]["n"], kind) + (
            " (median of %d quiet slices of ~%d)" % (len(per), statistics.median(per))
            if per and not trace else "")
    for m in declared:
        note = counts.get(m["name"].split("_")[0], "") if m["name"].endswith("_us") else ""
        lines.append("%-34s %14.6g %-9s %s" % (m["name"], values[m["name"]], m["unit"], note))
    if trace:
        lines.append("note: cluster.coord_* and net.hop_* come from /stats histograms, "
                     "which are cumulative over each daemon's life (no buckets)")
    else:
        lines.append("op_fail_ratio %.6g (%d of %d ops, warm-up included)"
                     % (ratio(failed, attempted), failed, attempted))
        lines.append("setup_s is the fastest of %d set-ups: %s s"
                     % (len(raw["setup_s"]), ", ".join("%.3f" % s for s in raw["setup_s"])))
        ref_s = window(raw, "measure")["ref_s"]
        lines.append("host speed: reference kernel %.1f us (median of %d), nominal %.0f us; "
                     "ops_per_s (divided), cpu_us_per_op, setup_s and tcp latencies "
                     "(multiplied) are scaled by %.4f"
                     % (1e6 * statistics.median(ref_s), len(ref_s), REF_NOMINAL_US,
                        speed_factor(window(raw, "measure"))))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    return result, lines, raw


# --- steadiness check ---------------------------------------------------------

def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(spec, args):
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    previous = {}
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)
    summary, ok = {}, True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.steady):
            result, _, raw = run_once(spec, workload, args.first_seed + i, args.seconds, 0)
            if not result["correct"]:
                log("%s seed %d: %d failed ops" % (workload, args.first_seed + i,
                                                    result["failed"]))
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            log("  %s seed %d: %s speed=%.4f" % (workload, args.first_seed + i, " ".join(
                "%s=%.6g" % (name, v[-1]) for name, v in values.items()),
                speed_factor(window(raw, "measure"))))
        summary[workload] = {}
        print("%s (%d runs, seeds %d..%d)" % (workload, args.steady, args.first_seed,
                                             args.first_seed + args.steady - 1))
        print("  %-16s %12s %12s %12s %8s %6s  %s" % (
            "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
        for m in spec["end_to_end"]:
            name = m["name"]
            q1, med, q3 = quartiles(values[name])
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "UNSTEADY"
                ok = False
            base = previous.get(workload, {}).get(name)
            if base is not None:
                worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
                verdict += "; %+.3f vs saved median" % worse
                if worse > bound:
                    verdict += " REGRESSED"
                    ok = False
            summary[workload][name] = med
            print("  %-16s %12.6g %12.6g %12.6g %8.4f %6.3f  %s"
                  % (name, q1, med, q3, spread, bound, verdict), flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if ok else 1


# --- main ---------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="RUNS")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        names = [w["name"] for w in spec["workloads"]]
        for workload in args.workload or []:
            if workload not in names:
                raise RuntimeError("unknown workload %r (have %s)" % (workload, names))
        if not args.steady and (not args.workload or len(args.workload) != 1):
            raise RuntimeError("give exactly one --workload (or --steady RUNS)")
        build()
        record = build_record()
        print("record " + json.dumps(record, sort_keys=True), flush=True)
        if args.steady:
            return steady(spec, args)
        start = time.monotonic()
        result, lines, _ = run_once(spec, args.workload[0], args.seed, args.seconds, args.trace)
        print("perfbench %s seed=%d seconds=%g trace=%d (%.1f s)"
              % (args.workload[0], args.seed, args.seconds, args.trace,
                 time.monotonic() - start))
        for line in lines:
            print("  " + line)
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1
    except (OSError, RuntimeError, ValueError, KeyError) as e:
        log("perfbench: " + str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
