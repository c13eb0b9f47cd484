#!/usr/bin/env python3
"""End-to-end benchmark of the Proteus simulator.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/workload.cc against ../src (once, into .bench_build/),
then runs the workload in fresh processes, one process per run, until
--seconds of wall time are used. A run of the host-speed reference
(perfbench/reference.cc) before and after each run gives that run's host
scale, which the end-to-end timings are corrected by, so the host's drift
over minutes cancels (NOTES.md). Every run's outputs are checked: the
simulator's invariants (inside the workload process), and its exact work
counts, which must match every other run of the same workload and seed,
the serial/sharded twin at the same seed, and at the default seed the
counts recorded in perfbench/expected_counts.json. A run that fails a
check contributes no timing and counts as failed.

--trace 0 prints the end-to-end metrics (medians over the runs);
--trace 1 alternates profiler-armed and plain runs (cdn_churn adds armed
runs of its 2-thread twin) and prints the per-layer ledger plus
trace.overhead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Progress and build output
go to stderr. See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_workload"
REFERENCE = BUILD / "perfbench_reference"
EXPECTED = HERE / "expected_counts.json"
DEFAULT_SEED = 7

# Workload -> the family whose runs must produce identical counts.
WORKLOADS = {
    "dumbbell_pcc": "dumbbell_pcc",
    "cdn_churn": "cdn_churn",
    "cdn_churn_sharded": "cdn_churn",
    "cdn_capped": "cdn_capped",
}
# cdn_churn_sharded's wall time follows the host's vCPU wake-up latency
# too closely to gate (NOTES.md), so BENCHMARK.json leaves it out and
# cdn_churn's traced invocation also runs that twin: the shard-thread
# layer is measured on cdn_churn's event stream run on 2 threads.
THREADED_TWIN = {"cdn_churn": "cdn_churn_sharded"}
THREAD_METRICS = ("sim.shard.barrier.ms", "sim.shard.cpu_util")

# perfbench_reference's wall time on a quiet host (4-vCPU Xeon VM). Timings
# are scaled by measured/REFERENCE_S, so they read as on that host.
REFERENCE_S = 0.24
MIN_RUNS = 3         # runs per invocation, even past --seconds
TOTAL_LIMIT_S = 150  # never start a run past this point...
HARD_LIMIT_S = 170   # ...and kill any run still going at this one


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        return False
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", *gen, "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_workload", "perfbench_reference", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return BINARY.is_file() and REFERENCE.is_file()


def reference_s():
    """Wall time of one host-speed reference run, or None if it failed."""
    try:
        proc = subprocess.run([str(REFERENCE)], capture_output=True,
                              text=True, timeout=10)
        return float(proc.stdout) if proc.returncode == 0 else None
    except (subprocess.TimeoutExpired, ValueError):
        return None


def run_once(workload, seed, armed, timeout):
    """One workload process. Returns its measurement record, or None."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--trace={1 if armed else 0}"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"{workload}: run killed after {timeout:.0f} s")
        return None
    if proc.returncode != 0:
        log(f"{workload}: exit {proc.returncode}: {proc.stderr.strip()}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"{workload}: unreadable output")
        return None


def reference_counts(workload, seed):
    """Counts this run must reproduce, and where they are kept.

    At the default seed the committed expected_counts.json; otherwise
    the counts the first passing run of this family and seed recorded
    under .bench_build, keyed by the workload binary so a rebuilt
    program never meets another program's counts.
    """
    family = WORKLOADS[workload]
    if seed == DEFAULT_SEED:
        return json.loads(EXPECTED.read_text())[family], None
    digest = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    path = BUILD / "counts" / f"{family}-seed{seed}-{digest}.json"
    if path.is_file():
        return json.loads(path.read_text()), None
    return None, path


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def per_call_ns(profile, phase):
    calls, ns = profile[phase]
    return ratio(ns, calls)


def host_scale(r):
    """How much slower than the quiet reference host this run's host was."""
    return r["ref_s"] / REFERENCE_S


def end_to_end(runs):
    return {
        "sim_speed": (median([r["sim_s"] / r["wall_s"] * host_scale(r)
                              for r in runs]), "sim_s/s"),
        "cpu_s_per_sim_s": (median([r["cpu_s"] / r["sim_s"] / host_scale(r)
                                    for r in runs]), "s/sim_s"),
        "peak_rss_mb": (median([r["rss_peak_kb"] * 1024 / 1e6 for r in runs]),
                        "MB"),
        "setup_s": (median([r["setup"]["total_s"] for r in runs]), "s"),
    }


def layer_values(r):
    """Per-layer ledger of one traced run.

    Self time is derived only where the profiler's scopes nest strictly:
    shard_exec contains event_queue; event_queue contains on_ack,
    churn_arrival and churn_teardown; seal_mi contains rate_control.
    """
    c, p = r["counts"], r["profile"]
    eq_calls, eq_ns = p["event_queue"]
    eq_children = sum(p[k][1] for k in
                      ("on_ack", "churn_arrival", "churn_teardown"))
    exec_calls, exec_ns = p["shard_exec"]
    windows = c["barrier_windows"] + c["windows_fast_forwarded"]
    return {
        "sim.events": (c["events"], "count"),
        "sim.event_queue.ns_per_event": (ratio(eq_ns, eq_calls), "ns"),
        "sim.event_queue.self_ns_per_event":
            (ratio(eq_ns - eq_children, eq_calls), "ns"),
        "sim.link.delivered_packets": (c["link_delivered"], "count"),
        "sim.link.tail_drops": (c["link_tail_drops"], "count"),
        "sim.link.delivery_ratio":
            (ratio(c["link_delivered"], c["link_offered"]), "ratio"),
        "transport.on_ack.ns_per_call": (per_call_ns(p, "on_ack"), "ns"),
        "transport.acks": (p["on_ack"][0], "count"),
        "transport.packets_sent": (c["packets_sent"], "count"),
        "transport.packets_lost": (c["packets_lost"], "count"),
        "transport.rtt_sample_mb": (c["rtt_sample_bytes"] / 1e6, "MB"),
        "core.seal_mi.ns_per_call": (per_call_ns(p, "seal_mi"), "ns"),
        "core.rate_control.ns_per_call": (per_call_ns(p, "rate_control"), "ns"),
        "core.rate_decisions_per_seal_call":
            (ratio(p["rate_control"][0], p["seal_mi"][0]), "ratio"),
        "sim.shard.barrier_windows": (c["barrier_windows"], "count"),
        "sim.shard.windows_fast_forwarded":
            (c["windows_fast_forwarded"], "count"),
        "sim.shard.fast_forward_ratio":
            (ratio(c["windows_fast_forwarded"], windows), "ratio"),
        "sim.shard.exec.self_ms":
            ((exec_ns - eq_ns) / 1e6 if exec_calls else 0.0, "ms"),
        "sim.shard.drain.ns_per_call": (per_call_ns(p, "shard_drain"), "ns"),
        "sim.shard.barrier.ms": (p["shard_barrier"][1] / 1e6, "ms"),
        "sim.shard.cpu_util":
            (r["cpu_s"] / (r["wall_s"] * r["threads"])
             if r["threads"] > 1 else 0.0, "ratio"),
        "harness.churn.spawned": (c["churn_spawned"], "count"),
        "harness.churn.completed": (c["churn_completed"], "count"),
        "harness.churn.skipped": (c["churn_skipped"], "count"),
        "harness.churn.recycled": (c["churn_recycled"], "count"),
        "harness.churn.peak_live": (c["churn_peak_live"], "count"),
        "harness.churn.recycle_ratio":
            (ratio(c["churn_recycled"], c["churn_spawned"]), "ratio"),
        "harness.churn.arrival.ns_per_call":
            (per_call_ns(p, "churn_arrival"), "ns"),
        "harness.churn.teardown.ns_per_call":
            (per_call_ns(p, "churn_teardown"), "ns"),
        "harness.churn.rss_bytes_per_live_flow":
            (ratio((r["rss_peak_kb"] - r["rss_setup_kb"]) * 1024,
                   c["churn_peak_live"]), "B"),
        "harness.setup.scenario_s": (r["setup"]["scenario_s"], "s"),
        "harness.setup.flows_s": (r["setup"]["flows_s"], "s"),
        "harness.setup.churn_driver_s": (r["setup"]["churn_driver_s"], "s"),
    }


def layer_medians(runs):
    rows = [layer_values(r) for r in runs]
    return {name: (median([row[name][0] for row in rows]), unit)
            for name, (_, unit) in rows[0].items()}


def per_layer(runs):
    out = layer_medians(runs["armed"])
    if runs.get("twin"):
        twin = layer_medians(runs["twin"])
        out.update({name: twin[name] for name in THREAD_METRICS})
    out["trace.overhead"] = (
        ratio(median([r["wall_s"] for r in runs["armed"]]),
              median([r["wall_s"] for r in runs["plain"]])) - 1.0, "ratio")
    out["host.reference_s"] = (
        median([r["ref_s"] for rs in runs.values() for r in rs]), "s")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 2

    # (kind, workload, profiler armed) in rotation, armed first.
    rotation = [("plain", args.workload, False)]
    if args.trace:
        rotation.insert(0, ("armed", args.workload, True))
        if args.workload in THREADED_TWIN:
            rotation.append(("twin", THREADED_TWIN[args.workload], True))
    min_runs = len(rotation) if args.trace else MIN_RUNS
    expected, record_path = reference_counts(args.workload, args.seed)
    start = time.monotonic()
    runs = {kind: [] for kind, _, _ in rotation}
    durations = []
    attempted = failed = 0
    ref_before = reference_s()
    while True:
        elapsed = time.monotonic() - start
        if attempted >= min_runs and elapsed + median(durations) > args.seconds:
            break
        if elapsed > TOTAL_LIMIT_S:
            break
        kind, workload, armed = rotation[attempted % len(rotation)]
        attempted += 1
        rec = run_once(workload, args.seed, armed,
                       timeout=HARD_LIMIT_S - elapsed)
        # The host's speed around this run: references just before and after.
        ref_after = reference_s()
        if rec is not None:
            if ref_before is None or ref_after is None:
                log("host-speed reference failed")
                rec = None
            else:
                rec["ref_s"] = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        durations.append(time.monotonic() - start - elapsed)
        if rec is not None and expected is None:
            expected = rec["counts"]
        if rec is None or rec["counts"] != expected:
            if rec is not None:
                log(f"{workload}: work counts differ from the "
                    f"reference: {rec['counts']} vs {expected}")
            failed += 1
            continue
        runs[kind].append(rec)
        log(f"{workload} run {attempted} {kind}: "
            f"{rec['sim_s'] / rec['wall_s']:.4g} sim_s/s raw, "
            f"{rec['wall_s']:.3g} s wall, host scale {host_scale(rec):.3f}")

    correct = failed == 0 and attempted > 0
    if correct and record_path is not None:
        record_path.parent.mkdir(parents=True, exist_ok=True)
        record_path.write_text(json.dumps(expected, sort_keys=True) + "\n")

    if not all(runs.values()):
        values = {}
    elif args.trace:
        values = per_layer(runs)
    else:
        values = end_to_end(runs["plain"])
    metrics = {name: {"value": v, "unit": unit}
               for name, (v, unit) in values.items()}
    log(f"{args.workload} seed {args.seed}: "
        + ", ".join(f"{len(v)} {k}" for k, v in runs.items())
        + f" runs in {time.monotonic() - start:.1f} s")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
