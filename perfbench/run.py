#!/usr/bin/env python3
"""Repository benchmark for the Macaron simulator.

Run from the repository root:

    python3 perfbench/run.py --workload stream-replay --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and the simulator libraries it links from src/) in
Release, generates the workload's inputs from the seed once (cached as MCTC
files in the build directory), then:

  --trace 0  repeats the workload in fresh processes for --seconds and prints
             the median of each end-to-end metric;
  --trace 1  makes one traced pass (serial engine runs and the serial layer
             replica, or the traced sweep) and prints the per-layer metrics.

The last line of stdout is the result object: {"correct", "attempted",
"failed", "metrics"}. The line before it records provenance, the inputs'
identities and every repetition. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("stream-replay", "event-cluster", "sweep-cold")
ENGINE_WORKLOADS = ("stream-replay", "event-cluster")
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
SERIAL_PAIRS = 3  # untraced/traced serial engine runs in a traced pass
KEEP_SEEDS = 3  # input sets kept per workload; older ones are deleted

# Gated metrics. Wall-clock throughput follows hypervisor steal on shared
# VMs far more than the program, so it is recorded in the detail line only.
END_TO_END = {
    "cpu_s_per_mreq": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# Every per-layer metric, reported on every workload; 0 where the workload
# bypasses the layer (README.md says which).
PER_LAYER = {
    "trace.decode_ns_per_req": "ns",
    "trace.decode_us_per_chunk.p50": "us",
    "trace.decode_us_per_chunk.tail": "us",
    "trace.load_s": "s",
    "trace.stats_s": "s",
    "trace.stats_ms_per_engine_job": "ms",
    "osc.serve_ns_per_req": "ns",
    "osc.serve_ns_per_req.p50": "ns",
    "osc.serve_ns_per_req.tail": "ns",
    "osc.maintain_ms_per_window": "ms",
    "osc.maintain_ms_per_window.p50": "ms",
    "osc.maintain_ms_per_window.tail": "ms",
    "osc.block_flushes": "count",
    "osc.gc_blocks": "count",
    "cluster.serve_ns_per_req": "ns",
    "cluster.serve_ns_per_req.p50": "ns",
    "cluster.serve_ns_per_req.tail": "ns",
    "cluster.rescale_ms_per_reconfig": "ms",
    "cluster.rescale_ms_per_reconfig.p50": "ms",
    "cluster.rescale_ms_per_reconfig.tail": "ms",
    "cluster.primed_objects": "count",
    "cache.inflight_ns_per_req": "ns",
    "cloudsim.sample_ns": "ns",
    "cloudsim.sample_ns.p50": "ns",
    "cloudsim.sample_ns.tail": "ns",
    "cloudsim.samples_per_req": "1/req",
    "controller.observe_ns_per_req": "ns",
    "controller.observe_us_per_segment.p50": "us",
    "controller.observe_us_per_segment.tail": "us",
    "controller.reconfigure_ms_per_window": "ms",
    "controller.reconfigure_ms_per_window.p50": "ms",
    "controller.reconfigure_ms_per_window.tail": "ms",
    "controller.optimizations": "count",
    "minisim.sampled_per_req": "1/req",
    "sim.self_ns_per_req": "ns",
    "sim.serial_ns_per_req": "ns",
    "sim.parallel_speedup": "x",
    "sim.replica_mismatches": "count",
    "sweep.submit_ms_per_job": "ms",
    "sweep.submit_ms_per_job.p50": "ms",
    "sweep.submit_ms_per_job.tail": "ms",
    "sweep.job_ms.p50": "ms",
    "sweep.job_ms.p80": "ms",
    "sweep.idle_frac": "fraction",
    "sweep.dedup_ratio": "fraction",
    "oracle.exact_ms_per_job": "ms",
    "oracle.oracular_ms_per_job": "ms",
    "obs.trace_overhead_frac": "fraction",
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


def run_child(cmd, timeout=CHILD_TIMEOUT_S):
    """Runs one benchmark process; returns its last stdout line as JSON."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} did not finish within {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def build(root):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("the simulator sources (src/) are not next to perfbench/; "
             "run from the repository root")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = root / out
    build_dir = out / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", str(build_dir), "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False).returncode:
            fail("build failed: " + " ".join(cmd))
    return out, build_dir / "perfbench"


def input_dir(out, workload, seed):
    """The seed's cached inputs; keeps only the KEEP_SEEDS most recently used."""
    base = out / "inputs" / workload
    d = base / f"seed-{seed}"
    d.mkdir(parents=True, exist_ok=True)
    os.utime(d)
    others = sorted((p for p in base.iterdir() if p.is_dir() and p != d),
                    key=lambda p: p.stat().st_mtime, reverse=True)
    for old in others[KEEP_SEEDS - 1:]:
        shutil.rmtree(old, ignore_errors=True)
    return d


def source_digest(root):
    """SHA-256 over the sources the benchmark builds (the checkout may lack git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((root / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit(root):
    # Without its own .git, git would report the commit of an enclosing repository.
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def check_digest(inputs, workload, source_sha, digest):
    """Outputs of one seed must be byte-identical across every run of one
    source version. A difference from another version's outputs is only
    reported, because a change may alter outputs on purpose."""
    f = inputs / f"{workload}.{source_sha[:16]}.digest"
    if not f.exists():
        f.write_text(digest)
        for other in inputs.glob(f"{workload}.*.digest"):
            if other != f and other.read_text().strip() != digest:
                log(f"diagnostic: outputs differ from those of source {other.name.split('.')[1]}")
        return True
    return f.read_text().strip() == digest


def steal_seconds():
    """CPU time the hypervisor took from this VM's vCPUs so far (0 if unknown).

    Recorded with each repetition: steal stretches wall time (req_per_s) but
    not CPU time, and it marks the spells in which other tenants' contention
    raises CPU time too.
    """
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def timed(binary, args, inputs, source_sha):
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < args.seconds:
        steal = steal_seconds()
        rep = run_child([str(binary), "timed", args.workload, str(args.seed), str(inputs)])
        rep["steal_s"] = steal_seconds() - steal
        reps.append(rep)
    failed = 0
    attempted = 0
    for r in reps:
        r["req_per_s"] = r["requests"] / r["timed_s"]
        same = check_digest(inputs, args.workload, source_sha, r["digest"])
        if not same:
            r["errors"].append("output digest differs from an earlier run of this seed")
        if args.workload == "sweep-cold":
            attempted += r["jobs"]
            failed += r["jobs"] if not same else r["failed_jobs"]
        else:
            attempted += 1
            failed += 0 if (r["ok"] and same) else 1
    values = {
        "cpu_s_per_mreq": [r["cpu_s"] / (r["requests"] / 1e6) for r in reps],
        "peak_rss_mib": [r["peak_rss_mib"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
    }
    metrics = {k: {"value": statistics.median(v), "unit": END_TO_END[k]} for k, v in values.items()}
    detail = {"req_per_s": statistics.median(r["req_per_s"] for r in reps),
              "setup_wall_s": statistics.median(r["setup_wall_s"] for r in reps),
              "steal_s": statistics.median(r["steal_s"] for r in reps), "reps": reps}
    return metrics, attempted, failed, detail


def diff_counters(engine, replica):
    keys = ("gets", "cluster_hits", "osc_hits", "remote_fetches", "delayed_hits", "reconfigs")
    diff = {k: [engine[k], replica[k]] for k in keys if engine[k] != replica[k]}
    if engine["osc_capacity"] != replica["osc_capacity"]:
        pairs = list(zip(engine["osc_capacity"], replica["osc_capacity"]))
        first = next((i for i, (e, r) in enumerate(pairs) if e != r), len(pairs))
        diff["osc_capacity_windows"] = {
            "engine": len(engine["osc_capacity"]), "replica": len(replica["osc_capacity"]),
            "first_differing_window": first}
    return diff


def traced_engine(binary, args, inputs, source_sha):
    base = [args.workload, str(args.seed), str(inputs)]
    parallel = run_child([str(binary), "timed", *base])
    # Untraced and traced serial runs alternate, so a slow spell on the
    # machine hits both alike; their medians give the tracing overhead.
    serial_runs, traced_runs = [], []
    for _ in range(SERIAL_PAIRS):
        serial_runs.append(run_child([str(binary), "serial", *base]))
        traced_runs.append(run_child([str(binary), "traced", *base]))
    rep = run_child([str(binary), "replica", *base])
    runs = [parallel, *serial_runs, *traced_runs]
    failed = sum(0 if r["ok"] else 1 for r in runs)
    if len({r["digest"] for r in runs}) != 1 or not check_digest(
            inputs, args.workload, source_sha, parallel["digest"]):
        log("serial and parallel runs disagree on outputs")
        failed += 1
    traced = traced_runs[0]
    serial_s = statistics.median(r["timed_s"] for r in serial_runs)
    traced_s = statistics.median(r["timed_s"] for r in traced_runs)
    decode_ns = statistics.median(r["decode_ns_total"] for r in traced_runs)
    n = traced["requests"]
    windows = max(rep["windows"], 1)
    busy = (decode_ns + rep["busy.observe"] + rep["busy.reconfigure"] +
            rep["busy.osc_serve"] + rep["busy.osc_maintain"] + rep["busy.cluster_serve"] +
            rep["busy.cluster_rescale"] + rep["busy.inflight"] + rep["busy.serving_draws"])
    serial_ns = serial_s * 1e9
    rescales = max(rep["rescale_ns.n"], 1)
    m = {
        "trace.decode_ns_per_req": decode_ns / n,
        "trace.decode_us_per_chunk.p50": traced["decode_ns_per_chunk.p50"] / 1e3,
        "trace.decode_us_per_chunk.tail": traced["decode_ns_per_chunk.tail"] / 1e3,
        "trace.load_s": traced["load_s"],
        "trace.stats_s": traced["stats_s"],
        "trace.stats_ms_per_engine_job": traced["stats_s"] * 1e3,
        "osc.serve_ns_per_req": rep["busy.osc_serve"] / n,
        "osc.serve_ns_per_req.p50": rep["osc_req_ns.p50"],
        "osc.serve_ns_per_req.tail": rep["osc_req_ns.tail"],
        "osc.maintain_ms_per_window": rep["busy.osc_maintain"] / windows / 1e6,
        "osc.maintain_ms_per_window.p50": rep["maintain_ns.p50"] / 1e6,
        "osc.maintain_ms_per_window.tail": rep["maintain_ns.tail"] / 1e6,
        "osc.block_flushes": traced["osc.block_flushes"],
        "osc.gc_blocks": traced["osc.gc_blocks"],
        "cluster.serve_ns_per_req": rep["busy.cluster_serve"] / n,
        "cluster.serve_ns_per_req.p50": rep["cluster_req_ns.p50"],
        "cluster.serve_ns_per_req.tail": rep["cluster_req_ns.tail"],
        "cluster.rescale_ms_per_reconfig": rep["busy.cluster_rescale"] / rescales / 1e6,
        "cluster.rescale_ms_per_reconfig.p50": rep["rescale_ns.p50"] / 1e6,
        "cluster.rescale_ms_per_reconfig.tail": rep["rescale_ns.tail"] / 1e6,
        "cluster.primed_objects": traced["cluster.primed_objects"],
        "cache.inflight_ns_per_req": rep["busy.inflight"] / n,
        "cloudsim.sample_ns": rep["draw_ns_mean"],
        "cloudsim.sample_ns.p50": rep["draw_ns.p50"],
        "cloudsim.sample_ns.tail": rep["draw_ns.tail"],
        "cloudsim.samples_per_req": rep["draws"] / n,
        "controller.observe_ns_per_req": rep["busy.observe"] / n,
        "controller.observe_us_per_segment.p50": rep["observe_ns.p50"] / 1e3,
        "controller.observe_us_per_segment.tail": rep["observe_ns.tail"] / 1e3,
        "controller.reconfigure_ms_per_window": rep["busy.reconfigure"] / windows / 1e6,
        "controller.reconfigure_ms_per_window.p50": rep["reconfigure_ns.p50"] / 1e6,
        "controller.reconfigure_ms_per_window.tail": rep["reconfigure_ns.tail"] / 1e6,
        "controller.optimizations": traced["controller.optimizations"],
        "minisim.sampled_per_req": traced["minisim.sampled"] / n,
        "sim.self_ns_per_req": (serial_ns - busy) / n,
        "sim.serial_ns_per_req": serial_ns / n,
        "sim.parallel_speedup": serial_s / parallel["timed_s"],
        "obs.trace_overhead_frac": traced_s / serial_s - 1.0,
    }
    mismatch = diff_counters(traced, rep)
    m["sim.replica_mismatches"] = len(mismatch)
    # Replica fidelity diagnostic: never a failed operation.
    fidelity = {
        "engine": {k: traced[k] for k in ("gets", "cluster_hits", "osc_hits", "remote_fetches",
                                          "delayed_hits", "reconfigs")},
        "replica": {k: rep[k] for k in ("gets", "cluster_hits", "osc_hits", "remote_fetches",
                                        "delayed_hits", "reconfigs")},
        "osc_capacity_windows_equal": traced["osc_capacity"] == rep["osc_capacity"],
        "mismatch": mismatch,
        "layer_busy_s": busy / 1e9,
        "serial_engine_s": serial_s,
        "replica_serving_s": rep["serving_ns"] / 1e9,
        "replica_wall_s": rep["wall_s"],
    }
    counts = {
        "decode_chunks": traced["decode_ns_per_chunk.n"],
        "osc_sampled_requests": rep["osc_req_ns.n"],
        "cluster_sampled_requests": rep["cluster_req_ns.n"],
        "draws_timed": rep["draw_ns.n"],
        "observe_segments": rep["observe_ns.n"],
        "windows": rep["reconfigure_ns.n"],
        "rescales": rep["rescale_ns.n"],
    }
    log("replica fidelity: " + json.dumps(fidelity, sort_keys=True))
    return m, len(runs), failed, {"fidelity": fidelity, "sample_counts": counts,
                                  "runs": runs, "replica": rep}


def traced_sweep(binary, args, inputs, source_sha):
    r = run_child([str(binary), "traced", args.workload, str(args.seed), str(inputs)])
    if not check_digest(inputs, args.workload, source_sha, r["digest"]):
        r["failed_jobs"] = r["jobs"]
    m = {
        "trace.load_s": r["load_s"],
        "trace.stats_s": r["stats_s"],
        "trace.stats_ms_per_engine_job": r["stats_ms_per_engine_job"],
        "sweep.submit_ms_per_job": r["submit_ms_per_job"],
        "sweep.submit_ms_per_job.p50": r["submit_ms.p50"],
        "sweep.submit_ms_per_job.tail": r["submit_ms.tail"],
        "sweep.job_ms.p50": r["job_ms.p50"],
        "sweep.job_ms.p80": r["job_ms.p80"],
        "sweep.idle_frac": r["idle_frac"],
        "sweep.dedup_ratio": r["dedup_ratio"],
        "oracle.exact_ms_per_job": r["exact_ms_per_job"],
        "oracle.oracular_ms_per_job": r["oracular_ms_per_job"],
        "sim.parallel_speedup": r["busy_s"] / r["timed_s"],
    }
    counts = {"submits": r["submit_ms.n"], "executed_jobs": r["job_ms.n"]}
    return m, r["jobs"], r["failed_jobs"], {"sample_counts": counts, "run": r}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    root = pathlib.Path.cwd()
    out, binary = build(root)
    inputs = input_dir(out, args.workload, args.seed)
    gen = run_child([str(binary), "gen", args.workload, str(args.seed), str(inputs)])
    info = run_child([str(binary), "info"])
    if info["build_type"] != "Release":
        fail(f"benchmark numbers come from Release builds, not {info['build_type']}")
    info["git_commit"] = git_commit(root)
    sha = info["source_sha256"] = source_digest(root)

    if args.trace == 0:
        metrics, attempted, failed, detail = timed(binary, args, inputs, sha)
    else:
        if args.workload in ENGINE_WORKLOADS:
            layer, attempted, failed, detail = traced_engine(binary, args, inputs, sha)
        else:
            layer, attempted, failed, detail = traced_sweep(binary, args, inputs, sha)
        metrics = {k: {"value": float(layer.get(k, 0.0)), "unit": u} for k, u in PER_LAYER.items()}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": info, "inputs": gen["inputs"], "detail": detail}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
