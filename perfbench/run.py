#!/usr/bin/env python3
"""The repository benchmark: builds the program from source and runs one
workload of it from outside, timing the calls into each layer.

    python3 perfbench/run.py --workload cold_table2|served_search|fleet_table2
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. `--seconds` is the least time one run
measures: the workload's timed iteration runs at least twice, each time in
fresh processes on fresh private directories, and until that much time
has passed.
With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` the run makes one untraced and one traced iteration and
reports the per-layer metrics instead. Build output, private run directories, results
and traces go under $CARGO_TARGET_DIR (default `.bench_build`)."""

import argparse
import json
import os
import subprocess
import sys
import time
import tomllib

import measure
import workloads

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "job_p50_s": "s",
}

PER_LAYER = {
    "knowledge.corpus_s": "s",
    "knowledge.corpus_records": "count",
    "knowledge.embed_s": "s",
    "scale.prepare_s": "s",
    "scale.prepare_calls": "count",
    "harness.grid_s": "s",
    "harness.grid_task_max_s": "s",
    "harness.search_s": "s",
    "harness.final_rows_s": "s",
    "harness.final_rows": "count",
    **{f"core.{algo}.{name}": unit for algo in workloads.ALGOS for name, unit in (
        ("run_s", "s"), ("rounds", "count"), ("evals", "count"),
        ("feasible_frac", "ratio"), ("units_per_s", "units/s"))},
    "memo.lookups": "count",
    "memo.prefix_hits": "count",
    "memo.hit_rate": "ratio",
    "store.publishes": "count",
    "store.hits": "count",
    "store.misses": "count",
    "store.hit_rate": "ratio",
    "serve.submit_rtt_ms": "ms",
    "serve.queue_wait_s": "s",
    "serve.reask_s": "s",
    "serve.frames": "count",
    "serve.frame_bytes": "bytes",
    "serve.busy": "count",
    "transport.start_s": "s",
    "transport.run_s": "s",
    "transport.units": "count",
    "transport.worker_cpu_s": "s",
    "transport.worker_idle_frac": "ratio",
    "trace.overhead_s": "s",
}

WORKLOADS = {
    "cold_table2": workloads.cold_table2,
    "served_search": workloads.served_search,
    "fleet_table2": workloads.fleet_table2,
}


def build(root, target):
    """Build the probe (with the root manifest's release profile) and the
    serve daemon. Cargo's output goes to stderr."""
    with open(os.path.join(root, "Cargo.toml"), "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    probe_env = dict(env)
    for key, value in profile.items():
        if isinstance(value, bool):
            value = str(value).lower()
        if isinstance(value, (str, int)):
            probe_env["CARGO_PROFILE_RELEASE_" + key.upper().replace("-", "_")] = str(value)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    for cmd, cmd_env in (
        (cargo + ["--manifest-path", os.path.join(root, "perfbench/probe/Cargo.toml")],
         probe_env),
        (cargo + ["--manifest-path", os.path.join(root, "Cargo.toml"), "-p", "automc-serve"],
         env),
    ):
        subprocess.run(cmd, env=cmd_env, cwd=root, stdout=sys.stderr, check=True)
    release = os.path.join(target, "release")
    return os.path.join(release, "perfbench-probe"), os.path.join(release, "automc-serve")


def end_to_end(samples):
    """Each end-to-end metric's value and the samples it summarises."""
    runs = {
        "wall_s": [s["wall_s"] for s in samples],
        "setup_s": [t for s in samples for t in s.get("setup_s", [])],
        "cpu_s": [s["cpu_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "job_p50_s": [t for s in samples for t in s["jobs_s"]],
    }
    values = {k: measure.median(v) for k, v in runs.items()}
    # Mean, not median: which process or pool thread runs the largest units
    # varies, so one iteration's peak lands on one of a few levels up to
    # ~15% apart.
    values["peak_rss_mb"] = sum(runs["peak_rss_mb"]) / len(runs["peak_rss_mb"])
    return values, runs


def load_split(name, out):
    """The traced run's check of the intended load split, as text."""
    lines = []
    spans = out["spans"]
    self_t = measure.self_times(spans)
    top = max(range(len(spans)), key=lambda i: self_t[i])
    lines.append(f"largest self time: {spans[top]['name']} {self_t[top]:.3f} s")
    if "traced_wall_s" in out:
        cov = measure.top_level_coverage(out.get("coverage_spans", spans), out["traced_wall_s"])
        lines.append(f"top-level span coverage: {cov:.1%} of {out['traced_wall_s']:.3f} s")
    if name == "served_search":
        layers = out["layers"]
        jobs = [s for s in spans if s["name"].startswith("serve::job.")]
        total = sum(s["end"] - s["start"] for s in jobs)
        waits = sum(s["end"] - s["start"] for s in spans if s["name"] == "serve::queue_wait")
        search = total - waits - len(jobs) * layers["scale.prepare_s"]
        lines.append(f"search share of job time: {search / total:.1%} of {total:.3f} s")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        probe, serve = build(root, target)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: cannot build the program: {e}", file=sys.stderr)
        return 2

    work = os.path.join(target, "perfbench")
    bench = workloads.Bench(root, work, probe, serve, args.seed)
    ok = False
    try:
        # A traced run reports per-layer metrics only: one untraced
        # iteration is enough to compare its outputs and wall time against.
        seconds = 0 if args.trace else args.seconds
        out = WORKLOADS[args.workload](bench, seconds, args.trace == 1)
        ok = True
    except workloads.StepFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        bench.close(keep=not ok)

    runs = {}
    if args.trace:
        # A layer the workload bypasses reads 0: no span, no counter.
        assert set(out["layers"]) <= set(PER_LAYER), sorted(set(out["layers"]) - set(PER_LAYER))
        values = {k: out["layers"].get(k, 0) for k in PER_LAYER}
        units = PER_LAYER
    else:
        (values, runs), units = end_to_end(out["samples"]), END_TO_END
    assert all(measure.valid_metric_name(k) for k in units)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    digest = measure.digest(out["table"])
    stamp = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    out["threads"]["available_cpus"] = len(os.sched_getaffinity(0))
    print("pinned threads: " + ", ".join(f"{k}={v}" for k, v in out["threads"].items()))
    print(f"iterations: {len(out['samples'])}; jobs per iteration: "
          f"{len(out['samples'][0]['jobs_s'])}")
    for k in units:
        line = f"  {k:<28} {values[k]:>14.6g} {units[k]}"
        if len(runs.get(k, ())) > 1:
            line += f"  (n={len(runs[k])}, spread {measure.spread(runs[k]):.3f})"
        print(line)
    if args.trace:
        for line in load_split(args.workload, out):
            print(line)
        os.makedirs(os.path.join(work, "traces"), exist_ok=True)
        with open(os.path.join(work, "traces", stamp + ".json"), "w") as f:
            json.dump(out["spans"], f)
    print(f"result digest: {digest}")
    print(f"operations: {bench.attempted} attempted, {bench.failed} failed")
    os.makedirs(os.path.join(work, "results"), exist_ok=True)
    with open(os.path.join(work, "results", stamp + ".json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "threads": out["threads"], "digest": digest, "metrics": metrics,
                   "samples": out["samples"], "attempted": bench.attempted,
                   "failed": bench.failed, "at": time.time()}, f)
    correct = bench.failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
