"""The three workloads. Each runs the program in fresh processes with
private result, memo-spill and journal directories, checks every output,
and returns its end-to-end samples and, traced, its per-layer metrics.

Thread counts are pinned, never "auto": the knowledge set-up call and the
cold table use a 2-thread `par` pool; each served job and each fleet
worker gets 1 thread, so the pool layer is loaded only by cold_table2."""

import json
import os
import random
import shutil
import signal
import socket
import subprocess
import threading
import time

import measure

POOL_THREADS = 2
JOB_THREADS = 1
EXECUTORS = 2
WORKERS = 2
# Raises the smoke search budget so the four searches, F_mo and the memo
# do nearly all of served_search's work.
SERVED_BUDGET = 12000
# Two closed-loop clients; each third job re-asks the first under a new
# label, so it reads what the first job wrote to the daemon-wide memo.
CLIENTS = {"A": ("automc", "rl", "automc"), "B": ("evolution", "random", "evolution")}
ALGOS = ("automc", "evolution", "rl", "random")
ALGO_NAMES = {"automc": "AutoMC", "evolution": "Evolution", "rl": "RL", "random": "Random"}
STEP_TIMEOUT_S = 150
# Iterations per untraced run, at the least: on a shared 2-vCPU VM the
# throughput was seen to drift 20-30% within a minute, which leaves a single
# ~20 s cold iteration too exposed.
MIN_ITERATIONS = 2
# The program's master seed is fixed: from one seed to the next the smoke
# pipeline's work changes by up to 70% (other data, other search paths),
# far more than any regression bound. The workload seed varies only what
# costs the same: the served job labels (hence job ids and journal
# directories) and which served client connects first.
PROGRAM_SEED = 42


class StepFailed(Exception):
    """A program process failed or timed out: the run cannot go on."""


def listing(root):
    """Every file and directory below `root`, as sorted relative paths."""
    out = []
    for dirpath, dirnames, filenames in os.walk(root):
        rel = os.path.relpath(dirpath, root)
        for name in dirnames + filenames:
            out.append(os.path.normpath(os.path.join(rel, name)))
    return sorted(out)


def repeat(seconds, iteration, least):
    """Call `iteration(i)` at least `least` times and until `seconds` have
    passed; return the samples."""
    samples = []
    start = time.monotonic()
    while len(samples) < least or time.monotonic() - start < seconds:
        samples.append(iteration(len(samples)))
    return samples


def table_of(report):
    return [report["band40"], report["band70"]]


def table_checks(table):
    band40, band70 = table
    names = [row["algorithm"] for row in band40 + band70]
    return [
        (len(band40) == 11 and len(band70) == 10,
         f"table has {len(band40)} + {len(band70)} rows, want 11 + 10"),
        (bool(band40) and band40[0]["algorithm"] == "baseline", "baseline row is not first"),
        (not any("unavailable" in n for n in names), "table has degraded 'unavailable' rows"),
    ]


class Bench:
    """One benchmark run: its private directory, the processes it started,
    and its tally of operations attempted and failed."""

    def __init__(self, root, work_dir, probe, serve, seed):
        self.root = root
        self.probe = probe
        self.serve = serve
        self.seed = seed
        self.dir = os.path.join(work_dir, f"run-{os.getpid()}-{time.time_ns()}")
        os.makedirs(self.dir)
        self.live = set()
        self.attempted = 0
        self.failed = 0

    # -- bookkeeping ------------------------------------------------------

    def op(self, what, checks):
        """Count one operation; it fails if any of its checks fails."""
        self.attempted += 1
        bad = [msg for ok, msg in checks if not ok]
        if bad:
            self.failed += 1
            print(f"[perfbench] FAILED {what}: {'; '.join(bad)}", flush=True)
        return not bad

    def path(self, name):
        return os.path.join(self.dir, name)

    def fresh(self, name):
        d = self.path(name)
        os.makedirs(d)
        return d

    def warm(self, name, setup_dir):
        d = self.path(name)
        shutil.copytree(setup_dir, d)
        return d

    # -- processes --------------------------------------------------------

    def env(self, results_dir, threads, extra=None):
        # Program settings come only from here: inherited AUTOMC_* knobs are
        # dropped, and so is CARGO_TARGET_DIR, which the result cache would
        # otherwise fall back to.
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("AUTOMC_", "PERFBENCH_", "CARGO_"))}
        env["AUTOMC_RESULTS_DIR"] = results_dir
        env["AUTOMC_THREADS"] = str(threads)
        env.update(extra or {})
        return env

    def spawn(self, cmd, env, name):
        with open(self.path(name + ".out"), "wb") as out, \
                open(self.path(name + ".err"), "wb") as err:
            proc = subprocess.Popen(cmd, env=env, cwd=self.root, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, start_new_session=True)
        self.live.add(proc.pid)
        return proc.pid

    def reap(self, pid, timeout_s=STEP_TIMEOUT_S):
        """Wait for `pid`; return (exit code, rusage of its process tree)."""
        deadline = time.monotonic() + timeout_s
        while True:
            wpid, status, usage = os.wait4(pid, os.WNOHANG)
            if wpid == pid:
                self.live.discard(pid)
                return os.waitstatus_to_exitcode(status), usage
            if time.monotonic() > deadline:
                self.kill(pid)
                raise StepFailed(f"process {pid} timed out after {timeout_s} s")
            time.sleep(0.01)

    def kill(self, pid):
        """Kill a process group started by `spawn` and wait until every
        member has ended."""
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if pid in self.live:
            os.waitpid(pid, 0)
            self.live.discard(pid)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)

    def close(self, keep):
        for pid in list(self.live):
            self.kill(pid)
        if not keep:
            shutil.rmtree(self.dir, ignore_errors=True)

    def step(self, step, results_dir, threads, name, trace=False, args=(), extra_env=None):
        """Run one probe step; return (its report, its tree's rusage)."""
        env = self.env(results_dir, threads, extra_env)
        env.update(PERFBENCH_STEP=step, PERFBENCH_TRACE="1" if trace else "0",
                   PERFBENCH_RUN_ID=name)
        cmd = [self.probe, "--seed", str(PROGRAM_SEED), "--threads", str(threads), *args]
        pid = self.spawn(cmd, env, name)
        code, usage = self.reap(pid)
        if code != 0:
            raise StepFailed(f"{name}: probe step {step!r} exited with {code} "
                             f"(see {self.path(name + '.err')})")
        with open(self.path(name + ".out")) as f:
            lines = f.read().splitlines()
        return json.loads(lines[-1]), usage

    # -- shared steps -----------------------------------------------------

    def knowledge(self, name):
        """The knowledge set-up call in a fresh process on an empty results
        dir. Its output files are the declared knowledge artifacts the warm
        workloads start from."""
        d = self.fresh(name)
        empty = listing(d) == []
        rep, _ = self.step("setup", d, POOL_THREADS, name)
        self.op(name, [(empty, "set-up dir not empty at start"),
                       (rep["corpus_records"] > 0, "empty experience corpus"),
                       (rep["threads"] == POOL_THREADS, f"par pool ran {rep['threads']} threads")])
        return rep, d

    def warm_step(self, step, name, setup_dir, threads, **kw):
        """A probe step on a copy of the knowledge artifacts, guarded to
        start with nothing else."""
        d = self.warm(name, setup_dir)
        isolated = listing(d) == listing(setup_dir)
        rep, usage = self.step(step, d, threads, name, **kw)
        return rep, usage, isolated


# ---------------------------------------------------------------------------
# cold_table2
# ---------------------------------------------------------------------------


def cold_iteration(b, name, trace, reference):
    d = b.fresh(name)
    empty = listing(d) == []
    rep, usage = b.step("cold", d, POOL_THREADS, name, trace)
    table = table_of(rep)
    checks = table_checks(table) + [
        (empty, "cold run found cache entries, journals or memo blobs at start"),
        (rep["corpus_records"] > 0, "empty experience corpus"),
        (rep["threads"] == POOL_THREADS, f"par pool ran {rep['threads']} threads"),
    ]
    if reference is not None:
        checks.append((table == reference, "table differs from the run's first table"))
    b.op(name, checks)
    tree = measure.tree_usage(usage)
    sample = {"wall_s": rep["setup_s"] + rep["table_s"], "setup_s": [rep["setup_s"]],
              "cpu_s": tree["cpu_s"], "peak_rss_mb": tree["peak_rss_mb"],
              "jobs_s": [rep["table_s"]]}
    return sample, rep, table


def cold_table2(b, seconds, trace):
    tables = []

    def iteration(i):
        sample, _, table = cold_iteration(b, f"cold-{i}", False, tables[0] if tables else None)
        tables.append(table)
        return sample

    samples = repeat(seconds, iteration, 1 if trace else MIN_ITERATIONS)
    reference = tables[0]
    out = {"samples": samples, "table": reference,
           "threads": {"par_pool": POOL_THREADS}}
    if trace:
        sample, rep, _ = cold_iteration(b, "cold-traced", True, reference)
        out["layers"] = table_layers(rep)
        out["layers"].update(knowledge_layers(rep))
        out["layers"]["trace.overhead_s"] = sample["wall_s"] - samples[0]["wall_s"]
        out["spans"] = rep["spans"]
        out["traced_wall_s"] = sample["wall_s"]
    return out


# ---------------------------------------------------------------------------
# fleet_table2
# ---------------------------------------------------------------------------


def fleet_iteration(b, name, setup_dir, trace, reference):
    # Traced, each worker writes its memo and store counters here at
    # shutdown. The supervisor kills workers that outlive its shutdown
    # grace, so a report can be missing; only complete ones ever appear.
    reports_dir = b.fresh(name + "-worker-reports")
    rep, usage, isolated = b.warm_step(
        "fleet", name, setup_dir, JOB_THREADS, trace=trace,
        args=("--workers", str(WORKERS)),
        extra_env={"PERFBENCH_WORKER_REPORTS": reports_dir} if trace else None)
    table = table_of(rep)
    b.op(name, table_checks(table) + [
        (isolated, "warm run found files beyond the knowledge artifacts at start"),
        (table == reference, "distributed table differs from the in-process table"),
        (rep["threads"] == JOB_THREADS, f"supervisor ran {rep['threads']} threads"),
    ])
    tree = measure.tree_usage(usage)
    sample = {"wall_s": rep["table_s"], "cpu_s": tree["cpu_s"],
              "peak_rss_mb": tree["peak_rss_mb"], "jobs_s": [rep["table_s"] - rep["start_s"]]}
    workers = []
    for f in sorted(os.listdir(reports_dir)):
        if not f.startswith("."):
            with open(os.path.join(reports_dir, f)) as fh:
                workers.append(json.load(fh))
    return sample, rep, workers


def fleet_table2(b, seconds, trace):
    setup, setup_dir = b.knowledge("setup")
    ref, _, isolated = b.warm_step("table", "reference", setup_dir, POOL_THREADS)
    reference = table_of(ref)
    b.op("reference", table_checks(reference) + [
        (isolated, "warm run found files beyond the knowledge artifacts at start")])
    samples = repeat(seconds, lambda i: fleet_iteration(
        b, f"fleet-{i}", setup_dir, False, reference)[0], 1 if trace else MIN_ITERATIONS)
    samples[0]["setup_s"] = [setup["setup_s"]]
    out = {"samples": samples, "table": reference,
           "threads": {"worker_threads": JOB_THREADS, "workers": WORKERS,
                       "setup_par_pool": POOL_THREADS}}
    if trace:
        traced_ref, _, _ = b.warm_step("table", "reference-traced", setup_dir,
                                       POOL_THREADS, trace=True)
        b.op("reference-traced", [(table_of(traced_ref) == reference,
                                   "traced table differs from the untraced table")])
        sample, rep, workers = fleet_iteration(b, "fleet-traced", setup_dir, True, reference)
        print(f"[perfbench] fleet worker reports: {len(workers)} of {WORKERS}", flush=True)
        layers = table_layers(traced_ref)
        layers.update(memo_store_layers(
            sum(w["memo_lookups"] for w in workers),
            sum(w["memo_prefix_hits"] for w in workers),
            sum(w["store_publishes"] for w in workers),
            sum(w["store_hits"] for w in workers),
            sum(w["store_misses"] for w in workers)))
        spans = {s["name"]: s["end"] - s["start"] for s in rep["spans"]}
        run_s = spans["orchestrator::table2_rows_dist"]
        worker_cpu = measure.ticks_to_s(sum(rep["cpu_ticks"][2:4]))
        layers.update({
            "transport.start_s": spans["transport::DistRunner::start"],
            "transport.run_s": run_s,
            "transport.units": rep["units"],
            "transport.worker_cpu_s": worker_cpu,
            "transport.worker_idle_frac": max(0.0, 1.0 - worker_cpu / (WORKERS * run_s)),
            "trace.overhead_s": sample["wall_s"] - samples[0]["wall_s"],
        })
        out["layers"] = layers
        out["spans"] = concat_spans(traced_ref["spans"], rep["spans"])
        out["coverage_spans"] = rep["spans"]
        out["traced_wall_s"] = sample["wall_s"]
    return out


# ---------------------------------------------------------------------------
# served_search
# ---------------------------------------------------------------------------


def client(addr, name, kinds, label, jobs):
    """One closed-loop client: each submit goes out only after the previous
    job's `done` frame. Appends one record per job to `jobs`."""
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=STEP_TIMEOUT_S) as sock:
        stream = sock.makefile("rb")

        def send(frame):
            sock.sendall((json.dumps(frame) + "\n").encode())

        def recv(rec):
            line = stream.readline()
            if not line:
                raise StepFailed("daemon closed the connection")
            rec["frames"] += 1
            rec["bytes"] += len(line)
            return json.loads(line)

        for i, kind in enumerate(kinds):
            rec = {"client": name, "index": i, "kind": kind, "frames": 0, "bytes": 0,
                   "busy": 0, "state": None, "result": None, "last_round": None}
            jobs.append(rec)
            rec["submit"] = time.perf_counter()
            send({"type": "submit", "spec": {"scale": "smoke", "seed": PROGRAM_SEED,
                                             "kind": kind, "fresh": True,
                                             "label": f"{label}-{name}{i}"}})
            frame = recv(rec)
            rec["ack"] = time.perf_counter()
            if frame.get("type") == "busy":
                rec["busy"] += 1
            if frame.get("type") != "submitted":
                rec["state"] = frame.get("type")
                continue
            send({"type": "watch", "job": frame["job"]})
            while True:
                frame = recv(rec)
                kind_of = frame.get("type")
                if kind_of == "state" and frame.get("state") == "running":
                    rec.setdefault("running", time.perf_counter())
                elif kind_of == "round":
                    rec["last_round"] = frame
                elif kind_of in ("done", "error"):
                    rec["done"] = time.perf_counter()
                    rec["state"] = frame.get("state", kind_of)
                    rec["result"] = frame.get("result")
                    break


def served_mix(b, name, setup_dir):
    d = b.warm(name, setup_dir)
    isolated = listing(d) == listing(setup_dir)
    addr_file = b.path(name + ".addr")
    env = b.env(d, JOB_THREADS, {"AUTOMC_SMOKE_BUDGET": str(SERVED_BUDGET)})
    t0 = time.perf_counter()
    pid = b.spawn([b.serve, "serve", "--jobs", str(EXECUTORS), "--threads", str(JOB_THREADS),
                   "--addr-file", addr_file], env, name)
    deadline = time.monotonic() + 30
    while not (os.path.exists(addr_file) and os.path.getsize(addr_file) > 0):
        if time.monotonic() > deadline or os.waitpid(pid, os.WNOHANG)[0] == pid:
            b.live.discard(pid)
            raise StepFailed(f"{name}: daemon did not start (see {b.path(name + '.err')})")
        time.sleep(0.002)
    with open(addr_file) as f:
        addr = f.read().strip()
    jobs_by_client = {c: [] for c in CLIENTS}
    errors = []

    def run(c):
        try:
            client(addr, c, CLIENTS[c], f"perfbench-{b.seed}", jobs_by_client[c])
        except (OSError, ValueError, StepFailed) as e:
            errors.append(f"client {c}: {e}")

    # The workload seed picks which client connects first.
    order = sorted(CLIENTS, key=lambda c: random.Random(f"{b.seed}{c}").random())
    threads = [threading.Thread(target=run, args=(c,)) for c in order]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    try:
        host, port = addr.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(b'{"type":"shutdown"}\n')
            sock.makefile("rb").readline()
    except OSError as e:
        errors.append(f"shutdown: {e}")
    code, usage = b.reap(pid)
    jobs = [j for c in CLIENTS for j in jobs_by_client[c]]
    for j in jobs:
        checks = [(j["state"] == "done", f"ended {j['state']!r}, want 'done'"),
                  (j["busy"] == 0, "submit answered busy"),
                  (j["result"] is not None, "no result payload")]
        if j["index"] == 2:
            first = jobs_by_client[j["client"]][0]
            checks.append((j["result"] == first["result"],
                           "re-ask result differs from the original's"))
        b.op(f"{name} {j['client']}{j['index']} {j['kind']}", checks)
    b.op(f"{name} daemon", [(not errors, "; ".join(errors)), (isolated,
         "warm run found files beyond the knowledge artifacts at start"),
         (code == 0, f"daemon exited with {code}")])
    tree = measure.tree_usage(usage)
    sample = {"wall_s": wall, "cpu_s": tree["cpu_s"], "peak_rss_mb": tree["peak_rss_mb"],
              "jobs_s": [j["done"] - j["submit"] for j in jobs if "done" in j]}
    return sample, jobs, d


def served_search(b, seconds, trace):
    setup, setup_dir = b.knowledge("setup")
    results = []

    def iteration(i):
        sample, jobs, _ = served_mix(b, f"served-{i}", setup_dir)
        results.append([j["result"] for j in jobs])
        return sample

    samples = repeat(seconds, iteration, 1 if trace else MIN_ITERATIONS)
    b.op("served results", [(all(r == results[0] for r in results),
                             "a mix's results differ from the first mix's")])
    results = results[0]
    samples[0]["setup_s"] = [setup["setup_s"]]
    out = {"samples": samples, "table": results,
           "threads": {"executors": EXECUTORS, "job_threads": JOB_THREADS,
                       "setup_par_pool": POOL_THREADS}}
    if trace:
        prep, _ = b.step("prepare", b.fresh("prepare"), JOB_THREADS, "prepare", True,
                         extra_env={"AUTOMC_SMOKE_BUDGET": str(SERVED_BUDGET)})
        sample, jobs, d = served_mix(b, "served-traced", setup_dir)
        b.op("served-traced", [([j["result"] for j in jobs] == results,
                                "traced results differ from the untraced results")])
        out["layers"] = served_layers(jobs, d, prep["prepare_s"])
        out["layers"]["trace.overhead_s"] = sample["wall_s"] - samples[0]["wall_s"]
        out["spans"] = concat_spans(prep["spans"], job_spans(jobs))
    return out


def concat_spans(*lists):
    """Join span lists from different processes, keeping each parent index
    pointing at the same span."""
    out = []
    for spans in lists:
        base = len(out)
        out.extend(dict(s, parent=None if s["parent"] is None else s["parent"] + base)
                   for s in spans)
    return out


def job_spans(jobs):
    """Client-side spans of a served mix: one per job, with its queue wait
    (submit until `running`) as a child."""
    t0 = min(j["submit"] for j in jobs)
    spans = []
    for j in jobs:
        if "done" not in j:
            continue
        spans.append({"name": f"serve::job.{j['kind']}", "label": f"{j['client']}{j['index']}",
                      "parent": None, "start": j["submit"] - t0, "end": j["done"] - t0,
                      "run": "served-traced"})
        if "running" in j:
            spans.append({"name": "serve::queue_wait", "label": f"{j['client']}{j['index']}",
                          "parent": len(spans) - 1, "start": j["submit"] - t0,
                          "end": j["running"] - t0, "run": "served-traced"})
    return spans


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def durations(spans, name, label_prefix=""):
    return [s["end"] - s["start"] for s in spans
            if s["name"] == name and s["label"].startswith(label_prefix)]


def knowledge_layers(rep):
    spans = rep["spans"]
    return {
        "knowledge.corpus_s": sum(durations(spans, "harness::experience_corpus")),
        "knowledge.corpus_records": rep["corpus_records"],
        "knowledge.embed_s": sum(durations(spans, "harness::automc_embeddings")),
    }


def memo_store_layers(lookups, hits, publishes, store_hits, store_misses):
    return {
        "memo.lookups": lookups,
        "memo.prefix_hits": hits,
        "memo.hit_rate": hits / lookups if lookups else 0.0,
        "store.publishes": publishes,
        "store.hits": store_hits,
        "store.misses": store_misses,
        "store.hit_rate": store_hits / (store_hits + store_misses)
        if store_hits + store_misses else 0.0,
    }


def core_layers(algo, run_s, rounds, evals, failed, spent):
    key = f"core.{algo}"
    return {
        f"{key}.run_s": run_s,
        f"{key}.rounds": rounds,
        f"{key}.evals": evals,
        f"{key}.feasible_frac": (evals - failed) / evals if evals else 0.0,
        f"{key}.units_per_s": spent / run_s if run_s else 0.0,
    }


def table_layers(rep):
    """Layers of a traced in-process table: spans around `prepare_task`,
    the grid's `table2_task`s, each `run_search` and its final rows, plus
    the benchmark's RoundHook and the process's blob-store counters."""
    spans = rep["spans"]
    grid = durations(spans, "harness::table2_task", "grid:")
    search_rows = [r for r in rep["band40"] + rep["band70"]
                   if r["algorithm"] in ALGO_NAMES.values() and r.get("scheme") is not None]
    layers = {
        "scale.prepare_s": sum(durations(spans, "scale::prepare_task")),
        "scale.prepare_calls": len(durations(spans, "scale::prepare_task")),
        "harness.grid_s": sum(grid),
        "harness.grid_task_max_s": max(grid),
        "harness.search_s": sum(durations(spans, "harness::run_search")),
        "harness.final_rows_s": sum(durations(spans, "harness::table2_task", "final:")),
        "harness.final_rows": len(search_rows),
    }
    lookups = hits = 0
    for algo in ALGOS:
        r = rep["rounds"][ALGO_NAMES[algo]]
        run_s = sum(durations(spans, "harness::run_search", ALGO_NAMES[algo]))
        layers.update(core_layers(algo, run_s, r["rounds"], r["evals"], r["failed"], r["spent"]))
        lookups += r["memo_lookups"]
        hits += r["memo_prefix_hits"]
    st = rep["store"]
    layers.update(memo_store_layers(lookups, hits, st["publishes"], st["hits"], st["misses"]))
    return layers


def served_layers(jobs, results_dir, prepare_s):
    """Layers of a traced served mix, from client-side timestamps and the
    counters that `round` frames carry. Each job's memo and store counters
    are its last round frame's (store counters are process-wide since the
    job started, so concurrent jobs overlap). Store publishes are not in
    the frames: they are counted as the blobs in the daemon's spill store
    (`memo/` under its results dir)."""
    layers = {"scale.prepare_s": prepare_s, "scale.prepare_calls": len(jobs)}
    firsts = {}
    for j in jobs:
        firsts.setdefault(j["kind"], j)
    for algo in ALGOS:
        j = firsts[algo]
        last = j["last_round"] or {}
        layers.update(core_layers(algo, j["done"] - j["submit"], last.get("round", 0),
                                  last.get("evals", 0), last.get("failed", 0),
                                  last.get("spent", 0)))
    lasts = [j["last_round"] or {} for j in jobs]
    blobs = sum(1 for p in listing(os.path.join(results_dir, "memo")) if p.endswith(".bin"))
    layers.update(memo_store_layers(
        sum(r.get("memo_lookups", 0) for r in lasts),
        sum(r.get("memo_prefix_hits", 0) for r in lasts),
        blobs,
        sum(r.get("store_hits", 0) for r in lasts),
        sum(r.get("store_misses", 0) for r in lasts)))
    reasks = [j for j in jobs if j["index"] == 2]
    layers.update({
        "serve.submit_rtt_ms": measure.median([(j["ack"] - j["submit"]) * 1e3 for j in jobs]),
        "serve.queue_wait_s": measure.median(
            [j.get("running", j["done"]) - j["submit"] for j in jobs]),
        "serve.reask_s": measure.median([j["done"] - j["submit"] for j in reasks]),
        "serve.frames": sum(j["frames"] for j in jobs),
        "serve.frame_bytes": sum(j["bytes"] for j in jobs),
        "serve.busy": sum(j["busy"] for j in jobs),
    })
    return layers
