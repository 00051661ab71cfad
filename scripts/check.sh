#!/usr/bin/env bash
# Tier-1 gate: release build + full test suite, fully offline, then a
# fault-injection smoke run and a recovery-path lint.
# Run from the repository root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace

# ---------------------------------------------------------------------------
# Benchmark unit tests: perfbench's own checks of its statistics, span
# self-time, rusage, metric names, output guards and result digest (well
# under a second; the end-to-end case stays behind PERFBENCH_E2E=1). No
# bytecode is written into perfbench/.
# ---------------------------------------------------------------------------
echo "== perfbench unit tests =="
PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s perfbench -p 'test_*.py'
echo "perfbench unit tests passed"

# ---------------------------------------------------------------------------
# Kernel regression gate: re-measure the hot tensor kernels (three passes
# of interleaved best-of rounds, median per row) and compare against the
# committed BENCH_baseline.json. Fails on a >15% regression of a gated
# kernel, on `auto` thread mode losing to serial, or on the blocked-matmul
# speedup over the pre-rewrite kernels falling below its floor. After an
# intentional kernel change, rebase with:
#   AUTOMC_BENCH_REBASE=1 cargo run --release --offline -p automc-bench \
#       --bin kernel_gate
# ---------------------------------------------------------------------------
echo "== kernel regression gate =="
cargo run --release --offline -p automc-bench --bin kernel_gate
echo "kernel regression gate passed"

# ---------------------------------------------------------------------------
# Fault-injection smoke: the full Table 2 pipeline at the smallest scale,
# with a seeded fault plan injecting a panic, a NaN, and a cache corruption.
# The run must complete (degraded where the faults land, but structurally
# valid) and print SMOKE OK. Single-threaded so the fault ordinals are
# deterministic. The corruption hits the run's 19th and last cache store,
# `table2_smoke_s5`; a second run in the same directory without --fresh
# reads that entry first, so it must reject and quarantine it, rebuild the
# table from the other entries, and print the faulted run's stdout again.
# If the pipeline's store count changes, the quarantine check below fails
# loudly and the ordinal needs retuning.
# ---------------------------------------------------------------------------
echo "== fault-injection smoke =="
fault_dir=$(mktemp -d)
trap 'rm -rf "$fault_dir"' EXIT
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$fault_dir" \
    AUTOMC_FAULTS="panic@eval:2,nan@train:5,corrupt@cache:19" \
    cargo run --release --offline -p automc-bench --bin table2 -- \
    --smoke --fresh --seed 5 >/tmp/automc-smoke.out 2>/tmp/automc-smoke.err
cat /tmp/automc-smoke.out
grep -q "SMOKE OK" /tmp/automc-smoke.out
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$fault_dir" \
    cargo run --release --offline -p automc-bench --bin table2 -- \
    --smoke --seed 5 >/tmp/automc-smoke-reread.out 2>/tmp/automc-smoke-reread.err
grep -qF '[cache] table2_smoke_s5: checksum mismatch (corrupt entry); quarantined' \
    /tmp/automc-smoke-reread.err
diff /tmp/automc-smoke.out /tmp/automc-smoke-reread.out
echo "fault-injection smoke passed"

# ---------------------------------------------------------------------------
# Kill/resume smoke: run the smallest Table 2 pipeline to completion for a
# reference, then kill a second run mid-search with an injected process
# exit, resume it from its journal, and require byte-identical stdout.
# `AUTOMC_RESULTS_DIR` isolates each run's cache so the resumed run can
# only reuse what the killed run actually persisted. The eval ordinal is
# tuned to land inside a baseline search (after the method grid); if the
# pipeline's evaluation count drifts, the exit-code check below fails
# loudly and the ordinal needs retuning.
# ---------------------------------------------------------------------------
echo "== kill/resume smoke =="
ref_dir=$(mktemp -d)
res_dir=$(mktemp -d)
trap 'rm -rf "$fault_dir" "$ref_dir" "$res_dir"' EXIT
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$ref_dir" \
    cargo run --release --offline -p automc-bench --bin table2 -- \
    --smoke --fresh --seed 7 >/tmp/automc-resume-ref.out 2>/dev/null
set +e
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$res_dir" AUTOMC_FAULTS="exit@eval:58" \
    cargo run --release --offline -p automc-bench --bin table2 -- \
    --smoke --fresh --seed 7 >/dev/null 2>&1
kill_code=$?
set -e
if [ "$kill_code" -ne 87 ]; then
    echo "kill/resume smoke: expected the injected kill (exit 87), got $kill_code"
    exit 1
fi
ls "$res_dir"/*.journal >/dev/null  # the killed search must leave a journal
# Every file the killed run persisted (cache entries, journals, intent
# records) is in the one sealed format: it starts with the AUTOMCb1 magic.
for f in "$res_dir"/*; do
    if [ -f "$f" ] && [ "$(head -c 8 "$f")" != "AUTOMCb1" ]; then
        echo "kill/resume smoke: $f does not start with the AUTOMCb1 magic"
        exit 1
    fi
done
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$res_dir" \
    cargo run --release --offline -p automc-bench --bin table2 -- \
    --smoke --seed 7 >/tmp/automc-resume-res.out 2>/tmp/automc-resume-res.err
grep -q '\[journal\] resumed' /tmp/automc-resume-res.err
diff /tmp/automc-resume-ref.out /tmp/automc-resume-res.out
echo "kill/resume smoke passed"

# ---------------------------------------------------------------------------
# Orchestrator smoke: distribute the same pipeline over two supervised
# local worker processes pulling from the dynamic task queue, with an
# injected worker crash (kill@worker:1 — the first spawn exits after its
# first completed unit). The supervisor must log the restart, the run must
# complete, and stdout must be byte-identical to the single-process
# reference above. The run starts from a copy of the reference run's
# corpus and embeddings, so this stage costs seconds, not another full
# run. The workers share the supervisor's results directory: afterwards it
# holds no per-worker sub-store and one embeddings entry.
# ---------------------------------------------------------------------------
echo "== orchestrator smoke =="
orch_dir=$(mktemp -d)
trap 'rm -rf "$fault_dir" "$ref_dir" "$res_dir" "$orch_dir"' EXIT
knowledge="corpus_full_s7.json emb_full_s7_kg1_exp1.json"
for f in $knowledge; do cp "$ref_dir/$f" "$orch_dir/"; done
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$orch_dir" AUTOMC_FAULTS="kill@worker:1" \
    cargo run --release --offline -p automc-bench --bin table2 -- \
    --smoke --seed 7 --workers 2 \
    >/tmp/automc-orch.out 2>/tmp/automc-orch.err
grep -q 'injected kill' /tmp/automc-orch.err
grep -q 'retry 1/' /tmp/automc-orch.err
diff /tmp/automc-resume-ref.out /tmp/automc-orch.out
if compgen -G "$orch_dir/worker*" >/dev/null; then
    echo "orchestrator smoke: per-worker sub-store in $orch_dir:"; ls "$orch_dir"; exit 1
fi
emb_entries=$(find "$orch_dir" -name 'emb_*' | wc -l)
if [ "$emb_entries" -ne 1 ]; then
    echo "orchestrator smoke: $emb_entries embeddings entries, want 1"; exit 1
fi
echo "orchestrator smoke passed"

# ---------------------------------------------------------------------------
# Distributed workers smoke: a listen-only supervisor (no local workers)
# plus two *remote* workers connecting over loopback TCP. One worker
# carries an injected kill directive — it exits (code 86) after its first
# completed unit, and the dynamic queue re-assigns its work to the
# survivor. The workers run on the supervisor's host, so they share its
# results directory, warmed like the orchestrator stage's. The merged
# stdout must be byte-identical to the single-process reference.
# ---------------------------------------------------------------------------
echo "== distributed workers smoke =="
dist_dir=$(mktemp -d)
trap 'rm -rf "$fault_dir" "$ref_dir" "$res_dir" "$orch_dir" "$dist_dir"' EXIT
mkdir "$dist_dir/sup"
for f in $knowledge; do cp "$ref_dir/$f" "$dist_dir/sup/"; done
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$dist_dir/sup" \
    ./target/release/table2 --smoke --seed 7 \
    --listen 127.0.0.1:0 --addr-file "$dist_dir/addr" \
    >/tmp/automc-dist.out 2>/tmp/automc-dist.err &
dist_pid=$!
for _ in $(seq 100); do [ -s "$dist_dir/addr" ] && break; sleep 0.1; done
[ -s "$dist_dir/addr" ] || { echo "distributed smoke: supervisor never bound"; exit 1; }
dist_addr=$(cat "$dist_dir/addr")
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$dist_dir/sup" AUTOMC_WORKER_FAULT=kill \
    ./target/release/table2 --smoke --seed 7 --connect "$dist_addr" \
    >/dev/null 2>&1 &
w1_pid=$!
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$dist_dir/sup" \
    ./target/release/table2 --smoke --seed 7 --connect "$dist_addr" \
    >/dev/null 2>&1 &
w2_pid=$!
wait "$dist_pid"
wait "$w1_pid" || true  # exits 86 by design (injected kill)
wait "$w2_pid" || true
grep -q 'disconnected' /tmp/automc-dist.err  # the killed worker was observed
diff /tmp/automc-resume-ref.out /tmp/automc-dist.out
echo "distributed workers smoke passed"

# ---------------------------------------------------------------------------
# Memo equivalence smoke: the prefix-model cache must not change a single
# output byte. Run the smallest Table 2 pipeline with memoization off,
# then on (cold), then on again in the same results dir (--fresh discards
# completed rows, so every prefix re-hits the spill store), then on at 4
# threads — all four stdouts must be byte-identical, and the warm run's
# Evolution search must report a real hit rate.
# ---------------------------------------------------------------------------
echo "== memo equivalence smoke =="
moff_dir=$(mktemp -d)
mon_dir=$(mktemp -d)
trap 'rm -rf "$fault_dir" "$ref_dir" "$res_dir" "$orch_dir" "$dist_dir" "$moff_dir" "$mon_dir"' EXIT
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$moff_dir" \
    cargo run --release --offline -p automc-bench --bin table2 -- \
    --smoke --fresh --seed 9 --memo off >/tmp/automc-memo-off.out 2>/dev/null
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$mon_dir" \
    cargo run --release --offline -p automc-bench --bin table2 -- \
    --smoke --fresh --seed 9 --memo on >/tmp/automc-memo-cold.out 2>/dev/null
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$mon_dir" \
    cargo run --release --offline -p automc-bench --bin table2 -- \
    --smoke --fresh --seed 9 --memo on \
    >/tmp/automc-memo-warm.out 2>/tmp/automc-memo-warm.err
AUTOMC_THREADS=4 AUTOMC_RESULTS_DIR="$mon_dir" \
    cargo run --release --offline -p automc-bench --bin table2 -- \
    --smoke --fresh --seed 9 --memo on >/tmp/automc-memo-t4.out 2>/dev/null
diff /tmp/automc-memo-off.out /tmp/automc-memo-cold.out
diff /tmp/automc-memo-off.out /tmp/automc-memo-warm.out
diff /tmp/automc-memo-off.out /tmp/automc-memo-t4.out
# Every run above passed --fresh, so each rebuilt the experience corpus
# and its embeddings; the tables alone can come out identical under a
# different corpus, so compare the artifacts of the 1- and 4-thread runs.
for artifact in corpus_full_s9.json emb_full_s9_kg1_exp1.json; do
    cmp "$moff_dir/$artifact" "$mon_dir/$artifact" || {
        echo "memo smoke: $artifact differs between 1 and 4 threads"; exit 1; }
done
grep '\[memo\] Evolution:' /tmp/automc-memo-warm.err
awk -F'[(%]' '/\[memo\] Evolution:/ { if ($2 + 0 < 30) exit 1 }' \
    /tmp/automc-memo-warm.err || {
    echo "memo smoke: Evolution prefix hit rate below 30%"; exit 1; }
echo "memo equivalence smoke passed"

# ---------------------------------------------------------------------------
# Blob-store smoke: the crash-safe spill store must absorb each of its
# fault kinds without changing a single output byte. One fault per run,
# all sharing one results/spill dir (single-threaded, so the fault
# ordinals are deterministic):
#   1. torn@spill:1     — first spill publish writes a truncated blob;
#   2. warm, no faults  — the torn blob is read, quarantined, healed;
#   3. evict@spill:1    — first spill read races a GC eviction (clean miss);
#   4. corrupt@index:1  — first index append is corrupted on disk;
#   5. warm, no faults  — the reader rebuilds the index from a scan.
# Every run must match the memo-off reference byte for byte. The
# multi-process hammer test ran under `cargo test` above; re-run it
# explicitly here so a filtered test invocation cannot silently skip it.
# ---------------------------------------------------------------------------
echo "== blob-store smoke =="
cargo test -q --offline -p automc-compress --test store_hammer
bs_dir=$(mktemp -d)
trap 'rm -rf "$fault_dir" "$ref_dir" "$res_dir" "$orch_dir" "$dist_dir" "$moff_dir" "$mon_dir" "$bs_dir"' EXIT
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$bs_dir" AUTOMC_FAULTS="torn@spill:1" \
    cargo run --release --offline -p automc-bench --bin table2 -- \
    --smoke --fresh --seed 9 --memo on \
    >/tmp/automc-store-torn.out 2>/tmp/automc-store-torn.err
grep -q 'injecting torn publish' /tmp/automc-store-torn.err
diff /tmp/automc-memo-off.out /tmp/automc-store-torn.out
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$bs_dir" \
    cargo run --release --offline -p automc-bench --bin table2 -- \
    --smoke --fresh --seed 9 --memo on \
    >/tmp/automc-store-heal.out 2>/tmp/automc-store-heal.err
grep -q 'quarantined corrupt blob\|removed corrupt blob' /tmp/automc-store-heal.err
diff /tmp/automc-memo-off.out /tmp/automc-store-heal.out
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$bs_dir" AUTOMC_FAULTS="evict@spill:1" \
    cargo run --release --offline -p automc-bench --bin table2 -- \
    --smoke --fresh --seed 9 --memo on \
    >/tmp/automc-store-evict.out 2>/tmp/automc-store-evict.err
grep -q 'injecting evict race' /tmp/automc-store-evict.err
diff /tmp/automc-memo-off.out /tmp/automc-store-evict.out
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$bs_dir" AUTOMC_FAULTS="corrupt@index:1" \
    cargo run --release --offline -p automc-bench --bin table2 -- \
    --smoke --fresh --seed 9 --memo on \
    >/tmp/automc-store-badidx.out 2>/tmp/automc-store-badidx.err
grep -q 'injecting index corruption' /tmp/automc-store-badidx.err
diff /tmp/automc-memo-off.out /tmp/automc-store-badidx.out
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$bs_dir" \
    cargo run --release --offline -p automc-bench --bin table2 -- \
    --smoke --fresh --seed 9 --memo on \
    >/tmp/automc-store-rebuild.out 2>/tmp/automc-store-rebuild.err
grep -q 'index rebuilt from scan' \
    /tmp/automc-store-badidx.err /tmp/automc-store-rebuild.err
diff /tmp/automc-memo-off.out /tmp/automc-store-rebuild.out
echo "blob-store smoke passed"

# ---------------------------------------------------------------------------
# Serve daemon smoke: start the compression-as-a-service daemon, run the
# same seed-7 smoke Table 2 job through it, and require the streamed
# result to be byte-identical to the batch binary's tables (the
# kill/resume reference above, minus the batch-only banner/footer lines).
# A second client attaching to the same job must read identical bytes, a
# submit+cancel of another job must leave the daemon serving, and a
# shutdown request must end the process cleanly.
# ---------------------------------------------------------------------------
echo "== serve daemon smoke =="
srv_dir=$(mktemp -d)
trap 'rm -rf "$fault_dir" "$ref_dir" "$res_dir" "$orch_dir" "$dist_dir" "$moff_dir" "$mon_dir" "$bs_dir" "$srv_dir"' EXIT
AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$srv_dir" \
    cargo run --release --offline -p automc-serve -- \
    serve --jobs 1 --addr-file "$srv_dir/addr" >/tmp/automc-serve.log 2>&1 &
srv_pid=$!
for _ in $(seq 100); do [ -s "$srv_dir/addr" ] && break; sleep 0.1; done
[ -s "$srv_dir/addr" ] || { echo "serve smoke: daemon never bound"; exit 1; }
srv_addr=$(cat "$srv_dir/addr")
cargo run --release --offline -p automc-serve -- \
    run --addr "$srv_addr" --scale smoke --seed 7 \
    >/tmp/automc-serve-run1.out 2>/dev/null
grep -v '^Table 2 smoke run\|^smoke: \|^SMOKE OK' /tmp/automc-resume-ref.out \
    >/tmp/automc-serve-ref.out
diff /tmp/automc-serve-ref.out /tmp/automc-serve-run1.out
cargo run --release --offline -p automc-serve -- \
    run --addr "$srv_addr" --scale smoke --seed 7 \
    >/tmp/automc-serve-run2.out 2>/dev/null
diff /tmp/automc-serve-run1.out /tmp/automc-serve-run2.out
srv_job=$(cargo run --release --offline -p automc-serve -- \
    submit --addr "$srv_addr" --scale smoke --seed 8 --kind automc --fresh \
    2>/dev/null)
cargo run --release --offline -p automc-serve -- \
    cancel --addr "$srv_addr" --job "$srv_job" 2>/dev/null
cargo run --release --offline -p automc-serve -- shutdown --addr "$srv_addr"
wait "$srv_pid"
echo "serve daemon smoke passed"

# ---------------------------------------------------------------------------
# Chaos soak smoke: `chaos@seed:n` expands a seed into a reproducible
# random schedule over the existing fault kinds. Two fixed schedules —
# chaos@4:3 (serial: an eval-site exit plus spill faults) and chaos@2:3
# (local workers: a net drop, a worker kill, and a supervisor exit
# mid-merge) — must terminate within a bounded resume loop and reproduce
# the fault-free reference byte for byte. The full soak (8 schedules,
# all transports, clean-reopen checks) runs as
# `automc-bench/tests/chaos_soak.rs` and `automc-serve/tests/overload.rs`
# under `cargo test` above; this stage keeps a bash-visible probe.
# ---------------------------------------------------------------------------
echo "== chaos soak smoke =="
chaos_soak() {  # args: label, chaos seed, extra table2 flags...
    local label=$1 cseed=$2; shift 2
    local dir code attempt f
    dir=$(mktemp -d)
    for f in $knowledge; do cp "$ref_dir/$f" "$dir/"; done
    for attempt in 1 2 3 4 5; do
        set +e
        AUTOMC_THREADS=1 AUTOMC_RESULTS_DIR="$dir" \
            AUTOMC_FAULTS="chaos@${cseed}:3" \
            timeout 120 ./target/release/table2 --smoke --seed 7 "$@" \
            >"/tmp/automc-chaos-$label.out" 2>"/tmp/automc-chaos-$label.err"
        code=$?
        set -e
        [ "$code" -ne 87 ] && break  # 87 = injected exit; resume in-place
    done
    rm -rf "$dir"
    if [ "$code" -ne 0 ]; then
        echo "chaos soak ($label): chaos@${cseed}:3 did not terminate (last exit $code)"
        exit 1
    fi
    grep -q "chaos@${cseed}:3 expands to" "/tmp/automc-chaos-$label.err"
    diff /tmp/automc-resume-ref.out "/tmp/automc-chaos-$label.out"
    echo "chaos soak ($label): chaos@${cseed}:3 settled after $attempt attempt(s)"
}
chaos_soak serial 4
chaos_soak workers 2 --workers 2
echo "chaos soak smoke passed"

# ---------------------------------------------------------------------------
# Recovery-path lint: the modules that implement fault handling must not
# unwrap in non-test code — a panic inside the recovery machinery defeats
# it. Test modules (below the `mod tests` line) are exempt.
# ---------------------------------------------------------------------------
echo "== recovery-path lint =="
lint_fail=0
for f in crates/tensor/src/fault.rs crates/core/src/journal.rs \
         crates/core/src/driver.rs \
         crates/bench/src/cache.rs crates/compress/src/memo.rs \
         crates/compress/src/store.rs crates/bench/src/orchestrator.rs \
         crates/bench/src/transport.rs crates/json/src/wire.rs \
         crates/core/src/progress.rs crates/serve/src/protocol.rs \
         crates/serve/src/server.rs crates/serve/src/client.rs \
         crates/serve/src/bin/automc-serve.rs; do
    nontest=$(sed '/^\(#\[cfg(test)\]\|mod tests\)/,$d' "$f")
    if echo "$nontest" | grep -n 'unwrap()' >/dev/null; then
        echo "lint: unwrap() in recovery path $f:"
        echo "$nontest" | grep -n 'unwrap()'
        lint_fail=1
    fi
done
if [ "$lint_fail" -ne 0 ]; then
    echo "recovery-path lint failed"
    exit 1
fi
echo "recovery-path lint passed"

# ---------------------------------------------------------------------------
# Hardware-probe lint: `std::thread::available_parallelism` re-reads the
# cgroup files on every call, so the only caller is `par`'s once-per-process
# probe. Every other thread count goes through `par::current_threads`.
# ---------------------------------------------------------------------------
echo "== hardware-probe lint =="
probe_hits=$(grep -rln --include='*.rs' 'available_parallelism' \
    src tests examples crates perfbench | grep -vx 'crates/tensor/src/par.rs' || true)
if [ -n "$probe_hits" ]; then
    echo "lint: available_parallelism outside crates/tensor/src/par.rs:"
    echo "$probe_hits"
    exit 1
fi
echo "hardware-probe lint passed"

# ---------------------------------------------------------------------------
# ISA lint: the AVX2 instances of the tensor hot loops are emitted, detected
# and dispatched in one module, crates/tensor/src/isa.rs, which owns every
# unsafe call they need. Instruction-set code anywhere else, or another
# module opting out of `deny(unsafe_code)` (par.rs's pool aside), fails.
# ---------------------------------------------------------------------------
echo "== ISA lint =="
isa_hits=$(grep -rlnE --include='*.rs' \
    'target_feature|is_x86_feature_detected|std::arch|core::arch' \
    src tests examples crates perfbench | grep -vx 'crates/tensor/src/isa.rs' || true)
if [ -n "$isa_hits" ]; then
    echo "lint: instruction-set code outside crates/tensor/src/isa.rs:"
    echo "$isa_hits"
    exit 1
fi
unsafe_hits=$(grep -rln --include='*.rs' 'allow(unsafe_code)' \
    src tests examples crates perfbench \
    | grep -vx 'crates/tensor/src/isa.rs\|crates/tensor/src/par.rs' || true)
if [ -n "$unsafe_hits" ]; then
    echo "lint: allow(unsafe_code) outside crates/tensor/src/isa.rs and par.rs:"
    echo "$unsafe_hits"
    exit 1
fi
echo "ISA lint passed"

echo "All checks passed."
