//! Deterministic fault injection for the recovery paths.
//!
//! Long compression searches are dominated by fallible candidate
//! evaluations; the workspace hardens every one of them (panic isolation,
//! NaN bail-out, checksummed caches, round journals). Those recovery
//! paths are worthless if they are only exercised when something breaks
//! by accident, so this module lets tests and the CI smoke stage schedule
//! faults at *exact, reproducible* points:
//!
//! ```text
//! AUTOMC_FAULTS=panic@eval:7,nan@train:12,corrupt@cache:3
//! ```
//!
//! Each clause is `kind@site:ordinal`. A *site* is a named probe placed
//! in the code (`fault::tick("eval")` at the top of every candidate
//! evaluation, `"train"` at the start of every training run, `"cache"`
//! before every cache write). The probe increments a per-site counter and
//! reports the fault kind scheduled for that ordinal, if any — counting
//! from 1, so `panic@eval:7` fires on the seventh evaluation.
//!
//! A clause may also be a *chaos composer* directive, `chaos@seed:n`:
//! the seed expands — deterministically, via splitmix64 — into `n`
//! scheduled faults drawn from the identity-preserving subset of kinds
//! (see [`chaos_schedule`]). The same seed always yields the same
//! schedule, so a failing soak run is reproduced by its seed alone.
//!
//! The plan and its counters are **thread-local**. Injected faults must
//! never leak between concurrently running tests (cargo's test harness
//! shares one process), and a deterministic per-thread count is only
//! meaningful when the probes themselves run on a known thread — fault
//! tests therefore pin the worker pool with `par::with_threads(1)`, and
//! the CI smoke stage runs with `AUTOMC_THREADS=1`. A thread with no
//! installed plan falls back to parsing `AUTOMC_FAULTS` from the
//! environment once, on first probe.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// What to break at a fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Unwind with a recognisable payload (exercises `catch_unwind` paths).
    Panic,
    /// Poison a training loss with NaN (exercises divergence bail-out).
    Nan,
    /// Corrupt bytes about to be persisted (exercises checksum rejection).
    Corrupt,
    /// Terminate the process on the spot (exercises checkpoint/resume: a
    /// `catch_unwind` cannot catch this — it simulates a `kill -9` at a
    /// probed point). Handled inside [`tick`] itself.
    Exit,
    /// Crash a *worker process* (exercises the orchestrator's crash
    /// detection and restart path). Unlike [`FaultKind::Exit`], the tick
    /// fires in the supervisor — at the `worker` site, once per spawn —
    /// and the supervisor translates it into a directive for the child,
    /// which aborts after its first completed shard task.
    Kill,
    /// Hang a *worker process*: after running its first task the child
    /// stops emitting heartbeats and parks forever without reporting the
    /// result, so only the supervisor's heartbeat deadline can reclaim it
    /// (and the task). Ticked at the `worker` site like [`FaultKind::Kill`].
    Hang,
    /// Tear a blob-store publish: a truncated envelope lands on the final
    /// path, as if a pre-protocol writer crashed mid-write (exercises the
    /// store's quarantine-and-heal path). Honoured at the `spill` site by
    /// publishes only; a read visiting the scheduled ordinal is a no-op.
    Torn,
    /// Delete a blob between a reader's lookup and its read, as if a
    /// sibling process's GC won the race (exercises the clean-miss path).
    /// Honoured at the `spill` site by reads of existing blobs only.
    Evict,
    /// Sever a distributed-worker connection right after a task is
    /// assigned on it (exercises the supervisor's re-enqueue path and the
    /// worker's reconnect-with-backoff). Honoured at the `net` site —
    /// counted per task *assignment* — via [`site_schedule`], because the
    /// supervisor's per-connection threads cannot share this module's
    /// thread-local counters deterministically.
    Drop,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "panic" => Some(FaultKind::Panic),
            "nan" => Some(FaultKind::Nan),
            "corrupt" => Some(FaultKind::Corrupt),
            "exit" => Some(FaultKind::Exit),
            "kill" => Some(FaultKind::Kill),
            "hang" => Some(FaultKind::Hang),
            "torn" => Some(FaultKind::Torn),
            "evict" => Some(FaultKind::Evict),
            "drop" => Some(FaultKind::Drop),
            _ => None,
        }
    }
}

/// The spec-syntax name of a kind — the inverse of `FaultKind::parse`,
/// used to render expanded chaos schedules in clause form.
fn kind_name(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Panic => "panic",
        FaultKind::Nan => "nan",
        FaultKind::Corrupt => "corrupt",
        FaultKind::Exit => "exit",
        FaultKind::Kill => "kill",
        FaultKind::Hang => "hang",
        FaultKind::Torn => "torn",
        FaultKind::Evict => "evict",
        FaultKind::Drop => "drop",
    }
}

/// One step of splitmix64 — the tiny, dependency-free PRNG behind the
/// chaos composer. Chosen because its output is fully determined by the
/// seed and identical on every platform, which is what makes a chaos
/// schedule reproducible from its seed alone.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pool the chaos composer draws from: `(kind, site, max ordinal)`.
///
/// Only *identity-preserving* faults are eligible — kinds the recovery
/// paths absorb without changing the search trajectory: corrupted or
/// torn blobs quarantine and heal, evicted blobs re-derive, killed
/// processes resume from journals, dropped connections re-enqueue their
/// units. `panic@eval` and `nan@train` are deliberately excluded: an
/// injected evaluation failure legitimately lands in the search history
/// as an infeasible candidate and *changes the result*, so a soak that
/// asserts byte-identity with the fault-free reference must never
/// schedule them. Sites that a given execution mode never probes (e.g.
/// `net` in a serial run) make the drawn fault inert, which is fine —
/// the termination and identity invariants still get exercised.
const CHAOS_POOL: &[(FaultKind, &str, u64)] = &[
    (FaultKind::Corrupt, "cache", 6),
    (FaultKind::Exit, "eval", 40),
    (FaultKind::Torn, "spill", 6),
    (FaultKind::Evict, "spill", 6),
    (FaultKind::Corrupt, "index", 4),
    (FaultKind::Kill, "worker", 3),
    (FaultKind::Hang, "worker", 3),
    (FaultKind::Drop, "net", 10),
    (FaultKind::Exit, "dist", 8),
];

/// Expand a chaos seed into a reproducible schedule of `n` faults drawn
/// from [`CHAOS_POOL`], as `(site, ordinal, kind)` triples. The
/// expansion is a pure function of `(seed, n)` — every process that
/// parses the same `chaos@seed:n` clause (supervisor, resumed run,
/// soak harness) sees the identical schedule. Collisions on
/// `(site, ordinal)` are resampled a bounded number of times, so the
/// result may rarely hold fewer than `n` entries.
pub fn chaos_schedule(seed: u64, n: u64) -> Vec<(String, u64, FaultKind)> {
    // Mix the seed so chaos@0 does not start from the weak all-zeros state.
    let mut rng = seed ^ 0xA076_1D64_78BD_642F;
    let mut out: Vec<(String, u64, FaultKind)> = Vec::new();
    for _ in 0..n {
        for _attempt in 0..8 {
            let pick = splitmix64(&mut rng) % CHAOS_POOL.len() as u64;
            let (kind, site, max_ord) = CHAOS_POOL[pick as usize];
            let ordinal = 1 + splitmix64(&mut rng) % max_ord;
            if !out.iter().any(|(s, o, _)| s == site && *o == ordinal) {
                out.push((site.to_string(), ordinal, kind));
                break;
            }
        }
    }
    out
}

/// A schedule of faults: `(site, ordinal) -> kind`, ordinals counted per
/// site from 1.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    scheduled: HashMap<(String, u64), FaultKind>,
}

impl FaultPlan {
    /// Parse a comma-separated `kind@site:ordinal` spec. Malformed clauses
    /// are reported in `Err`; an empty spec is an empty plan.
    ///
    /// A `chaos@seed:n` clause expands in place into the schedule from
    /// [`chaos_schedule`] (logged, so the effective plan is visible in a
    /// failing run); later clauses overwrite earlier ones on the same
    /// `(site, ordinal)` slot, in both directions.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind_s, rest) = clause
                .split_once('@')
                .ok_or_else(|| format!("fault clause `{clause}`: expected kind@site:ordinal"))?;
            let (site, ord_s) = rest
                .split_once(':')
                .ok_or_else(|| format!("fault clause `{clause}`: expected kind@site:ordinal"))?;
            if kind_s == "chaos" {
                let seed: u64 = site
                    .parse()
                    .map_err(|_| format!("fault clause `{clause}`: bad chaos seed `{site}`"))?;
                let count: u64 = ord_s
                    .parse()
                    .map_err(|_| format!("fault clause `{clause}`: bad chaos count `{ord_s}`"))?;
                if count == 0 {
                    return Err(format!("fault clause `{clause}`: chaos count must be ≥ 1"));
                }
                let schedule = chaos_schedule(seed, count);
                let rendered: Vec<String> = schedule
                    .iter()
                    .map(|(s, o, k)| format!("{}@{s}:{o}", kind_name(*k)))
                    .collect();
                eprintln!("[fault] chaos@{seed}:{count} expands to {}", rendered.join(","));
                for (site, ordinal, kind) in schedule {
                    plan.scheduled.insert((site, ordinal), kind);
                }
                continue;
            }
            let kind = FaultKind::parse(kind_s)
                .ok_or_else(|| format!("fault clause `{clause}`: unknown kind `{kind_s}`"))?;
            let ordinal: u64 = ord_s
                .parse()
                .map_err(|_| format!("fault clause `{clause}`: bad ordinal `{ord_s}`"))?;
            if ordinal == 0 {
                return Err(format!("fault clause `{clause}`: ordinals count from 1"));
            }
            plan.scheduled.insert((site.to_string(), ordinal), kind);
        }
        Ok(plan)
    }

    /// True if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty()
    }

    /// True if any fault is scheduled at `site` (any ordinal).
    pub fn schedules_site(&self, site: &str) -> bool {
        self.scheduled.keys().any(|(s, _)| s == site)
    }

    /// The `(ordinal, kind)` schedule for one site, ascending by ordinal.
    pub fn site_ordinals(&self, site: &str) -> Vec<(u64, FaultKind)> {
        let mut out: Vec<(u64, FaultKind)> = self
            .scheduled
            .iter()
            .filter(|((s, _), _)| s == site)
            .map(|((_, n), kind)| (*n, *kind))
            .collect();
        out.sort_by_key(|(n, _)| *n);
        out
    }
}

struct FaultState {
    plan: FaultPlan,
    counters: HashMap<String, u64>,
}

thread_local! {
    static STATE: RefCell<Option<FaultState>> = const { RefCell::new(None) };
}

fn env_plan() -> FaultPlan {
    match std::env::var("AUTOMC_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => match FaultPlan::parse(&spec) {
            Ok(plan) => {
                eprintln!("[fault] AUTOMC_FAULTS installed: {spec}");
                plan
            }
            Err(e) => {
                eprintln!("warning: ignoring AUTOMC_FAULTS: {e}");
                FaultPlan::default()
            }
        },
        _ => FaultPlan::default(),
    }
}

/// Install `plan` on the current thread, resetting all site counters.
pub fn install(plan: FaultPlan) {
    STATE.with(|s| {
        *s.borrow_mut() = Some(FaultState {
            plan,
            counters: HashMap::new(),
        });
    });
}

/// Remove the current thread's plan and counters. The next probe
/// re-reads `AUTOMC_FAULTS`; tests that called [`install`] should call
/// this on the way out.
pub fn clear() {
    STATE.with(|s| *s.borrow_mut() = None);
}

/// The process exit code used by [`FaultKind::Exit`] injections, so a
/// harness can tell a simulated kill from a genuine failure.
pub const INJECTED_EXIT_CODE: i32 = 87;

/// True when the current thread has a non-empty fault plan (installed or
/// inherited from `AUTOMC_FAULTS`). Subsystems whose correctness depends
/// on exact per-site tick ordinals — like the prefix-model memo cache,
/// which would otherwise skip `train` ticks on cache hits — consult this
/// to become pass-through while faults are scheduled.
pub fn plan_active() -> bool {
    STATE.with(|s| {
        let mut state = s.borrow_mut();
        let state = state.get_or_insert_with(|| FaultState {
            plan: env_plan(),
            counters: HashMap::new(),
        });
        !state.plan.is_empty()
    })
}

/// True when the current thread's fault plan schedules a fault at any of
/// `sites`. The memo cache uses this instead of [`plan_active`]: it must
/// become pass-through only when the plan targets the evaluation pipeline
/// itself (`eval`/`train` ordinals shift on cache hits), not when the
/// plan targets the store the memo spills through — disabling the memo
/// under `torn@spill` would leave the very code the fault exercises
/// unreachable.
pub fn plan_schedules_any(sites: &[&str]) -> bool {
    STATE.with(|s| {
        let mut state = s.borrow_mut();
        let state = state.get_or_insert_with(|| FaultState {
            plan: env_plan(),
            counters: HashMap::new(),
        });
        sites.iter().any(|site| state.plan.schedules_site(site))
    })
}

/// Extract one site's `(ordinal, kind)` schedule from the current
/// thread's plan (installed or inherited from `AUTOMC_FAULTS`), ascending
/// by ordinal. The distributed supervisor calls this **once on its main
/// thread** at startup and then counts task assignments itself under its
/// state lock: its per-connection threads would otherwise each get a
/// fresh thread-local counter from the env fallback, making `drop@net:n`
/// fire once per connection instead of once per run.
pub fn site_schedule(site: &str) -> Vec<(u64, FaultKind)> {
    STATE.with(|s| {
        let mut state = s.borrow_mut();
        let state = state.get_or_insert_with(|| FaultState {
            plan: env_plan(),
            counters: HashMap::new(),
        });
        state.plan.site_ordinals(site)
    })
}

/// Process-wide count of `eval`-site probes, independent of any fault
/// plan and shared across threads: a cheap liveness/progress signal. The
/// orchestrator's heartbeat emitter reports it so a supervisor can see
/// *which* evaluation a worker is on, not merely that it is alive.
static EVAL_ORDINAL: AtomicU64 = AtomicU64::new(0);

/// Total `fault::tick("eval")` probes this process has executed — the
/// number of supervised evaluations started, counted even when no fault
/// plan is installed.
pub fn eval_ordinal() -> u64 {
    EVAL_ORDINAL.load(Ordering::Relaxed)
}

/// Probe a fault site: bump its per-thread counter and return the fault
/// scheduled for this visit, if any. Call exactly once per guarded
/// operation.
///
/// A scheduled [`FaultKind::Exit`] never returns: the process terminates
/// immediately (exit code [`INJECTED_EXIT_CODE`]), simulating a hard kill
/// that no `catch_unwind` can absorb — only a checkpoint survives it.
pub fn tick(site: &str) -> Option<FaultKind> {
    if site == "eval" {
        EVAL_ORDINAL.fetch_add(1, Ordering::Relaxed);
    }
    let hit = STATE.with(|s| {
        let mut state = s.borrow_mut();
        let state = state.get_or_insert_with(|| FaultState {
            plan: env_plan(),
            counters: HashMap::new(),
        });
        if state.plan.is_empty() {
            return None;
        }
        let n = state.counters.entry(site.to_string()).or_insert(0);
        *n += 1;
        let hit = state.plan.scheduled.get(&(site.to_string(), *n)).copied();
        if let Some(kind) = hit {
            eprintln!("[fault] injecting {kind:?} at {site}:{n}");
        }
        hit
    });
    if hit == Some(FaultKind::Exit) {
        eprintln!("[fault] simulated kill (exit {INJECTED_EXIT_CODE})");
        std::process::exit(INJECTED_EXIT_CODE);
    }
    hit
}

/// Snapshot the current thread's per-site fault counters, sorted by site
/// name, for journaling. With no plan installed (and none in the
/// environment) no site ever counts, so this is empty — journals written
/// outside fault-injection runs carry no counter state.
pub fn counters() -> Vec<(String, u64)> {
    STATE.with(|s| {
        let state = s.borrow();
        let mut out: Vec<(String, u64)> = state
            .as_ref()
            .map(|st| st.counters.iter().map(|(k, &v)| (k.clone(), v)).collect())
            .unwrap_or_default();
        out.sort();
        out
    })
}

/// Restore journaled per-site counters into the current thread's fault
/// state, so a resumed run composes with an active fault plan: sites
/// continue counting where the checkpointed run left off and each planned
/// fault fires exactly once across the kill/resume boundary. The plan
/// itself is not journaled — it comes from [`install`] or `AUTOMC_FAULTS`
/// as usual; restoring counters with no plan active is a no-op in effect.
pub fn restore_counters(saved: &[(String, u64)]) {
    if saved.is_empty() {
        return;
    }
    STATE.with(|s| {
        let mut state = s.borrow_mut();
        let state = state.get_or_insert_with(|| FaultState {
            plan: env_plan(),
            counters: HashMap::new(),
        });
        for (site, n) in saved {
            let slot = state.counters.entry(site.clone()).or_insert(0);
            *slot = (*slot).max(*n);
        }
    });
}

/// The message used by [`FaultKind::Panic`] injections, recognisable in
/// recovered panic payloads.
pub const INJECTED_PANIC_MSG: &str = "injected fault: panic";

/// Best-effort extraction of a recovered panic payload's message.
/// `panic!` produces `&str` or `String` payloads; anything else is
/// summarised by a placeholder rather than lost.
pub fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Unwind if a panic fault is scheduled at this visit to `site`.
/// Convenience wrapper for sites that only care about `Panic`.
pub fn maybe_panic(site: &str) {
    if tick(site) == Some(FaultKind::Panic) {
        panic!("{INJECTED_PANIC_MSG} at {site}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse("panic@eval:7, nan@train:12,corrupt@cache:3").unwrap();
        assert_eq!(
            plan.scheduled.get(&("eval".into(), 7)),
            Some(&FaultKind::Panic)
        );
        assert_eq!(
            plan.scheduled.get(&("train".into(), 12)),
            Some(&FaultKind::Nan)
        );
        assert_eq!(
            plan.scheduled.get(&("cache".into(), 3)),
            Some(&FaultKind::Corrupt)
        );
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ").unwrap().is_empty());
    }

    #[test]
    fn parse_worker_fault_kinds() {
        let plan = FaultPlan::parse("kill@worker:2,hang@worker:3").unwrap();
        assert_eq!(
            plan.scheduled.get(&("worker".into(), 2)),
            Some(&FaultKind::Kill)
        );
        assert_eq!(
            plan.scheduled.get(&("worker".into(), 3)),
            Some(&FaultKind::Hang)
        );
    }

    #[test]
    fn eval_ordinal_counts_eval_ticks_without_a_plan() {
        clear();
        let before = eval_ordinal();
        tick("eval");
        tick("eval");
        // The counter is process-global and other tests may tick
        // concurrently, so assert monotonicity, not an exact delta.
        assert!(eval_ordinal() >= before + 2);
    }

    #[test]
    fn parse_store_fault_kinds_and_site_queries() {
        let plan = FaultPlan::parse("torn@spill:1,evict@spill:4,corrupt@index:2").unwrap();
        assert_eq!(
            plan.scheduled.get(&("spill".into(), 1)),
            Some(&FaultKind::Torn)
        );
        assert_eq!(
            plan.scheduled.get(&("spill".into(), 4)),
            Some(&FaultKind::Evict)
        );
        assert_eq!(
            plan.scheduled.get(&("index".into(), 2)),
            Some(&FaultKind::Corrupt)
        );
        assert!(plan.schedules_site("spill"));
        assert!(plan.schedules_site("index"));
        assert!(!plan.schedules_site("eval"));

        install(plan);
        assert!(plan_schedules_any(&["spill"]));
        assert!(plan_schedules_any(&["eval", "index"]));
        assert!(!plan_schedules_any(&["eval", "train"]));
        clear();
    }

    #[test]
    fn site_schedule_extracts_net_drops_in_ordinal_order() {
        let plan = FaultPlan::parse("drop@net:5,kill@worker:1,drop@net:2").unwrap();
        assert_eq!(
            plan.site_ordinals("net"),
            vec![(2, FaultKind::Drop), (5, FaultKind::Drop)]
        );
        assert!(plan.site_ordinals("eval").is_empty());
        install(plan);
        assert_eq!(
            site_schedule("net"),
            vec![(2, FaultKind::Drop), (5, FaultKind::Drop)]
        );
        // Extraction is a read, not a probe: counters are untouched.
        assert!(counters().is_empty());
        clear();
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        assert!(FaultPlan::parse("panic@eval").is_err());
        assert!(FaultPlan::parse("panic:7").is_err());
        assert!(FaultPlan::parse("explode@eval:7").is_err());
        assert!(FaultPlan::parse("panic@eval:zero").is_err());
        assert!(FaultPlan::parse("panic@eval:0").is_err(), "ordinals from 1");
    }

    #[test]
    fn tick_fires_at_the_scheduled_ordinal_only() {
        install(FaultPlan::parse("nan@train:3,panic@eval:1").unwrap());
        assert_eq!(tick("eval"), Some(FaultKind::Panic));
        assert_eq!(tick("eval"), None);
        assert_eq!(tick("train"), None);
        assert_eq!(tick("train"), None);
        assert_eq!(tick("train"), Some(FaultKind::Nan));
        assert_eq!(tick("train"), None);
        clear();
    }

    #[test]
    fn install_resets_counters_and_empty_plan_is_inert() {
        install(FaultPlan::parse("panic@eval:2").unwrap());
        assert_eq!(tick("eval"), None);
        install(FaultPlan::parse("panic@eval:2").unwrap());
        assert_eq!(tick("eval"), None);
        assert_eq!(tick("eval"), Some(FaultKind::Panic));
        install(FaultPlan::default());
        for _ in 0..10 {
            assert_eq!(tick("eval"), None);
        }
        clear();
    }

    #[test]
    fn counters_snapshot_and_restore_compose_across_a_restart() {
        install(FaultPlan::parse("panic@eval:3").unwrap());
        assert_eq!(tick("eval"), None);
        assert_eq!(tick("eval"), None);
        let saved = counters();
        assert_eq!(saved, vec![("eval".to_string(), 2)]);
        // Simulated process restart: a fresh install starts from zero…
        install(FaultPlan::parse("panic@eval:3").unwrap());
        assert!(counters().is_empty());
        // …until the journaled counters are restored, after which the
        // planned fault fires exactly once overall, not once per restart.
        restore_counters(&saved);
        assert_eq!(tick("eval"), Some(FaultKind::Panic));
        assert_eq!(tick("eval"), None);
        // Restoring stale counters never rewinds a site that is ahead.
        restore_counters(&saved);
        assert_eq!(counters(), vec![("eval".to_string(), 4)]);
        // Restoring an empty snapshot is a no-op.
        restore_counters(&[]);
        assert_eq!(counters(), vec![("eval".to_string(), 4)]);
        clear();
    }

    #[test]
    fn chaos_schedules_are_reproducible_and_identity_preserving() {
        for seed in 0..64u64 {
            let a = chaos_schedule(seed, 4);
            let b = chaos_schedule(seed, 4);
            assert_eq!(a, b, "chaos@{seed}:4 must be a pure function of the seed");
            assert!(!a.is_empty(), "chaos@{seed}:4 expanded to nothing");
            for (site, ordinal, kind) in &a {
                assert!(*ordinal >= 1, "ordinals count from 1");
                // The pool must never schedule result-changing kinds.
                assert!(
                    !matches!(kind, FaultKind::Panic | FaultKind::Nan),
                    "chaos@{seed} drew {kind:?}@{site}, which changes search results"
                );
            }
            // No (site, ordinal) slot is scheduled twice.
            let mut slots: Vec<(&String, u64)> =
                a.iter().map(|(s, o, _)| (s, *o)).collect();
            slots.sort();
            slots.dedup();
            assert_eq!(slots.len(), a.len(), "chaos@{seed} double-booked a slot");
        }
        // Different seeds must not all collapse to one schedule.
        assert_ne!(chaos_schedule(1, 4), chaos_schedule(2, 4));
    }

    #[test]
    fn chaos_clause_expands_inside_a_plan() {
        let plan = FaultPlan::parse("chaos@7:3").unwrap();
        let expanded = chaos_schedule(7, 3);
        assert_eq!(plan.scheduled.len(), expanded.len());
        for (site, ordinal, kind) in &expanded {
            assert_eq!(plan.scheduled.get(&(site.clone(), *ordinal)), Some(kind));
        }
        // Chaos clauses compose with explicit ones.
        let plan = FaultPlan::parse("chaos@7:3,panic@eval:99").unwrap();
        assert_eq!(
            plan.scheduled.get(&("eval".into(), 99)),
            Some(&FaultKind::Panic)
        );
        // Malformed chaos clauses are rejected like any other.
        assert!(FaultPlan::parse("chaos@x:3").is_err());
        assert!(FaultPlan::parse("chaos@7:zero").is_err());
        assert!(FaultPlan::parse("chaos@7:0").is_err());
    }

    #[test]
    fn maybe_panic_unwinds_with_recognisable_payload() {
        install(FaultPlan::parse("panic@site:1").unwrap());
        let err = std::panic::catch_unwind(|| maybe_panic("site")).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains(INJECTED_PANIC_MSG), "{msg}");
        clear();
    }
}
