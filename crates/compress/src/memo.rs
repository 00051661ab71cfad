//! Cross-search prefix-model memoization.
//!
//! The paper's progressive search is efficient because it "makes full use
//! of the evaluated schemes": it extends cached prefix models by one
//! strategy instead of replaying whole schemes. This module generalises
//! that reuse to *every* execution of a scheme — the RL, Evolution and
//! Random baselines, transfer runs, and the progressive search itself all
//! share one content-addressed cache of partially compressed models.
//!
//! # Keys
//!
//! A prefix of a scheme evaluation is identified by an FNV-1a fingerprint
//! chain over everything that shapes its result:
//!
//! * the base model (full structural serialisation),
//! * the training and evaluation datasets (dims, labels, pixel bits),
//! * the [`ExecConfig`] (including `eval_seed`, which names the derived
//!   RNG stream, and `max_train_steps`),
//! * each strategy step: its id *and* its full hyperparameter spec, so
//!   the same id in a different [`StrategySpace`] never collides.
//!
//! Because the chain is running, the key of depth `d` extends the key of
//! depth `d-1`: one pass over the scheme yields every prefix key.
//!
//! # Path-independent randomness
//!
//! Correctness rests on every strategy step drawing from an RNG derived
//! only from `(eval_seed, scheme[0..=i])` — see [`step_rng`]. A scheme
//! then evaluates bitwise-identically whether the cache supplied its
//! prefix at depth 0, 3, or L, on any thread, in any order — so enabling
//! or disabling memoization can never change a result, only its cost.
//!
//! # Fault semantics
//!
//! `fault::tick("eval")` fires once per *logical* evaluation regardless
//! of cache hits, but `train`-site ticks happen per actual training run —
//! a cache hit would skip them and shift every later ordinal. The
//! executor therefore makes the cache pass-through whenever the thread's
//! fault plan schedules an `eval` or `train` fault
//! ([`automc_tensor::fault::plan_schedules_any`]), so those injection
//! runs behave exactly as if memoization did not exist. Plans targeting
//! other sites — notably the blob store's own `spill`/`index` faults —
//! leave the memo enabled: disabling it would make the very code those
//! faults exercise unreachable.
//!
//! Organic failures (divergence, panics, timeouts) are deterministic for
//! a given prefix, so they are negative-cached: re-encountering a known
//! bad prefix fails immediately at the recorded step with the recorded
//! cost.
//!
//! # Bounds
//!
//! The in-memory store is an LRU bounded by a byte budget
//! (`AUTOMC_MEMO_BYTES`, default 256 MiB). Entries can optionally spill
//! to a [`crate::store::BlobStore`] ([`set_spill_dir`]) — crash-safe,
//! checksummed, and safe for concurrent multi-process use — so resumed,
//! repeated, and *sibling* runs re-hit across processes. The spill store
//! is itself capped (`AUTOMC_MEMO_DISK_BYTES`, default 1 GiB): that cap
//! is the budget handed to the store's generational GC, which re-anchors
//! byte totals from its index (so sibling processes' puts and evicts are
//! accounted), evicts least-recently-used blobs first, and never evicts
//! inside the in-use grace window. `AUTOMC_MEMO=off` disables the cache
//! entirely.

use crate::methods::ExecConfig;
use crate::scheme::{EvalCost, Metrics, StepRecord};
use crate::space::{StrategyId, StrategySpace};
use crate::store::{fnv1a64, BlobStore, Fnv};
use automc_data::ImageSet;
use automc_models::{serialize, ConvNet};
use automc_tensor::{rng_for_task, Rng};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

/// Structural fingerprint of a model (architecture and weight bits).
pub fn model_fingerprint(net: &ConvNet) -> u64 {
    fnv1a64(&serialize::model_to_bytes(net))
}

/// Content fingerprint of a dataset (dims, labels, pixel bits).
pub fn dataset_fingerprint(set: &ImageSet) -> u64 {
    let mut h = Fnv::default();
    let (c, ht, w) = set.image_dims();
    for v in [set.len() as u64, set.classes() as u64, c as u64, ht as u64, w as u64] {
        h.write_u64(v);
    }
    for &l in set.labels() {
        h.write_u64(l as u64);
    }
    for i in 0..set.len() {
        for &px in set.image(i) {
            h.write(&px.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

fn exec_fingerprint(cfg: &ExecConfig) -> u64 {
    let mut h = Fnv::default();
    h.write_u64(u64::from(cfg.pretrain_epochs.to_bits()));
    h.write_u64(cfg.batch_size as u64);
    h.write_u64(u64::from(cfg.lr.to_bits()));
    h.write_u64(cfg.legr_population as u64);
    h.write_u64(cfg.legr_eval_images as u64);
    h.write_u64(cfg.eval_seed);
    h.write_u64(cfg.max_train_steps);
    h.finish()
}

/// The RNG for strategy step `prefix.len() - 1` of a scheme evaluation:
/// a keyed hash of `(eval_seed, prefix)` through the same splitmix
/// derivation as [`automc_tensor::rng_for_task`]. Depends on nothing
/// else — not the search that asked, not the steps' wall-clock order,
/// not how much of the prefix came from the memo cache.
pub fn step_rng(eval_seed: u64, prefix: &[StrategyId]) -> Rng {
    let mut h = Fnv::default();
    h.write(b"automc-step-rng-v1");
    h.write_u64(eval_seed);
    for &sid in prefix {
        h.write_u64(sid as u64);
    }
    rng_for_task(eval_seed, h.finish())
}

/// Every prefix key of `scheme` under this evaluation context:
/// `keys[d-1]` addresses the model state after executing `scheme[..d]`.
pub(crate) fn prefix_keys(
    base_model: &ConvNet,
    train_set: &ImageSet,
    eval_set: &ImageSet,
    cfg: &ExecConfig,
    scheme: &[StrategyId],
    space: &StrategySpace,
) -> Vec<u64> {
    let mut h = Fnv::default();
    h.write(b"automc-memo-v1");
    // Kernel numerics version: memoised metrics are float outputs of the
    // tensor kernels, so entries computed under different kernel numerics
    // must never collide. (`step_rng` stays unsalted — RNG streams are
    // independent of kernel numerics and must survive bumps.)
    h.write_u64(automc_tensor::KERNEL_NUMERICS_VERSION);
    h.write_u64(model_fingerprint(base_model));
    h.write_u64(dataset_fingerprint(train_set));
    h.write_u64(dataset_fingerprint(eval_set));
    h.write_u64(exec_fingerprint(cfg));
    let mut keys = Vec::with_capacity(scheme.len());
    for &sid in scheme {
        h.write_u64(sid as u64);
        // Hash the full hyperparameter spec, not just the id: the same id
        // in a different strategy space is a different strategy.
        h.write(format!("{:?}", space.spec(sid)).as_bytes());
        keys.push(h.finish());
    }
    keys
}

// ---------------------------------------------------------------------------
// Cached values
// ---------------------------------------------------------------------------

/// How a negative-cached prefix failed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FailKind {
    /// Training diverged (non-finite loss or accuracy).
    Diverged,
    /// A panic was caught, with its payload message.
    Panicked(String),
    /// The cooperative `max_train_steps` cap was exhausted.
    TimedOut,
}

#[derive(Clone)]
enum Cached {
    Good {
        model_bytes: Vec<u8>,
        metrics: Metrics,
        steps: Vec<StepRecord>,
        cost: EvalCost,
        train_batches: u64,
    },
    Failed {
        kind: FailKind,
        step: usize,
        cost: EvalCost,
        train_batches: u64,
    },
}

impl Cached {
    /// Approximate heap footprint, for the byte budget.
    fn bytes(&self) -> usize {
        match self {
            Cached::Good { model_bytes, steps, .. } => {
                model_bytes.len() + steps.len() * std::mem::size_of::<StepRecord>() + 128
            }
            Cached::Failed { kind, .. } => {
                let msg = match kind {
                    FailKind::Panicked(m) => m.len(),
                    _ => 0,
                };
                msg + 128
            }
        }
    }
}

/// A successful cache hit, decoded and ready to resume from.
pub(crate) struct GoodHit {
    pub depth: usize,
    pub model: ConvNet,
    pub metrics: Metrics,
    pub steps: Vec<StepRecord>,
    pub cost: EvalCost,
    pub train_batches: u64,
}

/// A negative cache hit: this prefix is known to fail.
pub(crate) struct FailedHit {
    pub kind: FailKind,
    pub step: usize,
    pub cost: EvalCost,
}

/// Result of [`lookup_longest`].
pub(crate) enum Hit {
    /// Resume from this prefix model.
    Good(GoodHit),
    /// The evaluation is doomed: fail immediately as recorded.
    Failed(FailedHit),
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

struct Slot {
    value: Cached,
    bytes: usize,
    last_use: u64,
}

#[derive(Default)]
struct Store {
    map: HashMap<u64, Slot>,
    seq: u64,
    bytes: usize,
}

impl Store {
    fn touch(&mut self, key: u64) -> Option<Cached> {
        self.seq += 1;
        let seq = self.seq;
        self.map.get_mut(&key).map(|slot| {
            slot.last_use = seq;
            slot.value.clone()
        })
    }

    fn insert(&mut self, key: u64, value: Cached, budget: usize) -> u64 {
        self.seq += 1;
        if self.map.contains_key(&key) {
            // Values are content-addressed: a re-insert is identical by
            // construction, so only refresh recency.
            if let Some(slot) = self.map.get_mut(&key) {
                slot.last_use = self.seq;
            }
            return 0;
        }
        let bytes = value.bytes();
        self.bytes += bytes;
        let last_use = self.seq;
        self.map.insert(key, Slot { value, bytes, last_use });
        let mut evicted = 0;
        while self.bytes > budget && !self.map.is_empty() {
            // O(n) min-scan: the store holds at most a few thousand
            // entries and evictions are rare next to training work.
            let Some((&victim, _)) =
                self.map.iter().min_by_key(|(_, slot)| slot.last_use)
            else {
                break;
            };
            if let Some(slot) = self.map.remove(&victim) {
                self.bytes -= slot.bytes;
                evicted += 1;
            }
        }
        evicted
    }

    fn remove(&mut self, key: u64) {
        if let Some(slot) = self.map.remove(&key) {
            self.bytes -= slot.bytes;
        }
    }
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Store::default()))
}

fn locked_store() -> std::sync::MutexGuard<'static, Store> {
    match store().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Default in-memory byte budget (~256 MiB).
pub const DEFAULT_BYTE_BUDGET: u64 = 256 << 20;

fn env_enabled() -> bool {
    match std::env::var("AUTOMC_MEMO") {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "off" | "0" | "false" | "no"
        ),
        Err(_) => true,
    }
}

fn env_budget() -> u64 {
    std::env::var("AUTOMC_MEMO_BYTES")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(DEFAULT_BYTE_BUDGET)
}

thread_local! {
    static THREAD_ENABLED: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Global on/off override (set by the bench `--memo` flag): 0 defers to
/// the `AUTOMC_MEMO` environment variable (default: enabled), 1 is on, 2
/// is off.
static GLOBAL_ENABLED: AtomicU64 = AtomicU64::new(0);

fn byte_budget_cell() -> &'static AtomicU64 {
    static BUDGET: OnceLock<AtomicU64> = OnceLock::new();
    BUDGET.get_or_init(|| AtomicU64::new(env_budget()))
}

/// Whether memoization is active for the current thread. Priority:
/// per-thread override (tests), then the global override (bench flag),
/// then `AUTOMC_MEMO` (default on).
pub fn enabled() -> bool {
    if let Some(v) = THREAD_ENABLED.with(|c| c.get()) {
        return v;
    }
    match GLOBAL_ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            static ENV: OnceLock<bool> = OnceLock::new();
            *ENV.get_or_init(env_enabled)
        }
    }
}

/// Per-thread enable/disable override, for tests that must not interfere
/// with concurrently running tests. `None` removes the override.
pub fn set_enabled_for_thread(v: Option<bool>) {
    THREAD_ENABLED.with(|c| c.set(v));
}

/// Process-wide enable/disable override (the bench `--memo` flag). The
/// override is visible to all threads, including pool workers.
pub fn set_enabled_global(v: Option<bool>) {
    GLOBAL_ENABLED.store(
        match v {
            None => 0,
            Some(true) => 1,
            Some(false) => 2,
        },
        Ordering::Relaxed,
    );
}

/// Set the in-memory byte budget (overrides `AUTOMC_MEMO_BYTES`).
pub fn set_byte_budget(bytes: u64) {
    byte_budget_cell().store(bytes, Ordering::Relaxed);
}

/// Drop every in-memory entry (spilled blobs are untouched).
pub fn clear() {
    let mut s = locked_store();
    s.map.clear();
    s.bytes = 0;
}

/// Total entries evicted by the byte budget since process start.
pub fn evictions() -> u64 {
    EVICTIONS.load(Ordering::Relaxed)
}

static EVICTIONS: AtomicU64 = AtomicU64::new(0);

// ---------------------------------------------------------------------------
// Statistics (thread-local, so concurrent searches report independently)
// ---------------------------------------------------------------------------

/// Counters describing how the cache behaved on the current thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Evaluations that consulted the cache (non-empty scheme, memo on).
    pub lookups: u64,
    /// Lookups that found *any* cached prefix (depth ≥ 1).
    pub prefix_hits: u64,
    /// Lookups where the whole scheme was cached.
    pub full_hits: u64,
    /// Lookups answered by the negative cache (known-bad prefix).
    pub neg_hits: u64,
    /// Hits served from the spill directory rather than memory.
    pub spill_hits: u64,
    /// Strategy steps skipped thanks to cached prefixes.
    pub steps_avoided: u64,
    /// Training images the skipped steps would have consumed.
    pub trained_images_avoided: u64,
    /// Training mini-batches the skipped steps would have consumed.
    pub train_batches_avoided: u64,
    /// Entries written (per prefix depth).
    pub inserts: u64,
    /// Blobs published to the spill store. Unlike the fields above this
    /// is *process-wide* (the store is shared by all threads), snapshotted
    /// from [`crate::store::counters`] at [`stats`] time.
    pub spilled: u64,
    /// Spill blobs evicted under the disk budget (process-wide).
    pub spill_evictions: u64,
    /// Corrupt spill blobs quarantined and healed (process-wide).
    pub healed: u64,
}

impl MemoStats {
    /// Prefix hit rate in percent (0 when nothing was looked up).
    pub fn hit_rate_pct(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            100.0 * self.prefix_hits as f64 / self.lookups as f64
        }
    }

    /// `self - earlier`, counter-wise (for snapshot-around-a-search).
    pub fn since(&self, earlier: &MemoStats) -> MemoStats {
        MemoStats {
            lookups: self.lookups - earlier.lookups,
            prefix_hits: self.prefix_hits - earlier.prefix_hits,
            full_hits: self.full_hits - earlier.full_hits,
            neg_hits: self.neg_hits - earlier.neg_hits,
            spill_hits: self.spill_hits - earlier.spill_hits,
            steps_avoided: self.steps_avoided - earlier.steps_avoided,
            trained_images_avoided: self.trained_images_avoided
                - earlier.trained_images_avoided,
            train_batches_avoided: self.train_batches_avoided
                - earlier.train_batches_avoided,
            inserts: self.inserts - earlier.inserts,
            // Process-wide store counters are monotonic but not reset by
            // `reset_stats`; saturate rather than panic on odd snapshots.
            spilled: self.spilled.saturating_sub(earlier.spilled),
            spill_evictions: self
                .spill_evictions
                .saturating_sub(earlier.spill_evictions),
            healed: self.healed.saturating_sub(earlier.healed),
        }
    }
}

thread_local! {
    static STATS: RefCell<MemoStats> = RefCell::new(MemoStats::default());
}

/// Snapshot the current thread's counters, with the process-wide spill
/// store counters overlaid (`spilled` / `spill_evictions` / `healed`).
pub fn stats() -> MemoStats {
    let mut snap = STATS.with(|s| *s.borrow());
    let store = crate::store::counters();
    snap.spilled = store.publishes;
    snap.spill_evictions = store.evictions;
    snap.healed = store.healed;
    snap
}

/// Zero the current thread's counters.
pub fn reset_stats() {
    STATS.with(|s| *s.borrow_mut() = MemoStats::default());
}

fn with_stats(f: impl FnOnce(&mut MemoStats)) {
    STATS.with(|s| f(&mut s.borrow_mut()));
}

// ---------------------------------------------------------------------------
// Spill store (crash-safe concurrent blob store, see `crate::store`)
// ---------------------------------------------------------------------------

static SPILL: Mutex<Option<Arc<BlobStore>>> = Mutex::new(None);

/// Default on-disk spill budget (~1 GiB). The spill store is shared by
/// every process pointed at the same directory and is otherwise unbounded
/// across runs.
pub const DEFAULT_DISK_BUDGET: u64 = 1 << 30;

fn env_disk_budget() -> u64 {
    std::env::var("AUTOMC_MEMO_DISK_BYTES")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(DEFAULT_DISK_BUDGET)
}

fn disk_budget_cell() -> &'static AtomicU64 {
    static BUDGET: OnceLock<AtomicU64> = OnceLock::new();
    BUDGET.get_or_init(|| AtomicU64::new(env_disk_budget()))
}

/// Set the on-disk spill budget (overrides `AUTOMC_MEMO_DISK_BYTES`).
/// This is the byte budget handed to the blob store's generational GC:
/// a *target* the GC converges the shared directory towards, re-anchored
/// from the store index each pass (so sibling processes' writes count),
/// never enforced by deleting blobs inside the in-use grace window.
pub fn set_disk_budget(bytes: u64) {
    disk_budget_cell().store(bytes, Ordering::Relaxed);
}

/// Direct spilled entries to a [`BlobStore`] at `dir` (`None` disables
/// spilling). Spilled blobs let fresh *and concurrent sibling* processes
/// re-hit prefixes computed elsewhere. Opening the store replays (or
/// rebuilds) its index and immediately enforces the disk budget, so a
/// long-lived spill store is trimmed at startup rather than growing
/// without bound. If the store cannot be opened, spilling is disabled
/// with a warning — the memo degrades to in-memory only.
pub fn set_spill_dir(dir: Option<PathBuf>) {
    let store = dir.and_then(|d| match BlobStore::open(&d) {
        Ok(s) => Some(Arc::new(s)),
        Err(e) => {
            eprintln!(
                "warning: cannot open memo spill store at {} ({e}); \
                 continuing without spill",
                d.display()
            );
            None
        }
    });
    if let Ok(mut g) = SPILL.lock() {
        *g = store;
    }
    gc_spill_store();
}

/// The shared spill [`BlobStore`], if one is configured. The orchestrator
/// and serve-style callers can use this to report store-level counters.
pub fn spill_store_handle() -> Option<Arc<BlobStore>> {
    SPILL.lock().ok().and_then(|g| g.clone())
}

/// Enforce the spill-store disk budget via the blob store's generational
/// GC (advisory-locked, index-anchored, grace-window-aware; see
/// [`crate::store::BlobStore::gc`]). Returns the bytes evicted.
pub fn gc_spill_store() -> u64 {
    let Some(store) = spill_store_handle() else { return 0 };
    store.gc(disk_budget_cell().load(Ordering::Relaxed))
}

/// First bytes of a spill payload, inside the store's sealed envelope.
/// The envelope carries the checksum; this names the payload's version,
/// so a blob of another version fails [`decode`] and is healed.
const SPILL_MAGIC: &[u8; 8] = b"AUTOMCm2";

fn encode_cost(out: &mut Vec<u8>, c: &EvalCost) {
    out.extend_from_slice(&c.trained_images.to_le_bytes());
    out.extend_from_slice(&c.eval_images.to_le_bytes());
}

fn encode_metrics(out: &mut Vec<u8>, m: &Metrics) {
    out.extend_from_slice(&(m.params as u64).to_le_bytes());
    out.extend_from_slice(&m.flops.to_le_bytes());
    out.extend_from_slice(&m.acc.to_bits().to_le_bytes());
}

fn encode(value: &Cached) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SPILL_MAGIC);
    match value {
        Cached::Good { model_bytes, metrics, steps, cost, train_batches } => {
            out.push(0);
            encode_metrics(&mut out, metrics);
            encode_cost(&mut out, cost);
            out.extend_from_slice(&train_batches.to_le_bytes());
            out.extend_from_slice(&(steps.len() as u64).to_le_bytes());
            for s in steps {
                out.extend_from_slice(&(s.strategy as u64).to_le_bytes());
                out.extend_from_slice(&s.ar_step.to_bits().to_le_bytes());
                out.extend_from_slice(&s.pr_step.to_bits().to_le_bytes());
                encode_metrics(&mut out, &s.after);
                encode_cost(&mut out, &s.cost);
            }
            out.extend_from_slice(&(model_bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(model_bytes);
        }
        Cached::Failed { kind, step, cost, train_batches } => {
            out.push(1);
            let (tag, msg) = match kind {
                FailKind::Diverged => (0u8, ""),
                FailKind::Panicked(m) => (1, m.as_str()),
                FailKind::TimedOut => (2, ""),
            };
            out.push(tag);
            out.extend_from_slice(&(msg.len() as u64).to_le_bytes());
            out.extend_from_slice(msg.as_bytes());
            out.extend_from_slice(&(*step as u64).to_le_bytes());
            encode_cost(&mut out, cost);
            out.extend_from_slice(&train_batches.to_le_bytes());
        }
    }
    out
}

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| {
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            u64::from_le_bytes(a)
        })
    }

    fn f32(&mut self) -> Option<f32> {
        self.take(4).map(|b| {
            let mut a = [0u8; 4];
            a.copy_from_slice(b);
            f32::from_bits(u32::from_le_bytes(a))
        })
    }

    fn cost(&mut self) -> Option<EvalCost> {
        Some(EvalCost {
            trained_images: self.u64()?,
            eval_images: self.u64()?,
        })
    }

    fn metrics(&mut self) -> Option<Metrics> {
        Some(Metrics {
            params: self.u64()? as usize,
            flops: self.u64()?,
            acc: self.f32()?,
        })
    }
}

/// Decode a spill payload; `None` on another version's magic, a field
/// running past the end, or trailing bytes.
fn decode(body: &[u8]) -> Option<Cached> {
    let mut r = Reader { buf: body, pos: 0 };
    if r.take(SPILL_MAGIC.len())? != SPILL_MAGIC {
        return None;
    }
    match r.u8()? {
        0 => {
            let metrics = r.metrics()?;
            let cost = r.cost()?;
            let train_batches = r.u64()?;
            let n_steps = r.u64()? as usize;
            if n_steps > 10_000 {
                return None;
            }
            let mut steps = Vec::with_capacity(n_steps);
            for _ in 0..n_steps {
                steps.push(StepRecord {
                    strategy: r.u64()? as usize,
                    ar_step: r.f32()?,
                    pr_step: r.f32()?,
                    after: r.metrics()?,
                    cost: r.cost()?,
                });
            }
            let model_len = r.u64()? as usize;
            let model_bytes = r.take(model_len)?.to_vec();
            if r.pos != body.len() {
                return None;
            }
            Some(Cached::Good { model_bytes, metrics, steps, cost, train_batches })
        }
        1 => {
            let tag = r.u8()?;
            let msg_len = r.u64()? as usize;
            if msg_len > 1 << 20 {
                return None;
            }
            let msg = String::from_utf8(r.take(msg_len)?.to_vec()).ok()?;
            let kind = match tag {
                0 => FailKind::Diverged,
                1 => FailKind::Panicked(msg),
                2 => FailKind::TimedOut,
                _ => return None,
            };
            let step = r.u64()? as usize;
            let cost = r.cost()?;
            let train_batches = r.u64()?;
            if r.pos != body.len() {
                return None;
            }
            Some(Cached::Failed { kind, step, cost, train_batches })
        }
        _ => None,
    }
}

fn spill_store(key: u64, value: &Cached) {
    let Some(store) = spill_store_handle() else { return };
    // The blob store's publish is write-once and crash-safe (temp +
    // fsync + rename), and its envelope checksums the payload; content
    // addressing makes a lost same-key race identical by construction.
    if store.publish(key, &encode(value))
        && store.total_bytes() > disk_budget_cell().load(Ordering::Relaxed)
    {
        gc_spill_store();
    }
}

fn spill_load(key: u64) -> Option<Cached> {
    spill_load_from(&*spill_store_handle()?, key)
}

fn spill_load_from(store: &BlobStore, key: u64) -> Option<Cached> {
    // `get` verifies the store envelope, quarantines corruption, and
    // turns sibling-evict races into clean misses; recency touches are
    // index records now, not mtime writes.
    let bytes = store.get(key)?;
    match decode(&bytes) {
        Some(v) => Some(v),
        None => {
            // Sealed, but a payload this build does not decode (another
            // build's version): heal it the same way the store heals
            // envelope corruption, since a write-once key is republished
            // only once the blob is gone — quarantine, log, recompute,
            // re-spill.
            eprintln!(
                "warning: memo spill blob {key:016x} is not a payload this build \
                 decodes; quarantining"
            );
            store.quarantine(key);
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Lookup / insert (the executor's interface)
// ---------------------------------------------------------------------------

/// Find the deepest cached prefix among `keys` (`keys[d-1]` = depth `d`).
/// With `good_only`, negative entries are skipped (the plain executor has
/// no failure channel and must recompute through them).
pub(crate) fn lookup_longest(keys: &[u64], good_only: bool) -> Option<Hit> {
    with_stats(|s| s.lookups += 1);
    for depth in (1..=keys.len()).rev() {
        let key = keys[depth - 1];
        let mut from_spill = false;
        let cached = {
            let found = locked_store().touch(key);
            match found {
                Some(v) => Some(v),
                None => match spill_load(key) {
                    Some(v) => {
                        from_spill = true;
                        let budget = byte_budget_cell().load(Ordering::Relaxed) as usize;
                        let evicted = locked_store().insert(key, v.clone(), budget);
                        EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
                        Some(v)
                    }
                    None => None,
                },
            }
        };
        let Some(cached) = cached else { continue };
        match cached {
            Cached::Good { model_bytes, metrics, steps, cost, train_batches } => {
                let Ok(model) = serialize::model_from_bytes(&model_bytes) else {
                    // Unrecoverable entry (e.g. decoded from a damaged
                    // blob): drop it and keep scanning shallower depths.
                    locked_store().remove(key);
                    continue;
                };
                with_stats(|s| {
                    s.prefix_hits += 1;
                    if depth == keys.len() {
                        s.full_hits += 1;
                    }
                    if from_spill {
                        s.spill_hits += 1;
                    }
                    s.steps_avoided += depth as u64;
                    s.trained_images_avoided += cost.trained_images;
                    s.train_batches_avoided += train_batches;
                });
                return Some(Hit::Good(GoodHit {
                    depth,
                    model,
                    metrics,
                    steps,
                    cost,
                    train_batches,
                }));
            }
            Cached::Failed { kind, step, cost, .. } => {
                if good_only {
                    continue;
                }
                with_stats(|s| {
                    s.prefix_hits += 1;
                    s.neg_hits += 1;
                    if from_spill {
                        s.spill_hits += 1;
                    }
                });
                return Some(Hit::Failed(FailedHit { kind, step, cost }));
            }
        }
    }
    None
}

fn insert(key: u64, value: Cached) {
    let budget = byte_budget_cell().load(Ordering::Relaxed) as usize;
    spill_store(key, &value);
    let evicted = locked_store().insert(key, value, budget);
    EVICTIONS.fetch_add(evicted, Ordering::Relaxed);
    with_stats(|s| s.inserts += 1);
}

/// Record the model state after a successfully executed prefix.
pub(crate) fn insert_good(
    key: u64,
    model: &ConvNet,
    metrics: Metrics,
    steps: &[StepRecord],
    cost: EvalCost,
    train_batches: u64,
) {
    insert(
        key,
        Cached::Good {
            model_bytes: serialize::model_to_bytes(model),
            metrics,
            steps: steps.to_vec(),
            cost,
            train_batches,
        },
    );
}

/// Negative-cache a prefix whose last step failed organically.
pub(crate) fn insert_failed(
    key: u64,
    kind: FailKind,
    step: usize,
    cost: EvalCost,
    train_batches: u64,
) {
    insert(key, Cached::Failed { kind, step, cost, train_batches });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good(n: usize) -> Cached {
        Cached::Good {
            model_bytes: vec![0u8; n],
            metrics: Metrics { params: 1, flops: 2, acc: 0.5 },
            steps: Vec::new(),
            cost: EvalCost::default(),
            train_batches: 0,
        }
    }

    #[test]
    fn lru_evicts_least_recently_used_under_byte_budget() {
        let mut s = Store::default();
        let budget = 3 * (1000 + 128);
        assert_eq!(s.insert(1, good(1000), budget), 0);
        assert_eq!(s.insert(2, good(1000), budget), 0);
        assert_eq!(s.insert(3, good(1000), budget), 0);
        // Refresh 1, insert 4: 2 is now the least recently used.
        assert!(s.touch(1).is_some());
        assert_eq!(s.insert(4, good(1000), budget), 1);
        assert!(s.map.contains_key(&1));
        assert!(!s.map.contains_key(&2), "LRU victim must be evicted");
        assert!(s.map.contains_key(&3));
        assert!(s.map.contains_key(&4));
        assert!(s.bytes <= budget);
    }

    #[test]
    fn reinsert_refreshes_recency_without_double_counting() {
        let mut s = Store::default();
        let budget = usize::MAX;
        s.insert(7, good(100), budget);
        let bytes = s.bytes;
        s.insert(7, good(100), budget);
        assert_eq!(s.bytes, bytes, "re-insert must not grow the footprint");
        assert_eq!(s.map.len(), 1);
    }

    #[test]
    fn spill_codec_roundtrips_and_rejects_corruption() {
        let steps = vec![StepRecord {
            strategy: 12,
            ar_step: -0.01,
            pr_step: 0.25,
            after: Metrics { params: 900, flops: 1800, acc: 0.71 },
            cost: EvalCost { trained_images: 64, eval_images: 80 },
        }];
        let value = Cached::Good {
            model_bytes: vec![1, 2, 3, 4, 5],
            metrics: Metrics { params: 900, flops: 1800, acc: 0.71 },
            steps,
            cost: EvalCost { trained_images: 64, eval_images: 80 },
            train_batches: 9,
        };
        let bytes = encode(&value);
        match decode(&bytes) {
            Some(Cached::Good { model_bytes, metrics, steps, cost, train_batches }) => {
                assert_eq!(model_bytes, vec![1, 2, 3, 4, 5]);
                assert_eq!(metrics.acc.to_bits(), 0.71f32.to_bits());
                assert_eq!(steps.len(), 1);
                assert_eq!(steps[0].cost.eval_images, 80);
                assert_eq!(cost.trained_images, 64);
                assert_eq!(train_batches, 9);
            }
            _ => panic!("roundtrip failed"),
        }
        let failed = Cached::Failed {
            kind: FailKind::Panicked("boom".into()),
            step: 2,
            cost: EvalCost { trained_images: 3, eval_images: 4 },
            train_batches: 1,
        };
        match decode(&encode(&failed)) {
            Some(Cached::Failed { kind: FailKind::Panicked(m), step, .. }) => {
                assert_eq!(m, "boom");
                assert_eq!(step, 2);
            }
            _ => panic!("failed-entry roundtrip failed"),
        }
        let bytes = encode(&value);
        assert!(decode(&bytes[..bytes.len() - 3]).is_none(), "truncation");
        assert!(decode(&[]).is_none());

        // A flipped byte in a spilled blob on disk fails the store
        // envelope's checksum: a miss, quarantined, and healed by the
        // next spill.
        let dir = std::env::temp_dir().join(format!(
            "automc-memo-codec-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = BlobStore::open(&dir).unwrap();
        let key = 0x5eed_u64;
        let blob = dir.join(format!("{key:016x}.bin"));
        assert!(store.publish(key, &bytes));
        let mut on_disk = std::fs::read(&blob).unwrap();
        let mid = on_disk.len() / 2;
        on_disk[mid] ^= 0x10;
        std::fs::write(&blob, &on_disk).unwrap();
        assert!(spill_load_from(&store, key).is_none(), "bit flip must miss");
        assert!(!blob.exists(), "the damaged blob is moved aside");
        assert_eq!(std::fs::read_dir(dir.join("quarantine")).unwrap().count(), 1);
        assert!(store.publish(key, &bytes), "the freed key is republished");
        assert!(matches!(spill_load_from(&store, key), Some(Cached::Good { .. })));

        // An earlier build's payload (`AUTOMCm1`, its own FNV trailer),
        // validly sealed: another version, so a quarantined miss too.
        let mut old = bytes.clone();
        old[..8].copy_from_slice(b"AUTOMCm1");
        let trailer = fnv1a64(&old);
        old.extend_from_slice(&trailer.to_le_bytes());
        let old_key = 0x01d_u64;
        assert!(store.publish(old_key, &old));
        assert!(spill_load_from(&store, old_key).is_none(), "another version must miss");
        assert_eq!(std::fs::read_dir(dir.join("quarantine")).unwrap().count(), 2);
        assert!(store.publish(old_key, &bytes), "the freed key is republished");
        assert!(matches!(spill_load_from(&store, old_key), Some(Cached::Good { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_gc_evicts_oldest_blobs_to_the_disk_budget() {
        let dir = std::env::temp_dir().join(format!(
            "automc-memo-gc-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Three 100-byte legacy blobs (canonical 16-hex stems, as the
        // pre-store spill path always wrote) with increasing mtimes.
        let t0 = std::time::SystemTime::now() - std::time::Duration::from_secs(300);
        let name = |k: u64| format!("{k:016x}.bin");
        for (i, key) in [0xaau64, 0xbb, 0xcc].iter().enumerate() {
            let path = dir.join(name(*key));
            std::fs::write(&path, vec![7u8; 100]).unwrap();
            let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_modified(t0 + std::time::Duration::from_secs(60 * i as u64))
                .unwrap();
        }
        // Non-blob files are never GC candidates.
        std::fs::write(dir.join("stray.tmp"), b"x").unwrap();

        set_disk_budget(250);
        set_spill_dir(Some(dir.clone())); // startup index rebuild + GC
        assert!(!dir.join(name(0xaa)).exists(), "oldest blob evicted first");
        assert!(dir.join(name(0xbb)).exists());
        assert!(dir.join(name(0xcc)).exists());
        assert!(dir.join("stray.tmp").exists());

        // Under budget: a GC pass evicts nothing.
        assert_eq!(gc_spill_store(), 0);
        assert!(dir.join(name(0xbb)).exists());

        // Tighten the budget: only the newest blob survives.
        set_disk_budget(150);
        assert_eq!(gc_spill_store(), 100);
        assert!(!dir.join(name(0xbb)).exists());
        assert!(dir.join(name(0xcc)).exists());

        set_spill_dir(None);
        set_disk_budget(DEFAULT_DISK_BUDGET);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn step_rng_depends_only_on_seed_and_prefix() {
        use rand::Rng as _;
        let a: f32 = step_rng(9, &[1, 2, 3]).gen();
        let b: f32 = step_rng(9, &[1, 2, 3]).gen();
        assert_eq!(a.to_bits(), b.to_bits());
        let c: f32 = step_rng(9, &[1, 2, 4]).gen();
        assert_ne!(a.to_bits(), c.to_bits(), "different prefix, different stream");
        let d: f32 = step_rng(10, &[1, 2, 3]).gen();
        assert_ne!(a.to_bits(), d.to_bits(), "different seed, different stream");
    }
}
