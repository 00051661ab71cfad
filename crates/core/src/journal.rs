//! Crash-safe round journal, written and restored by the search driver
//! ([`crate::drive`]) for all four search strategies.
//!
//! At the end of every search round the full resumable state — the
//! evaluation history, the algorithm's opaque learner state (`F_mo` for
//! AutoMC, the REINFORCE controller for RL, the population for the EA),
//! every extension node's model reference, the budget spent, the RNG
//! state, and the fault-injection counters — is written to one journal
//! file. Writes are atomic (temp file + rename) so a crash mid-write
//! leaves the previous round's journal intact, and the payload is
//! checksummed (FNV-1a 64) so torn or corrupted files are detected and
//! treated as "no journal" rather than trusted.
//!
//! Node models are stored as *content-addressed blobs* in a sibling
//! `<journal>.blobs/` directory, keyed by the FNV-1a 64 hash of their
//! bytes: the journal only references hashes, a blob is written once when
//! its node first appears, and unreferenced blobs are garbage-collected
//! after each successful journal write — so the per-round write cost is
//! O(new nodes), not O(frontier). Blob contents are re-hashed on load; a
//! missing or corrupt blob invalidates the journal.
//!
//! A journal is keyed by a *run fingerprint* hashed from everything that
//! shapes the run (problem instance, configuration, embeddings, seed); a
//! journal whose fingerprint does not match the requesting run is ignored
//! with a warning. Restoring a journal reproduces the interrupted run
//! bitwise: resumed and uninterrupted searches emit identical histories.
//!
//! Persistent write failures follow a retry-then-disable policy: each
//! write is retried with backoff ([`write_atomic_retry`]), and a save that
//! still fails is reported to the driver, which disables journaling for
//! the rest of the run rather than silently continuing to trust a stale
//! checkpoint.

use crate::history::SearchHistory;
use automc_compress::{EvalCost, Metrics, Scheme, StrategyId};
use automc_json::{field, obj, ToJson, Value};
use automc_tensor::fault;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

// The durable-write primitives (FNV-1a checksum, atomic fsync'd writes,
// bounded retry) now live in `automc_compress::store` — the crash-safe
// blob store and this journal share one write discipline, and the store
// sits lower in the crate graph. Re-exported here so every existing
// `journal::fnv1a64` / `journal::write_atomic*` caller keeps working.
pub use automc_compress::store::{fnv1a64, write_atomic, write_atomic_retry};

/// Lowercase hex digits, indexed by nibble value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Nibble value of every byte that is a hex digit (either case); `0xff`
/// marks the rest.
const HEX_VALUES: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        table[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// Lowercase hex encoding of a byte string. Table-driven: the RL
/// controller's checkpoint state is megabytes, encoded every round.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        s.push(char::from(HEX_DIGITS[usize::from(b & 0x0f)]));
    }
    s
}

/// Decode [`to_hex`] output (either case); `None` on odd length or any
/// character that is not a hex digit.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    let digits = s.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let (hi, lo) = (HEX_VALUES[usize::from(pair[0])], HEX_VALUES[usize::from(pair[1])]);
        if (hi | lo) > 0x0f {
            return None;
        }
        out.push(hi << 4 | lo);
    }
    Some(out)
}

// ------------------------------------------------------------------------
// Checksummed envelopes
// ------------------------------------------------------------------------

/// Version of the checksummed-envelope schema. Bump it whenever the
/// envelope or payload format changes incompatibly; readers treat a
/// different version as "from another era, start fresh" rather than as
/// corruption. Envelopes written before the field existed read as v1.
pub const SCHEMA_VERSION: u64 = 2;

/// Wrap `payload` in a `{schema, checksum, payload}` envelope and write
/// it atomically with retry. Shared by the search journal, pre-eval
/// intent records, and the harness's grid checkpoints.
pub fn save_checksummed(path: &Path, payload: &str) -> io::Result<()> {
    let envelope = obj(vec![
        ("schema", SCHEMA_VERSION.to_json()),
        (
            "checksum",
            Value::Str(format!("{:016x}", fnv1a64(payload.as_bytes()))),
        ),
        ("payload", Value::Str(payload.to_string())),
    ]);
    write_atomic_retry(path, envelope.to_string_pretty().as_bytes())
}

/// Read a [`save_checksummed`] envelope back, validating the schema
/// version and the checksum. `None` on a missing file (silent — the
/// normal fresh-run case), on a schema from a different era (logged as
/// such), or on corruption (logged).
pub fn load_checksummed(path: &Path) -> Option<String> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
        Err(e) => {
            eprintln!("warning: cannot read journal {}: {e}", path.display());
            return None;
        }
    };
    let invalid = || {
        eprintln!(
            "warning: journal {} is corrupt; starting fresh",
            path.display()
        );
    };
    let Ok(envelope) = automc_json::parse(&text) else {
        invalid();
        return None;
    };
    // Schema drift is not corruption: say so and start fresh.
    if let Some(schema) = envelope.get("schema").and_then(|s| s.as_f64()) {
        let schema = schema as u64;
        if schema != SCHEMA_VERSION {
            eprintln!(
                "warning: journal {} uses schema v{schema} \
                 (this build writes v{SCHEMA_VERSION}); starting fresh",
                path.display()
            );
            return None;
        }
    }
    let (Some(checksum), Some(payload)) = (
        envelope
            .get("checksum")
            .and_then(|c| c.as_str())
            .and_then(|c| u64::from_str_radix(c, 16).ok()),
        envelope.get("payload").and_then(|p| p.as_str()),
    ) else {
        invalid();
        return None;
    };
    if fnv1a64(payload.as_bytes()) != checksum {
        invalid();
        return None;
    }
    Some(payload.to_string())
}

// ------------------------------------------------------------------------
// Pre-eval intent records
// ------------------------------------------------------------------------

/// The sibling file holding a journal's pre-eval intent record.
pub fn intent_path(journal: &Path) -> PathBuf {
    let mut p = journal.as_os_str().to_owned();
    p.push(".intent");
    PathBuf::from(p)
}

/// Journal the *intent* to begin one supervised evaluation, before its
/// `eval` fault tick fires.
///
/// An `exit@eval:N` fault kills the process at the tick itself, so the
/// round journal — written only at round boundaries — still holds the
/// pre-eval counters. Restoring those re-arms the same ordinal and the
/// resumed run is killed again, forever. The intent record captures the
/// counters *as they will read after the tick* ("eval" bumped by one);
/// [`load`] max-merges it into the journal's counters so a fault that
/// already fired never re-arms.
///
/// Only written while a fault plan is active (no per-eval I/O otherwise)
/// and journaling is enabled; write errors are logged and ignored — an
/// intent record is an optimisation of resume, not required state.
pub fn record_eval_intent(journal_to: Option<&Path>, fingerprint: u64) {
    if !fault::plan_active() {
        return;
    }
    let Some(path) = journal_to else { return };
    let mut counters = fault::counters();
    match counters.iter_mut().find(|(site, _)| site == "eval") {
        Some((_, n)) => *n += 1,
        None => counters.push(("eval".to_string(), 1)),
    }
    counters.sort();
    let payload = obj(vec![
        ("fingerprint", Value::Str(format!("{fingerprint:016x}"))),
        ("fault_counters", counters.to_json()),
    ])
    .to_string_pretty();
    let ip = intent_path(path);
    if let Err(e) = save_checksummed(&ip, &payload) {
        eprintln!("warning: cannot write intent record {}: {e}", ip.display());
    }
}

/// Max-merge a matching intent record into restored fault counters.
///
/// Called automatically by [`load`]; checkpoint mechanisms that bypass
/// [`load`] (the bench method-grid) call it directly after restoring
/// their own counters.
pub fn merge_eval_intent(path: &Path, fingerprint: u64, counters: &mut Vec<(String, u64)>) {
    let ip = intent_path(path);
    let Some(payload) = load_checksummed(&ip) else { return };
    let Ok(v) = automc_json::parse(&payload) else { return };
    let Some(fp) = v
        .get("fingerprint")
        .and_then(|f| f.as_str())
        .and_then(|f| u64::from_str_radix(f, 16).ok())
    else {
        return;
    };
    if fp != fingerprint {
        return;
    }
    let Some(intent) = field::<Vec<(String, u64)>>(&v, "fault_counters") else {
        return;
    };
    for (site, n) in intent {
        match counters.iter_mut().find(|(s, _)| *s == site) {
            Some((_, cur)) => *cur = (*cur).max(n),
            None => counters.push((site, n)),
        }
    }
    counters.sort();
    eprintln!(
        "[journal] merged pre-eval intent record for {}",
        path.display()
    );
}

// ------------------------------------------------------------------------
// Worker heartbeats
// ------------------------------------------------------------------------

/// One worker heartbeat, written (checksummed + atomic — the same
/// envelope discipline as the journal itself) by a sharded worker process
/// at a fixed cadence and read by its supervisor. The supervisor tracks
/// `seq` changes against a wall-clock deadline to distinguish a hung
/// worker from a slow one; `eval` and `tasks_done` report *where* the
/// worker is, for logs and diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heartbeat {
    /// Worker shard index.
    pub worker: u64,
    /// OS process id of the emitting worker.
    pub pid: u64,
    /// Monotonic beat counter; a supervisor treats a worker whose `seq`
    /// has not advanced within its deadline as hung.
    pub seq: u64,
    /// Process-wide supervised-evaluation ordinal at emit time
    /// (`automc_tensor::fault::eval_ordinal`).
    pub eval: u64,
    /// Shard tasks completed so far.
    pub tasks_done: u64,
    /// True on the final beat, written after the last task's results are
    /// persisted.
    pub done: bool,
}

impl Heartbeat {
    /// JSON form — public because heartbeats travel two ways: as
    /// checksummed files for local shard workers ([`Heartbeat::save`])
    /// and as `beat` frames over the distributed task connection, where
    /// the transport layer embeds this value in its own envelope.
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("worker", self.worker.to_json()),
            ("pid", self.pid.to_json()),
            ("seq", self.seq.to_json()),
            ("eval", self.eval.to_json()),
            ("tasks_done", self.tasks_done.to_json()),
            ("done", self.done.to_json()),
        ])
    }

    /// Decode the JSON form; `None` on any missing field.
    pub fn from_json(v: &Value) -> Option<Self> {
        Some(Heartbeat {
            worker: field(v, "worker")?,
            pid: field(v, "pid")?,
            seq: field(v, "seq")?,
            eval: field(v, "eval")?,
            tasks_done: field(v, "tasks_done")?,
            done: field(v, "done")?,
        })
    }

    /// Write the heartbeat to `path` (checksummed envelope, atomic,
    /// durable).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        save_checksummed(path, &self.to_json().to_string_pretty())
    }

    /// Read a heartbeat back; `None` on a missing, torn, or corrupt file
    /// (the supervisor treats all three as "no beat yet").
    pub fn load(path: &Path) -> Option<Heartbeat> {
        let payload = load_checksummed(path)?;
        automc_json::parse(&payload).ok().as_ref().and_then(Self::from_json)
    }
}

// ------------------------------------------------------------------------
// Content-addressed model blobs
// ------------------------------------------------------------------------

/// The sibling directory holding a journal's content-addressed model
/// blobs.
pub fn blob_dir(journal: &Path) -> PathBuf {
    let mut dir = journal.as_os_str().to_owned();
    dir.push(".blobs");
    PathBuf::from(dir)
}

fn blob_path(dir: &Path, hash: u64) -> PathBuf {
    dir.join(format!("{hash:016x}.bin"))
}

/// Write `bytes` as a blob under `dir` unless its content hash is already
/// present (content addressing makes re-writes pure overhead).
fn store_blob(dir: &Path, hash: u64, bytes: &[u8]) -> io::Result<()> {
    let path = blob_path(dir, hash);
    if path.exists() {
        return Ok(());
    }
    write_atomic_retry(&path, bytes)
}

/// Read a blob back and verify its content hash — a mismatch means disk
/// corruption and invalidates the journal that referenced it.
fn load_blob(dir: &Path, hash: u64) -> Option<Vec<u8>> {
    let path = blob_path(dir, hash);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("warning: cannot read model blob {}: {e}", path.display());
            return None;
        }
    };
    if fnv1a64(&bytes) != hash {
        eprintln!("warning: model blob {} fails its content hash", path.display());
        return None;
    }
    Some(bytes)
}

/// Delete every blob in `dir` whose hash is not in `live` — called after
/// a successful journal write, so the old journal (already replaced) can
/// no longer reference the removed blobs. Errors are ignored: a stray
/// blob only wastes space.
fn collect_garbage(dir: &Path, live: &[u64]) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".bin")) else {
            continue;
        };
        let Ok(hash) = u64::from_str_radix(stem, 16) else { continue };
        if !live.contains(&hash) {
            let _ = fs::remove_file(entry.path());
        }
    }
}

// ------------------------------------------------------------------------
// The journal itself
// ------------------------------------------------------------------------

/// Crash-safety knobs of one [`crate::drive`] run. The default is no
/// journaling — identical to the pre-journal behaviour.
#[derive(Debug, Clone, Default)]
pub struct JournalOptions {
    /// Journal file written after every round (`None` = no journaling).
    pub path: Option<PathBuf>,
    /// Attempt to resume from an existing journal at `path` before
    /// starting. A missing, corrupt, or mismatched journal falls back to
    /// a fresh run.
    pub resume: bool,
    /// Progress/cancel observer invoked after every round's journal write
    /// (see [`crate::progress`]). A cancelled search returns its partial
    /// history and keeps its journal, so a resumed run continues from the
    /// cancelled round.
    pub hook: crate::progress::RoundHook,
}

impl JournalOptions {
    /// Journal to `path`, resuming if a valid journal is already there.
    pub fn resuming(path: PathBuf) -> Self {
        JournalOptions { path: Some(path), resume: true, ..Default::default() }
    }
}

/// Per-job journal directory: `base/jobs/<job_id>/`, created on first
/// use. The serve daemon keys each job's journals by a spec-derived job
/// id, so concurrent jobs never share a journal file while a resubmitted
/// job (same spec → same id, even across a server crash) lands on the
/// same directory and resumes for free.
pub fn job_dir(base: &Path, job_id: &str) -> PathBuf {
    let dir = base.join("jobs").join(job_id);
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create job journal dir {}: {e}", dir.display());
    }
    dir
}

/// One extension node of the progressive search, with its compressed model
/// serialised by `automc_models::serialize`.
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    /// The strategy sequence that produced this node.
    pub scheme: Scheme,
    /// Measured metrics of the node's model.
    pub metrics: Metrics,
    /// Cumulative evaluation cost of producing this node from the base
    /// model (used for marginal budget charging when the node is
    /// extended). Journals written before the field default to zero.
    pub cost: EvalCost,
    /// Strategies already tried as one-step extensions (sorted).
    pub explored: Vec<StrategyId>,
    /// `automc_models::serialize::model_to_bytes` of the node's model.
    pub model: Vec<u8>,
}

impl NodeSnapshot {
    /// JSON form with the model replaced by its content hash; the bytes
    /// themselves live in the blob store.
    fn to_json_ref(&self, hash: u64) -> Value {
        obj(vec![
            ("scheme", self.scheme.to_json()),
            ("acc", self.metrics.acc.to_json()),
            ("params", self.metrics.params.to_json()),
            ("flops", self.metrics.flops.to_json()),
            ("cost_trained", self.cost.trained_images.to_json()),
            ("cost_eval", self.cost.eval_images.to_json()),
            ("explored", self.explored.to_json()),
            ("model_blob", Value::Str(format!("{hash:016x}"))),
        ])
    }

    /// Decode a node, resolving its model either from the legacy inline
    /// hex field or from the blob store.
    fn from_json_with_blobs(v: &Value, blobs: &Path) -> Option<Self> {
        let model = if let Some(hex) = v.get("model").and_then(|m| m.as_str()) {
            // Legacy journal with the model inline.
            from_hex(hex)?
        } else {
            let hash =
                u64::from_str_radix(v.get("model_blob")?.as_str()?, 16).ok()?;
            load_blob(blobs, hash)?
        };
        Some(NodeSnapshot {
            scheme: field(v, "scheme")?,
            metrics: Metrics {
                acc: field(v, "acc")?,
                params: field(v, "params")?,
                flops: field(v, "flops")?,
            },
            cost: EvalCost {
                trained_images: field(v, "cost_trained").unwrap_or(0),
                eval_images: field(v, "cost_eval").unwrap_or(0),
            },
            explored: field(v, "explored")?,
            model,
        })
    }
}

/// The complete resumable state of one search run after a finished round.
/// Shared by all four searches: the baselines leave `nodes` empty and pack
/// their learner into `state` (the progressive search packs `F_mo` there).
#[derive(Debug, Clone)]
pub struct SearchJournal {
    /// Hash of everything that shapes the run; a mismatch means the
    /// journal belongs to a different run and must be ignored.
    pub fingerprint: u64,
    /// Number of completed rounds.
    pub round: u64,
    /// Budget units spent so far.
    pub spent: u64,
    /// xoshiro256** RNG state at the end of the round.
    pub rng: [u64; 4],
    /// Evaluation history so far.
    pub history: SearchHistory,
    /// Algorithm-opaque learner state (`Fmo::state_to_bytes` for AutoMC,
    /// controller weights for RL, the population for the EA, empty for
    /// random search).
    pub state: Vec<u8>,
    /// Every live extension node (progressive search only).
    pub nodes: Vec<NodeSnapshot>,
    /// Per-site fault-injection counters at the end of the round
    /// (`automc_tensor::fault::counters`), journaled so resume and
    /// `AUTOMC_FAULTS` compose: each planned fault fires exactly once
    /// across a kill/resume boundary. Empty outside fault-injection runs.
    pub fault_counters: Vec<(String, u64)>,
}

impl SearchJournal {
    fn to_json_with_hashes(&self, hashes: &[u64]) -> Value {
        let rng_hex = self
            .rng
            .iter()
            .map(|w| Value::Str(format!("{w:016x}")))
            .collect::<Vec<_>>();
        let nodes = self
            .nodes
            .iter()
            .zip(hashes)
            .map(|(n, &h)| n.to_json_ref(h))
            .collect::<Vec<_>>();
        obj(vec![
            ("fingerprint", Value::Str(format!("{:016x}", self.fingerprint))),
            ("round", self.round.to_json()),
            ("spent", self.spent.to_json()),
            ("rng", Value::Arr(rng_hex)),
            ("history", self.history.to_json()),
            ("state", Value::Str(to_hex(&self.state))),
            ("nodes", Value::Arr(nodes)),
            ("fault_counters", self.fault_counters.to_json()),
        ])
    }

    fn from_json_with_blobs(v: &Value, blobs: &Path) -> Option<Self> {
        let fingerprint =
            u64::from_str_radix(v.get("fingerprint")?.as_str()?, 16).ok()?;
        let Value::Arr(rng_words) = v.get("rng")? else { return None };
        if rng_words.len() != 4 {
            return None;
        }
        let mut rng = [0u64; 4];
        for (dst, w) in rng.iter_mut().zip(rng_words) {
            *dst = u64::from_str_radix(w.as_str()?, 16).ok()?;
        }
        // `state` replaced the AutoMC-specific `fmo` field when journaling
        // grew to the baselines; accept the old name.
        let state_hex = v
            .get("state")
            .or_else(|| v.get("fmo"))?
            .as_str()?;
        let Value::Arr(node_values) = v.get("nodes")? else { return None };
        let mut nodes = Vec::with_capacity(node_values.len());
        for nv in node_values {
            nodes.push(NodeSnapshot::from_json_with_blobs(nv, blobs)?);
        }
        Some(SearchJournal {
            fingerprint,
            round: field(v, "round")?,
            spent: field(v, "spent")?,
            rng,
            history: field(v, "history")?,
            state: from_hex(state_hex)?,
            nodes,
            fault_counters: field(v, "fault_counters").unwrap_or_default(),
        })
    }
}

/// Persist a journal atomically: node models go to the content-addressed
/// blob store first (new blobs only), then the checksummed journal
/// envelope is renamed into place, then blobs no longer referenced are
/// garbage-collected. A crash at any point leaves either the previous
/// journal (with all its blobs) or the new one intact.
pub fn save(path: &Path, journal: &SearchJournal) -> io::Result<()> {
    let hashes: Vec<u64> = journal.nodes.iter().map(|n| fnv1a64(&n.model)).collect();
    let blobs = blob_dir(path);
    if !journal.nodes.is_empty() {
        fs::create_dir_all(&blobs)?;
        for (node, &hash) in journal.nodes.iter().zip(&hashes) {
            store_blob(&blobs, hash, &node.model)?;
        }
    }
    let payload = journal.to_json_with_hashes(&hashes).to_string_pretty();
    save_checksummed(path, &payload)?;
    collect_garbage(&blobs, &hashes);
    Ok(())
}

/// Load a journal, validating the envelope checksum, the run fingerprint,
/// and every referenced blob's content hash. Any failure — missing file,
/// unparsable JSON, checksum mismatch, wrong fingerprint, missing or
/// corrupt blob — returns `None`; corruption and mismatches are reported
/// on stderr (a missing file is silent: that is the normal fresh-run
/// case).
pub fn load(path: &Path, fingerprint: u64) -> Option<SearchJournal> {
    let payload = load_checksummed(path)?;
    let invalid = || {
        eprintln!(
            "warning: journal {} is corrupt; starting fresh",
            path.display()
        );
    };
    let mut journal = match automc_json::parse(&payload)
        .ok()
        .and_then(|v| SearchJournal::from_json_with_blobs(&v, &blob_dir(path)))
    {
        Some(j) => j,
        None => {
            invalid();
            return None;
        }
    };
    if journal.fingerprint != fingerprint {
        eprintln!(
            "warning: journal {} belongs to a different run \
             (fingerprint {:016x}, expected {fingerprint:016x}); ignoring",
            path.display(),
            journal.fingerprint,
        );
        return None;
    }
    merge_eval_intent(path, fingerprint, &mut journal.fault_counters);
    Some(journal)
}

/// Remove a journal and its blob store once the run has completed. Errors
/// (including the files already being gone) are ignored: a stale journal
/// is merely re-validated and discarded on the next run.
pub fn discard(path: &Path) {
    let _ = fs::remove_file(path);
    let _ = fs::remove_file(intent_path(path));
    let _ = fs::remove_dir_all(blob_dir(path));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::EvalStatus;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "automc-journal-test-{}-{tag}.json",
            std::process::id()
        ))
    }

    fn sample_journal() -> SearchJournal {
        let mut history = SearchHistory::new("AutoMC");
        history.push_failure(vec![1, 2], EvalStatus::Diverged, 40);
        SearchJournal {
            fingerprint: 0xdead_beef_cafe_f00d,
            round: 3,
            spent: 1234,
            rng: [1, u64::MAX, 0x1234_5678_9abc_def0, 42],
            history,
            state: vec![0, 1, 2, 255, 128],
            nodes: vec![NodeSnapshot {
                scheme: vec![7],
                metrics: Metrics { acc: 0.875, params: 999, flops: 123_456 },
                cost: EvalCost { trained_images: 11, eval_images: 22 },
                explored: vec![0, 7, 12],
                model: vec![9, 8, 7],
            }],
            fault_counters: vec![("eval".into(), 5), ("train".into(), 17)],
        }
    }

    /// The `format!`-per-byte encoder and `from_str_radix` decoder this
    /// module shipped before the table-driven codec, kept verbatim as the
    /// byte-identity oracle.
    fn to_hex_reference(bytes: &[u8]) -> String {
        let mut s = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    fn from_hex_reference(s: &str) -> Option<Vec<u8>> {
        if s.len() % 2 != 0 || !s.is_ascii() {
            return None;
        }
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
            .collect()
    }

    #[test]
    fn hex_codec_is_byte_identical_to_format_oracle() {
        let every_byte: Vec<u8> = (0..=255).collect();
        let mut rng = automc_tensor::rng_from_seed(31);
        let random: Vec<u8> = (0..1 << 20).map(|_| rand::Rng::gen::<u32>(&mut rng) as u8).collect();
        for bytes in [&every_byte[..], &random[..], &[]] {
            let hex = to_hex(bytes);
            assert_eq!(hex, to_hex_reference(bytes));
            assert_eq!(from_hex(&hex), from_hex_reference(&hex));
            assert_eq!(from_hex(&hex).as_deref(), Some(bytes));
            let upper = hex.to_ascii_uppercase();
            assert_eq!(from_hex(&upper), from_hex_reference(&upper));
        }
        // Rejections agree too (`from_str_radix` alone would also take a
        // `+` sign inside a pair, which no encoder ever writes).
        for bad in ["abc", "zz", "0g", "é0", "a\u{0}", "0 ", " 0"] {
            assert_eq!(from_hex(bad), None, "{bad:?}");
            assert_eq!(from_hex_reference(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn hex_roundtrip() {
        let bytes = vec![0u8, 1, 15, 16, 127, 128, 255];
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert!(from_hex("abc").is_none(), "odd length");
        assert!(from_hex("zz").is_none(), "non-hex");
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn save_load_roundtrip() {
        let path = temp_path("roundtrip");
        let j = sample_journal();
        save(&path, &j).unwrap();
        let back = load(&path, j.fingerprint).expect("journal loads");
        assert_eq!(back.round, 3);
        assert_eq!(back.spent, 1234);
        assert_eq!(back.rng, j.rng);
        assert_eq!(back.state, j.state);
        assert_eq!(back.fault_counters, j.fault_counters);
        assert_eq!(back.history.records.len(), 1);
        assert_eq!(back.history.records[0].status, EvalStatus::Diverged);
        assert_eq!(back.nodes.len(), 1);
        assert_eq!(back.nodes[0].scheme, vec![7]);
        assert_eq!(back.nodes[0].metrics.acc.to_bits(), 0.875f32.to_bits());
        assert_eq!(
            back.nodes[0].cost,
            EvalCost { trained_images: 11, eval_images: 22 }
        );
        assert_eq!(back.nodes[0].explored, vec![0, 7, 12]);
        assert_eq!(back.nodes[0].model, vec![9, 8, 7]);
        discard(&path);
        assert!(load(&path, j.fingerprint).is_none(), "discard removes it");
        assert!(!blob_dir(&path).exists(), "discard removes the blob store");
    }

    #[test]
    fn corrupt_or_mismatched_journals_are_rejected() {
        let path = temp_path("corrupt");
        let j = sample_journal();
        save(&path, &j).unwrap();
        // Wrong fingerprint → ignored.
        assert!(load(&path, j.fingerprint ^ 1).is_none());
        // Flipped byte inside the payload → checksum mismatch.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        fs::write(&path, &bytes).unwrap();
        assert!(load(&path, j.fingerprint).is_none());
        // Truncation → unparsable.
        let good = {
            save(&path, &j).unwrap();
            fs::read(&path).unwrap()
        };
        fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(load(&path, j.fingerprint).is_none());
        // Not JSON at all.
        fs::write(&path, b"hello").unwrap();
        assert!(load(&path, j.fingerprint).is_none());
        discard(&path);
    }

    #[test]
    fn blobs_are_content_addressed_and_garbage_collected() {
        let path = temp_path("blobs");
        let mut j = sample_journal();
        j.nodes.push(NodeSnapshot {
            scheme: vec![1, 2],
            metrics: Metrics { acc: 0.5, params: 10, flops: 20 },
            cost: EvalCost::default(),
            explored: vec![],
            model: vec![9, 8, 7], // same bytes as node 0 → same blob
        });
        save(&path, &j).unwrap();
        let dir = blob_dir(&path);
        let count = fs::read_dir(&dir).unwrap().count();
        assert_eq!(count, 1, "identical models share one blob");

        // A new node adds exactly one blob; dropping a node GCs its blob.
        j.nodes.push(NodeSnapshot {
            scheme: vec![3],
            metrics: Metrics { acc: 0.6, params: 11, flops: 21 },
            cost: EvalCost::default(),
            explored: vec![],
            model: vec![1, 1, 2, 3, 5, 8],
        });
        save(&path, &j).unwrap();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 2);
        j.nodes.truncate(2); // drop the fibonacci model again
        save(&path, &j).unwrap();
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            1,
            "unreferenced blobs are collected"
        );
        let back = load(&path, j.fingerprint).unwrap();
        assert_eq!(back.nodes.len(), 2);
        assert_eq!(back.nodes[1].model, vec![9, 8, 7]);
        discard(&path);
    }

    #[test]
    fn corrupt_or_missing_blob_invalidates_the_journal() {
        let path = temp_path("blob-corrupt");
        let j = sample_journal();
        save(&path, &j).unwrap();
        let dir = blob_dir(&path);
        let blob = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        // Corrupt the blob: content no longer matches its hash.
        fs::write(&blob, b"junk").unwrap();
        assert!(load(&path, j.fingerprint).is_none(), "corrupt blob rejected");
        // Remove it entirely.
        save(&path, &j).unwrap();
        let blob = fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
        fs::remove_file(&blob).unwrap();
        assert!(load(&path, j.fingerprint).is_none(), "missing blob rejected");
        discard(&path);
    }

    #[test]
    fn legacy_inline_model_journals_still_load() {
        let path = temp_path("legacy");
        let j = sample_journal();
        // Hand-build the pre-blob format: model hex inline, `fmo` field.
        let node = &j.nodes[0];
        let node_json = obj(vec![
            ("scheme", node.scheme.to_json()),
            ("acc", node.metrics.acc.to_json()),
            ("params", node.metrics.params.to_json()),
            ("flops", node.metrics.flops.to_json()),
            ("explored", node.explored.to_json()),
            ("model", Value::Str(to_hex(&node.model))),
        ]);
        let payload = obj(vec![
            ("fingerprint", Value::Str(format!("{:016x}", j.fingerprint))),
            ("round", j.round.to_json()),
            ("spent", j.spent.to_json()),
            (
                "rng",
                Value::Arr(
                    j.rng.iter().map(|w| Value::Str(format!("{w:016x}"))).collect(),
                ),
            ),
            ("history", j.history.to_json()),
            ("fmo", Value::Str(to_hex(&j.state))),
            ("nodes", Value::Arr(vec![node_json])),
        ])
        .to_string_pretty();
        save_checksummed(&path, &payload).unwrap();
        let back = load(&path, j.fingerprint).expect("legacy journal loads");
        assert_eq!(back.state, j.state);
        assert_eq!(back.nodes[0].model, j.nodes[0].model);
        assert_eq!(
            back.nodes[0].cost,
            EvalCost::default(),
            "pre-cost journals default to zero"
        );
        assert!(back.fault_counters.is_empty(), "legacy journals have no counters");
        discard(&path);
    }

    #[test]
    fn foreign_schema_versions_start_fresh() {
        let path = temp_path("schema");
        let payload = "{}";
        // Hand-build an envelope claiming a future schema; the checksum is
        // valid, so rejection must come from the version check alone.
        let envelope = obj(vec![
            ("schema", 99u64.to_json()),
            (
                "checksum",
                Value::Str(format!("{:016x}", fnv1a64(payload.as_bytes()))),
            ),
            ("payload", Value::Str(payload.to_string())),
        ]);
        fs::write(&path, envelope.to_string_pretty()).unwrap();
        assert!(
            load_checksummed(&path).is_none(),
            "a foreign schema version must not be trusted"
        );
        // The version this build writes round-trips.
        save_checksummed(&path, payload).unwrap();
        assert_eq!(load_checksummed(&path).as_deref(), Some(payload));
        // Envelopes that predate the field (v1) still load.
        let envelope = obj(vec![
            (
                "checksum",
                Value::Str(format!("{:016x}", fnv1a64(payload.as_bytes()))),
            ),
            ("payload", Value::Str(payload.to_string())),
        ]);
        fs::write(&path, envelope.to_string_pretty()).unwrap();
        assert_eq!(load_checksummed(&path).as_deref(), Some(payload));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn intent_record_max_merges_into_restored_counters() {
        use automc_tensor::fault::{self, FaultPlan};
        let path = temp_path("intent");
        let j = sample_journal(); // journals eval=5, train=17
        save(&path, &j).unwrap();

        // No plan active → no intent is written.
        record_eval_intent(Some(&path), j.fingerprint);
        assert!(!intent_path(&path).exists());

        // With a plan and live counters ahead of the journal, the intent
        // captures them with "eval" bumped by one (the tick about to
        // fire).
        fault::install(FaultPlan::parse("exit@eval:9").unwrap());
        fault::restore_counters(&[("eval".into(), 6), ("train".into(), 17)]);
        record_eval_intent(Some(&path), j.fingerprint);
        fault::clear();
        assert!(intent_path(&path).exists());

        let back = load(&path, j.fingerprint).expect("journal loads");
        let get = |site: &str| {
            back.fault_counters
                .iter()
                .find(|(s, _)| s == site)
                .map(|(_, n)| *n)
        };
        assert_eq!(get("eval"), Some(7), "journal eval=5 max intent eval=6+1");
        assert_eq!(get("train"), Some(17));

        // An intent for a different run is ignored.
        record_eval_intent(Some(&path), j.fingerprint); // rewrite with no plan: no-op
        fault::install(FaultPlan::parse("exit@eval:9").unwrap());
        record_eval_intent(Some(&path), j.fingerprint ^ 1);
        fault::clear();
        let back = load(&path, j.fingerprint).expect("journal loads");
        assert_eq!(
            back.fault_counters
                .iter()
                .find(|(s, _)| s == "eval")
                .map(|(_, n)| *n),
            Some(5),
            "mismatched-fingerprint intents must not merge"
        );
        discard(&path);
        assert!(!intent_path(&path).exists(), "discard removes the intent");
    }

    #[test]
    fn heartbeat_roundtrips_and_rejects_corruption() {
        let path = temp_path("heartbeat");
        let hb = Heartbeat {
            worker: 3,
            pid: 4242,
            seq: 17,
            eval: 905,
            tasks_done: 5,
            done: false,
        };
        hb.save(&path).unwrap();
        assert_eq!(Heartbeat::load(&path), Some(hb.clone()));
        // A final beat overwrites the previous one atomically.
        let last = Heartbeat { seq: 18, done: true, ..hb };
        last.save(&path).unwrap();
        assert_eq!(Heartbeat::load(&path), Some(last));
        // Corruption is "no beat", never garbage.
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = bytes[mid].wrapping_add(1);
        fs::write(&path, &bytes).unwrap();
        assert!(Heartbeat::load(&path).is_none());
        let _ = fs::remove_file(&path);
        assert!(Heartbeat::load(&path).is_none(), "missing file is no beat");
    }

    #[test]
    fn persistent_write_failure_is_reported() {
        // A journal path whose parent is a regular file cannot be created;
        // the retry loop must exhaust its attempts and surface the error.
        let parent = temp_path("not-a-dir");
        fs::write(&parent, b"file").unwrap();
        let path = parent.join("journal.json");
        assert!(save(&path, &sample_journal()).is_err());
        let _ = fs::remove_file(&parent);
    }
}
