//! Crash-safe round journal, written and restored by the search driver
//! ([`crate::drive`]) for all four search strategies.
//!
//! At the end of every search round the full resumable state — the
//! evaluation history, the algorithm's opaque learner state (`F_mo` for
//! AutoMC, the REINFORCE controller for RL, the population for the EA),
//! AutoMC's extension nodes (scheme, metrics, cost and explored set; no
//! model, since an extension re-executes its scheme through the prefix
//! cache), the budget spent, the RNG state, and the fault-injection
//! counters — is written to one journal file, in the one sealed format
//! every persisted file shares ([`automc_compress::store::write_sealed`]:
//! `AUTOMCb1` magic, payload, FNV-1a 64 trailer). Writes are atomic (temp
//! file + rename) so a crash mid-write leaves the previous round's journal
//! intact, and torn, corrupted or foreign files (another build's, without
//! the magic) read as "no journal" rather than being trusted: the run
//! restarts, and the driver's RNG parity keeps its output unchanged.
//!
//! The payload is `header_len: u64 LE ‖ header ‖ state`. The header is
//! pretty JSON holding every field but the learner state; the state
//! follows as raw bytes. The RL controller's state is megabytes and is
//! rewritten every round, so a save builds one buffer the size of the
//! file and no text form of the state.
//!
//! A journal is keyed by a *run fingerprint* hashed from everything that
//! shapes the run (problem instance, configuration, embeddings, seed); a
//! journal whose fingerprint does not match the requesting run is ignored
//! with a warning. Restoring a journal reproduces the interrupted run
//! bitwise: resumed and uninterrupted searches emit identical histories.
//!
//! Persistent write failures follow a retry-then-disable policy: each
//! write is retried with backoff, and a save that still fails is reported
//! to the driver, which disables journaling for the rest of the run rather
//! than silently continuing to trust a stale checkpoint.

use crate::history::SearchHistory;
use crate::statebytes::{read_u64, take_bytes};
use automc_compress::store::{read_sealed, write_sealed};
use automc_compress::{EvalCost, Metrics, Scheme, StrategyId};
use automc_json::{field, obj, ToJson, Value};
use automc_tensor::fault;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

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
    if let Err(e) = write_sealed(&ip, &[payload.as_bytes()]) {
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
    let Ok(payload) = read_sealed(&ip) else { return };
    let Ok(v) = automc_json::parse_utf8(&payload) else { return };
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

/// One extension node of the progressive search.
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    /// The strategy sequence that produced this node.
    pub scheme: Scheme,
    /// Measured metrics of the node's model.
    pub metrics: Metrics,
    /// Cumulative evaluation cost of producing this node from the base
    /// model (used for marginal budget charging when the node is
    /// extended).
    pub cost: EvalCost,
    /// Strategies already tried as one-step extensions (sorted).
    pub explored: Vec<StrategyId>,
}

impl NodeSnapshot {
    fn to_json(&self) -> Value {
        obj(vec![
            ("scheme", self.scheme.to_json()),
            ("acc", self.metrics.acc.to_json()),
            ("params", self.metrics.params.to_json()),
            ("flops", self.metrics.flops.to_json()),
            ("cost_trained", self.cost.trained_images.to_json()),
            ("cost_eval", self.cost.eval_images.to_json()),
            ("explored", self.explored.to_json()),
        ])
    }

    fn from_json(v: &Value) -> Option<Self> {
        Some(NodeSnapshot {
            scheme: field(v, "scheme")?,
            metrics: Metrics {
                acc: field(v, "acc")?,
                params: field(v, "params")?,
                flops: field(v, "flops")?,
            },
            cost: EvalCost {
                trained_images: field(v, "cost_trained")?,
                eval_images: field(v, "cost_eval")?,
            },
            explored: field(v, "explored")?,
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
    /// Every field but the learner state: a sealed journal's header.
    fn header_json(&self) -> Value {
        let rng_hex = self
            .rng
            .iter()
            .map(|w| Value::Str(format!("{w:016x}")))
            .collect::<Vec<_>>();
        let nodes = self.nodes.iter().map(NodeSnapshot::to_json).collect::<Vec<_>>();
        obj(vec![
            ("fingerprint", Value::Str(format!("{:016x}", self.fingerprint))),
            ("round", self.round.to_json()),
            ("spent", self.spent.to_json()),
            ("rng", Value::Arr(rng_hex)),
            ("history", self.history.to_json()),
            ("nodes", Value::Arr(nodes)),
            ("fault_counters", self.fault_counters.to_json()),
        ])
    }

    /// Decode a header around the learner `state`.
    fn from_json(v: &Value, state: Vec<u8>) -> Option<Self> {
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
        let Value::Arr(node_values) = v.get("nodes")? else { return None };
        let mut nodes = Vec::with_capacity(node_values.len());
        for nv in node_values {
            nodes.push(NodeSnapshot::from_json(nv)?);
        }
        Some(SearchJournal {
            fingerprint,
            round: field(v, "round")?,
            spent: field(v, "spent")?,
            rng,
            history: field(v, "history")?,
            state,
            nodes,
            fault_counters: field(v, "fault_counters")?,
        })
    }
}

/// Persist a journal atomically as one sealed envelope: a crash at any
/// point leaves either the previous journal or the new one intact.
pub fn save(path: &Path, journal: &SearchJournal) -> io::Result<()> {
    let header = journal.header_json().to_string_pretty();
    let header_len = (header.len() as u64).to_le_bytes();
    write_sealed(path, &[&header_len, header.as_bytes(), &journal.state])
}

/// Read the journal at `path`, validating its envelope and format but
/// not whose run it is (see [`load`]). `None` on a missing file (silent:
/// the normal fresh-run case), on another build's file, and on an
/// unreadable, corrupt or undecodable one (all logged).
pub fn decode(path: &Path) -> Option<SearchJournal> {
    let payload = read_sealed(path).ok()?;
    let journal = split_payload(&payload);
    if journal.is_none() {
        eprintln!("warning: journal {} is corrupt; starting fresh", path.display());
    }
    journal
}

/// Split a sealed journal's payload into its JSON header and the raw
/// state after it; `None` if `header_len` runs past the end or the
/// header is not UTF-8 JSON.
fn split_payload(payload: &[u8]) -> Option<SearchJournal> {
    let mut r = payload;
    let header_len = usize::try_from(read_u64(&mut r)?).ok()?;
    let header = automc_json::parse_utf8(take_bytes(&mut r, header_len)?).ok()?;
    SearchJournal::from_json(&header, r.to_vec())
}

/// Load a journal for the run with `fingerprint`: [`decode`] it, then
/// check the run fingerprint and merge a matching intent record. `None`
/// on anything [`decode`] rejects and on a journal of a different run
/// (logged).
pub fn load(path: &Path, fingerprint: u64) -> Option<SearchJournal> {
    let mut journal = decode(path)?;
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

/// Remove a journal and its intent record once the run has completed.
/// Errors (including the files already being gone) are ignored: a stale
/// journal is merely re-validated and discarded on the next run.
pub fn discard(path: &Path) {
    let _ = fs::remove_file(path);
    let _ = fs::remove_file(intent_path(path));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::EvalStatus;
    use automc_compress::store::seal;
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
            }],
            fault_counters: vec![("eval".into(), 5), ("train".into(), 17)],
        }
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
        discard(&path);
        assert!(load(&path, j.fingerprint).is_none(), "discard removes it");
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
        // Not sealed at all.
        fs::write(&path, b"hello").unwrap();
        assert!(load(&path, j.fingerprint).is_none());
        // Validly sealed, but `header_len` runs past the payload (or the
        // payload is too short to hold it).
        let header = j.header_json().to_string_pretty();
        let overrun = (header.len() + j.state.len() + 1) as u64;
        for payload in [
            seal(&[&overrun.to_le_bytes(), header.as_bytes(), &j.state]),
            seal(&[&u64::MAX.to_le_bytes(), header.as_bytes()]),
            seal(&[b"short"]),
        ] {
            fs::write(&path, payload).unwrap();
            assert!(load(&path, j.fingerprint).is_none());
        }
        // Validly sealed, but the header is not JSON, or not even UTF-8.
        for header in [&b"not json"[..], &[b'{', 0xff, b'}'][..]] {
            let len = (header.len() as u64).to_le_bytes();
            fs::write(&path, seal(&[&len, header, &j.state])).unwrap();
            assert!(load(&path, j.fingerprint).is_none());
        }
        discard(&path);
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
