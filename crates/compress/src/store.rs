//! Crash-safe, multi-process, content-addressed blob store.
//!
//! The shared memo cache is the product at scale: warm hits are a
//! 180–225x search speedup, and the serve daemon plus N orchestrator
//! workers all point at one spill directory. That directory therefore has
//! to survive concurrent, crashing, adversarial clients. This module is
//! that store; `automc_compress::memo` spills through it.
//!
//! # One sealed format
//!
//! Every file the program persists is one sealed envelope ([`seal`]):
//! the `AUTOMCb1` magic, the payload, and an FNV-1a 64 trailer over both.
//! Store blobs are sealed by [`BlobStore::publish`]; every other record —
//! search journals, intent records, grid checkpoints, result-cache
//! entries, the retry journal and the dist-tick counter — is written by
//! [`write_sealed`] and read back by [`read_sealed`], and keeps only its
//! payload, its own run check and its failure policy. The magic is the
//! one format version: a file without it comes from another build and
//! reads as absent (logged), so a run interrupted under another build
//! reruns instead of resuming.
//!
//! # Publish protocol (write-once)
//!
//! A blob is published under its 64-bit content key by writing a sealed
//! envelope to a temp file of its own, fsyncing it, renaming it over
//! `<key:016x>.bin`, and fsyncing the directory. Readers can observe the old state or the
//! new blob, never a torn write. Keys are content addresses, so
//! concurrent writers of one key are idempotent: whoever renames second
//! changes nothing.
//!
//! # Index (append-only, checksummed, compacted on open)
//!
//! `index.log` is a journal of `P`ut / `T`ouch / `E`vict records, one
//! ASCII line each, each line carrying its own FNV-1a 64 checksum.
//! Appends are single `O_APPEND` writes, so concurrent processes
//! interleave whole records. The index replaces per-GC directory scans:
//! byte totals and recency come from replaying the log, and each GC pass
//! *re-anchors* its accounting by tailing records appended by sibling
//! processes since the last read. A torn final record (a crash mid-append)
//! is dropped silently; a corrupt interior record triggers a rebuild from
//! a directory scan, where blob mtimes stand in for recency — the only
//! remaining use of mtime, which also covers index-less legacy spill
//! directories from earlier releases. Blobs whose metadata cannot be read
//! during such a scan are *skipped and logged*, never treated as
//! oldest-first eviction fodder.
//!
//! # Generational GC (grace window + advisory lock)
//!
//! [`BlobStore::gc`] runs under an advisory lockfile (`.lock`, holder pid
//! inside, stale holders detected by liveness/age and broken) and never
//! deletes a blob whose last put/touch lies within the in-use grace
//! window (`AUTOMC_STORE_GRACE_MS`, default 10 s): a sibling that just
//! opened a blob cannot have it evicted out from under a read. Outside
//! the window, eviction is oldest-recency-first until the byte budget is
//! met, with an `E` record appended per victim. Readers additionally
//! treat a blob vanishing between lookup and read — a sibling GC racing
//! the grace window — as a clean miss, never an error.
//!
//! # Corruption quarantine
//!
//! A blob failing its envelope checksum is *moved aside* into
//! `quarantine/` (for post-mortems; the directory is trimmed, not grown
//! without bound), logged, counted as a healed miss, and its key freed —
//! the next writer republishes it. Deletion-free healing means a bad disk
//! sector can be diagnosed after the fact instead of silently vanishing.
//!
//! # Fault sites
//!
//! Every failure path above is exercised deterministically through
//! `AUTOMC_FAULTS` (`automc_tensor::fault`):
//!
//! * `torn@spill:n` — the n-th spill-store operation, if it is a publish,
//!   writes a truncated envelope straight to the final path (simulating a
//!   torn write by a crashed legacy writer); the next reader must
//!   quarantine and heal it.
//! * `evict@spill:n` — the n-th spill-store operation, if it is a read of
//!   an existing blob, has the blob deleted under it (simulating a
//!   sibling GC winning the race); the reader must return a clean miss.
//! * `corrupt@index:n` — the n-th index append is corrupted in flight;
//!   the next open must detect the bad record and rebuild from scan.

use automc_tensor::fault::{self, FaultKind};
use std::collections::HashMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

// ------------------------------------------------------------------------
// Durable-write primitives
// ------------------------------------------------------------------------

/// Running FNV-1a 64 hasher: the workspace-wide checksum of every sealed
/// file and index record, and the content fingerprint of the memo keys.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Hash `bytes` into the running state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash `v` as its 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of `bytes` in one call.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

/// Write `bytes` to `path` atomically and durably: write a sibling temp
/// file, fsync it, rename it over the destination, then fsync the parent
/// directory. Readers either see the old file or the new one, never a
/// torn write — and once this returns, a crash (of this process *or* the
/// machine) cannot make the rename itself vanish: without the directory
/// fsync a resumed supervisor could observe a journal entry that a
/// crashed worker "wrote" but whose directory update never reached disk.
///
/// The temp file is `<path>.tmp.<pid>.<n>`, `n` counted per process, so
/// every call writes its own: two threads (or processes) writing one
/// path never truncate each other's temp file, and the last rename wins.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static TEMPS: AtomicU64 = AtomicU64::new(0);
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => {
            fs::create_dir_all(p)?;
            Some(p)
        }
        _ => None,
    };
    let mut tmp = path.as_os_str().to_owned();
    let n = TEMPS.fetch_add(1, Ordering::Relaxed);
    tmp.push(&format!(".tmp.{}.{n}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(parent) = parent {
        fsync_dir(parent)?;
    }
    Ok(())
}

/// Flush a directory's metadata (the rename recorded in it) to disk.
/// Directory fsync is a Unix concept; elsewhere it is a no-op.
#[cfg(unix)]
fn fsync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
fn fsync_dir(_dir: &Path) -> io::Result<()> {
    Ok(())
}

/// [`write_atomic`] with bounded retry and backoff for transient I/O
/// errors (NFS hiccups, momentary ENOSPC). Three attempts with 10 ms /
/// 50 ms pauses; each failure is logged, and the last error is returned
/// once the attempts are exhausted so the caller can apply its
/// persistent-failure policy (disable journaling/caching for the run).
pub fn write_atomic_retry(path: &Path, bytes: &[u8]) -> io::Result<()> {
    const BACKOFF_MS: [u64; 2] = [10, 50];
    let mut attempt = 0usize;
    loop {
        match write_atomic(path, bytes) {
            Ok(()) => return Ok(()),
            Err(e) if attempt < BACKOFF_MS.len() => {
                eprintln!(
                    "warning: write of {} failed ({e}); retrying in {} ms",
                    path.display(),
                    BACKOFF_MS[attempt]
                );
                std::thread::sleep(Duration::from_millis(BACKOFF_MS[attempt]));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Move a corrupt file aside instead of deleting it: rename it into a
/// `quarantine/` directory next to it, tagged with the discovering pid.
/// Returns the quarantine path on success. Used by the blob store for its
/// own blobs and by the bench result cache for corrupt entries.
pub fn quarantine_file(path: &Path) -> Option<PathBuf> {
    let dir = path.parent()?.join("quarantine");
    fs::create_dir_all(&dir).ok()?;
    let name = path.file_name()?.to_string_lossy().into_owned();
    let dest = dir.join(format!("{name}.{}", std::process::id()));
    match fs::rename(path, &dest) {
        Ok(()) => Some(dest),
        Err(_) => {
            // Cross-device or racing rename: fall back to removal so the
            // corrupt bytes can at least never be trusted again.
            let _ = fs::remove_file(path);
            None
        }
    }
}

// ------------------------------------------------------------------------
// Sealed envelope: the one format of every file the program persists
// ------------------------------------------------------------------------

/// First bytes of every [`seal`]ed envelope: store blobs and every file
/// written by [`write_sealed`]. It is the one format version of all of
/// them: a file without it was written by another build.
pub const BLOB_MAGIC: &[u8; 8] = b"AUTOMCb1";

/// Wrap a payload — the concatenation of `parts` — in the store envelope:
/// magic, payload, FNV-1a 64 trailer over everything before it. The
/// envelope is built in one exactly sized buffer, so a caller whose
/// payload comes in pieces (the search journal's header and learner
/// state) never joins them first.
pub fn seal(parts: &[&[u8]]) -> Vec<u8> {
    let len = parts.iter().map(|p| p.len()).sum::<usize>();
    let mut out = Vec::with_capacity(BLOB_MAGIC.len() + len + 8);
    out.extend_from_slice(BLOB_MAGIC);
    for part in parts {
        out.extend_from_slice(part);
    }
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Validate a [`seal`]ed envelope and return the payload; `None` on a
/// missing magic, truncation, or checksum mismatch.
pub fn unseal(bytes: &[u8]) -> Option<&[u8]> {
    if bytes.len() < BLOB_MAGIC.len() + 8 {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut cks = [0u8; 8];
    cks.copy_from_slice(tail);
    if fnv1a64(body) != u64::from_le_bytes(cks) {
        return None;
    }
    body.strip_prefix(BLOB_MAGIC)
}

/// [`seal`] `parts` and write the envelope to `path` with
/// [`write_atomic_retry`]: the writer of every record outside the blob
/// store (search journals, intent records, grid checkpoints, result-cache
/// entries, the retry journal, the dist-tick counter).
pub fn write_sealed(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    write_atomic_retry(path, &seal(parts))
}

/// A file read by [`read_sealed`]: its bytes, dereferencing to the payload
/// between the magic and the checksum trailer, so reading never copies
/// the payload.
pub struct Sealed(Vec<u8>);

impl std::ops::Deref for Sealed {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0[BLOB_MAGIC.len()..self.0.len() - 8]
    }
}

/// Why [`read_sealed`] returned no payload. Every case reads as absent;
/// a caller that heals one case differently (the result cache quarantines
/// corrupt entries) matches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Absent {
    /// No file: the normal fresh-run case, not logged.
    Missing,
    /// The read failed (logged).
    Unreadable,
    /// No [`BLOB_MAGIC`]: another build wrote it (logged).
    Foreign,
    /// Sealed, but truncated or failing its checksum (logged).
    Corrupt,
}

/// Read and validate the sealed file at `path`: the reader of every file
/// [`write_sealed`] writes. A missing file is silent; an unreadable,
/// foreign or corrupt one is logged once, here, and reads as absent.
pub fn read_sealed(path: &Path) -> Result<Sealed, Absent> {
    let (absent, why) = match fs::read(path) {
        Ok(bytes) if unseal(&bytes).is_some() => return Ok(Sealed(bytes)),
        Ok(bytes) if !bytes.starts_with(BLOB_MAGIC) => {
            (Absent::Foreign, "was written by another build".to_string())
        }
        Ok(_) => (Absent::Corrupt, "is corrupt".to_string()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(Absent::Missing),
        Err(e) => (Absent::Unreadable, format!("cannot be read ({e})")),
    };
    eprintln!("warning: {} {why}; treating it as absent", path.display());
    Err(absent)
}

// ------------------------------------------------------------------------
// Per-process counters
// ------------------------------------------------------------------------

static PUBLISHES: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static EVICTED_BYTES: AtomicU64 = AtomicU64::new(0);
static HEALED: AtomicU64 = AtomicU64::new(0);
static RACED: AtomicU64 = AtomicU64::new(0);
static REBUILDS: AtomicU64 = AtomicU64::new(0);

/// Process-wide blob-store activity counters (all stores in the process;
/// in practice one shared spill store). Surfaced through
/// `memo::MemoStats` and the `[memo]` stderr lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Blobs this process published (first writer wins; idempotent
    /// re-publishes do not count).
    pub publishes: u64,
    /// Blob reads that returned a valid payload.
    pub hits: u64,
    /// Blob reads that found nothing (including healed and raced misses).
    pub misses: u64,
    /// Blobs this process evicted under the byte budget.
    pub evictions: u64,
    /// Bytes reclaimed by those evictions.
    pub evicted_bytes: u64,
    /// Corrupt blobs quarantined — each one a healed miss.
    pub healed: u64,
    /// Reads that lost the race against a sibling's eviction (clean miss).
    pub raced: u64,
    /// Index rebuilds forced by a corrupt record or a legacy directory.
    pub index_rebuilds: u64,
}

impl StoreCounters {
    /// `self - earlier`, counter-wise. The counters are process-wide and
    /// monotonic, so a snapshot taken at job start diffed against one at
    /// a round boundary yields that job's *window* of store activity
    /// (shared with any concurrently running jobs — the store is one
    /// process-wide cache by design). Saturating, so a stale `earlier`
    /// degrades to zeros rather than panicking.
    pub fn since(&self, earlier: &StoreCounters) -> StoreCounters {
        StoreCounters {
            publishes: self.publishes.saturating_sub(earlier.publishes),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            evicted_bytes: self.evicted_bytes.saturating_sub(earlier.evicted_bytes),
            healed: self.healed.saturating_sub(earlier.healed),
            raced: self.raced.saturating_sub(earlier.raced),
            index_rebuilds: self.index_rebuilds.saturating_sub(earlier.index_rebuilds),
        }
    }

    /// Hit rate over reads in percent (0 when nothing was read).
    pub fn hit_rate_pct(&self) -> f64 {
        let reads = self.hits + self.misses;
        if reads == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / reads as f64
        }
    }
}

/// Snapshot the process-wide [`StoreCounters`].
pub fn counters() -> StoreCounters {
    StoreCounters {
        publishes: PUBLISHES.load(Ordering::Relaxed),
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        evicted_bytes: EVICTED_BYTES.load(Ordering::Relaxed),
        healed: HEALED.load(Ordering::Relaxed),
        raced: RACED.load(Ordering::Relaxed),
        index_rebuilds: REBUILDS.load(Ordering::Relaxed),
    }
}

// ------------------------------------------------------------------------
// Tunables
// ------------------------------------------------------------------------

/// Default in-use grace window: a blob put or touched within the last
/// this-many milliseconds is never evicted.
pub const DEFAULT_GRACE_MS: u64 = 10_000;

fn grace_cell() -> &'static AtomicU64 {
    static GRACE: OnceLock<AtomicU64> = OnceLock::new();
    GRACE.get_or_init(|| {
        AtomicU64::new(
            std::env::var("AUTOMC_STORE_GRACE_MS")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(DEFAULT_GRACE_MS),
        )
    })
}

/// Override the in-use grace window (tests; `AUTOMC_STORE_GRACE_MS`
/// otherwise).
pub fn set_grace_ms(ms: u64) {
    grace_cell().store(ms, Ordering::Relaxed);
}

/// A lock held longer than this is assumed abandoned even if its pid
/// cannot be probed.
const LOCK_STALE_MS: u64 = 30_000;

/// How long to wait for the advisory lock before proceeding without it.
const LOCK_WAIT_MS: u64 = 5_000;

/// Quarantined blobs kept for post-mortems; older ones are trimmed.
const QUARANTINE_KEEP: usize = 32;

/// Compact the index on open once it holds this many times more records
/// than live blobs (plus slack for small stores).
const COMPACT_SLACK: usize = 64;

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

// ------------------------------------------------------------------------
// Advisory lock
// ------------------------------------------------------------------------

#[cfg(target_os = "linux")]
fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(not(target_os = "linux"))]
fn pid_alive(_pid: u32) -> bool {
    true // liveness unknowable portably; the age check decides
}

struct LockGuard {
    path: PathBuf,
    held: bool,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        if self.held {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// Take the store's advisory lock: create-exclusive a `.lock` file with
/// the holder's pid inside. A holder that is dead (pid gone) or has held
/// the lock past [`LOCK_STALE_MS`] is declared stale and its lock broken.
/// If the lock cannot be won within [`LOCK_WAIT_MS`] the caller proceeds
/// *without* it (logged): GC races are tolerable — blob reads are
/// checksummed and vanishing blobs are clean misses — whereas a
/// deadlocked store is not.
fn acquire_lock(dir: &Path) -> LockGuard {
    let path = dir.join(".lock");
    let start = std::time::Instant::now();
    loop {
        match fs::OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut f) => {
                let _ = f.write_all(std::process::id().to_string().as_bytes());
                return LockGuard { path, held: true };
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let stale = match fs::read_to_string(&path) {
                    Ok(body) => match body.trim().parse::<u32>() {
                        Ok(pid) if pid != std::process::id() => {
                            !pid_alive(pid) || lock_age_ms(&path) > LOCK_STALE_MS
                        }
                        // Our own pid (a crashed predecessor that recycled
                        // it, or a bug): we are demonstrably not holding
                        // it, so it is stale. Unparsable bodies age out.
                        Ok(_) => true,
                        Err(_) => lock_age_ms(&path) > LOCK_STALE_MS,
                    },
                    // Vanished between create_new and read: retry.
                    Err(_) => false,
                };
                if stale {
                    eprintln!(
                        "[store] breaking stale lock {} (holder dead or expired)",
                        path.display()
                    );
                    let _ = fs::remove_file(&path);
                    continue;
                }
                if start.elapsed() > Duration::from_millis(LOCK_WAIT_MS) {
                    eprintln!(
                        "[store] could not win lock {} in {LOCK_WAIT_MS} ms; \
                         proceeding without it",
                        path.display()
                    );
                    return LockGuard { path, held: false };
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                // The directory itself is unusable; locking is moot.
                return LockGuard { path, held: false };
            }
        }
    }
}

fn lock_age_ms(path: &Path) -> u64 {
    fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| SystemTime::now().duration_since(t).ok())
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

// ------------------------------------------------------------------------
// Index records
// ------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Record {
    Put { key: u64, len: u64, ts: u64 },
    Touch { key: u64, ts: u64 },
    Evict { key: u64, ts: u64 },
}

impl Record {
    fn body(&self) -> String {
        match self {
            Record::Put { key, len, ts } => format!("P {key:016x} {len} {ts}"),
            Record::Touch { key, ts } => format!("T {key:016x} {ts}"),
            Record::Evict { key, ts } => format!("E {key:016x} {ts}"),
        }
    }

    fn to_line(&self) -> String {
        let body = self.body();
        format!("{body} {:016x}\n", fnv1a64(body.as_bytes()))
    }

    /// Parse one complete line; `None` means the record is corrupt.
    fn parse(line: &str) -> Option<Record> {
        let (body, cks) = line.rsplit_once(' ')?;
        if u64::from_str_radix(cks, 16).ok()? != fnv1a64(body.as_bytes()) {
            return None;
        }
        let mut it = body.split(' ');
        let tag = it.next()?;
        let key = u64::from_str_radix(it.next()?, 16).ok()?;
        let rec = match tag {
            "P" => Record::Put { key, len: it.next()?.parse().ok()?, ts: it.next()?.parse().ok()? },
            "T" => Record::Touch { key, ts: it.next()?.parse().ok()? },
            "E" => Record::Evict { key, ts: it.next()?.parse().ok()? },
            _ => return None,
        };
        if it.next().is_some() {
            return None;
        }
        Some(rec)
    }
}

// ------------------------------------------------------------------------
// The store
// ------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Entry {
    len: u64,
    last_used: u64, // ms since epoch (logical recency)
}

#[derive(Default)]
struct Inner {
    entries: HashMap<u64, Entry>,
    total: u64,
    /// Bytes of `index.log` this process has replayed.
    log_offset: u64,
    /// Records appended (by anyone) since the last compaction we saw.
    records_seen: usize,
    /// Scan-rebuilds this store instance has performed.
    rebuilds: u64,
}

impl Inner {
    fn apply(&mut self, rec: Record) {
        self.records_seen += 1;
        match rec {
            Record::Put { key, len, ts } => match self.entries.get_mut(&key) {
                Some(e) => {
                    // Replaying our own append or a sibling's idempotent
                    // re-publish: recency advances, bytes do not.
                    e.last_used = e.last_used.max(ts);
                }
                None => {
                    self.entries.insert(key, Entry { len, last_used: ts });
                    self.total += len;
                }
            },
            Record::Touch { key, ts } => {
                if let Some(e) = self.entries.get_mut(&key) {
                    e.last_used = e.last_used.max(ts);
                }
            }
            Record::Evict { key, .. } => {
                if let Some(e) = self.entries.remove(&key) {
                    self.total -= e.len;
                }
            }
        }
    }
}

/// A crash-safe, multi-process, content-addressed blob store rooted at
/// one directory. See the module docs for the protocol.
pub struct BlobStore {
    dir: PathBuf,
    inner: Mutex<Inner>,
}

impl BlobStore {
    /// Open (creating if needed) the store at `dir`: acquire the advisory
    /// lock, replay the index — rebuilding it from a directory scan if it
    /// is corrupt or missing while blobs exist (a legacy mtime-LRU spill
    /// dir) — and compact it if it has grown far past its live set.
    pub fn open(dir: &Path) -> io::Result<BlobStore> {
        fs::create_dir_all(dir)?;
        let store = BlobStore { dir: dir.to_path_buf(), inner: Mutex::new(Inner::default()) };
        {
            let _lock = acquire_lock(&store.dir);
            let mut inner = store.locked();
            let clean = tail_log(&mut inner, &store.dir);
            if !clean || (inner.entries.is_empty() && has_blobs(&store.dir)) {
                let reason = if clean { "legacy index-less directory" } else { "corrupt index record" };
                rebuild_from_scan(&mut inner, &store.dir, reason);
                compact(&mut inner, &store.dir);
            } else if inner.records_seen > inner.entries.len() * 8 + COMPACT_SLACK {
                compact(&mut inner, &store.dir);
            }
        }
        Ok(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn blob_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.bin"))
    }

    fn index_path(&self) -> PathBuf {
        self.dir.join("index.log")
    }

    /// Append one record to the index (a single `O_APPEND` write, so
    /// concurrent processes interleave whole lines). The `corrupt@index`
    /// fault site damages the line in flight, exactly as a bad sector
    /// would; the next open detects and rebuilds. Append failures are
    /// logged and tolerated — the index is an accelerator, the blobs and
    /// their checksums are the truth.
    fn append_record(&self, rec: Record) {
        let mut line = rec.to_line().into_bytes();
        if fault::tick("index") == Some(FaultKind::Corrupt) {
            eprintln!("[store] injecting index corruption into the next append");
            let mid = line.len() / 2;
            line[mid] = line[mid].wrapping_add(1);
        }
        let res = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.index_path())
            .and_then(|mut f| f.write_all(&line));
        if let Err(e) = res {
            eprintln!(
                "warning: cannot append to store index {} ({e})",
                self.index_path().display()
            );
        }
    }

    /// Publish `payload` under `key`, write-once: if the blob already
    /// exists (locally known or published by a sibling) this is a no-op.
    /// Returns `true` when this call actually published.
    pub fn publish(&self, key: u64, payload: &[u8]) -> bool {
        let path = self.blob_path(key);
        {
            let inner = self.locked();
            if inner.entries.contains_key(&key) && path.exists() {
                return false;
            }
        }
        if path.exists() {
            // A sibling won the race; adopt its blob (content addressing
            // makes it identical by construction).
            let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let ts = now_ms();
            let mut inner = self.locked();
            inner.apply(Record::Put { key, len, ts });
            drop(inner);
            self.append_record(Record::Touch { key, ts });
            return false;
        }
        let sealed = seal(&[payload]);
        let ts = now_ms();
        if fault::tick("spill") == Some(FaultKind::Torn) {
            // Simulate a torn write reaching the final path (a crashed
            // pre-protocol writer): truncate inside the checksum trailer.
            let torn = &sealed[..sealed.len().saturating_sub(9)];
            eprintln!("[store] injecting torn publish of {key:016x}");
            let _ = fs::write(&path, torn);
            let len = torn.len() as u64;
            self.locked().apply(Record::Put { key, len, ts });
            self.append_record(Record::Put { key, len, ts });
            PUBLISHES.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        if let Err(e) = write_atomic(&path, &sealed) {
            eprintln!("warning: store publish of {key:016x} failed ({e})");
            return false;
        }
        let len = sealed.len() as u64;
        self.locked().apply(Record::Put { key, len, ts });
        self.append_record(Record::Put { key, len, ts });
        PUBLISHES.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Read the blob under `key`, verifying its envelope. Misses are
    /// clean (`None`): unknown keys, a blob a sibling evicted mid-read
    /// (counted as raced), and corrupt blobs — which are quarantined, not
    /// deleted, and counted as healed so the next writer republishes.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let path = self.blob_path(key);
        let known = self.locked().entries.contains_key(&key);
        if !known && !path.exists() {
            MISSES.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        if fault::tick("spill") == Some(FaultKind::Evict) {
            eprintln!("[store] injecting evict race on {key:016x}");
            let _ = fs::remove_file(&path);
        }
        match fs::read(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // A sibling's GC won the race between lookup and read:
                // a clean miss. Its `E` record reconciles our view at the
                // next tail; drop the local entry now.
                if known {
                    RACED.fetch_add(1, Ordering::Relaxed);
                    let mut inner = self.locked();
                    if let Some(e) = inner.entries.remove(&key) {
                        inner.total -= e.len;
                    }
                }
                MISSES.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(e) => {
                eprintln!("warning: cannot read store blob {key:016x} ({e})");
                MISSES.fetch_add(1, Ordering::Relaxed);
                None
            }
            Ok(bytes) => match unseal(&bytes) {
                Some(payload) => {
                    let payload = payload.to_vec();
                    let ts = now_ms();
                    let throttle = grace_cell().load(Ordering::Relaxed) / 2;
                    let mut inner = self.locked();
                    let prev = inner.entries.get(&key).map(|e| e.last_used).unwrap_or(0);
                    inner.apply(if known {
                        Record::Touch { key, ts }
                    } else {
                        // Adopt a sibling's blob we had not yet seen.
                        Record::Put { key, len: bytes.len() as u64, ts }
                    });
                    drop(inner);
                    // Touch records feed sibling GCs' recency, but one per
                    // read would grow the log linearly with hits; recency
                    // finer than half the grace window changes nothing.
                    if ts.saturating_sub(prev) > throttle {
                        self.append_record(Record::Touch { key, ts });
                    }
                    HITS.fetch_add(1, Ordering::Relaxed);
                    Some(payload)
                }
                None => {
                    self.quarantine(key);
                    MISSES.fetch_add(1, Ordering::Relaxed);
                    None
                }
            },
        }
    }

    /// Move the blob under `key` aside as corrupt (see the module docs).
    /// Public so payload-level validation failures above the envelope —
    /// e.g. the memo codec rejecting a sealed-but-nonsense blob — heal
    /// the same way.
    pub fn quarantine(&self, key: u64) {
        let path = self.blob_path(key);
        match quarantine_file(&path) {
            Some(dest) => eprintln!(
                "[store] quarantined corrupt blob {key:016x} -> {} (healed miss)",
                dest.display()
            ),
            None => eprintln!("[store] removed corrupt blob {key:016x} (healed miss)"),
        }
        HEALED.fetch_add(1, Ordering::Relaxed);
        let ts = now_ms();
        let mut inner = self.locked();
        if let Some(e) = inner.entries.remove(&key) {
            inner.total -= e.len;
        }
        drop(inner);
        self.append_record(Record::Evict { key, ts });
    }

    /// Total live bytes per the index, re-anchored by tailing sibling
    /// records first.
    pub fn total_bytes(&self) -> u64 {
        let mut inner = self.locked();
        tail_log(&mut inner, &self.dir);
        inner.total
    }

    /// Live blob count (this process's view of the index).
    pub fn len(&self) -> usize {
        self.locked().entries.len()
    }

    /// True when the index holds no live blobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index rebuilds (directory scans) this store instance has performed
    /// — 0 on a clean open, 1 after adopting a legacy directory or
    /// recovering from a corrupt index record.
    pub fn rebuild_count(&self) -> u64 {
        self.locked().rebuilds
    }

    /// Enforce `budget`: under the advisory lock, re-anchor byte totals
    /// from the index (picking up sibling puts and evicts — the fix for
    /// cross-process accounting drift), then evict oldest-recency-first
    /// until the total fits, skipping blobs inside the in-use grace
    /// window. Returns the bytes evicted.
    pub fn gc(&self, budget: u64) -> u64 {
        let _lock = acquire_lock(&self.dir);
        let mut inner = self.locked();
        if !tail_log(&mut inner, &self.dir) {
            rebuild_from_scan(&mut inner, &self.dir, "corrupt index record");
            compact(&mut inner, &self.dir);
        }
        if inner.total <= budget {
            return 0;
        }
        let now = now_ms();
        let grace = grace_cell().load(Ordering::Relaxed);
        let mut victims: Vec<(u64, u64, u64)> = inner
            .entries
            .iter()
            .filter(|(_, e)| e.last_used.saturating_add(grace) <= now)
            .map(|(&k, e)| (e.last_used, k, e.len))
            .collect();
        // Oldest recency first; key breaks ties deterministically.
        victims.sort_unstable();
        let mut evicted_bytes = 0u64;
        let mut evicted = Vec::new();
        for &(_, key, len) in &victims {
            if inner.total <= budget {
                break;
            }
            let path = self.blob_path(key);
            match fs::remove_file(&path) {
                Ok(()) | Err(_) if !path.exists() => {
                    inner.entries.remove(&key);
                    inner.total -= len;
                    evicted_bytes += len;
                    evicted.push(key);
                }
                _ => {
                    eprintln!("warning: cannot evict store blob {key:016x}; skipping");
                }
            }
        }
        let total = inner.total;
        let in_grace = inner.entries.len();
        drop(inner);
        for key in &evicted {
            self.append_record(Record::Evict { key: *key, ts: now });
        }
        if evicted_bytes > 0 {
            EVICTIONS.fetch_add(evicted.len() as u64, Ordering::Relaxed);
            EVICTED_BYTES.fetch_add(evicted_bytes, Ordering::Relaxed);
            eprintln!(
                "[store] GC: evicted {evicted_bytes} bytes ({} blobs), \
                 {total} bytes retained",
                evicted.len()
            );
        } else if total > budget {
            eprintln!(
                "[store] GC: {total} bytes over the {budget} budget but all \
                 {in_grace} blobs are inside the grace window; deferring"
            );
        }
        trim_quarantine(&self.dir);
        evicted_bytes
    }
}

fn has_blobs(dir: &Path) -> bool {
    let Ok(entries) = fs::read_dir(dir) else { return false };
    entries.flatten().any(|e| {
        e.path().extension().and_then(|x| x.to_str()) == Some("bin")
    })
}

/// Replay index records appended since this process's last read. Returns
/// `false` when a *complete* record fails to parse or checksum — real
/// corruption, the caller must rebuild. A trailing partial line (a crash
/// or sibling mid-append) is not consumed and not an error.
fn tail_log(inner: &mut Inner, dir: &Path) -> bool {
    let path = dir.join("index.log");
    let mut f = match fs::File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return true,
        Err(e) => {
            eprintln!("warning: cannot open store index {} ({e})", path.display());
            return true;
        }
    };
    let file_len = f.metadata().map(|m| m.len()).unwrap_or(0);
    if file_len < inner.log_offset {
        // The log shrank under us: a sibling compacted it. Our entries
        // are a superset-modulo-evictions of the snapshot; replay from
        // the top idempotently.
        inner.log_offset = 0;
    }
    if f.seek(SeekFrom::Start(inner.log_offset)).is_err() {
        return true;
    }
    let mut buf = Vec::new();
    if f.read_to_end(&mut buf).is_err() {
        return true;
    }
    let mut consumed = 0usize;
    let mut clean = true;
    for chunk in buf.split_inclusive(|&b| b == b'\n') {
        if chunk.last() != Some(&b'\n') {
            break; // torn tail: leave for the writer to finish
        }
        let line = String::from_utf8_lossy(&chunk[..chunk.len() - 1]);
        match Record::parse(line.trim_end()) {
            Some(rec) => inner.apply(rec),
            None => {
                eprintln!(
                    "warning: corrupt record in store index {} ({line:?}); \
                     rebuilding from scan",
                    path.display()
                );
                clean = false;
                consumed += chunk.len();
                break;
            }
        }
        consumed += chunk.len();
    }
    inner.log_offset += consumed as u64;
    clean
}

/// Rebuild the in-memory index from a directory scan — the fallback for
/// corrupt indexes and legacy (index-less, mtime-LRU) spill directories.
/// Blob mtime stands in for recency. A blob whose metadata cannot be read
/// is *skipped and logged*, never adopted with epoch recency (which would
/// make transient stat failures evict-first fodder).
fn rebuild_from_scan(inner: &mut Inner, dir: &Path, reason: &str) {
    REBUILDS.fetch_add(1, Ordering::Relaxed);
    inner.rebuilds += 1;
    inner.entries.clear();
    inner.total = 0;
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut scanned = 0usize;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("bin") {
            continue;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else { continue };
        let Ok(key) = u64::from_str_radix(stem, 16) else { continue };
        if format!("{key:016x}") != stem {
            // Non-canonical stem: `blob_path(key)` would point at a
            // different file, so adopting it would make every later
            // touch/evict a phantom. No writer ever produces such names;
            // leave the file alone and say so.
            eprintln!(
                "warning: ignoring non-canonical blob name {} in the rebuild",
                path.display()
            );
            continue;
        }
        let Ok(meta) = entry.metadata() else {
            eprintln!(
                "warning: cannot stat store blob {}; skipping it in the rebuild",
                path.display()
            );
            continue;
        };
        let last_used = match meta.modified() {
            Ok(t) => t
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            Err(e) => {
                eprintln!(
                    "warning: cannot read mtime of store blob {} ({e}); \
                     skipping it in the rebuild",
                    path.display()
                );
                continue;
            }
        };
        inner.apply(Record::Put { key, len: meta.len(), ts: last_used });
        scanned += 1;
    }
    eprintln!(
        "[store] index rebuilt from scan ({reason}): {scanned} blobs, {} bytes",
        inner.total
    );
}

/// Rewrite the index as a minimal snapshot of the live set (one `P` line
/// per blob, carrying its latest recency), atomically. Run under the
/// advisory lock. A sibling holding an offset into the old file will
/// mis-parse at its next tail and rebuild — logged, rare, and harmless.
fn compact(inner: &mut Inner, dir: &Path) {
    let mut keys: Vec<&u64> = inner.entries.keys().collect();
    keys.sort_unstable();
    let mut out = String::new();
    for &key in keys {
        let e = inner.entries[&key];
        out.push_str(
            &Record::Put { key, len: e.len, ts: e.last_used }.to_line(),
        );
    }
    let path = dir.join("index.log");
    match write_atomic_retry(&path, out.as_bytes()) {
        Ok(()) => {
            inner.log_offset = out.len() as u64;
            inner.records_seen = inner.entries.len();
        }
        Err(e) => {
            eprintln!(
                "warning: cannot compact store index {} ({e}); keeping the log",
                path.display()
            );
        }
    }
}

/// Keep the quarantine directory from growing without bound: retain the
/// newest [`QUARANTINE_KEEP`] files, remove the rest (oldest mtime
/// first). Unstattable files are left alone.
fn trim_quarantine(dir: &Path) {
    let qdir = dir.join("quarantine");
    let Ok(entries) = fs::read_dir(&qdir) else { return };
    let mut files: Vec<(SystemTime, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let meta = e.metadata().ok()?;
            Some((meta.modified().ok()?, e.path()))
        })
        .collect();
    if files.len() <= QUARANTINE_KEEP {
        return;
    }
    files.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
    let excess = files.len() - QUARANTINE_KEEP;
    for (_, path) in files.into_iter().take(excess) {
        let _ = fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "automc-store-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    #[test]
    fn seal_unseal_roundtrip_and_rejection() {
        let payload = b"hello blob".to_vec();
        let sealed = seal(&[&payload]);
        assert_eq!(unseal(&sealed), Some(payload.as_slice()));
        let parts = seal(&[b"hello", b"", b" blob"]);
        assert_eq!(parts, sealed, "parts are concatenated");
        assert!(unseal(&sealed[..sealed.len() - 1]).is_none(), "truncation");
        let mut bad = sealed.clone();
        bad[10] ^= 0x40;
        assert!(unseal(&bad).is_none(), "bit flip");
        assert!(unseal(b"short").is_none());
        assert_eq!(unseal(&seal(&[])), Some(&b""[..]), "empty payload");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        // Streaming in pieces hashes the concatenation.
        let mut h = Fnv::default();
        h.write(b"foo");
        h.write(b"");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn read_sealed_returns_the_payload_and_rejects_everything_else() {
        let dir = tmp("read-sealed");
        let path = dir.join("record");
        assert_eq!(read_sealed(&path).err(), Some(Absent::Missing));
        write_sealed(&path, &[b"{\"a\": ", b"1}"]).unwrap();
        let sealed = fs::read(&path).unwrap();
        assert_eq!(&*read_sealed(&path).unwrap(), b"{\"a\": 1}");
        // A file with no magic, and the `{schema, checksum, payload}`
        // JSON envelope earlier builds wrote: another build's files.
        let payload = "{\"a\": 1}";
        let envelope = format!(
            "{{\n  \"schema\": 2,\n  \"checksum\": \"{:016x}\",\n  \"payload\": {payload:?}\n}}",
            fnv1a64(payload.as_bytes())
        );
        for foreign in [&b"plain text"[..], envelope.as_bytes(), b""] {
            fs::write(&path, foreign).unwrap();
            assert_eq!(read_sealed(&path).err(), Some(Absent::Foreign));
        }
        // A flipped byte anywhere after the magic, or a truncation.
        let mut flipped = sealed.clone();
        flipped[12] ^= 0x01;
        for corrupt in [&flipped[..], &sealed[..sealed.len() - 1], &sealed[..10]] {
            fs::write(&path, corrupt).unwrap();
            assert_eq!(read_sealed(&path).err(), Some(Absent::Corrupt));
        }
        // A directory where the file should be cannot be read.
        assert_eq!(read_sealed(&dir).err(), Some(Absent::Unreadable));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_of_one_path_never_fail_or_tear() {
        // Two threads seal 256 KiB payloads to one path while a third
        // reads it: every write must succeed on its first attempt, and
        // every read must see one whole envelope or no file.
        let dir = tmp("concurrent-writers");
        let path = dir.join("entry.json");
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(3);
        let (errors, corrupt) = std::thread::scope(|s| {
            let writers: Vec<_> = (0..2u8)
                .map(|t| {
                    let (path, start) = (&path, &start);
                    s.spawn(move || {
                        let payload = vec![t; 256 * 1024];
                        start.wait();
                        (0..200)
                            .filter(|_| write_atomic(path, &seal(&[&payload])).is_err())
                            .count()
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                start.wait();
                let mut corrupt = 0;
                while !done.load(Ordering::Relaxed) {
                    if let Err(Absent::Corrupt | Absent::Foreign) = read_sealed(&path) {
                        corrupt += 1;
                    }
                }
                corrupt
            });
            let errors: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
            done.store(true, Ordering::Relaxed);
            (errors, reader.join().unwrap())
        });
        assert_eq!(errors, 0, "a write failed");
        assert_eq!(corrupt, 0, "a reader saw a partial file");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_lines_roundtrip_and_reject_corruption() {
        for rec in [
            Record::Put { key: 0xdead_beef, len: 123, ts: 456 },
            Record::Touch { key: 1, ts: 2 },
            Record::Evict { key: u64::MAX, ts: 0 },
        ] {
            let line = rec.to_line();
            assert_eq!(Record::parse(line.trim_end()), Some(rec));
            let mut bad = line.trim_end().to_string().into_bytes();
            bad[3] = bad[3].wrapping_add(1);
            assert!(Record::parse(&String::from_utf8(bad).unwrap()).is_none());
        }
        assert!(Record::parse("").is_none());
        assert!(Record::parse("X 00 1 2 deadbeef").is_none());
    }

    #[test]
    fn publish_is_write_once_and_get_roundtrips() {
        let dir = tmp("roundtrip");
        let store = BlobStore::open(&dir).unwrap();
        assert!(store.is_empty());
        assert!(store.publish(7, b"seven"));
        assert!(!store.publish(7, b"seven"), "second publish is a no-op");
        assert_eq!(store.get(7), Some(b"seven".to_vec()));
        assert_eq!(store.get(8), None, "unknown key is a clean miss");
        assert_eq!(store.len(), 1);
        assert!(store.total_bytes() > 0);

        // A fresh open (a "new process") replays the index.
        let again = BlobStore::open(&dir).unwrap();
        assert_eq!(again.len(), 1);
        assert_eq!(again.get(7), Some(b"seven".to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_blob_is_quarantined_and_republishable() {
        let dir = tmp("quarantine");
        let store = BlobStore::open(&dir).unwrap();
        store.publish(0xabc, b"payload");
        let path = dir.join(format!("{:016x}.bin", 0xabc));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(&path, &bytes).unwrap();

        let healed_before = counters().healed;
        assert_eq!(store.get(0xabc), None, "corrupt blob is a miss");
        // `>=`: the counter is process-global and other tests may heal
        // concurrently; ours contributes at least one.
        assert!(counters().healed >= healed_before + 1);
        assert!(!path.exists(), "corrupt blob is gone from the live set");
        assert_eq!(
            fs::read_dir(dir.join("quarantine")).unwrap().count(),
            1,
            "moved aside, not deleted"
        );
        // The next writer heals it.
        assert!(store.publish(0xabc, b"payload"), "key is free again");
        assert_eq!(store.get(0xabc), Some(b"payload".to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_oldest_outside_grace_and_respects_grace_window() {
        let dir = tmp("gc");
        set_grace_ms(0);
        let store = BlobStore::open(&dir).unwrap();
        store.publish(1, &[1u8; 100]);
        std::thread::sleep(Duration::from_millis(5));
        store.publish(2, &[2u8; 100]);
        std::thread::sleep(Duration::from_millis(5));
        store.publish(3, &[3u8; 100]);
        let blob = 100 + 16; // payload + magic + checksum
        let total = store.total_bytes();
        assert_eq!(total, 3 * blob as u64);

        // With no grace, the oldest blob goes first.
        let evicted = store.gc(2 * blob as u64);
        assert_eq!(evicted, blob as u64);
        assert!(!dir.join(format!("{:016x}.bin", 1)).exists());
        assert!(dir.join(format!("{:016x}.bin", 2)).exists());
        assert_eq!(store.get(1), None);
        assert_eq!(store.get(2), Some(vec![2u8; 100]));

        // Touching 2 makes 3 the next victim.
        std::thread::sleep(Duration::from_millis(5));
        assert!(store.get(2).is_some());
        assert_eq!(store.gc(blob as u64), blob as u64);
        assert!(dir.join(format!("{:016x}.bin", 2)).exists());
        assert!(!dir.join(format!("{:016x}.bin", 3)).exists());

        // A huge grace window protects everything: over budget, no evicts.
        set_grace_ms(3_600_000);
        assert_eq!(store.gc(0), 0, "grace window must defer eviction");
        assert!(dir.join(format!("{:016x}.bin", 2)).exists());
        set_grace_ms(DEFAULT_GRACE_MS);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_mtime_directory_is_adopted_with_mtime_recency() {
        let dir = tmp("legacy");
        // Raw pre-store blobs: hex names, no index, old mtimes.
        let t0 = SystemTime::now() - Duration::from_secs(300);
        for (i, name) in ["00000000000000aa.bin", "00000000000000bb.bin"].iter().enumerate() {
            let path = dir.join(name);
            fs::write(&path, vec![7u8; 50]).unwrap();
            let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
            f.set_modified(t0 + Duration::from_secs(60 * i as u64)).unwrap();
        }
        fs::write(dir.join("stray.tmp"), b"x").unwrap();

        let store = BlobStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2, "legacy blobs adopted from scan");
        assert_eq!(store.rebuild_count(), 1, "adoption is a scan rebuild");
        assert!(dir.join("index.log").exists(), "rebuild writes an index");
        // Old mtimes are outside any sane grace window: LRU applies.
        let evicted = store.gc(60);
        assert_eq!(evicted, 50);
        assert!(!dir.join("00000000000000aa.bin").exists(), "oldest first");
        assert!(dir.join("00000000000000bb.bin").exists());
        assert!(dir.join("stray.tmp").exists(), "non-blobs untouched");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_index_record_triggers_rebuild_on_open() {
        let dir = tmp("index-corrupt");
        {
            let store = BlobStore::open(&dir).unwrap();
            store.publish(5, b"five");
            store.publish(6, b"six");
        }
        // Corrupt the first record (a complete line), keep the second.
        let path = dir.join("index.log");
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] = bytes[4].wrapping_add(1);
        fs::write(&path, &bytes).unwrap();

        let store = BlobStore::open(&dir).unwrap();
        assert_eq!(store.rebuild_count(), 1, "corrupt record forces a rebuild");
        assert_eq!(store.len(), 2, "rebuild recovers the live set");
        assert_eq!(store.get(5), Some(b"five".to_vec()));
        // The rebuild compacted: a fresh open parses cleanly.
        let again = BlobStore::open(&dir).unwrap();
        assert_eq!(again.len(), 2);
        assert_eq!(again.rebuild_count(), 0, "no further rebuild");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_record_is_dropped_without_rebuild() {
        let dir = tmp("torn-tail");
        {
            let store = BlobStore::open(&dir).unwrap();
            store.publish(9, b"nine");
        }
        // Simulate a crash mid-append: a partial line with no newline.
        let path = dir.join("index.log");
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"P 00000000000000ff 1").unwrap();
        drop(f);

        let store = BlobStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1, "torn tail is ignored");
        assert_eq!(store.rebuild_count(), 0, "torn tail must not force a rebuild");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_publish_heals_on_read() {
        use automc_tensor::fault::FaultPlan;
        let dir = tmp("fault-torn");
        let store = BlobStore::open(&dir).unwrap();
        fault::install(FaultPlan::parse("torn@spill:1").unwrap());
        store.publish(0x77, b"torn victim");
        fault::clear();
        let healed_before = counters().healed;
        assert_eq!(store.get(0x77), None, "torn blob must fail its checksum");
        assert!(counters().healed >= healed_before + 1);
        assert!(store.publish(0x77, b"torn victim"), "republish heals");
        assert_eq!(store.get(0x77), Some(b"torn victim".to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_evict_race_is_a_clean_miss() {
        use automc_tensor::fault::FaultPlan;
        let dir = tmp("fault-evict");
        let store = BlobStore::open(&dir).unwrap();
        store.publish(0x55, b"doomed");
        // `install` resets the site counters, so the next spill tick —
        // the read below — is ordinal 1.
        fault::install(FaultPlan::parse("evict@spill:1").unwrap());
        let raced_before = counters().raced;
        assert_eq!(store.get(0x55), None, "raced read is a clean miss");
        fault::clear();
        assert!(counters().raced >= raced_before + 1);
        assert_eq!(store.get(0x55), None, "and stays gone");
        assert!(store.publish(0x55, b"doomed"), "republish works");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sibling_publishes_are_adopted_through_the_index() {
        let dir = tmp("sibling");
        let a = BlobStore::open(&dir).unwrap();
        let b = BlobStore::open(&dir).unwrap();
        a.publish(0x11, b"from a");
        // b has no local entry, but finds the blob on disk.
        assert_eq!(b.get(0x11), Some(b"from a".to_vec()));
        assert_eq!(b.len(), 1, "adopted into b's view");
        // b's budget check sees a's bytes after re-anchoring.
        assert_eq!(a.total_bytes(), b.total_bytes());
        // a publishing through b's existing blob is idempotent.
        assert!(!b.publish(0x11, b"from a"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_is_broken() {
        let dir = tmp("lock");
        // A lock held by a pid that cannot exist.
        fs::write(dir.join(".lock"), "4194304999").unwrap();
        let start = std::time::Instant::now();
        let guard = acquire_lock(&dir);
        assert!(guard.held, "stale lock must be broken, not waited out");
        assert!(
            start.elapsed() < Duration::from_millis(LOCK_WAIT_MS),
            "breaking must not burn the full wait budget"
        );
        drop(guard);
        assert!(!dir.join(".lock").exists(), "drop releases");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_is_trimmed() {
        let dir = tmp("qtrim");
        let qdir = dir.join("quarantine");
        fs::create_dir_all(&qdir).unwrap();
        for i in 0..(QUARANTINE_KEEP + 10) {
            fs::write(qdir.join(format!("q{i:04}.bin")), b"x").unwrap();
        }
        trim_quarantine(&dir);
        assert_eq!(fs::read_dir(&qdir).unwrap().count(), QUARANTINE_KEEP);
        let _ = fs::remove_dir_all(&dir);
    }
}
