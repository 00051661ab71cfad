//! Result cache shared by the reproduction binaries.
//!
//! Searches are the expensive part of the pipeline; Table 3 and Figures
//! 4/6 reuse Table 2's searches through this cache. Files live under
//! `target/automc-results/` as `<key>.json`: each is one sealed envelope
//! (`automc_compress::store::write_sealed`: `AUTOMCb1` magic, payload,
//! FNV-1a 64 trailer) around a pretty `{fingerprint, value}` JSON payload,
//! readable after the 8-byte magic and hand-deletable.
//!
//! The *fingerprint* summarises the run configuration (seed + scale
//! config). Keys alone proved unsafe: a cached Table 2 run from one
//! `--seed`/scale combination was silently reused for another. A
//! fingerprint mismatch is treated as a miss and recomputed, and so is an
//! entry another build wrote (no magic), which the next store overwrites.
//!
//! Entries are written atomically (temp file + rename), so a torn write,
//! truncation, or bit-flip fails the envelope checksum on load and is a
//! logged miss rather than parsed into garbage results; the corrupt file
//! itself is *moved aside* into a `quarantine/` directory (the same
//! discipline as the blob store's healing path, see `automc_compress::store`)
//! so a bad entry can be post-mortemed while the next store heals the key.
//! The `corrupt@cache:n` fault site (`automc_tensor::fault`) flips a byte
//! of the n-th stored envelope after sealing to exercise that rejection
//! path deterministically.

use automc_compress::store::{quarantine_file, read_sealed, seal, write_atomic_retry, Absent};
use automc_json::{field, obj, FromJson, ToJson};
use automc_tensor::fault::{self, FaultKind};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Latched when a cache write keeps failing after retries: further stores
/// become no-ops for the rest of the process (results are still returned
/// to the caller — only their persistence is lost).
static STORE_DISABLED: AtomicBool = AtomicBool::new(false);

/// Directory holding the cache files. `AUTOMC_RESULTS_DIR` overrides the
/// location wholesale (the kill/resume smoke stage isolates its runs this
/// way without forcing a rebuild via `CARGO_TARGET_DIR`); otherwise it is
/// anchored to the workspace `target/` directory via the crate manifest,
/// so binaries, tests, and benches agree on the location regardless of
/// their working directory. A distributed run's local workers inherit the
/// supervisor's directory, so a run is one store.
pub fn cache_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("AUTOMC_RESULTS_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    let base = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target").into());
    PathBuf::from(base).join("automc-results")
}

/// Path of a cache entry.
pub fn cache_path(key: &str) -> PathBuf {
    cache_dir().join(format!("{key}.json"))
}

/// Quarantine a corrupt cache entry (moved aside, not deleted) and log
/// where it went; the next [`store`] of the key heals it.
fn quarantine_entry(path: &Path, key: &str, why: &str) {
    match quarantine_file(path) {
        Some(dest) => eprintln!(
            "[cache] {key}: {why}; quarantined to {} and recomputing",
            dest.display()
        ),
        None => eprintln!("[cache] {key}: {why}; removed and recomputing"),
    }
}

/// Load a cached value if present, intact, and recorded under the same
/// fingerprint; anything else is a miss. Missing, foreign and mismatched
/// entries are plain misses; corrupt ones are quarantined too.
pub fn load<T: FromJson>(key: &str, fingerprint: &str) -> Option<T> {
    let path = cache_path(key);
    let payload = match read_sealed(&path) {
        Ok(payload) => payload,
        Err(Absent::Corrupt) => {
            quarantine_entry(&path, key, "checksum mismatch (corrupt entry)");
            return None;
        }
        Err(_) => return None,
    };
    let Ok(entry) = automc_json::parse_utf8(&payload) else {
        quarantine_entry(&path, key, "corrupt payload");
        return None;
    };
    let fp: String = field(&entry, "fingerprint")?;
    if fp != fingerprint {
        eprintln!("[cache] {key}: fingerprint mismatch ({fp} != {fingerprint}), recomputing");
        return None;
    }
    T::from_json(entry.get("value")?)
}

/// Store a value under a fingerprint. The write is atomic, retried with
/// backoff, and sealed, so readers never see a torn or partially-written
/// entry; a write that still fails after the retries disables result
/// caching for the rest of the process (retry-then-disable — the computed
/// value is returned to the caller either way).
pub fn store<T: ToJson>(key: &str, fingerprint: &str, value: &T) {
    if STORE_DISABLED.load(Ordering::Relaxed) {
        return;
    }
    let dir = cache_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!(
            "warning: cannot create cache dir {dir:?} ({e}); result caching \
             disabled for this run"
        );
        STORE_DISABLED.store(true, Ordering::Relaxed);
        return;
    }
    let payload = obj(vec![
        ("fingerprint", fingerprint.to_json()),
        ("value", value.to_json()),
    ])
    .to_string_pretty();
    // An injected corruption fault damages the stored bytes *after*
    // sealing, exactly as a disk fault or torn write would, so the loader
    // must catch it.
    let mut sealed = seal(&[payload.as_bytes()]);
    if fault::tick("cache") == Some(FaultKind::Corrupt) {
        let mid = sealed.len() / 2;
        sealed[mid] = sealed[mid].wrapping_add(1);
    }
    if let Err(e) = write_atomic_retry(&cache_path(key), &sealed) {
        eprintln!(
            "warning: cache entry {key} keeps failing ({e}); result caching \
             disabled for this run"
        );
        STORE_DISABLED.store(true, Ordering::Relaxed);
    }
}

/// Load from cache unless `fresh`, else compute and store.
pub fn load_or<T: ToJson + FromJson>(
    key: &str,
    fingerprint: &str,
    fresh: bool,
    compute: impl FnOnce() -> T,
) -> T {
    if !fresh {
        if let Some(v) = load(key, fingerprint) {
            eprintln!("[cache] reusing {key}");
            return v;
        }
    }
    let v = compute();
    store(key, fingerprint, &v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use automc_compress::store::fnv1a64;
    use automc_json::Value;

    #[test]
    fn roundtrip_and_load_or() {
        let key = "unit-test-entry";
        let fp = "s1|test";
        store(key, fp, &vec![1u32, 2, 3]);
        let back: Option<Vec<u32>> = load(key, fp);
        assert_eq!(back, Some(vec![1, 2, 3]));
        let mut computed = false;
        let v: Vec<u32> = load_or(key, fp, false, || {
            computed = true;
            vec![9]
        });
        assert_eq!(v, vec![1, 2, 3]);
        assert!(!computed, "cache hit must skip compute");
        let v: Vec<u32> = load_or(key, fp, true, || vec![9]);
        assert_eq!(v, vec![9], "--fresh recomputes");
        let _ = std::fs::remove_file(cache_path(key));
    }

    #[test]
    fn fingerprint_mismatch_is_a_miss() {
        let key = "unit-test-fingerprint";
        store(key, "s1|small", &7u32);
        assert_eq!(load::<u32>(key, "s1|small"), Some(7));
        assert_eq!(load::<u32>(key, "s2|small"), None, "other seed must miss");
        assert_eq!(load::<u32>(key, "s1|large"), None, "other scale must miss");
        let v: u32 = load_or(key, "s2|small", false, || 9);
        assert_eq!(v, 9, "mismatch must recompute");
        assert_eq!(load::<u32>(key, "s2|small"), Some(9), "recompute overwrites");
        let _ = std::fs::remove_file(cache_path(key));
    }

    #[test]
    fn legacy_unwrapped_entry_is_a_miss() {
        let key = "unit-test-legacy";
        let _ = fs::create_dir_all(cache_dir());
        // Pre-envelope format: the bare value, no fingerprint.
        fs::write(cache_path(key), "[1, 2, 3]\n").unwrap();
        assert_eq!(load::<Vec<u32>>(key, "s1|test"), None);
        // The `{checksum, payload}` JSON envelope earlier builds wrote,
        // intact in its own terms: another build's entry, so a miss that
        // is recomputed and overwritten by the next store.
        let payload = obj(vec![
            ("fingerprint", "s1|test".to_json()),
            ("value", vec![1u32, 2, 3].to_json()),
        ])
        .to_string_pretty();
        let checksum = format!("{:016x}", fnv1a64(payload.as_bytes()));
        let envelope = obj(vec![
            ("checksum", Value::Str(checksum)),
            ("payload", Value::Str(payload)),
        ]);
        fs::write(cache_path(key), envelope.to_string_pretty()).unwrap();
        assert_eq!(load::<Vec<u32>>(key, "s1|test"), None);
        let v: Vec<u32> = load_or(key, "s1|test", false, || vec![4]);
        assert_eq!(v, vec![4]);
        assert_eq!(load::<Vec<u32>>(key, "s1|test"), Some(vec![4]), "healed");
        let _ = std::fs::remove_file(cache_path(key));
    }

    #[test]
    fn missing_entry_is_none() {
        let v: Option<Vec<u32>> = load("definitely-not-present", "s1|x");
        assert!(v.is_none());
    }

    #[test]
    fn corrupt_and_truncated_entries_are_misses() {
        let key = "unit-test-corrupt";
        let fp = "s1|test";
        store(key, fp, &vec![4u32, 5, 6]);
        assert_eq!(load::<Vec<u32>>(key, fp), Some(vec![4, 5, 6]));
        // Flip one byte somewhere in the stored payload.
        let path = cache_path(key);
        let mut bytes = fs::read(&path).unwrap();
        let idx = bytes.len() * 2 / 3;
        bytes[idx] = bytes[idx].wrapping_add(1);
        fs::write(&path, &bytes).unwrap();
        assert_eq!(load::<Vec<u32>>(key, fp), None, "bit-flip must be a miss");
        assert!(!path.exists(), "corrupt entry must be moved aside");
        let quarantined = fs::read_dir(cache_dir().join("quarantine"))
            .map(|d| {
                d.flatten()
                    .any(|e| e.file_name().to_string_lossy().contains(key))
            })
            .unwrap_or(false);
        assert!(quarantined, "corrupt entry must land in quarantine/");
        // Truncate mid-file, as a torn write would.
        store(key, fp, &vec![4u32, 5, 6]);
        let good = fs::read(&path).unwrap();
        fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert_eq!(load::<Vec<u32>>(key, fp), None, "truncation must be a miss");
        // A miss recomputes and heals the entry.
        let v: Vec<u32> = load_or(key, fp, false, || vec![7]);
        assert_eq!(v, vec![7]);
        assert_eq!(load::<Vec<u32>>(key, fp), Some(vec![7]));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn injected_cache_corruption_is_detected_on_load() {
        use automc_tensor::fault::FaultPlan;

        let key = "unit-test-fault-corrupt";
        let fp = "s1|test";
        fault::install(FaultPlan::parse("corrupt@cache:1").unwrap());
        store(key, fp, &vec![1u32, 2]); // corrupted on the way to disk
        store(key, fp, &vec![3u32, 4]); // second store is clean
        fault::clear();
        assert_eq!(
            load::<Vec<u32>>(key, fp),
            Some(vec![3, 4]),
            "the clean second store must have replaced the corrupt entry"
        );
        fault::install(FaultPlan::parse("corrupt@cache:1").unwrap());
        store(key, fp, &vec![9u32]);
        fault::clear();
        assert_eq!(
            load::<Vec<u32>>(key, fp),
            None,
            "a corrupted store must fail its checksum on load"
        );
        let _ = fs::remove_file(cache_path(key));
    }
}
