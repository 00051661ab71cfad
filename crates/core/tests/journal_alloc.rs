//! Saving and loading a search journal allocate in proportion to its
//! learner state: `save` builds the sealed file in one buffer, `load` reads
//! the file and copies the state out of it. The RL controller's state is
//! megabytes and is journaled every round, so any text encoding of it
//! (hex, JSON escapes) would show here as a multiple of the state.
//!
//! A counting global allocator tracks live and peak heap bytes. This
//! binary holds one test, so no other test's allocations reach the
//! counters.

use automc_core::journal::{self, SearchJournal};
use automc_core::SearchHistory;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (so from `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A moving realloc holds both blocks while it copies: count the
        // new block before the old one goes.
        grow(new_size);
        // SAFETY: `ptr` came from this allocator with `layout`, and the
        // caller upholds `realloc`'s contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        let released = if p.is_null() { new_size } else { layout.size() };
        LIVE.fetch_sub(released, Ordering::SeqCst);
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak heap bytes above the starting level while `f` runs.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - start)
}

#[test]
fn journal_save_and_load_allocate_in_proportion_to_the_state() {
    // The RL controller's state: 4 230 actions × 48 floats of weights plus
    // two Adam moments of the same size, and framing.
    const STATE: usize = 2_456_000;
    const SLACK: f64 = 64.0 * 1024.0;
    let state: Vec<u8> = (0..STATE).map(|i| (i * 7 + i / 251) as u8).collect();
    let fingerprint = 0x5eed_0fab_1ec0_de42;
    let snap = SearchJournal {
        fingerprint,
        round: 7,
        spent: 1_000,
        rng: [1, 2, 3, 4],
        history: SearchHistory::new("RL"),
        state,
        nodes: Vec::new(),
        fault_counters: Vec::new(),
    };
    let dir = std::env::temp_dir().join(format!("automc-journal-alloc-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rl.journal");

    let (saved, save_peak) = peak_above_start(|| journal::save(&path, &snap));
    saved.unwrap();
    let (loaded, load_peak) = peak_above_start(|| journal::load(&path, fingerprint));
    let loaded = loaded.expect("the journal loads");
    let _ = fs::remove_dir_all(&dir);

    assert_eq!(loaded.state, snap.state);
    let save_x = save_peak as f64 / STATE as f64;
    let load_x = load_peak as f64 / STATE as f64;
    eprintln!("save peak {save_peak} B ({save_x:.2}x), load peak {load_peak} B ({load_x:.2}x)");
    assert!(
        save_peak as f64 <= 1.25 * STATE as f64 + SLACK,
        "save peaked at {save_x:.2}x the state"
    );
    assert!(
        load_peak as f64 <= 2.25 * STATE as f64 + SLACK,
        "load peaked at {load_x:.2}x the state"
    );
}
