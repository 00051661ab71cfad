//! Pins the journal's on-disk bytes. `tests/golden/` holds a checkpoint
//! written by the schema-v2 encoder that shipped before the table-driven
//! hex codec and the run-copying JSON escape: `journal::save` must still
//! reproduce it byte for byte, and `journal::load` must accept it, so
//! journals written by earlier builds keep resuming.

use automc_compress::{EvalCost, Metrics};
use automc_core::journal::{self, NodeSnapshot, SearchJournal};
use automc_core::{EvalRecord, EvalStatus, SearchHistory};
use std::fs;
use std::path::{Path, PathBuf};

const FINGERPRINT: u64 = 0x5eed_0fab_1ec0_de42;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/rl.journal")
}

/// A fixed fingerprint, a two-record history (one success, one panic whose
/// message needs every kind of JSON escape), a 4 KB learner state holding
/// every byte value, and one model node.
fn golden_journal() -> SearchJournal {
    let mut history = SearchHistory::new("RL");
    history.records.push(EvalRecord {
        scheme: vec![3, 17],
        pr: 0.4125,
        fr: 0.375,
        ar: -0.0625,
        acc: 0.71875,
        params: 10_296,
        flops: 95_072,
        cost_so_far: 640,
        status: EvalStatus::Ok,
    });
    history.push_failure(
        vec![5],
        EvalStatus::Panicked("index 3 out of \"range\"\n\tat C:\\x \u{1} é ✓".into()),
        800,
    );
    let state: Vec<u8> = (0..=255u8)
        .chain((0..3840u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8))
        .collect();
    SearchJournal {
        fingerprint: FINGERPRINT,
        round: 2,
        spent: 800,
        rng: [0x0123_4567_89ab_cdef, 1, u64::MAX, 0xfeed_face_dead_beef],
        history,
        state,
        nodes: vec![NodeSnapshot {
            scheme: vec![3, 17],
            metrics: Metrics { params: 10_296, flops: 95_072, acc: 0.71875 },
            cost: EvalCost { trained_images: 512, eval_images: 128 },
            explored: vec![0, 4, 9],
            model: (0..=255u8).rev().collect(),
        }],
        fault_counters: vec![("eval".into(), 7), ("train".into(), 31)],
    }
}

/// Every file of a journal (the envelope plus its blob store), keyed by
/// its path relative to the journal's directory.
fn journal_files(path: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = vec![(String::from("rl.journal"), fs::read(path).expect("journal file"))];
    let blobs = journal::blob_dir(path);
    let mut names: Vec<_> = fs::read_dir(&blobs)
        .expect("blob store")
        .map(|e| e.expect("blob entry").file_name().into_string().expect("utf-8 blob name"))
        .collect();
    names.sort();
    for name in names {
        let bytes = fs::read(blobs.join(&name)).expect("blob file");
        files.push((format!("rl.journal.blobs/{name}"), bytes));
    }
    files
}

#[test]
fn save_reproduces_the_golden_checkpoint_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("automc-journal-golden-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rl.journal");
    journal::save(&path, &golden_journal()).unwrap();
    let (written, golden) = (journal_files(&path), journal_files(&golden_path()));
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(written.len(), golden.len(), "journal + blob file count");
    for ((name, bytes), (golden_name, golden_bytes)) in written.iter().zip(&golden) {
        assert_eq!(name, golden_name);
        assert!(bytes == golden_bytes, "{name} differs from the golden checkpoint");
    }
}

#[test]
fn load_accepts_the_golden_checkpoint() {
    let want = golden_journal();
    let got = journal::load(&golden_path(), FINGERPRINT).expect("golden journal loads");
    assert_eq!((got.round, got.spent, got.rng), (want.round, want.spent, want.rng));
    assert_eq!(got.state, want.state);
    assert_eq!(got.fault_counters, want.fault_counters);
    assert_eq!(got.history.algorithm, "RL");
    assert_eq!(got.history.records.len(), 2);
    assert_eq!(got.history.records[0].acc.to_bits(), 0.71875f32.to_bits());
    assert_eq!(got.history.records[1].status, want.history.records[1].status);
    assert_eq!(got.nodes.len(), 1);
    assert_eq!(got.nodes[0].model, want.nodes[0].model);
    assert_eq!(got.nodes[0].explored, vec![0, 4, 9]);
    assert_eq!(got.nodes[0].cost, want.nodes[0].cost);
}
