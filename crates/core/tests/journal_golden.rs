//! Pins the journal's on-disk bytes. `tests/golden/rl.journal` holds a
//! checkpoint in the sealed format every persisted file shares (magic,
//! `header_len`, JSON header, raw learner state, checksum trailer):
//! `journal::save` must reproduce it byte for byte, and `journal::load`
//! must accept it. `tests/golden/v2-json/rl.journal` holds the same
//! checkpoint as earlier builds wrote it (a `{schema, checksum, payload}`
//! JSON envelope, the state as hex): another build's file, which must read
//! as no journal, so its run restarts.

use automc_compress::{EvalCost, Metrics};
use automc_core::journal::{self, NodeSnapshot, SearchJournal};
use automc_core::{EvalRecord, EvalStatus, SearchHistory};
use std::fs;
use std::path::{Path, PathBuf};

const FINGERPRINT: u64 = 0x5eed_0fab_1ec0_de42;

fn golden_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(rel)
}

/// A fixed fingerprint, a two-record history (one success, one panic whose
/// message needs every kind of JSON escape), a 4 KB learner state holding
/// every byte value, and one extension node.
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
        }],
        fault_counters: vec![("eval".into(), 7), ("train".into(), 31)],
    }
}

/// Every field of a loaded journal equals [`golden_journal`]'s.
fn assert_is_golden(got: &SearchJournal) {
    let want = golden_journal();
    assert_eq!((got.round, got.spent, got.rng), (want.round, want.spent, want.rng));
    assert_eq!(got.state, want.state);
    assert_eq!(got.fault_counters, want.fault_counters);
    assert_eq!(got.history.algorithm, "RL");
    assert_eq!(got.history.records.len(), 2);
    assert_eq!(got.history.records[0].acc.to_bits(), 0.71875f32.to_bits());
    assert_eq!(got.history.records[1].status, want.history.records[1].status);
    assert_eq!(got.nodes.len(), 1);
    let (node, want_node) = (&got.nodes[0], &want.nodes[0]);
    assert_eq!(node.scheme, want_node.scheme);
    assert_eq!(node.metrics, want_node.metrics);
    assert_eq!(node.metrics.acc.to_bits(), want_node.metrics.acc.to_bits());
    assert_eq!(node.cost, want_node.cost);
    assert_eq!(node.explored, vec![0, 4, 9]);
}

#[test]
fn save_reproduces_the_golden_checkpoint_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("automc-journal-golden-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rl.journal");
    journal::save(&path, &golden_journal()).unwrap();
    let written = fs::read(&path).unwrap();
    let files = fs::read_dir(&dir).unwrap().count();
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(files, 1, "the journal is one file");
    let golden = fs::read(golden_path("rl.journal")).unwrap();
    assert!(written == golden, "rl.journal differs from the golden checkpoint");
    // Magic, header length, header, the raw 4 KB state, checksum trailer.
    let header_len = u64::from_le_bytes(golden[8..16].try_into().unwrap()) as usize;
    assert_eq!(golden.len(), 8 + 8 + header_len + 4096 + 8);
    assert!(golden[16 + header_len..].starts_with(&golden_journal().state));
}

#[test]
fn load_accepts_the_golden_checkpoint() {
    let got = journal::load(&golden_path("rl.journal"), FINGERPRINT).expect("golden journal loads");
    assert_is_golden(&got);
}

#[test]
fn the_v2_json_checkpoint_reads_as_no_journal() {
    let old = golden_path("v2-json/rl.journal");
    assert!(fs::read(&old).unwrap().starts_with(b"{"), "the fixture is the JSON envelope");
    assert!(journal::decode(&old).is_none());
    assert!(journal::load(&old, FINGERPRINT).is_none());
}
