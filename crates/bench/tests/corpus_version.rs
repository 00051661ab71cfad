//! Caches written before the corpus derivation changed must be misses.
//! The corpus, the embeddings learned from it, and every prepared-task
//! artifact (AutoMC searches with those embeddings, and everything keyed
//! by the run fingerprint) fold `CORPUS_VERSION` into their fingerprints.

use automc_bench::cache;
use automc_bench::harness::{
    automc_embeddings, corpus_fingerprint, embedding_fingerprint, experience_corpus,
    run_fingerprint,
};
use automc_bench::scale::smoke;
use automc_compress::{MethodId, StrategySpace};
use automc_json::{obj, ToJson, Value};

const SEED: u64 = 3;

#[test]
fn entries_stored_under_pre_version_fingerprints_are_misses() {
    let dir = std::env::temp_dir().join("automc-corpus-version-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("AUTOMC_RESULTS_DIR", &dir);

    // The fingerprints as they were before the corpus was versioned.
    let scale = smoke();
    let stale = [
        ("corpus_full_s3", format!("s{SEED}|corpus"), corpus_fingerprint(SEED)),
        ("emb_full_s3_kg1_exp1", format!("s{SEED}|emb"), embedding_fingerprint(SEED)),
        (
            "table2_smoke_s3",
            format!("k{}|s{SEED}|{}", automc_tensor::KERNEL_NUMERICS_VERSION, scale.fingerprint()),
            run_fingerprint(&scale, SEED),
        ),
    ];
    for (key, old, new) in &stale {
        cache::store(key, old, &"stale".to_json());
        assert!(cache::load::<Value>(key, old).is_some(), "{key}: entry must be readable");
        assert!(
            cache::load::<Value>(key, new).is_none(),
            "{key}: an entry keyed {old:?} must miss under {new:?}"
        );
    }

    // Through the public calls: a current corpus is reused, while a stale
    // embedding table next to it is relearned rather than returned.
    let space = StrategySpace::for_methods(&[MethodId::Ns]);
    let records: Vec<(usize, Vec<f32>, f32, f32)> =
        (0..3).map(|i| (i % space.len(), vec![0.5; 7], 0.01, 0.3)).collect();
    cache::store(
        "corpus_tiny_s3",
        &corpus_fingerprint(SEED),
        &obj(vec![("records", records.to_json())]),
    );
    assert_eq!(experience_corpus(&space, "tiny", SEED, false).records.len(), 3);
    let stale_emb = vec![vec![42.0f32; 4]; space.len()];
    cache::store("emb_tiny_s3_kg1_exp1", &format!("s{SEED}|emb"), &stale_emb);
    let emb = automc_embeddings(&space, "tiny", SEED, false, true, true);
    assert_eq!(emb.len(), space.len());
    assert_ne!(emb, stale_emb, "a stale embedding table must not be reused");
    let _ = std::fs::remove_dir_all(&dir);
}
