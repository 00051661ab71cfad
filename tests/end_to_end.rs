//! Cross-crate integration tests: the full AutoMC pipeline at miniature
//! scale, exercising data → models → compress → knowledge → search.

use automc::compress::{
    execute_scheme, ExecConfig, Metrics, MethodId, StrategySpace,
};
use automc::data::{DatasetSpec, SyntheticKind};
use automc::knowledge::{generate_experience, learn_embeddings, EmbeddingConfig, MicroTask};
use automc::models::train::{train, Auxiliary, TrainConfig};
use automc::models::{resnet, ConvNet, ModelKind};
use automc::search::{
    drive, AutoMc, AutoMcConfig, JournalOptions, Random, SearchBudget, SearchContext,
};
use automc::tensor::rng_from_seed;

fn prepared_task() -> (ConvNet, Metrics, automc::data::ImageSet, automc::data::ImageSet) {
    // Seed picked for robust training dynamics under the vendored RNG
    // stream (the compressed accuracy stays well clear of the threshold
    // across neighbouring execution seeds).
    let mut rng = rng_from_seed(4031);
    let (train_set, test_set) = DatasetSpec {
        train: 240,
        test: 120,
        noise: 0.25,
        ..DatasetSpec::new(SyntheticKind::Cifar10Like)
    }
    .generate();
    let mut model = resnet(20, 4, 10, (3, 8, 8), &mut rng);
    train(
        &mut model,
        &train_set,
        &TrainConfig { epochs: 6.0, ..Default::default() },
        Auxiliary::None,
        &mut rng,
    );
    let base = Metrics::measure(&mut model, &test_set);
    (model, base, train_set, test_set)
}

#[test]
fn scheme_execution_tracks_both_objectives() {
    let (model, base, train_set, test_set) = prepared_task();
    let space = StrategySpace::full();
    // Two pruning strategies in sequence.
    let pick = |m: MethodId, r: f32| {
        space
            .iter()
            .find(|(_, s)| s.method() == m && (s.ratio() - r).abs() < 1e-6)
            .unwrap()
            .0
    };
    let scheme = vec![pick(MethodId::Ns, 0.2), pick(MethodId::Sfp, 0.12)];
    let exec = ExecConfig { pretrain_epochs: 6.0, ..Default::default() };
    let (compressed, outcome) =
        execute_scheme(&model, &base, &scheme, &space, &train_set, &test_set, &exec);
    // Both steps recorded, with compounding reduction.
    assert_eq!(outcome.steps.len(), 2);
    assert!(outcome.steps.iter().all(|s| s.pr_step > 0.0));
    assert!(outcome.pr > 0.2, "compound PR {}", outcome.pr);
    assert!(outcome.metrics.acc > 0.4, "accuracy collapsed: {}", outcome.metrics.acc);
    assert_eq!(compressed.param_count(), outcome.metrics.params);
    assert!(outcome.cost.units() > 0);
}

#[test]
fn knowledge_pipeline_feeds_progressive_search() {
    // Miniature Algorithm 1 + Algorithm 2, end to end.
    let (model, base, train_set, test_set) = prepared_task();
    let mut rng = rng_from_seed(4003);
    let space = StrategySpace::for_methods(&[MethodId::Ns, MethodId::Sfp, MethodId::Lma]);
    let micro = vec![MicroTask::new(
        SyntheticKind::Cifar10Like,
        ModelKind::ResNet(20),
        4,
        120,
        60,
        2.0,
        4004,
        &mut rng,
    )];
    let exec = ExecConfig { pretrain_epochs: 2.0, ..Default::default() };
    let corpus = generate_experience(&space, &micro, 9, &exec, 4006);
    assert_eq!(corpus.records.len(), 9);
    let embeddings = learn_embeddings(
        &space,
        &corpus,
        &EmbeddingConfig { epochs: 3, dim: 16, rel_dim: 8, ..Default::default() },
        true,
        true,
        &mut rng,
    );
    let sample = train_set.sample_fraction(0.25, &mut rng);
    let ctx = SearchContext {
        space: &space,
        base_model: &model,
        base_metrics: base,
        search_train: &sample,
        eval_set: &test_set,
        exec: ExecConfig { pretrain_epochs: 6.0, ..Default::default() },
        max_len: 3,
        gamma: 0.2,
        budget: SearchBudget::new(8_000),
    };
    let automc = AutoMc { embeddings, cfg: AutoMcConfig::default() };
    let history = drive(&ctx, &automc, &mut rng, &JournalOptions::default());
    assert!(!history.records.is_empty());
    let best = history.best(0.2);
    assert!(best.is_some(), "search should find a feasible scheme");
    assert!(best.unwrap().pr >= 0.2);
}

#[test]
fn progressive_beats_or_matches_random_on_tiny_budget() {
    // Statistical-shape check at miniature scale: with prefix reuse,
    // AutoMC evaluates more schemes per unit budget than random search.
    let (model, base, train_set, test_set) = prepared_task();
    let mut rng = rng_from_seed(4005);
    let space = StrategySpace::for_methods(&[MethodId::Ns, MethodId::Sfp]);
    let sample = train_set.sample_fraction(0.25, &mut rng);
    let ctx = SearchContext {
        space: &space,
        base_model: &model,
        base_metrics: base,
        search_train: &sample,
        eval_set: &test_set,
        exec: ExecConfig { pretrain_epochs: 6.0, ..Default::default() },
        max_len: 3,
        gamma: 0.15,
        budget: SearchBudget::new(8_000),
    };
    let embeddings: Vec<Vec<f32>> =
        (0..space.len()).map(|i| vec![space.spec(i).ratio(), 0.3, 0.1]).collect();
    let automc = AutoMc { embeddings, cfg: AutoMcConfig::default() };
    let autos = drive(&ctx, &automc, &mut rng, &JournalOptions::default());
    let rand = drive(&ctx, &Random, &mut rng, &JournalOptions::default());
    assert!(
        autos.records.len() >= rand.records.len(),
        "progressive search should afford at least as many evaluations: {} vs {}",
        autos.records.len(),
        rand.records.len()
    );
}

#[test]
fn facade_reexports_are_usable() {
    // The `automc` facade exposes every subsystem.
    let _space = automc::compress::StrategySpace::full();
    let mut rng = automc::tensor::rng_from_seed(1);
    let t = automc::tensor::Tensor::randn(&[2, 2], 1.0, &mut rng);
    assert_eq!(t.numel(), 4);
    let f = automc::data::DataFeatures { classes: 10, image_size: 8, channels: 3, amount: 100 };
    assert_eq!(f.to_vec().len(), 4);
}
