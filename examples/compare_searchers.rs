//! Compare the four AutoML search strategies (AutoMC, Evolution, RL,
//! Random) on the same miniature compression task with an equal budget —
//! a small-scale version of the paper's Fig. 4 comparison.
//!
//! Run: `cargo run --release --example compare_searchers`

use automc::compress::{ExecConfig, Metrics, StrategySpace};
use automc::data::{DatasetSpec, SyntheticKind};
use automc::models::resnet;
use automc::models::train::{train, Auxiliary, TrainConfig};
use automc::search::{
    drive, AutoMc, AutoMcConfig, EvolutionConfig, JournalOptions, Random, RlConfig, SearchBudget,
    SearchContext, SearchHistory,
};
use automc::tensor::rng_from_seed;

fn main() {
    let mut rng = rng_from_seed(23);
    let (train_set, test_set) = DatasetSpec {
        train: 300,
        test: 150,
        noise: 0.25,
        ..DatasetSpec::new(SyntheticKind::Cifar10Like)
    }
    .generate();
    let mut base = resnet(20, 4, 10, (3, 8, 8), &mut rng);
    println!("pre-training…");
    train(
        &mut base,
        &train_set,
        &TrainConfig { epochs: 5.0, ..Default::default() },
        Auxiliary::None,
        &mut rng,
    );
    let base_metrics = Metrics::measure(&mut base, &test_set);
    let sample = train_set.sample_fraction(0.2, &mut rng);
    let space = StrategySpace::full();
    let gamma = 0.25;

    let budget = 10_000u64;
    let ctx = SearchContext {
        space: &space,
        base_model: &base,
        base_metrics,
        search_train: &sample,
        eval_set: &test_set,
        exec: ExecConfig { pretrain_epochs: 5.0, ..Default::default() },
        max_len: 3,
        gamma,
        budget: SearchBudget::new(budget),
    };

    let report = |history: &SearchHistory| {
        let evals = history.records.len();
        match history.best(gamma) {
            Some(best) => println!(
                "{:<10} {:>3} evaluations | best feasible: PR {:>5.1}%  acc {:>5.1}%",
                history.algorithm,
                evals,
                best.pr * 100.0,
                best.acc * 100.0
            ),
            None => println!("{:<10} {:>3} evaluations | no feasible scheme", history.algorithm, evals),
        }
    };

    // AutoMC needs embeddings; uniform ones still exercise the machinery —
    // see examples/auto_search.rs for the full knowledge pipeline.
    let embeddings: Vec<Vec<f32>> = (0..space.len())
        .map(|i| {
            let spec = space.spec(i);
            vec![spec.ratio(), (spec.method() as usize as f32) / 6.0, 0.1, 0.2]
        })
        .collect();

    println!("\nequal budget: {budget} cost units\n");
    let opts = JournalOptions::default();
    let automc = AutoMc { embeddings, cfg: AutoMcConfig::default() };
    report(&drive(&ctx, &automc, &mut rng, &opts));
    report(&drive(&ctx, &EvolutionConfig::default(), &mut rng, &opts));
    report(&drive(&ctx, &RlConfig::default(), &mut rng, &opts));
    report(&drive(&ctx, &Random, &mut rng, &opts));
}
