//! The smoke model trains and evaluates to the same bits under the AVX2
//! and the baseline instances of the tensor kernels: three SGD steps and a
//! batch-64 eval forward of ResNet-20 (width 4), first as built and then
//! after an LFB strategy has factored it into tied low-rank bases. Every
//! logit, gradient and parameter is compared at one thread. On a CPU
//! without AVX2 both runs take the baseline; the test says so and still
//! runs.

use automc::compress::{apply_strategy, ExecConfig, MethodId, StrategySpace};
use automc::data::{DatasetSpec, SyntheticKind};
use automc::models::{resnet, ConvNet};
use automc::tensor::optim::{Optimizer, Sgd, SgdConfig};
use automc::tensor::par::with_threads;
use automc::tensor::{isa, loss, rng_from_seed, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Every value the steps produce, labelled: train logits, then each
/// parameter's gradient and new value per step, then the eval logits.
fn steps(
    net: &ConvNet,
    x_train: &Tensor,
    labels: &[usize],
    x_eval: &Tensor,
) -> Vec<(String, Vec<u32>)> {
    let mut net = net.clone_net();
    let mut opt = Sgd::new(SgdConfig::default());
    let mut out = Vec::new();
    for step in 0..3 {
        let logits = net.forward(x_train, true);
        out.push((format!("step {step} train logits"), bits(&logits)));
        let (_, grad) = loss::softmax_cross_entropy(&logits, labels);
        net.backward(&grad);
        for (i, p) in net.params_mut().iter().enumerate() {
            out.push((format!("step {step} grad {i}"), bits(p.grad)));
        }
        opt.step(&mut net.params_mut());
        for (i, p) in net.params_mut().iter().enumerate() {
            out.push((format!("step {step} param {i}"), bits(p.value)));
        }
    }
    out.push(("eval logits".to_string(), bits(&net.forward(x_eval, false))));
    out
}

fn assert_instances_agree(net: &ConvNet, x_train: &Tensor, labels: &[usize], x_eval: &Tensor) {
    let run = || steps(net, x_train, labels, x_eval);
    let (fast, base) = with_threads(1, || (run(), isa::with_baseline(run)));
    assert_eq!(fast.len(), base.len());
    for ((what, f), (_, b)) in fast.iter().zip(&base) {
        assert_eq!(f, b, "{what} differs between the instances");
    }
}

#[test]
fn resnet20_trains_and_evaluates_identically_under_both_instances() {
    if isa::active() != "avx2" {
        eprintln!("note: this CPU has no AVX2; comparing the baseline instance with itself");
    }
    let mut rng = rng_from_seed(18);
    let net = resnet(20, 4, 10, (3, 8, 8), &mut rng);
    let x_train = Tensor::randn(&[32, 3, 8, 8], 1.0, &mut rng);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    let x_eval = Tensor::randn(&[64, 3, 8, 8], 1.0, &mut rng);
    assert_instances_agree(&net, &x_train, &labels, &x_eval);

    // LFB factors the convs into shared bases whose gradients are summed
    // across members; the strategy's own fine-tuning runs under each
    // instance too, and must leave identical models.
    let (train_set, _) =
        DatasetSpec { train: 64, test: 8, ..DatasetSpec::new(SyntheticKind::Cifar10Like) }
            .generate();
    let space = StrategySpace::full();
    let lfb = space.iter().find(|(_, s)| s.method() == MethodId::Lfb).expect("an LFB strategy").1;
    let exec = ExecConfig { pretrain_epochs: 1.0, ..Default::default() };
    let compress = || {
        let mut copy = net.clone_net();
        apply_strategy(lfb, &mut copy, &train_set, &exec, &mut rng_from_seed(19));
        copy
    };
    let (fast, base) = with_threads(1, || (compress(), isa::with_baseline(compress)));
    assert!(fast.param_count() < net.param_count(), "LFB did not compress the model");
    let (mut fast, mut base) = (fast, base);
    let fast_params: Vec<Vec<u32>> = fast.params_mut().iter().map(|p| bits(p.value)).collect();
    let base_params: Vec<Vec<u32>> = base.params_mut().iter().map(|p| bits(p.value)).collect();
    assert_eq!(fast_params, base_params, "LFB left different models under the two instances");
    assert_instances_agree(&fast, &x_train, &labels, &x_eval);
}
