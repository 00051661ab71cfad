//! The experience corpus is a pure function of `(seed, micro-task index,
//! record index)`: its records must not depend on the thread count that
//! built them, and a shorter run must reproduce a prefix of each
//! micro-task's records.

use automc::compress::{ExecConfig, MethodId, StrategySpace};
use automc::data::SyntheticKind;
use automc::knowledge::{generate_experience, ExperienceRecord, MicroTask};
use automc::models::ModelKind;
use automc::tensor::{par, rng_for_task};

const SEED: u64 = 31;

fn micro_tasks() -> Vec<MicroTask> {
    (0..2u64)
        .map(|t| {
            MicroTask::new(
                SyntheticKind::Cifar10Like,
                ModelKind::ResNet(20),
                4,
                64,
                32,
                1.0,
                500 + t,
                &mut rng_for_task(SEED, t),
            )
        })
        .collect()
}

/// Records as exact bit patterns, so `-0.0 != 0.0` and `NaN == NaN`.
fn bits(records: &[ExperienceRecord]) -> Vec<(usize, Vec<u32>, u32, u32)> {
    records
        .iter()
        .map(|r| {
            let task = r.task.iter().map(|v| v.to_bits()).collect();
            (r.strategy, task, r.ar.to_bits(), r.pr.to_bits())
        })
        .collect()
}

fn corpus(tasks: &[MicroTask], per_task: usize, threads: usize) -> Vec<ExperienceRecord> {
    let space = StrategySpace::for_methods(&[MethodId::Ns, MethodId::Sfp]);
    let exec = ExecConfig { pretrain_epochs: 1.0, ..Default::default() };
    par::with_threads(threads, || generate_experience(&space, tasks, per_task, &exec, SEED)).records
}

#[test]
fn corpus_records_are_bitwise_identical_at_1_2_and_4_threads() {
    let tasks = micro_tasks();
    let serial = corpus(&tasks, 4, 1);
    assert_eq!(serial.len(), 8);
    for threads in [2, 4] {
        assert_eq!(
            bits(&corpus(&tasks, 4, threads)),
            bits(&serial),
            "corpus built at {threads} threads differs from the serial corpus"
        );
    }
}

#[test]
fn a_shorter_corpus_is_a_prefix_of_each_tasks_records() {
    let tasks = micro_tasks();
    let short = corpus(&tasks, 4, 2);
    let long = corpus(&tasks, 8, 2);
    assert_eq!(long.len(), 16);
    let prefixes: Vec<ExperienceRecord> =
        long.chunks(8).flat_map(|per_task| per_task[..4].to_vec()).collect();
    assert_eq!(bits(&prefixes), bits(&short));
}
