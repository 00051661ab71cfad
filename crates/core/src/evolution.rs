//! Multi-objective evolutionary search (the paper's EA baseline [6]):
//! NSGA-II-style selection over whole compression schemes with one-point
//! crossover and replace/insert/delete mutation.

use crate::context::SearchContext;
use crate::driver::{Candidate, Searcher};
use crate::journal::NodeSnapshot;
use crate::pareto;
use crate::random::random_scheme;
use crate::statebytes::{read_f32, read_u64, write_f32, write_u64};
use automc_compress::{Scheme, SchemeOutcome};
use automc_models::ConvNet;
use automc_tensor::Rng;
use rand::Rng as _;

/// EA knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvolutionConfig {
    /// Population capacity.
    pub population: usize,
    /// Per-position replacement probability during mutation.
    pub mutation_rate: f32,
}

impl Default for EvolutionConfig {
    fn default() -> Self {
        EvolutionConfig { population: 8, mutation_rate: 0.3 }
    }
}

/// One viable scheme of the population with its objectives.
pub struct Individual {
    scheme: Scheme,
    ar: f32,
    pr: f32,
}

const STATE_MAGIC: &[u8; 8] = b"AUTOMCe1";

/// Serialise the population (the EA's complete learner state).
fn population_to_bytes(population: &[Individual]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(STATE_MAGIC);
    write_u64(&mut out, population.len() as u64);
    for ind in population {
        write_u64(&mut out, ind.scheme.len() as u64);
        for &sid in &ind.scheme {
            write_u64(&mut out, sid as u64);
        }
        write_f32(&mut out, ind.ar);
        write_f32(&mut out, ind.pr);
    }
    out
}

/// Restore a [`population_to_bytes`] snapshot; `None` on corruption.
fn population_from_bytes(bytes: &[u8], space_len: usize, max_len: usize) -> Option<Vec<Individual>> {
    let mut r = bytes;
    if crate::statebytes::take_bytes(&mut r, 8)? != STATE_MAGIC {
        return None;
    }
    let count = read_u64(&mut r)? as usize;
    if count > 100_000 {
        return None;
    }
    let mut population = Vec::with_capacity(count);
    for _ in 0..count {
        let len = read_u64(&mut r)? as usize;
        if len > max_len {
            return None;
        }
        let mut scheme = Vec::with_capacity(len);
        for _ in 0..len {
            let sid = read_u64(&mut r)? as usize;
            if sid >= space_len {
                return None;
            }
            scheme.push(sid);
        }
        let ar = read_f32(&mut r)?;
        let pr = read_f32(&mut r)?;
        population.push(Individual { scheme, ar, pr });
    }
    if !r.is_empty() {
        return None;
    }
    Some(population)
}

impl EvolutionConfig {
    /// Breed one child: binary tournaments by Pareto rank, one-point
    /// crossover, then replace/insert/delete mutation.
    fn breed(&self, population: &[Individual], ctx: &SearchContext<'_>, rng: &mut Rng) -> Scheme {
        let points: Vec<(f32, f32)> = population.iter().map(|i| (i.ar, i.pr)).collect();
        let ranks = pareto::non_dominated_ranks(&points);
        let tournament = |rng: &mut Rng| -> usize {
            let a = rng.gen_range(0..population.len());
            let b = rng.gen_range(0..population.len());
            if ranks[a] <= ranks[b] {
                a
            } else {
                b
            }
        };
        let pa = tournament(rng);
        let pb = tournament(rng);
        // One-point crossover.
        let (sa, sb) = (&population[pa].scheme, &population[pb].scheme);
        let cut_a = rng.gen_range(0..=sa.len());
        let cut_b = rng.gen_range(0..=sb.len());
        let mut child: Scheme = sa[..cut_a].to_vec();
        child.extend_from_slice(&sb[cut_b..]);
        child.truncate(ctx.max_len);
        // Mutation.
        for slot in child.iter_mut() {
            if rng.gen::<f32>() < self.mutation_rate {
                *slot = rng.gen_range(0..ctx.space.len());
            }
        }
        if child.len() < ctx.max_len && rng.gen::<f32>() < 0.2 {
            child.push(rng.gen_range(0..ctx.space.len()));
        }
        if child.len() > 1 && rng.gen::<f32>() < 0.2 {
            let drop = rng.gen_range(0..child.len());
            child.remove(drop);
        }
        if child.is_empty() {
            child.push(rng.gen_range(0..ctx.space.len()));
        }
        child
    }
}

/// The EA's learner is its population, journaled after every evaluation
/// during seeding and in the main loop alike.
impl Searcher for EvolutionConfig {
    type State = Vec<Individual>;
    const NAME: &'static str = "Evolution";
    const TAG: &'static str = "AutoMC-evolution-v3";

    fn config_words(&self) -> Vec<u64> {
        vec![self.population as u64, self.mutation_rate.to_bits() as u64]
    }

    fn init(&self, _ctx: &SearchContext<'_>, _rng: &mut Rng) -> Vec<Individual> {
        Vec::new()
    }

    /// Seed the population with random schemes, then breed one child per
    /// round; stop once fewer than two individuals survived seeding.
    /// Resuming mid-seed is fine: the population size re-derives progress.
    fn propose(
        &self,
        population: &mut Vec<Individual>,
        ctx: &SearchContext<'_>,
        rng: &mut Rng,
    ) -> Option<Vec<Candidate>> {
        let scheme = if population.len() < self.population {
            random_scheme(ctx, rng)
        } else if population.len() >= 2 {
            self.breed(population, ctx, rng)
        } else {
            return None;
        };
        Some(vec![Candidate { scheme, prefix_cost: 0 }])
    }

    /// Insert a viable scheme (a failed one yields no individual) and
    /// truncate by (rank, crowding).
    fn observe(
        &self,
        population: &mut Vec<Individual>,
        _ctx: &SearchContext<'_>,
        _i: usize,
        scheme: Scheme,
        evaluated: Option<(ConvNet, SchemeOutcome)>,
    ) {
        let Some((_, outcome)) = evaluated else { return };
        population.push(Individual { scheme, ar: outcome.ar, pr: outcome.pr });
        if population.len() <= self.population {
            return;
        }
        let points: Vec<(f32, f32)> = population.iter().map(|i| (i.ar, i.pr)).collect();
        let ranks = pareto::non_dominated_ranks(&points);
        // Crowding within each rank.
        let mut keyed: Vec<(usize, f32, usize)> = Vec::new(); // (rank, -crowding, idx)
        let max_rank = ranks.iter().copied().max().unwrap_or(0);
        for r in 0..=max_rank {
            let members: Vec<usize> = (0..population.len()).filter(|&i| ranks[i] == r).collect();
            let crowd = pareto::crowding_distance(&points, &members);
            for (k, &i) in members.iter().enumerate() {
                keyed.push((r, -crowd[k], i));
            }
        }
        keyed.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let keep: Vec<usize> = keyed.iter().take(self.population).map(|k| k.2).collect();
        let mut new_pop = Vec::with_capacity(self.population);
        for (i, ind) in population.drain(..).enumerate() {
            if keep.contains(&i) {
                new_pop.push(ind);
            }
        }
        *population = new_pop;
    }

    fn snapshot(&self, population: &Vec<Individual>) -> (Vec<u8>, Vec<NodeSnapshot>) {
        (population_to_bytes(population), Vec::new())
    }

    fn restore(
        &self,
        population: &mut Vec<Individual>,
        ctx: &SearchContext<'_>,
        state: &[u8],
        _nodes: Vec<NodeSnapshot>,
    ) -> Option<()> {
        *population = population_from_bytes(state, ctx.space.len(), ctx.max_len)?;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{SearchBudget, SearchContext};
    use crate::driver::drive;
    use crate::journal::JournalOptions;
    use automc_compress::{ExecConfig, Metrics, StrategySpace};
    use automc_data::{DatasetSpec, SyntheticKind};
    use automc_models::resnet;
    use automc_tensor::rng_from_seed;

    #[test]
    fn population_bytes_roundtrip_and_reject_corruption() {
        let pop = vec![
            Individual { scheme: vec![0, 3, 2], ar: -0.05, pr: 0.4 },
            Individual { scheme: vec![5], ar: 0.01, pr: 0.1 },
        ];
        let bytes = population_to_bytes(&pop);
        let back = population_from_bytes(&bytes, 8, 3).expect("roundtrip");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].scheme, vec![0, 3, 2]);
        assert_eq!(back[0].ar.to_bits(), (-0.05f32).to_bits());
        assert_eq!(back[1].pr.to_bits(), 0.1f32.to_bits());
        // Out-of-range strategy ids, over-long schemes, truncation.
        assert!(population_from_bytes(&bytes, 4, 3).is_none(), "sid 5 out of range");
        assert!(population_from_bytes(&bytes, 8, 2).is_none(), "scheme too long");
        assert!(population_from_bytes(&bytes[..bytes.len() - 1], 8, 3).is_none());
        let mut bad = bytes;
        bad[3] ^= 0xFF;
        assert!(population_from_bytes(&bad, 8, 3).is_none(), "bad magic");
    }

    #[test]
    fn evolution_search_runs_and_improves_coverage() {
        let mut rng = rng_from_seed(330);
        let (train_set, eval_set) = DatasetSpec {
            train: 100,
            test: 60,
            ..DatasetSpec::new(SyntheticKind::Cifar10Like)
        }
        .generate();
        let mut base = resnet(20, 4, 10, (3, 8, 8), &mut rng);
        let base_metrics = Metrics::measure(&mut base, &eval_set);
        let space = StrategySpace::full();
        let ctx = SearchContext {
            space: &space,
            base_model: &base,
            base_metrics,
            search_train: &train_set,
            eval_set: &eval_set,
            exec: ExecConfig { pretrain_epochs: 2.0, ..Default::default() },
            max_len: 3,
            gamma: 0.2,
            budget: SearchBudget::new(6_000),
        };
        let history = drive(&ctx, &EvolutionConfig::default(), &mut rng, &JournalOptions::default());
        assert!(history.records.len() >= 4, "EA should evaluate several schemes");
        assert!(history.records.iter().all(|r| !r.scheme.is_empty()));
        assert!(history.records.iter().all(|r| r.scheme.len() <= 3));
    }
}
