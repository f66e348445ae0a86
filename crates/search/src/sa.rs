//! Simulated-annealing baseline (paper §4.2.4).

use crate::context::{EvalCandidate, SearchContext};
use crate::driver::{rng_from_state, rng_state, DriverState, EvalBatch, SearchDriver, Step};
use crate::ga::{mutate, MutationRates};
use crate::genome::Genome;
use crate::outcome::SearchOutcome;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of simulated annealing over genomes, run as
/// [`SearchMethod::Sa`](crate::SearchMethod::Sa): it uses the same mutation
/// operators and repair pipeline as the GA ([`GaConfig`](crate::GaConfig))
/// — the paper's co-optimizing baseline, "not as stable as the genetic
/// algorithm in a range of benchmarks".
///
/// Neighbors are proposed [`neighbor_batch`](SaConfig::neighbor_batch) at a
/// time and scored as one engine batch, so the annealing chain benefits
/// from the worker pool while the accept/reject sequence stays
/// seed-deterministic at any thread count.
///
/// # Examples
///
/// ```
/// use cocco_search::{BufferSpace, Objective, SaConfig, SearchContext, SearchMethod};
/// use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, Evaluator};
///
/// let g = cocco_graph::models::diamond();
/// let eval = Evaluator::new(&g, AcceleratorConfig::default());
/// let ctx = SearchContext::new(
///     &g,
///     &eval,
///     BufferSpace::fixed(BufferConfig::shared(1 << 20)),
///     Objective::partition_only(CostMetric::Ema),
///     500,
/// );
/// let sa = SaConfig {
///     neighbor_batch: 4,
///     ..SaConfig::default()
/// };
/// let outcome = SearchMethod::Sa(sa).run(&ctx);
/// assert!(outcome.best_cost.is_finite());
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SaConfig {
    /// Initial temperature, as a fraction of the initial cost (the accept
    /// probability of a move that worsens cost by `T·cost` is `1/e`).
    pub initial_temperature: f64,
    /// Geometric cooling factor applied per step.
    pub cooling: f64,
    /// Mutation probabilities (the paper reuses Cocco's customized
    /// operators).
    pub mutation: MutationRates,
    /// RNG seed.
    pub seed: u64,
    /// Restart from the best state after this many consecutive rejected
    /// moves (0 disables restarts).
    pub restart_after: u64,
    /// Neighbors proposed (and evaluated as one engine batch) per step.
    /// All neighbors of a step mutate the same current state; the
    /// Metropolis scan then processes them in proposal order. `1`
    /// reproduces classic single-neighbor annealing.
    pub neighbor_batch: u32,
}

impl Default for SaConfig {
    fn default() -> Self {
        Self {
            initial_temperature: 0.02,
            cooling: 0.999,
            mutation: MutationRates::default(),
            seed: 0xC0CC0,
            restart_after: 500,
            neighbor_batch: 8,
        }
    }
}

/// Where the annealing state machine stands.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
enum SaPhase {
    /// The random seed state is being evaluated.
    Init,
    /// The annealing chain is running.
    Anneal,
    /// The budget ran out.
    Done,
}

/// Serializable state of an [`SaDriver`], valid between any two steps.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SaState {
    rng: Vec<u64>,
    phase: SaPhase,
    current: Option<Genome>,
    current_cost: f64,
    temperature: f64,
    rejected: u64,
    outcome: SearchOutcome,
}

/// Simulated annealing as a step-driven state machine: one
/// [`next_batch`](SearchDriver::next_batch) proposes a neighbor batch of
/// the current state, one [`absorb`](SearchDriver::absorb) runs the
/// Metropolis scan in proposal order. RNG draws match the former
/// monolithic loop exactly.
#[derive(Debug)]
pub struct SaDriver {
    config: SaConfig,
    rng: StdRng,
    phase: SaPhase,
    current: Option<Genome>,
    current_cost: f64,
    temperature: f64,
    rejected: u64,
    outcome: SearchOutcome,
}

impl SaDriver {
    /// A fresh driver (seeds its RNG from the configuration).
    pub fn new(config: SaConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            config,
            rng,
            phase: SaPhase::Init,
            current: None,
            current_cost: f64::INFINITY,
            temperature: 0.0,
            rejected: 0,
            outcome: SearchOutcome::empty(),
        }
    }

    /// Resumes a driver from a serialized state.
    pub fn from_state(config: SaConfig, state: SaState) -> Self {
        Self {
            config,
            rng: rng_from_state(&state.rng),
            phase: state.phase,
            current: state.current,
            current_cost: state.current_cost,
            temperature: state.temperature,
            rejected: state.rejected,
            outcome: state.outcome,
        }
    }
}

impl SearchDriver for SaDriver {
    fn name(&self) -> &'static str {
        "SA"
    }

    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Step {
        match self.phase {
            SaPhase::Init => {
                let seed =
                    EvalCandidate::new(Genome::random(ctx.graph(), &ctx.space, &mut self.rng));
                Step::Evaluate(EvalBatch::single(vec![seed]))
            }
            SaPhase::Anneal => {
                // Propose a batch of neighbors of the current state (serial
                // RNG draws keep the proposal sequence seed-deterministic);
                // the term cache answers each neighbor's untouched
                // subgraphs, so only the touched ones re-score.
                let graph = ctx.graph();
                // cocco-audit: allow(R1) the Anneal phase is only entered after Seed sets self.current
                let current = self.current.clone().expect("annealing has a current state");
                let batch = self.config.neighbor_batch.max(1) as usize;
                let neighbors: Vec<EvalCandidate> = (0..batch)
                    .map(|_| {
                        let mut candidate = current.clone();
                        mutate(
                            ctx,
                            graph,
                            &mut candidate,
                            &self.config.mutation,
                            &mut self.rng,
                        );
                        EvalCandidate::new(candidate)
                    })
                    .collect();
                Step::Evaluate(EvalBatch::single(neighbors))
            }
            SaPhase::Done => Step::Done,
        }
    }

    fn absorb(&mut self, _ctx: &SearchContext<'_>, batch: EvalBatch) {
        let cfg = self.config;
        let evaluated = batch.chunks.into_iter().flat_map(|c| c.candidates);
        match self.phase {
            SaPhase::Init => {
                let Some(candidate) = evaluated.into_iter().next() else {
                    self.phase = SaPhase::Done;
                    return;
                };
                let Some(cost) = candidate.cost else {
                    self.phase = SaPhase::Done;
                    return;
                };
                self.outcome.samples += 1;
                self.current = Some(candidate.genome.clone());
                self.current_cost = cost;
                self.outcome.consider(candidate.genome, cost);
                // Temperature in absolute cost units.
                let scale = if cost.is_finite() { cost } else { 1.0 };
                self.temperature = cfg.initial_temperature * scale;
                self.phase = SaPhase::Anneal;
            }
            SaPhase::Anneal => {
                // The Metropolis scan, in proposal order.
                for candidate in evaluated {
                    let Some(cost) = candidate.cost else {
                        self.phase = SaPhase::Done; // budget exhausted
                        return;
                    };
                    self.outcome.samples += 1;
                    self.outcome.consider(candidate.genome.clone(), cost);
                    let accept = cost <= self.current_cost || {
                        let delta = cost - self.current_cost;
                        self.temperature > 0.0
                            && self.rng.gen::<f64>() < (-delta / self.temperature).exp()
                    };
                    if accept {
                        self.current = Some(candidate.genome);
                        self.current_cost = cost;
                        self.rejected = 0;
                    } else {
                        self.rejected += 1;
                        if cfg.restart_after > 0 && self.rejected >= cfg.restart_after {
                            if let Some(best) = &self.outcome.best {
                                self.current = Some(best.clone());
                                self.current_cost = self.outcome.best_cost;
                            }
                            self.rejected = 0;
                        }
                    }
                    self.temperature *= cfg.cooling;
                }
            }
            SaPhase::Done => {}
        }
    }

    fn outcome(&self) -> SearchOutcome {
        self.outcome.clone()
    }

    fn state(&self) -> DriverState {
        DriverState::Sa(SaState {
            rng: rng_state(&self.rng),
            phase: self.phase,
            current: self.current.clone(),
            current_cost: self.current_cost,
            temperature: self.temperature,
            rejected: self.rejected,
            outcome: self.outcome.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::SearchMethod;
    use crate::objective::{BufferSpace, Objective};
    use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, Evaluator};

    #[test]
    fn improves_over_first_sample() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            &g,
            &eval,
            BufferSpace::fixed(BufferConfig::separate(1 << 20, 1152 << 10)),
            Objective::partition_only(CostMetric::Ema),
            1_500,
        );
        let outcome = SearchMethod::sa().with_seed(4).run(&ctx);
        let curve = ctx.trace().best_curve();
        assert!(curve.len() > 1, "SA never improved");
        assert!(outcome.best_cost < curve[0].1);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let run = |seed| {
            let ctx = SearchContext::new(
                &g,
                &eval,
                BufferSpace::paper_shared(),
                Objective::paper_energy_capacity(),
                300,
            );
            SearchMethod::sa().with_seed(seed).run(&ctx).best_cost
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn best_genome_is_valid() {
        let g = cocco_graph::models::randwire_a();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            &g,
            &eval,
            BufferSpace::fixed(BufferConfig::shared(1 << 20)),
            Objective::partition_only(CostMetric::Ema),
            200,
        );
        let outcome = SearchMethod::sa().with_seed(1).run(&ctx);
        assert!(outcome.best.unwrap().partition.validate(&g).is_ok());
    }
}
