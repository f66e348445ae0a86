//! Two-step exploration baselines: capacity sampling followed by
//! partition-only GA (paper §5.1.3, "RS+GA" and "GS+GA").

use crate::context::SearchContext;
use crate::driver::{DriverState, EvalBatch, SearchDriver, Step};
use crate::ga::{GaConfig, GaDriver, GaState};
use crate::genome::Genome;
use crate::objective::{BufferSpace, Objective};
use crate::outcome::SearchOutcome;
use cocco_partition::Partition;
use cocco_sim::BufferConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How the first step picks capacity candidates.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CapacitySampling {
    /// Uniform random candidates from the space ("RS").
    Random,
    /// Evenly spaced grid candidates traversed from large to small ("GS" —
    /// the paper notes the deterministic large-to-small direction makes its
    /// convergence time depend on where the optimum lies).
    Grid,
}

/// The decoupled two-step scheme: sample memory-capacity candidates, run a
/// partition-only GA for each (a fixed per-candidate sample budget, 5 000
/// in the paper), and keep the best Formula-2 cost.
///
/// The paper's criticism — "the two-step scheme fails to combine the
/// information between different sizes" — falls out of the classic
/// construction: each inner GA restarts from scratch. Two modes:
///
/// * **Interleaved** (the default, [`interleave`](TwoStep::interleave)
///   `= true`): every capacity candidate gets a deterministic
///   [`SampleBudget`](cocco_engine::SampleBudget) slice up front, the
///   inner GAs advance **round-robin**, and each round's generations are
///   dispatched to the engine pool as *one* batch, so the memoized caches
///   warm across candidates within one dispatch. On top of the shared
///   schedule, the round's globally most promising partition (by
///   Formula-2 cost) migrates into the other candidates' next generations
///   — precisely the cross-size information flow the paper says the
///   scheme lacks. Funding is pre-reserved per chunk, so a driver dropped
///   mid-step refunds its unconsumed reservation to the shared pool.
/// * **Sequential** ([`sequential`](TwoStep::sequential)): the historical
///   construction — one candidate at a time, each inner GA from scratch —
///   kept as the reference baseline arm.
///
/// Either way the inner GAs run on derived contexts, so their generation
/// batches use the outer context's engine — same worker pool, one shared
/// memoization cache (re-proposed partitions under the same buffer score
/// for free).
///
/// # Examples
///
/// ```
/// use cocco_search::{BufferSpace, CapacitySampling, Objective, SearchContext, SearchMethod, TwoStep};
/// use cocco_sim::{AcceleratorConfig, CostMetric, Evaluator};
///
/// let g = cocco_graph::models::diamond();
/// let eval = Evaluator::new(&g, AcceleratorConfig::default());
/// let ctx = SearchContext::new(
///     &g,
///     &eval,
///     BufferSpace::paper_shared(),
///     Objective::co_exploration(CostMetric::Energy, 0.002),
///     1_000,
/// );
/// let outcome = SearchMethod::TwoStep(TwoStep::random().with_per_candidate(200)).run(&ctx);
/// assert!(outcome.best.is_some());
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TwoStep {
    /// Candidate sampling strategy.
    pub sampling: CapacitySampling,
    /// Samples granted to each inner partition-only GA.
    pub per_candidate: u64,
    /// Inner GA configuration.
    pub ga: GaConfig,
    /// Seed for candidate sampling.
    pub seed: u64,
    /// Round-robin the capacity candidates through deterministically
    /// sliced budgets, sharing each engine dispatch and migrating elites
    /// across candidates (`true`, the default) — or run them one at a
    /// time, from scratch, as the paper's baseline (`false`).
    pub interleave: bool,
}

impl TwoStep {
    /// Random-search capacity sampling (RS+GA) with the paper's 5 000
    /// samples per candidate.
    pub fn random() -> Self {
        Self {
            sampling: CapacitySampling::Random,
            per_candidate: 5_000,
            ga: GaConfig::default(),
            seed: 0xC0CC0,
            interleave: true,
        }
    }

    /// Grid-search capacity sampling (GS+GA).
    pub fn grid() -> Self {
        Self {
            sampling: CapacitySampling::Grid,
            ..Self::random()
        }
    }

    /// Sets the per-candidate inner budget.
    pub fn with_per_candidate(mut self, samples: u64) -> Self {
        self.per_candidate = samples.max(1);
        self
    }

    /// Selects the historical sequential construction: candidates run one
    /// after another, each inner GA from scratch (the reference baseline
    /// the interleaved mode is benchmarked against).
    pub fn sequential(mut self) -> Self {
        self.interleave = false;
        self
    }

    /// The scheme as a resumable [`SearchDriver`].
    pub fn driver(&self) -> TwoStepDriver {
        TwoStepDriver {
            config: self.clone(),
            phase: TsPhase::Init,
            candidates: Vec::new(),
            next_candidate: 0,
            slots: Vec::new(),
            pending_map: Vec::new(),
            alpha: None,
            outcome: SearchOutcome::empty(),
        }
    }
}

/// Where the two-step state machine stands.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
enum TsPhase {
    /// Capacity candidates not yet sampled.
    Init,
    /// Inner GAs running.
    Run,
    /// Finished.
    Done,
}

/// One serialized inner-GA slot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct TsSlotState {
    ga: GaState,
    buffer: BufferConfig,
    /// Slice capacity still unconsumed at snapshot time.
    remaining: u64,
    done: bool,
    last_elite: Option<Partition>,
}

/// Serializable state of a [`TwoStepDriver`], valid between any two steps
/// (no in-flight reservations exist at step boundaries).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TwoStepState {
    phase: TsPhase,
    candidates: Vec<BufferConfig>,
    next_candidate: u64,
    slots: Vec<TsSlotState>,
    alpha: Option<f64>,
    outcome: SearchOutcome,
}

/// One live inner GA: its driver, capacity candidate, budget slice and
/// migration bookkeeping.
#[derive(Debug)]
struct InnerSlot {
    ga: GaDriver,
    buffer: BufferConfig,
    /// Remaining slice capacity until the slice is materialized (lazily,
    /// because slicing needs the context's budget handle).
    cap: u64,
    slice: Option<Arc<cocco_engine::SampleBudget>>,
    done: bool,
    /// The elite partition last injected into this slot (migration skips
    /// re-injecting an unchanged elite).
    last_elite: Option<Partition>,
}

/// The two-step scheme as a step-driven state machine. In sequential mode
/// it reproduces the historical run bit-identically; in interleaved mode
/// each step gathers one generation from every live candidate into a
/// single engine dispatch and migrates the globally best partition across
/// candidates.
#[derive(Debug)]
pub struct TwoStepDriver {
    config: TwoStep,
    phase: TsPhase,
    candidates: Vec<BufferConfig>,
    /// Next candidate to start (sequential mode).
    next_candidate: usize,
    slots: Vec<InnerSlot>,
    /// Chunk distribution of the in-flight batch: `(slot, chunk count)`.
    pending_map: Vec<(usize, usize)>,
    /// The Formula-2 preference factor, captured at init so
    /// [`outcome`](SearchDriver::outcome) can score live slots without a
    /// context.
    alpha: Option<f64>,
    /// Formula-2 bests and samples of **folded** (finished) slots; live
    /// slots are merged in on every [`outcome`](SearchDriver::outcome)
    /// call.
    outcome: SearchOutcome,
}

impl TwoStepDriver {
    /// Resumes a driver from a serialized state (slices re-materialize
    /// with their remaining capacity on the first step).
    pub fn from_state(config: TwoStep, state: TwoStepState) -> Self {
        let ga_cfg = |i: usize| -> GaConfig {
            let mut cfg = config.ga.clone();
            cfg.seed = config.seed.wrapping_add(i as u64 + 1);
            cfg
        };
        let slots = state
            .slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| InnerSlot {
                ga: GaDriver::from_state(ga_cfg(i), s.ga),
                buffer: s.buffer,
                cap: s.remaining,
                slice: None,
                done: s.done,
                last_elite: s.last_elite,
            })
            .collect();
        Self {
            config,
            phase: state.phase,
            candidates: state.candidates,
            next_candidate: state.next_candidate as usize,
            slots,
            pending_map: Vec::new(),
            alpha: state.alpha,
            outcome: state.outcome,
        }
    }

    /// Samples granted to each inner GA. A zero `per_candidate` (a public
    /// field) means what [`TwoStep::with_per_candidate`] clamps it to.
    fn per_candidate(&self) -> u64 {
        self.config.per_candidate.max(1)
    }

    /// The Formula-2 preference factor; the scheme requires Formula 2.
    fn alpha(ctx: &SearchContext<'_>) -> f64 {
        ctx.objective
            .alpha
            // cocco-audit: allow(R1) the facade rejects two-step without alpha before any driver is built (Error::Config)
            .expect("two-step exploration requires a Formula-2 objective")
    }

    /// Step 1: pick capacity candidates (legacy RNG order).
    fn init(&mut self, ctx: &SearchContext<'_>) {
        self.alpha = Some(Self::alpha(ctx));
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let start_samples = ctx.budget().used();
        let per_candidate = self.per_candidate();
        let candidate_count =
            (ctx.budget().limit().saturating_sub(start_samples) / per_candidate).max(1);
        self.candidates = match self.config.sampling {
            CapacitySampling::Random => (0..candidate_count)
                .map(|_| ctx.space.sample(&mut rng))
                .collect(),
            CapacitySampling::Grid => {
                let grid = ctx.space.grid();
                let count = (candidate_count as usize).min(grid.len());
                // Evenly spaced, traversed from the largest down.
                let mut picks: Vec<_> = (0..count)
                    .map(|i| grid[i * grid.len() / count.max(1)])
                    .collect();
                picks.sort_by_key(|c| std::cmp::Reverse(c.total_bytes()));
                picks
            }
        };
        self.phase = TsPhase::Run;
        if self.config.interleave {
            // Every candidate gets its slice up front; the shared pool is
            // the binding constraint, drained in round-robin chunk order.
            for (i, &buffer) in self.candidates.iter().enumerate() {
                let mut ga_cfg = self.config.ga.clone();
                ga_cfg.seed = self.config.seed.wrapping_add(i as u64 + 1);
                self.slots.push(InnerSlot {
                    ga: GaDriver::new(ga_cfg),
                    buffer,
                    cap: per_candidate,
                    slice: None,
                    done: false,
                    last_elite: None,
                });
            }
            self.next_candidate = self.candidates.len();
        }
    }

    /// Materializes slot `si`'s budget slice (needs the context handle).
    fn ensure_slice(&mut self, ctx: &SearchContext<'_>, si: usize) {
        if self.slots[si].slice.is_none() {
            self.slots[si].slice = Some(Arc::new(cocco_engine::SampleBudget::slice(
                ctx.budget_handle(),
                self.slots[si].cap,
            )));
        }
    }

    /// The derived context slot `si`'s inner GA runs under: fixed buffer,
    /// partition-only objective, the slot's slice as budget.
    fn inner_ctx<'a>(&self, ctx: &SearchContext<'a>, si: usize) -> SearchContext<'a> {
        let slot = &self.slots[si];
        ctx.derive_with_budget(
            BufferSpace::fixed(slot.buffer),
            Objective::partition_only(ctx.objective.metric),
            // cocco-audit: allow(R1) every caller runs ensure_slice(si) first
            Arc::clone(slot.slice.as_ref().expect("slice materialized")),
        )
    }

    /// Folds a finished inner GA into the Formula-2 outcome.
    fn fold(&mut self, ctx: &SearchContext<'_>, si: usize) {
        let alpha = Self::alpha(ctx);
        let slot = &mut self.slots[si];
        slot.done = true;
        let sub = slot.ga.outcome();
        self.outcome.samples += sub.samples;
        if let Some(best) = sub.best {
            let cost = slot.buffer.total_bytes() as f64 + alpha * sub.best_cost;
            self.outcome
                .consider(Genome::new(best.partition, slot.buffer), cost);
        }
    }

    /// Sequential mode: one candidate at a time, bit-identical to the
    /// historical construction.
    fn next_sequential(&mut self, ctx: &SearchContext<'_>) -> Step {
        loop {
            // Find (or start) the current live slot.
            let live = self.slots.last().is_some_and(|s| !s.done);
            if !live {
                if self.next_candidate >= self.candidates.len() || ctx.budget().is_exhausted() {
                    self.phase = TsPhase::Done;
                    return Step::Done;
                }
                let i = self.next_candidate;
                self.next_candidate += 1;
                let remaining = ctx.budget().remaining();
                let inner_budget = self.per_candidate().min(remaining);
                let mut ga_cfg = self.config.ga.clone();
                ga_cfg.seed = self.config.seed.wrapping_add(i as u64 + 1);
                self.slots.push(InnerSlot {
                    ga: GaDriver::new(ga_cfg),
                    buffer: self.candidates[i],
                    cap: inner_budget,
                    slice: None,
                    done: false,
                    last_elite: None,
                });
            }
            let si = self.slots.len() - 1;
            self.ensure_slice(ctx, si);
            let inner_ctx = self.inner_ctx(ctx, si);
            match self.slots[si].ga.next_batch(&inner_ctx) {
                Step::Evaluate(mut batch) => {
                    let objective = Objective::partition_only(ctx.objective.metric);
                    // cocco-audit: allow(R1) ensure_slice(ctx, si) ran two lines above
                    let slice = Arc::clone(self.slots[si].slice.as_ref().unwrap());
                    for chunk in &mut batch.chunks {
                        chunk.objective = Some(objective);
                        chunk.budget = Some(Arc::clone(&slice));
                    }
                    self.pending_map = vec![(si, batch.chunks.len())];
                    return Step::Evaluate(batch);
                }
                Step::Continue => return Step::Continue,
                Step::Done => {
                    self.fold(ctx, si);
                    // Loop: start the next candidate (or finish).
                }
            }
        }
    }

    /// Interleaved mode: gather one generation from every live candidate
    /// into a single dispatch, funding each chunk from its slot's slice by
    /// **reservation** (drawn now, in round-robin order — deterministic —
    /// and refunded to slice and pool alike if the batch is dropped).
    fn next_interleaved(&mut self, ctx: &SearchContext<'_>) -> Step {
        if self.slots.iter().all(|s| s.done) {
            self.phase = TsPhase::Done;
            return Step::Done;
        }
        let objective = Objective::partition_only(ctx.objective.metric);
        let mut batch = EvalBatch::default();
        self.pending_map.clear();
        for si in 0..self.slots.len() {
            if self.slots[si].done {
                continue;
            }
            self.ensure_slice(ctx, si);
            let inner_ctx = self.inner_ctx(ctx, si);
            match self.slots[si].ga.next_batch(&inner_ctx) {
                Step::Evaluate(inner_batch) => {
                    // cocco-audit: allow(R1) ensure_slice(ctx, si) ran two lines above
                    let slice = Arc::clone(self.slots[si].slice.as_ref().unwrap());
                    let mut count = 0usize;
                    for mut chunk in inner_batch.chunks {
                        chunk.objective = Some(objective);
                        chunk.budget = None;
                        chunk.reservation = Some(slice.reserve(chunk.candidates.len() as u64));
                        batch.chunks.push(chunk);
                        count += 1;
                    }
                    self.pending_map.push((si, count));
                }
                Step::Continue => {}
                Step::Done => self.fold(ctx, si),
            }
        }
        if batch.chunks.is_empty() {
            return Step::Continue;
        }
        Step::Evaluate(batch)
    }

    /// Cross-candidate elite migration: the globally most promising
    /// partition this round (by Formula-2 cost, so sizes are comparable)
    /// is injected into every *other* live candidate's next generation —
    /// the "information between different sizes" the sequential scheme
    /// cannot combine. Re-injection of an unchanged elite is skipped.
    fn migrate(&mut self, ctx: &SearchContext<'_>) {
        let alpha = Self::alpha(ctx);
        let mut best: Option<(f64, usize, Genome)> = None;
        for (si, slot) in self.slots.iter().enumerate() {
            let sub = slot.ga.outcome();
            if let Some(genome) = sub.best {
                let cost = slot.buffer.total_bytes() as f64 + alpha * sub.best_cost;
                if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                    best = Some((cost, si, genome));
                }
            }
        }
        let Some((_, source, elite)) = best else {
            return;
        };
        for si in 0..self.slots.len() {
            if si == source || self.slots[si].done {
                continue;
            }
            if self.slots[si].last_elite.as_ref() == Some(&elite.partition) {
                continue;
            }
            self.slots[si].last_elite = Some(elite.partition.clone());
            self.slots[si].ga.inject(elite.partition.clone());
        }
    }
}

impl SearchDriver for TwoStepDriver {
    fn name(&self) -> &'static str {
        match self.config.sampling {
            CapacitySampling::Random => "RS+GA",
            CapacitySampling::Grid => "GS+GA",
        }
    }

    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Step {
        match self.phase {
            TsPhase::Init => {
                self.init(ctx);
                Step::Continue
            }
            TsPhase::Run => {
                if self.config.interleave {
                    self.next_interleaved(ctx)
                } else {
                    self.next_sequential(ctx)
                }
            }
            TsPhase::Done => Step::Done,
        }
    }

    fn absorb(&mut self, ctx: &SearchContext<'_>, batch: EvalBatch) {
        let mut chunks = batch.chunks.into_iter();
        let map = std::mem::take(&mut self.pending_map);
        for (si, count) in map {
            let inner_batch = EvalBatch {
                chunks: chunks.by_ref().take(count).collect(),
            };
            let inner_ctx = self.inner_ctx(ctx, si);
            self.slots[si].ga.absorb(&inner_ctx, inner_batch);
        }
        if self.config.interleave {
            self.migrate(ctx);
        }
    }

    fn outcome(&self) -> SearchOutcome {
        // Folded slots live in `self.outcome`; live slots are merged on
        // the fly, so a meta-driver polling mid-run (portfolio
        // first-to-target) sees every inner GA's best and samples as soon
        // as they exist, not only at slice exhaustion.
        let mut outcome = self.outcome.clone();
        if let Some(alpha) = self.alpha {
            for slot in self.slots.iter().filter(|s| !s.done) {
                let sub = slot.ga.outcome();
                outcome.samples += sub.samples;
                if let Some(best) = sub.best {
                    let cost = slot.buffer.total_bytes() as f64 + alpha * sub.best_cost;
                    outcome.consider(Genome::new(best.partition, slot.buffer), cost);
                }
            }
        }
        outcome
    }

    fn state(&self) -> DriverState {
        DriverState::TwoStep(TwoStepState {
            phase: self.phase,
            candidates: self.candidates.clone(),
            next_candidate: self.next_candidate as u64,
            slots: self
                .slots
                .iter()
                .map(|slot| TsSlotState {
                    ga: match slot.ga.state() {
                        DriverState::Ga(state) => state,
                        _ => unreachable!("GA drivers produce GA states"),
                    },
                    buffer: slot.buffer,
                    remaining: slot.slice.as_ref().map_or(slot.cap, |s| s.remaining()),
                    done: slot.done,
                    last_elite: slot.last_elite.clone(),
                })
                .collect(),
            alpha: self.alpha,
            outcome: self.outcome.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::SearchMethod;
    use cocco_sim::{AcceleratorConfig, CostMetric, Evaluator};

    fn ctx<'a>(
        g: &'a cocco_graph::Graph,
        eval: &'a Evaluator<'a>,
        budget: u64,
    ) -> SearchContext<'a> {
        SearchContext::new(
            g,
            eval,
            BufferSpace::paper_shared(),
            Objective::co_exploration(CostMetric::Energy, 0.002),
            budget,
        )
    }

    #[test]
    fn rs_and_gs_produce_valid_results() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        for method in [TwoStep::random(), TwoStep::grid()] {
            let method = SearchMethod::TwoStep(method.with_per_candidate(150));
            let name = method.name();
            let ctx = ctx(&g, &eval, 600);
            let out = method.run(&ctx);
            let best = out.best.expect(name);
            assert!(best.partition.validate(&g).is_ok());
            assert!(out.best_cost.is_finite());
            assert!(out.samples <= 600);
        }
    }

    #[test]
    fn sequential_mode_is_available_and_valid() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let method = TwoStep::random().with_per_candidate(150).sequential();
        assert!(!method.interleave);
        let ctx = ctx(&g, &eval, 450);
        let out = SearchMethod::TwoStep(method).run(&ctx);
        assert!(out.best.expect("sequential").partition.validate(&g).is_ok());
        assert_eq!(out.samples, ctx.budget().used());
    }

    #[test]
    fn grid_traverses_large_to_small() {
        assert_eq!(SearchMethod::TwoStep(TwoStep::grid()).name(), "GS+GA");
        assert_eq!(SearchMethod::two_step().name(), "RS+GA");
    }

    #[test]
    fn respects_global_budget() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        for method in [
            TwoStep::random().with_per_candidate(40),
            TwoStep::random().with_per_candidate(40).sequential(),
        ] {
            let ctx = SearchContext::new(
                &g,
                &eval,
                BufferSpace::paper_shared(),
                Objective::co_exploration(CostMetric::Ema, 0.01),
                100,
            );
            let out = SearchMethod::TwoStep(method).run(&ctx);
            assert!(ctx.budget().used() <= 100);
            assert_eq!(out.samples, ctx.budget().used());
        }
    }

    #[test]
    fn interleaved_migration_shares_elites_across_candidates() {
        // The interleaved scheme's whole point: information flows between
        // capacity candidates. After a few rounds, at least one slot must
        // have received an elite injection.
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = ctx(&g, &eval, 400);
        let mut driver = TwoStep::random().with_per_candidate(100).driver();
        loop {
            match driver.next_batch(&ctx) {
                Step::Evaluate(mut batch) => {
                    ctx.evaluate_chunks(&mut batch);
                    driver.absorb(&ctx, batch);
                }
                Step::Continue => {}
                Step::Done => break,
            }
        }
        assert!(
            driver.slots.iter().any(|s| s.last_elite.is_some()),
            "no elite ever migrated between candidates"
        );
        assert!(driver.outcome().best.is_some());
    }

    #[test]
    fn dropped_interleaved_step_refunds_its_reservations() {
        // Satellite invariant: a driver dropped mid-step (its in-flight
        // batch abandoned) strands no samples — the reservations flow back
        // to the slices and the shared pool.
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = ctx(&g, &eval, 200);
        let mut driver = TwoStep::random().with_per_candidate(50).driver();
        // Step until the driver hands out an evaluation batch.
        let batch = loop {
            match driver.next_batch(&ctx) {
                Step::Evaluate(batch) => break batch,
                Step::Continue => {}
                Step::Done => panic!("driver finished before evaluating"),
            }
        };
        let reserved = ctx.budget().used();
        assert!(reserved > 0, "interleaved batches pre-reserve funding");
        // Abandon the step: drop the batch (and the driver with it).
        drop(batch);
        drop(driver);
        assert_eq!(
            ctx.budget().used(),
            0,
            "unconsumed reservations must flow back to the pool"
        );
        // Total conservation: a fresh run on the same context can still
        // consume the full limit.
        let out = SearchMethod::TwoStep(TwoStep::random().with_per_candidate(50)).run(&ctx);
        assert_eq!(out.samples, ctx.budget().used());
        assert_eq!(ctx.budget().used(), 200, "refunded samples were stranded");
    }
}
