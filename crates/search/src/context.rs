//! The shared search context: engine access, budget accounting, repair
//! and trace recording.

use crate::driver::EvalBatch;
use crate::genome::Genome;
use crate::objective::{BufferSpace, Objective};
use cocco_engine::{
    Engine, EngineConfig, SampleBudget, SampleReservation, ScoredEval, Trace, TracePoint,
};
use cocco_faults::{FaultPlan, FaultSite};
use cocco_graph::{Graph, NodeId};
use cocco_partition::{repair, Partition, PartitionDelta};
use cocco_sim::{BufferConfig, EvalOptions, Evaluator};
use cocco_telemetry::Telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A per-candidate change record: the [`PartitionDelta`] of the nodes an
/// operator moved.
///
/// No driver sets it, and evaluation ignores it: every subgraph a
/// mutation left untouched is answered by the engine's term cache without
/// being named. It is kept only as the field perfbench's shadow replay
/// (`perfbench/src/traced.rs`) reads, and goes with that replay.
#[derive(Debug)]
pub struct EvalHint {
    /// Nodes whose subgraph membership the mutation changed.
    pub delta: PartitionDelta,
}

/// One genome queued for batch evaluation.
///
/// Input: the genome. Outputs, filled in by
/// [`SearchContext::evaluate_chunks`]: the repaired genome and its
/// objective `cost` (`None` iff the budget ran out first).
#[derive(Debug)]
pub struct EvalCandidate {
    /// The genome; repaired in place by evaluation.
    pub genome: Genome,
    /// Always `None`: no driver sets it (see [`EvalHint`]).
    pub hint: Option<EvalHint>,
    /// The objective cost (output).
    pub cost: Option<f64>,
}

impl EvalCandidate {
    /// A candidate for `genome`.
    pub fn new(genome: Genome) -> Self {
        Self {
            genome,
            hint: None,
            cost: None,
        }
    }
}

/// Where a group's funding comes from (see `evaluate_groups`).
enum Funding<'f> {
    /// The context's own budget.
    Context,
    /// An explicit budget (a sub-search's slice).
    Budget(&'f SampleBudget),
    /// Funding drawn ahead of dispatch.
    Reservation(&'f mut SampleReservation),
}

/// One contiguous group of candidates sharing an objective and a funding
/// source inside a single engine dispatch.
struct EvalGroup<'g> {
    candidates: &'g mut [EvalCandidate],
    objective: Objective,
    funding: Funding<'g>,
}

/// Everything a search method ([`SearchMethod::run`](crate::SearchMethod::run))
/// needs: the graph, the shared evaluator, the buffer space, the objective,
/// evaluation options, a sample budget, a trace and the evaluation
/// [`Engine`].
///
/// Genome-level evaluations ([`evaluate_chunks`](SearchContext::evaluate_chunks))
/// consume budget and are traced; the analytic helpers used inside
/// deterministic baselines ([`subgraph_cost`](SearchContext::subgraph_cost),
/// [`fits`](SearchContext::fits)) do not consume budget but still share the
/// engine's memoization cache.
///
/// # Parallelism and determinism
///
/// [`evaluate_chunks`](SearchContext::evaluate_chunks) spreads a batch over
/// the engine's worker pool. Budget samples are drawn and trace points
/// recorded in **input order** before/after the parallel section, and each
/// genome's repair + scoring is a pure function of the genome — so a
/// seeded search produces bit-identical results at any thread count.
#[derive(Debug)]
pub struct SearchContext<'a> {
    graph: &'a Graph,
    evaluator: &'a Evaluator<'a>,
    /// The buffer design space.
    pub space: BufferSpace,
    /// The objective (Formula 1 or 2).
    pub objective: Objective,
    /// Core/batch options applied to every evaluation.
    pub options: EvalOptions,
    budget: Arc<SampleBudget>,
    trace: Arc<Trace>,
    engine: Arc<Engine>,
    /// Best cost any evaluation of this context family has produced, as
    /// `f64` bits — telemetry only (`search.improvement` events), never
    /// consulted by a search decision. Shared by [`derive`](Self::derive)d
    /// contexts so an improvement is "new best of the whole run".
    best_seen: Arc<AtomicU64>,
    /// Seeded fault-injection plan (disabled by default). Draws happen in
    /// the serial funding-order sections only, so an enabled plan is
    /// bit-identical at any thread count.
    faults: FaultPlan,
    /// Set when a worker panic quarantined a batch: the panic message.
    /// Shared by derived contexts so one abort stops the whole step
    /// family; the driver loop checks it via
    /// [`fault_abort`](Self::fault_abort) and unwinds with best-so-far.
    abort: Arc<Mutex<Option<String>>>,
}

impl<'a> SearchContext<'a> {
    /// Creates a context with a fresh budget of `budget_limit` samples and
    /// a default ([`EngineConfig::auto`]) evaluation engine.
    pub fn new(
        graph: &'a Graph,
        evaluator: &'a Evaluator<'a>,
        space: BufferSpace,
        objective: Objective,
        budget_limit: u64,
    ) -> Self {
        Self {
            graph,
            evaluator,
            space,
            objective,
            options: EvalOptions::default(),
            budget: Arc::new(SampleBudget::new(budget_limit)),
            trace: Arc::new(Trace::new()),
            engine: Arc::new(Engine::new(EngineConfig::default())),
            best_seen: Arc::new(AtomicU64::new(f64::INFINITY.to_bits())),
            faults: FaultPlan::disabled(),
            abort: Arc::new(Mutex::new(None)),
        }
    }

    /// Sets multi-core / batch evaluation options.
    pub fn with_options(mut self, options: EvalOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches a fault-injection plan. Evaluation then draws from the
    /// plan's seeded RNG at the instrumented seams (evaluator errors,
    /// worker panics, budget revocation); a [`FaultPlan::disabled`] plan —
    /// the default — never draws and perturbs nothing.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The fault-injection plan this context draws from.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The panic message of a quarantined batch, if a worker panic aborted
    /// this context family. Once set, further evaluation requests return
    /// without funding, so the caller can unwind with budget accounting
    /// and trace still consistent.
    pub fn fault_abort(&self) -> Option<String> {
        self.abort
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Replaces the evaluation engine (thread policy; results are
    /// unaffected, only wall-clock). The replacement starts with an empty
    /// cache, so call this before searching.
    pub fn with_engine(mut self, config: EngineConfig) -> Self {
        self.engine = Arc::new(Engine::new(config));
        self
    }

    /// [`with_engine`](Self::with_engine) with a telemetry sink attached
    /// to the replacement engine — the context's own instrumentation
    /// (step spans, improvement events, budget gauge) reports through the
    /// engine's handle, so this is how a harness turns search telemetry
    /// on. Observation only: results are bit-identical with telemetry
    /// enabled, disabled, or shared with other components.
    pub fn with_engine_telemetry(mut self, config: EngineConfig, telemetry: &Telemetry) -> Self {
        self.engine = Arc::new(Engine::with_telemetry(config, telemetry.clone()));
        self
    }

    /// The telemetry handle this context reports through (the engine's;
    /// disabled unless [`with_engine_telemetry`](Self::with_engine_telemetry)
    /// attached a sink).
    pub fn telemetry(&self) -> &Telemetry {
        self.engine.telemetry()
    }

    /// Derives a context with a different space/objective that shares this
    /// context's budget, trace, options, evaluator and engine — used by the
    /// two-step scheme to run partition-only inner searches against the
    /// common sample pool (and the common memoization cache).
    pub fn derive(&self, space: BufferSpace, objective: Objective) -> SearchContext<'a> {
        SearchContext {
            graph: self.graph,
            evaluator: self.evaluator,
            space,
            objective,
            options: self.options,
            budget: Arc::clone(&self.budget),
            trace: Arc::clone(&self.trace),
            engine: Arc::clone(&self.engine),
            best_seen: Arc::clone(&self.best_seen),
            faults: self.faults.clone(),
            abort: Arc::clone(&self.abort),
        }
    }

    /// Derives a context whose budget is capped at `cap` additional samples
    /// while still drawing from (and counting against) this context's pool.
    pub fn slice_budget(&self, cap: u64) -> SearchContext<'a> {
        self.derive_with_budget(
            self.space,
            self.objective,
            Arc::new(SampleBudget::slice(Arc::clone(&self.budget), cap)),
        )
    }

    /// [`derive`](Self::derive) with an explicit budget handle — how a
    /// stepped sub-search (a two-step inner GA, a portfolio member) keeps
    /// drawing from **its own persistent slice** across driver steps while
    /// sharing this context's trace, engine and evaluator.
    pub fn derive_with_budget(
        &self,
        space: BufferSpace,
        objective: Objective,
        budget: Arc<SampleBudget>,
    ) -> SearchContext<'a> {
        SearchContext {
            graph: self.graph,
            evaluator: self.evaluator,
            space,
            objective,
            options: self.options,
            budget,
            trace: Arc::clone(&self.trace),
            engine: Arc::clone(&self.engine),
            best_seen: Arc::clone(&self.best_seen),
            faults: self.faults.clone(),
            abort: Arc::clone(&self.abort),
        }
    }

    /// The shared budget as a cloneable handle (for slicing by stepped
    /// sub-searches).
    pub fn budget_handle(&self) -> Arc<SampleBudget> {
        Arc::clone(&self.budget)
    }

    /// The searched graph.
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// The shared evaluator.
    pub fn evaluator(&self) -> &'a Evaluator<'a> {
        self.evaluator
    }

    /// The shared sample budget.
    pub fn budget(&self) -> &SampleBudget {
        &self.budget
    }

    /// The evaluation trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The shared evaluation engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Whether subgraph `members` fits `buffer` under the context's options
    /// (activation footprint, per-core weight shard, region count).
    ///
    /// Evaluator errors count as "does not fit" **and** increment the
    /// trace's `infeasible_errors` counter, so configuration bugs stay
    /// visible in the outcome.
    pub fn fits(&self, members: &[NodeId], buffer: &BufferConfig) -> bool {
        match self.evaluator.subgraph_stats(members) {
            Ok(stats) => {
                let wgt = stats
                    .wgt_resident_bytes
                    .div_ceil(u64::from(self.options.cores()));
                buffer.fits(stats.act_footprint_bytes, wgt)
                    && stats.regions <= self.evaluator.config().max_regions
            }
            Err(_) => {
                self.trace.record_infeasible_error();
                false
            }
        }
    }

    /// Evaluates a driver's [`EvalBatch`] — every chunk of every candidate
    /// — as **one** engine dispatch, honoring each chunk's objective and
    /// funding overrides. The one batch entry point of the crate.
    ///
    /// Each candidate is repaired in place, then scored through the
    /// engine's caches: a re-proposed partition hits the roll-up cache, and
    /// every subgraph its mutation left untouched hits the term cache. A
    /// candidate left with `cost == None` was not funded.
    ///
    /// Funding is drawn in chunk order, candidate order (a chunk whose
    /// budget runs dry leaves its remaining candidates unfunded and moves
    /// on to the next chunk, whose own budget may still have capacity).
    /// Trace points follow that same funding order, so interleaved
    /// sub-searches sharing one dispatch stay bit-identical at any thread
    /// count.
    pub fn evaluate_chunks(&self, batch: &mut EvalBatch) {
        let mut groups: Vec<EvalGroup<'_>> = batch
            .chunks
            .iter_mut()
            .map(|chunk| {
                let crate::driver::EvalChunk {
                    candidates,
                    objective,
                    budget,
                    reservation,
                } = chunk;
                EvalGroup {
                    candidates,
                    objective: objective.unwrap_or(self.objective),
                    funding: match (reservation, budget) {
                        (Some(reservation), _) => Funding::Reservation(reservation),
                        (None, Some(budget)) => Funding::Budget(budget),
                        (None, None) => Funding::Context,
                    },
                }
            })
            .collect();
        self.evaluate_groups(&mut groups);
    }

    /// The shared grouped evaluation core: fund in group/input order, run
    /// every funded candidate in one pool dispatch, record trace points in
    /// funding order.
    fn evaluate_groups(&self, groups: &mut [EvalGroup<'_>]) {
        // A quarantined batch aborts the step family: once a worker panic
        // was caught, refuse further funding so the caller unwinds with
        // budget accounting and trace still consistent.
        if self.fault_abort().is_some() {
            return;
        }
        // Injected budget exhaustion: revoke the pool *before* funding,
        // so this batch degrades exactly like a naturally dry budget
        // (unfunded candidates, no trace points, no stranded samples).
        if self.faults.should_inject(FaultSite::BudgetRevoke) {
            self.budget.revoke();
            self.faults.log().note_budget_revocation();
        }
        // Pin sample indices to input order before any worker runs.
        let mut funded_per_group = Vec::with_capacity(groups.len());
        let mut samples = Vec::new();
        for group in groups.iter_mut() {
            let mut funded = 0usize;
            for _ in 0..group.candidates.len() {
                let sample = match &mut group.funding {
                    Funding::Context => self.budget.try_consume(),
                    Funding::Budget(budget) => budget.try_consume(),
                    Funding::Reservation(reservation) => reservation.take(),
                };
                match sample {
                    Some(sample) => {
                        samples.push(sample);
                        funded += 1;
                    }
                    None => break,
                }
            }
            funded_per_group.push(funded);
        }
        if samples.is_empty() {
            return;
        }
        // Budget consumption gauge: the root pool's position after this
        // batch's funding (slices/reservations all draw from it).
        if let Some(gauge) = self.engine.telemetry().gauge("search.budget.used") {
            gauge.set(self.budget.used());
        }
        let mut jobs: Vec<(Mutex<&mut EvalCandidate>, Objective, u64)> =
            Vec::with_capacity(samples.len());
        {
            let mut sample_iter = samples.iter();
            for (group, &funded) in groups.iter_mut().zip(&funded_per_group) {
                let objective = group.objective;
                for candidate in group.candidates.iter_mut().take(funded) {
                    jobs.push((
                        Mutex::new(candidate),
                        objective,
                        // cocco-audit: allow(R1) samples holds exactly sum(funded_per_group) entries by construction above
                        *sample_iter.next().unwrap(),
                    ));
                }
            }
        }
        // Per-job fault draws happen here, in the serial funding-order
        // section, so injection points are a pure function of the plan's
        // seed and the funding sequence — bit-identical at any thread
        // count. The disabled-plan hot path allocates nothing.
        let injections: Vec<(bool, bool)> = if self.faults.is_enabled() {
            (0..jobs.len())
                .map(|_| {
                    (
                        self.faults.should_inject(FaultSite::EvalError),
                        self.faults.should_inject(FaultSite::WorkerPanic),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        let results: Vec<Mutex<Option<TracePoint>>> =
            (0..jobs.len()).map(|_| Mutex::new(None)).collect();
        // The one batch pipeline: each job repairs its candidate, probes
        // the shared cache and scores the misses; new cache
        // entries are staged under the funding-order index `i` and
        // published in that order when the batch ends, so neither worker
        // scheduling nor an injected re-score reaches the shared cache.
        let dispatched = self.engine.try_dispatch(jobs.len(), |i| {
            let (eval_error, worker_panic) = injections.get(i).copied().unwrap_or_default();
            if worker_panic {
                panic!("cocco-faults: injected worker panic");
            }
            let (slot, objective, sample) = &jobs[i];
            let candidate: &mut EvalCandidate = &mut slot.lock().unwrap();
            let buffer = candidate.genome.buffer;
            candidate.genome.partition = repair(
                self.graph,
                std::mem::replace(&mut candidate.genome.partition, Partition::singletons(0)),
                &|members| self.fits(members, &buffer),
            );
            let score = || {
                self.engine.score_partition_deferred(
                    i as u64,
                    self.evaluator,
                    &candidate.genome.partition,
                    &buffer,
                    self.options,
                )
            };
            if eval_error {
                // Injected transient evaluator failure: the first
                // attempt's result is discarded and the job re-scores.
                // Scoring is a pure function of its inputs, so the retry
                // is bit-identical to the fault-free run.
                let _ = score();
                self.faults.log().note_eval_rescore();
            }
            let scored = score();
            self.finish_scored(&results, i, *objective, *sample, candidate, scored);
        });
        if let Err(panic) = dispatched {
            // Discard every funded candidate uniformly (some may have
            // finished scoring, but keeping them would make results
            // depend on worker scheduling). Consuming `jobs` here also
            // releases its borrows so the refund pass can walk `groups`.
            for (slot, _, _) in jobs {
                let candidate = slot
                    .into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                candidate.cost = None;
            }
            self.quarantine_batch(panic.message, groups, &funded_per_group);
            return;
        }
        // Record trace points in funding (= sample) order.
        for slot in &results {
            // cocco-audit: allow(R1) the engine ran one job per slot; an empty slot means the dispatch itself is broken
            let point = slot.lock().unwrap().take().expect("every funded job ran");
            self.record_traced(point);
        }
    }

    /// The per-candidate evaluation epilogue: store the cost on the
    /// candidate and park its trace point in `results[i]` (recorded in
    /// funding order after the batch completes).
    fn finish_scored(
        &self,
        results: &[Mutex<Option<TracePoint>>],
        i: usize,
        objective: Objective,
        sample: u64,
        candidate: &mut EvalCandidate,
        scored: ScoredEval,
    ) {
        if scored.error {
            self.trace.record_infeasible_error();
        }
        let cost = scored.cost(objective.metric, objective.alpha);
        candidate.cost = Some(cost);
        *results[i].lock().unwrap() = Some(TracePoint {
            sample,
            cost,
            buffer_bytes: candidate.genome.buffer.total_bytes(),
            metric_value: scored.metric(objective.metric),
        });
    }

    /// Recovery path for a worker panic caught mid-dispatch (candidates
    /// already uniformly discarded by the caller): refund every funded
    /// sample to its funding source so no budget is stranded, record no
    /// trace points, and latch the abort so the driver loop unwinds with
    /// best-so-far. Runs serially after the pool delivered the panic, so
    /// the recovery itself is deterministic.
    fn quarantine_batch(
        &self,
        message: String,
        groups: &mut [EvalGroup<'_>],
        funded_per_group: &[usize],
    ) {
        let mut refunded = 0u64;
        for (group, &funded) in groups.iter_mut().zip(funded_per_group) {
            let n = funded as u64;
            if n == 0 {
                continue;
            }
            match &mut group.funding {
                Funding::Context => self.budget.refund(n),
                Funding::Budget(budget) => budget.refund(n),
                Funding::Reservation(reservation) => reservation.refund(n),
            }
            refunded += n;
        }
        let log = self.faults.log();
        log.note_quarantined_batch();
        log.note_refunded_samples(refunded);
        self.engine.telemetry().emit("recovery", || {
            vec![
                ("kind", "quarantined_batch".into()),
                ("refunded_samples", refunded.into()),
            ]
        });
        *self
            .abort
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(message);
    }

    /// Records a trace point, emitting a `search.improvement` event when
    /// its cost beats the best this context family has seen. Runs in the
    /// serial funding-order sections only, so the event order is
    /// deterministic; with telemetry disabled it is exactly
    /// `trace.record`.
    fn record_traced(&self, point: TracePoint) {
        let telemetry = self.engine.telemetry();
        if telemetry.is_enabled()
            && point.cost < f64::from_bits(self.best_seen.load(Ordering::Relaxed))
        {
            self.best_seen
                .store(point.cost.to_bits(), Ordering::Relaxed);
            telemetry.emit("search.improvement", || {
                vec![
                    ("sample", point.sample.into()),
                    ("cost", point.cost.into()),
                    ("buffer_bytes", point.buffer_bytes.into()),
                ]
            });
        }
        self.trace.record(point);
    }

    /// The additive Formula-1 term of a single subgraph under `buffer`
    /// (`None` when it does not fit). Used by the greedy, DP and
    /// enumeration baselines; does not consume budget, but shares the
    /// engine's memoization cache.
    pub fn subgraph_cost(&self, members: &[NodeId], buffer: &BufferConfig) -> Option<f64> {
        if !self.fits(members, buffer) {
            return None;
        }
        // score_single borrows `members` directly — no owned partition is
        // allocated in this (greedy/DP/enumeration) hot loop.
        let scored = self
            .engine
            .score_single(self.evaluator, members, buffer, self.options);
        if scored.error {
            self.trace.record_infeasible_error();
            return None;
        }
        Some(scored.metric(self.objective.metric))
    }

    /// The full objective cost of a valid partition under `buffer`, without
    /// consuming budget (used to score deterministic baseline outputs).
    pub fn partition_cost(&self, partition: &Partition, buffer: &BufferConfig) -> f64 {
        let scored = self
            .engine
            .score_partition(self.evaluator, partition, buffer, self.options);
        if scored.error {
            self.trace.record_infeasible_error();
        }
        scored.cost(self.objective.metric, self.objective.alpha)
    }
}

// Batch evaluation shares the context across the engine's workers.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<SearchContext<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use cocco_sim::{AcceleratorConfig, CostMetric};

    /// Evaluates `genomes` in place as one plain chunk under the context's
    /// objective and budget; entry `i` is `None` iff genome `i` went
    /// unfunded.
    fn evaluate(ctx: &SearchContext<'_>, genomes: &mut [Genome]) -> Vec<Option<f64>> {
        let candidates = genomes
            .iter()
            .map(|g| EvalCandidate::new(g.clone()))
            .collect();
        let mut batch = EvalBatch::single(candidates);
        ctx.evaluate_chunks(&mut batch);
        let evaluated = batch.chunks.into_iter().flat_map(|c| c.candidates);
        genomes
            .iter_mut()
            .zip(evaluated)
            .map(|(g, c)| {
                *g = c.genome;
                c.cost
            })
            .collect()
    }

    fn context<'a>(
        graph: &'a Graph,
        evaluator: &'a Evaluator<'a>,
        budget: u64,
    ) -> SearchContext<'a> {
        SearchContext::new(
            graph,
            evaluator,
            BufferSpace::fixed(BufferConfig::shared(1 << 20)),
            Objective::partition_only(CostMetric::Ema),
            budget,
        )
    }

    #[test]
    fn evaluate_consumes_budget_and_traces() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = context(&g, &eval, 2);
        let mut genome = Genome::new(
            Partition::singletons(g.len()),
            BufferConfig::shared(1 << 20),
        );
        assert!(evaluate(&ctx, std::slice::from_mut(&mut genome))[0].is_some());
        assert!(evaluate(&ctx, std::slice::from_mut(&mut genome))[0].is_some());
        assert!(evaluate(&ctx, std::slice::from_mut(&mut genome))[0].is_none());
        assert_eq!(ctx.trace().len(), 2);
        assert_eq!(ctx.budget().used(), 2);
        // The repeated evaluation hit the engine cache.
        assert!(
            ctx.engine()
                .metrics()
                .counter("engine.cache.partition.hits")
                >= 1
        );
    }

    #[test]
    fn evaluate_repairs_invalid_genomes() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = context(&g, &eval, 10);
        // Cyclic quotient assignment.
        let mut genome = Genome::new(
            Partition::from_assignment(vec![0, 0, 0, 1, 0]),
            BufferConfig::shared(1 << 20),
        );
        let cost = evaluate(&ctx, std::slice::from_mut(&mut genome))[0].unwrap();
        assert!(cost.is_finite());
        assert!(genome.partition.validate(&g).is_ok());
    }

    #[test]
    fn batch_preserves_order_and_funds_prefix() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = context(&g, &eval, 3);
        let mut genomes: Vec<Genome> = (0..5)
            .map(|_| {
                Genome::new(
                    Partition::singletons(g.len()),
                    BufferConfig::shared(1 << 20),
                )
            })
            .collect();
        let costs = evaluate(&ctx, &mut genomes);
        assert_eq!(costs.len(), 5);
        assert!(costs[..3].iter().all(Option::is_some));
        assert!(costs[3..].iter().all(Option::is_none));
        assert_eq!(ctx.budget().used(), 3);
        assert_eq!(ctx.trace().len(), 3);
        // Trace points carry consecutive input-order samples.
        let samples: Vec<u64> = ctx.trace().points().iter().map(|p| p.sample).collect();
        assert_eq!(samples, vec![0, 1, 2]);
    }

    #[test]
    fn batch_matches_serial_at_any_thread_count() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let run = |threads: u32| {
            let ctx = context(&g, &eval, 64).with_engine(EngineConfig::with_threads(threads));
            let mut genomes: Vec<Genome> = (0..64)
                .map(|i| {
                    Genome::new(
                        Partition::connected_groups(&g, 2 + i % 7),
                        BufferConfig::shared(1 << 20),
                    )
                })
                .collect();
            let costs = evaluate(&ctx, &mut genomes);
            (costs, genomes, ctx.trace().points())
        };
        let serial = run(1);
        for threads in [2, 4] {
            let parallel = run(threads);
            assert_eq!(serial.0, parallel.0, "costs differ at {threads} threads");
            assert_eq!(serial.1, parallel.1, "genomes differ at {threads} threads");
            assert_eq!(serial.2, parallel.2, "traces differ at {threads} threads");
        }
    }

    #[test]
    fn telemetry_observes_searches_without_perturbing_them() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let run = |telemetry: Option<&Telemetry>| {
            let ctx = context(&g, &eval, 32);
            let ctx = match telemetry {
                Some(t) => ctx.with_engine_telemetry(EngineConfig::with_threads(2), t),
                None => ctx.with_engine(EngineConfig::with_threads(2)),
            };
            let mut genomes: Vec<Genome> = (0..32)
                .map(|i| {
                    Genome::new(
                        Partition::connected_groups(&g, 2 + i % 5),
                        BufferConfig::shared(1 << 20),
                    )
                })
                .collect();
            let costs = evaluate(&ctx, &mut genomes);
            (costs, ctx.trace().points())
        };
        let telemetry = cocco_telemetry::Telemetry::enabled();
        let observed = run(Some(&telemetry));
        let plain = run(None);
        assert_eq!(observed, plain, "telemetry must not change results");

        // Improvement events carry strictly decreasing costs.
        let improvements: Vec<f64> = telemetry
            .events()
            .iter()
            .filter(|e| e.name == "search.improvement")
            .map(|e| match &e.fields[1].1 {
                cocco_telemetry::EventValue::F64(c) => *c,
                other => panic!("cost field holds {other:?}"),
            })
            .collect();
        assert!(!improvements.is_empty());
        assert!(improvements.windows(2).all(|w| w[1] < w[0]));

        // Budget gauge tracked the pool; dispatch fed the batch histogram.
        let snap = telemetry.snapshot();
        assert_eq!(snap.gauge("search.budget.used"), 32);
        let batches = snap.histogram("engine.batch.latency_ns").unwrap();
        assert!(batches.count >= 1);
    }

    #[test]
    fn subgraph_cost_matches_metric() {
        let g = cocco_graph::models::chain(3);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = context(&g, &eval, 10);
        let members: Vec<NodeId> = g.node_ids().collect();
        let cost = ctx
            .subgraph_cost(&members, &BufferConfig::shared(1 << 20))
            .unwrap();
        let stats = eval.subgraph_stats(&members).unwrap();
        assert_eq!(cost, stats.ema_bytes() as f64);
        assert_eq!(ctx.budget().used(), 0, "analytic helper must be free");
    }

    #[test]
    fn injected_eval_errors_rescore_bit_identically() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let genomes = || -> Vec<Genome> {
            (0..24)
                .map(|i| {
                    Genome::new(
                        Partition::connected_groups(&g, 2 + i % 5),
                        BufferConfig::shared(1 << 20),
                    )
                })
                .collect()
        };
        let plain_ctx = context(&g, &eval, 24);
        let mut plain_genomes = genomes();
        let plain = (
            evaluate(&plain_ctx, &mut plain_genomes),
            plain_ctx.trace().points(),
        );
        let rates = cocco_faults::FaultRates::none().with(FaultSite::EvalError, 0.5);
        let faulty_ctx = context(&g, &eval, 24).with_faults(FaultPlan::seeded(7, rates));
        let mut faulty_genomes = genomes();
        let faulty = (
            evaluate(&faulty_ctx, &mut faulty_genomes),
            faulty_ctx.trace().points(),
        );
        assert_eq!(
            plain, faulty,
            "transient eval errors must not change results"
        );
        assert_eq!(plain_genomes, faulty_genomes);
        assert!(faulty_ctx.faults().log().eval_rescores() > 0);
        assert!(faulty_ctx.fault_abort().is_none());
    }

    #[test]
    fn worker_panic_quarantines_batch_and_refunds_budget() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        for threads in [1, 2] {
            let rates = cocco_faults::FaultRates::none().with(FaultSite::WorkerPanic, 1.0);
            let ctx = context(&g, &eval, 16)
                .with_engine(EngineConfig::with_threads(threads))
                .with_faults(FaultPlan::seeded(3, rates));
            let mut genomes: Vec<Genome> = (0..4)
                .map(|_| {
                    Genome::new(
                        Partition::singletons(g.len()),
                        BufferConfig::shared(1 << 20),
                    )
                })
                .collect();
            let costs = evaluate(&ctx, &mut genomes);
            assert!(
                costs.iter().all(Option::is_none),
                "quarantine discards uniformly"
            );
            // Every funded sample was refunded — nothing stranded, and the
            // trace-length invariant holds.
            assert_eq!(ctx.budget().used(), 0);
            assert_eq!(ctx.trace().len(), 0);
            let log = ctx.faults().log();
            assert_eq!(log.quarantined_batches(), 1);
            assert_eq!(log.refunded_samples(), 4);
            let message = ctx.fault_abort().expect("abort latched");
            assert!(message.contains("injected worker panic"), "{message}");
            // Aborted contexts refuse further funding instead of running.
            let mut more = genomes.clone();
            assert!(evaluate(&ctx, &mut more).iter().all(Option::is_none));
            assert_eq!(ctx.budget().used(), 0);
        }
    }

    #[test]
    fn injected_budget_revocation_degrades_like_exhaustion() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let rates = cocco_faults::FaultRates::none().with(FaultSite::BudgetRevoke, 1.0);
        let ctx = context(&g, &eval, 100).with_faults(FaultPlan::seeded(5, rates));
        let mut genomes: Vec<Genome> = (0..3)
            .map(|_| {
                Genome::new(
                    Partition::singletons(g.len()),
                    BufferConfig::shared(1 << 20),
                )
            })
            .collect();
        let costs = evaluate(&ctx, &mut genomes);
        assert!(
            costs.iter().all(Option::is_none),
            "revoked budget funds nothing"
        );
        assert!(ctx.budget().is_revoked());
        assert_eq!(ctx.budget().remaining(), 0);
        assert_eq!(ctx.trace().len() as u64, ctx.budget().used());
        assert_eq!(ctx.faults().log().budget_revocations(), 1);
        assert!(ctx.fault_abort().is_none(), "revocation is not an abort");
    }

    #[test]
    fn subgraph_cost_rejects_oversized() {
        let g = cocco_graph::models::chain(3);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = context(&g, &eval, 10);
        let members: Vec<NodeId> = g.node_ids().collect();
        assert!(ctx
            .subgraph_cost(&members, &BufferConfig::shared(64))
            .is_none());
    }
}
