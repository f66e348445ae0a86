//! Arena-path parity property test.
//!
//! Drives seeded random mutation / repair / crossover walks through
//! `SearchContext::evaluate_chunks` — the same operator shapes the GA
//! uses — and checks the production batch pipeline (flat layout arenas,
//! the shared two-level cache, deferred publication) against an oracle
//! for **every** scored candidate: a fresh `Evaluator::eval_partition` of
//! its repaired genome.
//! Walks at 1 and 4 worker threads must also be
//! bit-identical on every observable output: the full cost stream, the
//! final (repaired) genomes, the recorded trace and the persisted cache
//! snapshot — on `resnet50` and `randwire-a`.

use cocco_engine::{CacheSnapshot, EngineConfig, TracePoint};
use cocco_graph::{Graph, NodeId};
use cocco_partition::Partition;
use cocco_search::{BufferSpace, EvalBatch, EvalCandidate, Genome, Objective, SearchContext};
use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, EvalOptions, Evaluator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const POP: usize = 6;
const ROUNDS: usize = 5;
const GROUPS: u32 = 10;
const BUFFER: BufferConfig = BufferConfig::Shared { total: 2 << 20 };

/// Everything a walk observes; two walks are "bit-identical" iff these
/// compare equal.
struct WalkResult {
    costs: Vec<Option<f64>>,
    genomes: Vec<Genome>,
    trace: Vec<TracePoint>,
    snapshot: CacheSnapshot,
}

/// Asserts every funded candidate's cost equals the oracle's bit for bit:
/// the whole-partition evaluator (fresh, so no cache is shared with the
/// walk).
fn assert_matches_oracle(oracle: &Evaluator<'_>, candidates: &[EvalCandidate], threads: u32) {
    for candidate in candidates {
        let Some(cost) = candidate.cost else { continue };
        let report = oracle
            .eval_partition(
                &candidate.genome.partition.subgraphs(),
                &BUFFER,
                EvalOptions::default(),
            )
            .expect("repaired genomes evaluate");
        let full = report.cost_formula1(CostMetric::Energy);
        assert_eq!(
            cost.to_bits(),
            full.to_bits(),
            "batch score diverged from eval_partition at {threads} threads"
        );
    }
}

/// One seeded mutation/repair/crossover walk at `threads` workers, every
/// scored candidate checked against the oracle. The RNG drives genome
/// construction only — it is consumed identically at every thread count,
/// so any divergence comes from evaluation.
fn walk(model: &Graph, threads: u32) -> WalkResult {
    let evaluator = Evaluator::new(model, AcceleratorConfig::default());
    let oracle = Evaluator::new(model, AcceleratorConfig::default());
    let ctx = SearchContext::new(
        model,
        &evaluator,
        BufferSpace::fixed(BUFFER),
        Objective::partition_only(CostMetric::Energy),
        100_000,
    )
    .with_engine(EngineConfig::with_threads(threads));
    let ids: Vec<NodeId> = model.node_ids().collect();
    let mut rng = StdRng::seed_from_u64(0xC0CC0);
    let mut genomes: Vec<Genome> = (0..POP)
        .map(|_| {
            let assignment: Vec<u32> = (0..model.len()).map(|_| rng.gen_range(0..GROUPS)).collect();
            Genome::new(Partition::from_assignment(assignment), BUFFER)
        })
        .collect();
    let mut costs = Vec::new();
    for _ in 0..ROUNDS {
        let candidates: Vec<EvalCandidate> = (0..POP)
            .map(|i| match rng.gen_range(0..3u32) {
                0 => {
                    // Move-node mutation.
                    let mut child = genomes[i].clone();
                    for _ in 0..rng.gen_range(1..4u32) {
                        let node = ids[rng.gen_range(0..ids.len())];
                        let target = child
                            .partition
                            .subgraph_of(ids[rng.gen_range(0..ids.len())]);
                        child.partition.assign(node, target);
                    }
                    EvalCandidate::new(child)
                }
                1 => {
                    // Single-point assignment crossover.
                    let j = rng.gen_range(0..POP);
                    let cut = rng.gen_range(0..=model.len());
                    let a = genomes[i].partition.assignment();
                    let b = genomes[j].partition.assignment();
                    let mut assignment = a[..cut].to_vec();
                    assignment.extend_from_slice(&b[cut..]);
                    EvalCandidate::new(Genome::new(Partition::from_assignment(assignment), BUFFER))
                }
                // Re-evaluation of an unchanged genome (an exact roll-up
                // hit after round one).
                _ => EvalCandidate::new(genomes[i].clone()),
            })
            .collect();
        let mut batch = EvalBatch::single(candidates);
        ctx.evaluate_chunks(&mut batch);
        let candidates = batch.chunks.remove(0).candidates;
        costs.extend(candidates.iter().map(|c| c.cost));
        assert_matches_oracle(&oracle, &candidates, threads);
        for (i, candidate) in candidates.into_iter().enumerate() {
            genomes[i] = candidate.genome;
        }
    }
    assert_eq!(
        ctx.engine().metrics().counter("engine.hot_allocs"),
        0,
        "hot-path allocations recorded at {threads} threads"
    );
    WalkResult {
        costs,
        genomes,
        trace: ctx.trace().points(),
        snapshot: ctx.engine().cache().snapshot(),
    }
}

fn assert_walks_identical(model: &Graph) {
    let reference = walk(model, 1);
    assert_eq!(
        reference.costs.len(),
        POP * ROUNDS,
        "budget must never run out in this walk"
    );
    let other = walk(model, 4);
    let name = model.name();
    assert_eq!(reference.costs, other.costs, "{name}: cost stream diverged");
    assert_eq!(
        reference.genomes, other.genomes,
        "{name}: repaired genomes diverged"
    );
    assert_eq!(reference.trace, other.trace, "{name}: traces diverged");
    assert_eq!(
        reference.snapshot, other.snapshot,
        "{name}: persisted cache snapshots diverged"
    );
}

#[test]
fn arena_walks_are_bit_identical_on_resnet50() {
    assert_walks_identical(&cocco_graph::models::resnet50());
}

#[test]
fn arena_walks_are_bit_identical_on_randwire_a() {
    assert_walks_identical(&cocco_graph::models::randwire_a());
}
