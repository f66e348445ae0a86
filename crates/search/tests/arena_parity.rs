//! Arena-path parity property test.
//!
//! Drives seeded random mutation / repair / crossover walks through
//! `SearchContext::evaluate_candidates` — the same operator shapes the GA
//! uses, including incremental [`EvalHint`]s — and checks the production
//! batch pipeline (flat layout arenas, delta scoring, worker-local caches,
//! deferred publication) against two oracles for **every** scored
//! candidate: a fresh `Evaluator::eval_partition` of its repaired genome,
//! and the nested `Vec<Vec<NodeId>>` view scored through
//! `Engine::score_composed`. Walks at 1 and 4 worker threads must also be
//! bit-identical on every observable output: the full cost stream, the
//! final (repaired) genomes, the recorded trace and the persisted cache
//! snapshot — on `resnet50` and `randwire-a`.

use cocco_engine::{CacheSnapshot, Engine, EngineConfig, EvalMemo, TracePoint};
use cocco_graph::{Graph, NodeId};
use cocco_partition::{Partition, PartitionDelta};
use cocco_search::{BufferSpace, EvalCandidate, EvalHint, Genome, Objective, SearchContext};
use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, EvalOptions, Evaluator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

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

/// Asserts every funded candidate's cost equals both oracles' bit for bit:
/// the whole-partition evaluator (fresh, so no cache is shared with the
/// walk) and the nested-view composition of a separate engine.
fn assert_matches_oracles(
    oracle: &Evaluator<'_>,
    nested: &Engine,
    candidates: &[EvalCandidate],
    threads: u32,
) {
    let options = EvalOptions::default();
    for candidate in candidates {
        let Some(cost) = candidate.cost else { continue };
        let subgraphs = candidate.genome.partition.subgraphs();
        let report = oracle
            .eval_partition(&subgraphs, &BUFFER, options)
            .expect("repaired genomes evaluate");
        let full = report.cost_formula1(CostMetric::Energy);
        assert_eq!(
            cost.to_bits(),
            full.to_bits(),
            "batch score diverged from eval_partition at {threads} threads"
        );
        let composed = nested
            .score_composed(oracle, &subgraphs, &BUFFER, options)
            .0
            .cost(CostMetric::Energy, None);
        assert_eq!(
            cost.to_bits(),
            composed.to_bits(),
            "batch score diverged from the nested view at {threads} threads"
        );
    }
}

/// One seeded mutation/repair/crossover walk at `threads` workers, every
/// scored candidate checked against the oracles. The RNG drives genome
/// construction only — it is consumed identically at every thread count,
/// so any divergence comes from evaluation.
fn walk(model: &Graph, threads: u32) -> WalkResult {
    let evaluator = Evaluator::new(model, AcceleratorConfig::default());
    let oracle = Evaluator::new(model, AcceleratorConfig::default());
    let nested = Engine::new(EngineConfig::serial());
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
    let mut memos: Vec<Option<Arc<EvalMemo>>> = vec![None; POP];
    let mut costs = Vec::new();
    for _ in 0..ROUNDS {
        let mut candidates: Vec<EvalCandidate> = (0..POP)
            .map(|i| match rng.gen_range(0..3u32) {
                0 => {
                    // Move-node mutation with the GA's member-set delta
                    // discipline: donor and receiver subgraphs are fully
                    // touched, so unmarked terms are reusable.
                    let mut child = genomes[i].clone();
                    let mut delta = PartitionDelta::clean(model.len());
                    for _ in 0..rng.gen_range(1..4u32) {
                        let node = ids[rng.gen_range(0..ids.len())];
                        let target = child
                            .partition
                            .subgraph_of(ids[rng.gen_range(0..ids.len())]);
                        delta.touch_subgraph(&child.partition, child.partition.subgraph_of(node));
                        delta.touch_subgraph(&child.partition, target);
                        delta.touch(node);
                        child.partition.assign(node, target);
                    }
                    let hint = memos[i].clone().map(|memo| EvalHint { memo, delta });
                    EvalCandidate::with_hint(child, hint)
                }
                1 => {
                    // Single-point assignment crossover; the delta is the
                    // honest fingerprint diff against the parent memo.
                    let j = rng.gen_range(0..POP);
                    let cut = rng.gen_range(0..=model.len());
                    let a = genomes[i].partition.assignment();
                    let b = genomes[j].partition.assignment();
                    let mut assignment = a[..cut].to_vec();
                    assignment.extend_from_slice(&b[cut..]);
                    let child = Genome::new(Partition::from_assignment(assignment), BUFFER);
                    let hint = memos[i].clone().map(|memo| {
                        let delta = memo.fingerprints().delta_against(&child.partition);
                        EvalHint { memo, delta }
                    });
                    EvalCandidate::with_hint(child, hint)
                }
                // Re-evaluation without a hint: the cache-composition
                // path (an exact roll-up hit after round one).
                _ => EvalCandidate::new(genomes[i].clone()),
            })
            .collect();
        costs.extend(ctx.evaluate_candidates(&mut candidates));
        assert_matches_oracles(&oracle, &nested, &candidates, threads);
        for (i, candidate) in candidates.into_iter().enumerate() {
            genomes[i] = candidate.genome;
            memos[i] = candidate.memo;
        }
    }
    let stats = ctx.engine().stats();
    assert_eq!(
        stats.hot_allocs, 0,
        "hot-path allocations recorded at {threads} threads"
    );
    assert_eq!(
        stats.key_allocs, 0,
        "cache probes must build zero per-probe keys"
    );
    assert_eq!(
        stats.stats_canonicalize_fallbacks, 0,
        "engine-fed member lists must already be sorted"
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
