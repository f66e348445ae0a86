//! Subgraph-granular evaluation: bit-identity with the whole-partition
//! evaluator over random mutation sequences, across thread counts, and for
//! every stochastic searcher, with the term cache answering the subgraphs
//! a mutation left untouched.

use cocco::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One random partition edit in the style of the GA operators.
fn random_edit(g: &Graph, p: &mut Partition, rng: &mut StdRng) {
    match rng.gen_range(0..3u32) {
        0 => {
            // Move one node to a neighbouring or fresh subgraph.
            let node = NodeId::from_index(rng.gen_range(0..g.len()));
            let mut candidates: Vec<u32> = g
                .producers(node)
                .iter()
                .chain(g.consumers(node).iter())
                .map(|&v| p.subgraph_of(v))
                .filter(|&sg| sg != p.subgraph_of(node))
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            candidates.push(p.fresh_id());
            let target = candidates[rng.gen_range(0..candidates.len())];
            p.assign(node, target);
        }
        1 => {
            // Split one subgraph at a random topological point.
            let groups = p.subgraphs();
            let splittable: Vec<_> = groups.iter().filter(|m| m.len() >= 2).collect();
            if !splittable.is_empty() {
                let group = splittable[rng.gen_range(0..splittable.len())];
                let cut = rng.gen_range(1..group.len());
                let fresh = p.fresh_id();
                for &m in &group[cut..] {
                    p.assign(m, fresh);
                }
            }
        }
        _ => {
            // Merge across a random quotient edge.
            let quotient = Quotient::build(g, p);
            let groups = p.subgraphs();
            let edges: Vec<(u32, u32)> = (0..quotient.num_subgraphs() as u32)
                .flat_map(|a| quotient.succs(a).iter().map(move |&b| (a, b)))
                .collect();
            if !edges.is_empty() {
                let (a, b) = edges[rng.gen_range(0..edges.len())];
                let target = p.subgraph_of(groups[a as usize][0]);
                for &m in &groups[b as usize] {
                    p.assign(m, target);
                }
            }
        }
    }
}

#[test]
fn incremental_scoring_is_bit_identical_over_random_mutation_sequences() {
    for model in ["randwire-a", "resnet50"] {
        let g = cocco::graph::models::by_name(model).unwrap();
        let evaluator = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        let fits = |members: &[NodeId]| -> bool {
            evaluator
                .subgraph_stats(members)
                .is_ok_and(|s| buffer.fits(s.act_footprint_bytes, s.wgt_resident_bytes))
        };

        let mut rng = StdRng::seed_from_u64(0xDE17A);
        let mut partition = repair(&g, Partition::connected_groups(&g, 4), &fits);
        let scored = engine.score_partition(&evaluator, &partition, &buffer, options);
        assert!(!scored.error, "{model}: seed partition must score");

        let term_hits = || engine.metrics().counter("engine.cache.subgraph.hits");
        let before = term_hits();
        for step in 0..60 {
            // Mutate (1-3 edits), repair, then score through the engine's
            // caches and compare against the whole-partition evaluator,
            // bit for bit.
            for _ in 0..rng.gen_range(1..=3u32) {
                random_edit(&g, &mut partition, &mut rng);
            }
            partition = repair(&g, partition, &fits);
            let cached = engine.score_partition(&evaluator, &partition, &buffer, options);
            let full = evaluator
                .eval_partition(&partition.subgraphs(), &buffer, options)
                .unwrap();
            assert_eq!(
                cached.ema_bytes, full.ema_bytes,
                "{model} step {step}: EMA diverged"
            );
            assert_eq!(
                cached.energy_pj, full.energy_pj,
                "{model} step {step}: energy diverged (must be bit-identical)"
            );
            assert_eq!(cached.fits, full.fits, "{model} step {step}: fits diverged");
        }
        assert!(
            term_hits() > before,
            "{model}: the walk never hit a cached term — untouched subgraphs were re-scored"
        );
    }
}

/// Runs one seeded search on resnet50 under an explicit engine
/// configuration and returns everything determinism is judged on.
fn resnet_run(
    method: SearchMethod,
    engine: EngineConfig,
) -> (f64, Option<Genome>, Vec<TracePoint>, MetricsSnapshot) {
    let g = cocco::graph::models::resnet50();
    let evaluator = Evaluator::new(&g, AcceleratorConfig::default());
    let ctx = SearchContext::new(
        &g,
        &evaluator,
        BufferSpace::paper_shared(),
        Objective::paper_energy_capacity(),
        400,
    )
    .with_engine(engine);
    let out = method.run(&ctx);
    (
        out.best_cost,
        out.best,
        ctx.trace().points(),
        ctx.engine().metrics(),
    )
}

#[test]
fn ga_sa_twostep_incremental_matches_full_path_at_any_thread_count() {
    // The acceptance criterion: seeded GA/SA/two-step runs on resnet50
    // produce a best cost equal to the whole-partition evaluator's score
    // of the best genome (the full-path oracle), and bit-identical best
    // cost, genome and trace at 1 and 4 threads.
    let g = cocco::graph::models::resnet50();
    let oracle = Evaluator::new(&g, AcceleratorConfig::default());
    let objective = Objective::paper_energy_capacity();
    for method in [
        SearchMethod::ga(),
        SearchMethod::sa(),
        SearchMethod::two_step(),
    ] {
        let name = method.name();
        let reference = resnet_run(method.clone().with_seed(17), EngineConfig::with_threads(1));
        let best = reference.1.as_ref().expect("a feasible best genome");
        let full = oracle
            .eval_partition(
                &best.partition.subgraphs(),
                &best.buffer,
                EvalOptions::default(),
            )
            .unwrap();
        let alpha = objective.alpha.expect("Formula 2");
        assert_eq!(
            reference.0.to_bits(),
            full.cost_formula2(objective.metric, alpha).to_bits(),
            "{name}: best cost diverged from the full-path oracle"
        );
        let parallel = resnet_run(method.clone().with_seed(17), EngineConfig::with_threads(4));
        assert_eq!(
            reference.0, parallel.0,
            "{name}: best cost diverged at 4 threads"
        );
        assert_eq!(
            reference.1, parallel.1,
            "{name}: best genome diverged at 4 threads"
        );
        assert_eq!(
            reference.2, parallel.2,
            "{name}: trace diverged at 4 threads"
        );
        assert_eq!(
            parallel.3.counter("engine.hot_allocs"),
            0,
            "{name}: the batch path allocated on the hot path"
        );
        // And the term cache answers untouched subgraphs on the
        // mutation-heavy searchers.
        assert!(
            reference.3.counter("engine.cache.subgraph.hits") > 0,
            "{name}: no cached subgraph term was ever hit"
        );
    }
}

#[test]
fn persistent_scoped_and_serial_pools_are_bit_identical() {
    // The pool-lifecycle determinism criterion: seeded GA and SA runs on
    // resnet50 produce bit-identical best cost, genome and trace through
    // the persistent worker pool at 1 and 4 threads and through plain
    // serial evaluation. The persistent pool is the only pool; the name
    // is kept from when a scoped pool was checked alongside it.
    for method in [SearchMethod::ga(), SearchMethod::sa()] {
        let name = method.name();
        let reference = resnet_run(method.clone().with_seed(29), EngineConfig::serial());
        for threads in [1u32, 4] {
            let run = resnet_run(
                method.clone().with_seed(29),
                EngineConfig::with_threads(threads),
            );
            assert_eq!(
                reference.0, run.0,
                "{name}: best cost diverged at {threads} threads"
            );
            assert_eq!(
                reference.1, run.1,
                "{name}: best genome diverged at {threads} threads"
            );
            assert_eq!(
                reference.2, run.2,
                "{name}: trace diverged at {threads} threads"
            );
            assert_eq!(
                run.3.counter("engine.hot_allocs"),
                0,
                "{name}: incremental path allocated on the hot path at {threads} threads"
            );
        }
    }
}

#[test]
fn delta_reuse_survives_dse_buffer_changes() {
    // A DSE mutation changes the buffer without touching the partition:
    // the buffer is part of every term's key, so the re-score is exact and
    // no term recorded under the old buffer answers a probe.
    let g = cocco::graph::models::googlenet();
    let evaluator = Evaluator::new(&g, AcceleratorConfig::default());
    let engine = Engine::new(EngineConfig::serial());
    let options = EvalOptions::default();
    let partition = repair(&g, Partition::connected_groups(&g, 3), &|_| true);
    let small = BufferConfig::shared(1 << 20);
    let large = BufferConfig::shared(2 << 20);
    engine.score_partition(&evaluator, &partition, &small, options);
    let scored = engine.score_partition(&evaluator, &partition, &large, options);
    let full = evaluator
        .eval_partition(&partition.subgraphs(), &large, options)
        .unwrap();
    assert_eq!(scored.energy_pj, full.energy_pj);
    assert_eq!(scored.ema_bytes, full.ema_bytes);
    assert_eq!(
        engine.metrics().counter("engine.cache.subgraph.hits"),
        0,
        "terms under another buffer must never be reused"
    );
}
