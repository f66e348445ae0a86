//! Property-style tests over randomly generated DAGs and partitions.
//!
//! The offline toolchain has no `proptest`, so each property runs over a
//! fixed number of seeded random cases (deterministic, reproducible): the
//! case generator below mirrors the shapes a proptest strategy would
//! produce.

use cocco::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of random cases per property.
const CASES: u64 = 48;

/// A random shape-preserving irregular DAG: every tensor is 32×32×16, so
/// element-wise joins are legal anywhere and the generator can wire skips
/// freely (the RandWire spirit, minus channel bookkeeping).
fn random_dag(ops: Vec<(u8, usize, usize)>) -> cocco::graph::Graph {
    let mut b = GraphBuilder::new("prop");
    let mut nodes = vec![b.input(TensorShape::new(32, 32, 16))];
    for (i, (kind, a, c)) in ops.into_iter().enumerate() {
        let pick = |idx: usize| nodes[idx % nodes.len()];
        let node = match kind % 4 {
            0 => b
                .conv(format!("c{i}"), pick(a), 16, Kernel::square_same(3, 1))
                .unwrap(),
            1 => b
                .conv(format!("p{i}"), pick(a), 16, Kernel::pointwise())
                .unwrap(),
            2 => b
                .pool(format!("q{i}"), pick(a), Kernel::square_same(3, 1))
                .unwrap(),
            _ => {
                let x = pick(a);
                let y = pick(c);
                if x == y {
                    b.conv(format!("e{i}"), x, 16, Kernel::square_same(3, 1))
                        .unwrap()
                } else {
                    b.eltwise(format!("e{i}"), &[x, y]).unwrap()
                }
            }
        };
        nodes.push(node);
    }
    b.finish().unwrap()
}

/// Draws a random DAG of 3..24 operators (as the proptest strategy did).
fn draw_dag(rng: &mut StdRng) -> cocco::graph::Graph {
    let n = rng.gen_range(3..24usize);
    let ops = (0..n)
        .map(|_| {
            (
                rng.gen::<u8>(),
                rng.gen_range(0..64usize),
                rng.gen_range(0..64usize),
            )
        })
        .collect();
    random_dag(ops)
}

/// Draws a 64-entry random assignment pool with ids below `k`.
fn draw_ids(rng: &mut StdRng, k: u32) -> Vec<u32> {
    (0..64).map(|_| rng.gen_range(0..k)).collect()
}

/// Repair always produces a valid partition from arbitrary assignments.
#[test]
fn repair_always_valid() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_0000 + case);
        let graph = draw_dag(&mut rng);
        let ids = draw_ids(&mut rng, 8);
        let assignment: Vec<u32> = (0..graph.len()).map(|i| ids[i % ids.len()]).collect();
        let repaired = repair(&graph, Partition::from_assignment(assignment), &|m| {
            m.len() <= 6
        });
        assert!(repaired.validate(&graph).is_ok(), "case {case}");
        assert!(
            repaired.subgraphs().iter().all(|m| m.len() <= 6),
            "case {case}: oversized subgraph survived repair"
        );
    }
}

/// Canonicalization is idempotent.
#[test]
fn canonicalize_idempotent() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_1000 + case);
        let graph = draw_dag(&mut rng);
        let ids = draw_ids(&mut rng, 8);
        let assignment: Vec<u32> = (0..graph.len()).map(|i| ids[i % ids.len()]).collect();
        let mut p = repair(&graph, Partition::from_assignment(assignment), &|_| true);
        let once = p.clone();
        p.canonicalize(&graph);
        assert_eq!(once, p, "case {case}");
    }
}

/// Tiling invariants: `x ≥ Δ`, divisibility of `Δ(u)/s(v)` on exact
/// non-full nodes, and bounded overlap.
#[test]
fn tiling_invariants() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_2000 + case);
        let graph = draw_dag(&mut rng);
        let members: Vec<_> = graph.node_ids().collect();
        let scheme = derive_scheme(&graph, &members, &Mapper::default()).unwrap();
        for (id, s) in scheme.iter() {
            assert!(s.tile.h >= s.delta.h, "case {case}");
            assert!(s.tile.w >= s.delta.w, "case {case}");
            let shape = graph.node(id).out_shape();
            assert!(s.tile.h <= shape.h && s.tile.w <= shape.w, "case {case}");
            if scheme.exact_upd() && !s.full_h {
                for &v in graph.consumers(id) {
                    if scheme.get(v).is_none() {
                        continue;
                    }
                    if let cocco::graph::EdgeReq::Sliding(k) = graph.edge_req(id, v) {
                        assert_eq!(s.delta.h % k.stride.h.max(1), 0, "case {case}");
                    }
                }
            }
        }
    }
}

/// Growing a subgraph never shrinks its activation footprint.
#[test]
fn footprint_monotone_on_prefixes() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_3000 + case);
        let graph = draw_dag(&mut rng);
        let eval = Evaluator::new(&graph, AcceleratorConfig::default());
        let ids: Vec<_> = graph.node_ids().collect();
        let mut previous = 0u64;
        for take in 1..=ids.len() {
            let members = &ids[..take];
            let stats = eval.subgraph_stats(members).unwrap();
            assert!(
                stats.act_footprint_bytes >= previous,
                "case {case}: footprint shrank at {take}: {} < {previous}",
                stats.act_footprint_bytes,
            );
            previous = stats.act_footprint_bytes;
        }
    }
}

/// EMA of any repaired partition respects the floor.
#[test]
fn ema_floor() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_4000 + case);
        let graph = draw_dag(&mut rng);
        let eval = Evaluator::new(&graph, AcceleratorConfig::default());
        let ids = draw_ids(&mut rng, 6);
        let assignment: Vec<u32> = (0..graph.len()).map(|i| ids[i % ids.len()]).collect();
        let p = repair(&graph, Partition::from_assignment(assignment), &|_| true);
        let buffer = BufferConfig::shared(64 << 20);
        let report = eval
            .eval_partition(&p.subgraphs(), &buffer, EvalOptions::default())
            .unwrap();
        let floor: u64 = graph.total_weight_elements()
            + graph
                .input_ids()
                .iter()
                .map(|&i| graph.out_elements(i))
                .sum::<u64>()
            + graph
                .output_ids()
                .iter()
                .map(|&o| graph.out_elements(o))
                .sum::<u64>();
        assert!(report.ema_bytes >= floor, "case {case}");
    }
}

/// Subgraph statistics do not depend on member order.
#[test]
fn stats_order_independent() {
    use rand::seq::SliceRandom;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_5000 + case);
        let graph = draw_dag(&mut rng);
        let eval = Evaluator::new(&graph, AcceleratorConfig::default());
        let mut members: Vec<_> = graph.node_ids().collect();
        let a = eval.subgraph_stats(&members).unwrap();
        members.shuffle(&mut rng);
        let b = eval.subgraph_stats(&members).unwrap();
        assert_eq!(a, b, "case {case}");
    }
}

/// The GA honours any sample budget exactly.
#[test]
fn ga_budget_exact() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5EED_6000 + case);
        let budget = rng.gen_range(1u64..120);
        let graph = cocco::graph::models::diamond();
        let eval = Evaluator::new(&graph, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            &graph,
            &eval,
            BufferSpace::paper_shared(),
            Objective::paper_energy_capacity(),
            budget,
        );
        let out = SearchMethod::Ga(GaConfig {
            population: 8,
            ..GaConfig::default()
        })
        .with_seed(1)
        .run(&ctx);
        assert_eq!(out.samples, budget, "case {case}");
        assert_eq!(ctx.budget().used(), budget, "case {case}");
    }
}
