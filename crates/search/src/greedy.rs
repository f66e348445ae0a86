//! Halide-style greedy fusion baseline (paper §4.2.2).

use crate::context::SearchContext;
use crate::driver::{DriverState, EvalBatch, SearchDriver, Step};
use crate::genome::Genome;
use crate::outcome::SearchOutcome;
use cocco_partition::{Partition, Quotient};
use serde::{Deserialize, Serialize};

/// Serializable state of a [`GreedyDriver`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GreedyState {
    /// Current assignment (`None` until the first step ran).
    assignment: Option<Vec<u32>>,
    done: bool,
    outcome: SearchOutcome,
}

/// Greedy grouping as in Halide's auto-scheduler: start from one subgraph
/// per layer, then repeatedly apply the feasible merge (across a quotient
/// edge) with the greatest cost benefit until every remaining benefit is
/// negative.
///
/// The method is deterministic, runs on a fixed hardware configuration
/// (paper: "the greedy method cannot co-explore with DSE") and tends to be
/// trapped in local minima — exactly the behaviours the paper compares
/// Cocco against.
///
/// As a step-driven state machine, each step applies the one feasible
/// merge with the greatest benefit (a full scan, shared with the engine's
/// term cache, so re-scans are cheap); the final step scores the converged
/// partition. Analytic: no step consumes budget.
#[derive(Debug)]
pub struct GreedyDriver {
    partition: Option<Partition>,
    outcome: SearchOutcome,
    done: bool,
}

impl Default for GreedyDriver {
    fn default() -> Self {
        Self {
            partition: None,
            outcome: SearchOutcome::empty(),
            done: false,
        }
    }
}

impl GreedyDriver {
    /// Resumes a driver from a serialized state.
    pub fn from_state(state: GreedyState) -> Self {
        Self {
            partition: state.assignment.map(Partition::from_assignment),
            outcome: state.outcome,
            done: state.done,
        }
    }
}

impl SearchDriver for GreedyDriver {
    fn name(&self) -> &'static str {
        "Halide (greedy)"
    }

    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Step {
        if self.done {
            return Step::Done;
        }
        let graph = ctx.graph();
        let buffer = ctx.space.largest();
        let mut partition = self
            .partition
            .take()
            .unwrap_or_else(|| Partition::singletons(graph.len()));
        // Per-subgraph additive cost; infinity when a subgraph cannot fit.
        let cost_of = |members: &[cocco_graph::NodeId]| -> f64 {
            ctx.subgraph_cost(members, &buffer).unwrap_or(f64::INFINITY)
        };
        let groups = partition.subgraphs();
        let group_cost: Vec<f64> = groups.iter().map(|m| cost_of(m)).collect();
        let quotient = Quotient::build(graph, &partition);
        let mut best: Option<(f64, u32, u32)> = None; // (benefit, a, b)
        for a in 0..quotient.num_subgraphs() as u32 {
            for &b in quotient.succs(a) {
                // Merging across edge a->b is legal iff no alternative
                // path a ⇝ b exists (it would close a cycle).
                if has_indirect_path(&quotient, a, b) {
                    continue;
                }
                let mut merged: Vec<cocco_graph::NodeId> = groups[a as usize]
                    .iter()
                    .chain(groups[b as usize].iter())
                    .copied()
                    .collect();
                merged.sort_unstable();
                let Some(merged_cost) = ctx.subgraph_cost(&merged, &buffer) else {
                    continue; // does not fit
                };
                let benefit = group_cost[a as usize] + group_cost[b as usize] - merged_cost;
                if benefit > 0.0 && best.is_none_or(|(bb, _, _)| benefit > bb) {
                    best = Some((benefit, a, b));
                }
            }
        }
        match best {
            Some((_, a, b)) => {
                // Relabel b's members into a's subgraph; another round next
                // step.
                let groups = partition.subgraphs();
                let target = partition.subgraph_of(groups[a as usize][0]);
                for &m in &groups[b as usize] {
                    partition.assign(m, target);
                }
                self.partition = Some(partition);
                Step::Continue
            }
            None => {
                // Converged: score the result.
                partition.canonicalize(graph);
                let cost = ctx.partition_cost(&partition, &buffer);
                self.outcome.consider(Genome::new(partition, buffer), cost);
                self.done = true;
                Step::Done
            }
        }
    }

    fn absorb(&mut self, _ctx: &SearchContext<'_>, _batch: EvalBatch) {}

    fn outcome(&self) -> SearchOutcome {
        self.outcome.clone()
    }

    fn state(&self) -> DriverState {
        DriverState::Greedy(GreedyState {
            assignment: self.partition.as_ref().map(|p| p.assignment().to_vec()),
            done: self.done,
            outcome: self.outcome.clone(),
        })
    }
}

/// Is there a path `a ⇝ b` in the quotient other than the direct edge?
fn has_indirect_path(quotient: &Quotient, a: u32, b: u32) -> bool {
    let mut seen = vec![false; quotient.num_subgraphs()];
    let mut stack: Vec<u32> = quotient
        .succs(a)
        .iter()
        .copied()
        .filter(|&s| s != b)
        .collect();
    for &s in &stack {
        seen[s as usize] = true;
    }
    while let Some(v) = stack.pop() {
        if v == b {
            return true;
        }
        for &s in quotient.succs(v) {
            if !seen[s as usize] {
                seen[s as usize] = true;
                stack.push(s);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::SearchMethod;
    use crate::objective::{BufferSpace, Objective};
    use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, Evaluator};

    fn run_on(graph: &cocco_graph::Graph, buffer: BufferConfig) -> (SearchOutcome, f64) {
        let eval = Evaluator::new(graph, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            graph,
            &eval,
            BufferSpace::fixed(buffer),
            Objective::partition_only(CostMetric::Ema),
            0,
        );
        let out = SearchMethod::greedy().run(&ctx);
        let singles_cost = {
            let p = Partition::singletons(graph.len());
            ctx.partition_cost(&p, &buffer)
        };
        (out, singles_cost)
    }

    #[test]
    fn never_worse_than_singletons() {
        for model in ["resnet50", "googlenet", "randwire-a"] {
            let g = cocco_graph::models::by_name(model).unwrap();
            let (out, singles) = run_on(&g, BufferConfig::separate(1 << 20, 1152 << 10));
            assert!(
                out.best_cost <= singles,
                "{model}: greedy {} > singletons {singles}",
                out.best_cost
            );
        }
    }

    #[test]
    fn result_is_valid() {
        let g = cocco_graph::models::googlenet();
        let (out, _) = run_on(&g, BufferConfig::separate(1 << 20, 1152 << 10));
        let best = out.best.unwrap();
        assert!(best.partition.validate(&g).is_ok());
    }

    #[test]
    fn merges_whole_chain_when_buffer_allows() {
        let g = cocco_graph::models::chain(6);
        let (out, _) = run_on(&g, BufferConfig::shared(8 << 20));
        assert_eq!(out.best.unwrap().partition.num_subgraphs(), 1);
    }

    #[test]
    fn respects_capacity() {
        let g = cocco_graph::models::chain(6);
        // Buffer large enough for ~2 layers' tiles only.
        let (out, _) = run_on(&g, BufferConfig::shared(4 << 10));
        let best = out.best.unwrap();
        for members in best.partition.subgraphs() {
            let eval = Evaluator::new(&g, AcceleratorConfig::default());
            let stats = eval.subgraph_stats(&members).unwrap();
            assert!(stats.act_footprint_bytes + stats.wgt_resident_bytes <= 4 << 10);
        }
    }

    #[test]
    fn indirect_path_detection() {
        // diamond quotient: a -> {l, r} -> add as 4 subgraphs.
        let g = cocco_graph::models::diamond();
        let p = Partition::from_assignment(vec![0, 0, 1, 2, 3]);
        let q = Quotient::build(&g, &p);
        // 0 -> 1 -> 3 and 0 -> 2 -> 3: merging 0 with 3 would close a
        // cycle; but that's not an edge. Check edge 0 -> 1: no indirect
        // path 0 ⇝ 1.
        assert!(!has_indirect_path(&q, 0, 1));
        // Edge 1 -> 3: no indirect path 1 ⇝ 3 (paths via 2 start at 0).
        assert!(!has_indirect_path(&q, 1, 3));
    }
}
