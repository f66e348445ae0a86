//! Depth-ordered dynamic-programming baseline (Irregular-NN, paper §4.2.3).

use crate::context::SearchContext;
use crate::driver::{DriverState, EvalBatch, SearchDriver, Step};
use crate::genome::Genome;
use crate::outcome::SearchOutcome;
use cocco_graph::NodeId;
use cocco_partition::Partition;
use serde::{Deserialize, Serialize};

/// The DP baseline of Zheng et al.: layers are arranged by depth and a
/// classic chain DP assigns *contiguous runs of that order* to subgraphs.
///
/// The contiguity restriction is what the paper criticizes: the search space
/// is constrained, so non-plain structures rarely reach the global optimum,
/// and the state transition depends on a fixed buffer size, so the method
/// cannot co-explore hardware.
///
/// # Examples
///
/// ```
/// use cocco_search::{BufferSpace, DepthDp, Objective, SearchContext, SearchMethod};
/// use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, Evaluator};
///
/// let g = cocco_graph::models::chain(5);
/// let eval = Evaluator::new(&g, AcceleratorConfig::default());
/// let ctx = SearchContext::new(
///     &g,
///     &eval,
///     BufferSpace::fixed(BufferConfig::shared(8 << 20)),
///     Objective::partition_only(CostMetric::Ema),
///     0,
/// );
/// let outcome = SearchMethod::DepthDp(DepthDp::default()).run(&ctx);
/// // On a plain chain with a large buffer the DP is optimal: one subgraph.
/// assert_eq!(outcome.best.unwrap().partition.num_subgraphs(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepthDp {
    /// Longest run of the depth order considered as one subgraph (bounds
    /// the O(N·K) transition count; the region manager caps useful sizes
    /// anyway). 0 reads as 1.
    pub max_run: usize,
}

impl Default for DepthDp {
    fn default() -> Self {
        Self { max_run: 128 }
    }
}

impl DepthDp {
    /// The DP as a resumable [`SearchDriver`] (one table row per step).
    pub fn driver(&self) -> DpDriver {
        DpDriver {
            config: self.clone(),
            dp: Vec::new(),
            back: Vec::new(),
            row: 0,
            order: Vec::new(),
            done: false,
            outcome: SearchOutcome::empty(),
        }
    }

    /// The depth order (ties by id) — the "arrange the layers based on
    /// their depth" step. Recomputed deterministically from the graph, so
    /// it never travels in a snapshot.
    fn depth_order(graph: &cocco_graph::Graph) -> Vec<usize> {
        let depths = graph.depths();
        let mut order: Vec<usize> = (0..graph.len()).collect();
        order.sort_by_key(|&i| (depths[i], i));
        order
    }
}

/// Serializable state of a [`DpDriver`]: the DP table so far (infinite
/// costs round-trip exactly), back-pointers, and the next row to fill.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DpState {
    dp: Vec<f64>,
    back: Vec<u64>,
    row: u64,
    done: bool,
    outcome: SearchOutcome,
}

/// The depth-ordered chain DP as a step-driven state machine: each step
/// fills one row of the table (`dp[i]` = best cost covering the first `i`
/// nodes of the depth order); the final step reconstructs and scores the
/// run boundaries. Analytic: no step consumes budget.
#[derive(Debug)]
pub struct DpDriver {
    config: DepthDp,
    dp: Vec<f64>,
    back: Vec<usize>,
    /// Next row to fill (`0` = table not yet initialized).
    row: usize,
    /// The depth order, derived once per driver (deterministic from the
    /// graph, so it never travels in a snapshot; rebuilt lazily on
    /// resume).
    order: Vec<usize>,
    done: bool,
    outcome: SearchOutcome,
}

impl DpDriver {
    /// Resumes a driver from a serialized state.
    pub fn from_state(config: DepthDp, state: DpState) -> Self {
        Self {
            config,
            dp: state.dp,
            back: state
                .back
                .into_iter()
                .map(|b| usize::try_from(b).unwrap_or(usize::MAX))
                .collect(),
            row: state.row as usize,
            order: Vec::new(),
            done: state.done,
            outcome: state.outcome,
        }
    }
}

impl SearchDriver for DpDriver {
    fn name(&self) -> &'static str {
        "Irregular-NN (DP)"
    }

    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Step {
        if self.done {
            return Step::Done;
        }
        let graph = ctx.graph();
        let buffer = ctx.space.largest();
        let n = graph.len();
        if self.row == 0 {
            // dp[i]: best cost covering the first i nodes of the order.
            self.dp = vec![f64::INFINITY; n + 1];
            self.back = vec![usize::MAX; n + 1];
            self.dp[0] = 0.0;
            self.row = 1;
            return Step::Continue;
        }
        if self.order.is_empty() {
            self.order = DepthDp::depth_order(graph);
        }
        let order = &self.order;
        if self.row <= n {
            let i = self.row;
            let lo = i.saturating_sub(self.config.max_run.max(1));
            for j in (lo..i).rev() {
                if !self.dp[j].is_finite() {
                    continue;
                }
                let members: Vec<NodeId> =
                    order[j..i].iter().map(|&k| NodeId::from_index(k)).collect();
                if !graph.is_connected_subset(&members) {
                    continue;
                }
                let Some(cost) = ctx.subgraph_cost(&members, &buffer) else {
                    // Weights grow monotonically with the run: once a run
                    // stops fitting, longer runs cannot fit either.
                    break;
                };
                if self.dp[j] + cost < self.dp[i] {
                    self.dp[i] = self.dp[j] + cost;
                    self.back[i] = j;
                }
            }
            self.row += 1;
            return Step::Continue;
        }
        // Table complete: reconstruct the run boundaries and score.
        self.done = true;
        if !self.dp[n].is_finite() {
            return Step::Done;
        }
        let mut assignment = vec![0u32; n];
        let mut i = n;
        let mut sg = 0u32;
        let mut cuts = Vec::new();
        while i > 0 {
            let j = self.back[i];
            cuts.push((j, i));
            i = j;
        }
        cuts.reverse();
        for (j, i) in cuts {
            for &k in &order[j..i] {
                assignment[k] = sg;
            }
            sg += 1;
        }
        let mut partition = Partition::from_assignment(assignment);
        partition.canonicalize(graph);
        let cost = ctx.partition_cost(&partition, &buffer);
        self.outcome.consider(Genome::new(partition, buffer), cost);
        Step::Done
    }

    fn absorb(&mut self, _ctx: &SearchContext<'_>, _batch: EvalBatch) {}

    fn outcome(&self) -> SearchOutcome {
        self.outcome.clone()
    }

    fn state(&self) -> DriverState {
        DriverState::DepthDp(DpState {
            dp: self.dp.clone(),
            back: self.back.iter().map(|&b| b as u64).collect(),
            row: self.row as u64,
            done: self.done,
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

    fn run_on(graph: &cocco_graph::Graph, buffer: BufferConfig) -> SearchOutcome {
        let eval = Evaluator::new(graph, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            graph,
            &eval,
            BufferSpace::fixed(buffer),
            Objective::partition_only(CostMetric::Ema),
            0,
        );
        SearchMethod::depth_dp().run(&ctx)
    }

    #[test]
    fn optimal_on_chains() {
        // For plain chains the contiguity restriction is harmless: DP
        // should find the unfused-weights floor with a big buffer.
        let g = cocco_graph::models::chain(8);
        let out = run_on(&g, BufferConfig::shared(8 << 20));
        let floor = g.total_weight_elements()
            + g.out_elements(g.input_ids()[0])
            + g.out_elements(g.output_ids()[0]);
        assert_eq!(out.best_cost, floor as f64);
    }

    #[test]
    fn result_is_valid_on_branchy_models() {
        for model in ["resnet50", "googlenet", "randwire-a"] {
            let g = cocco_graph::models::by_name(model).unwrap();
            let out = run_on(&g, BufferConfig::separate(1 << 20, 1152 << 10));
            let best = out.best.expect(model);
            assert!(best.partition.validate(&g).is_ok(), "{model}");
        }
    }

    #[test]
    fn subgraphs_are_contiguous_depth_runs() {
        let g = cocco_graph::models::resnet50();
        let out = run_on(&g, BufferConfig::separate(1 << 20, 1152 << 10));
        let best = out.best.unwrap();
        // Depth rank per node.
        let depths = g.depths();
        let mut order: Vec<usize> = (0..g.len()).collect();
        order.sort_by_key(|&i| (depths[i], i));
        let mut rank = vec![0usize; g.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }
        for members in best.partition.subgraphs() {
            let mut ranks: Vec<usize> = members.iter().map(|m| rank[m.index()]).collect();
            ranks.sort_unstable();
            assert!(
                ranks.windows(2).all(|w| w[1] == w[0] + 1),
                "non-contiguous run {ranks:?}"
            );
        }
    }

    #[test]
    fn infeasible_when_nothing_fits() {
        let g = cocco_graph::models::chain(3);
        let out = run_on(&g, BufferConfig::shared(16));
        assert!(out.best.is_none());
        assert!(out.best_cost.is_infinite());
    }
}
