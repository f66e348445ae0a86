//! Portfolio search: N method drivers stepped round-robin against one
//! engine and one sample budget.
//!
//! The uniform [`SearchDriver`](crate::SearchDriver) step surface makes
//! method-level scheduling trivial: every round, each live member
//! contributes its next batch, the batches are dispatched to the engine
//! pool **together** (one dispatch, one shared memoization cache), and the
//! results are fed back member by member. Deterministic methods (greedy,
//! DP, enumeration) ride along for free — they consume no samples and
//! retire after their analytic steps.

use crate::context::SearchContext;
use crate::driver::{DriverState, EvalBatch, SearchDriver, Step};
use crate::method::SearchMethod;
use crate::outcome::SearchOutcome;
use serde::{Deserialize, Serialize};

/// When the portfolio stops.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PortfolioPolicy {
    /// Run every member until it finishes (or the shared budget runs
    /// out); report the best outcome across members.
    BestAtExhaustion,
    /// Stop the whole portfolio as soon as any member's best cost reaches
    /// the target (members that already finished keep their results).
    FirstToTarget(f64),
}

/// A portfolio of search methods racing on one budget/engine.
///
/// # Examples
///
/// ```
/// use cocco_search::{
///     BufferSpace, Objective, Portfolio, SearchContext, SearchMethod,
/// };
/// use cocco_sim::{AcceleratorConfig, Evaluator};
///
/// let g = cocco_graph::models::diamond();
/// let eval = Evaluator::new(&g, AcceleratorConfig::default());
/// let ctx = SearchContext::new(
///     &g,
///     &eval,
///     BufferSpace::paper_shared(),
///     Objective::paper_energy_capacity(),
///     400,
/// );
/// let portfolio = Portfolio::new(vec![SearchMethod::ga(), SearchMethod::sa()]);
/// let outcome = SearchMethod::Portfolio(portfolio).run(&ctx);
/// assert!(outcome.best.is_some());
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Portfolio {
    /// The racing methods (each with its own typed configuration).
    pub members: Vec<SearchMethod>,
    /// The stopping policy.
    pub policy: PortfolioPolicy,
    /// Base seed; member `i` is reseeded with `seed + i` at driver build,
    /// so members explore distinct trajectories under one session seed.
    pub seed: u64,
}

impl Portfolio {
    /// A best-at-exhaustion portfolio over `members`.
    pub fn new(members: Vec<SearchMethod>) -> Self {
        Self {
            members,
            policy: PortfolioPolicy::BestAtExhaustion,
            seed: 0xC0CC0,
        }
    }

    /// Stops as soon as any member reaches `target` cost.
    #[must_use]
    pub fn first_to_target(mut self, target: f64) -> Self {
        self.policy = PortfolioPolicy::FirstToTarget(target);
        self
    }

    /// The members with the portfolio's per-member seeds applied — the
    /// exact configurations both fresh builds and resumes use.
    fn seeded_members(&self) -> Vec<SearchMethod> {
        self.members
            .iter()
            .enumerate()
            .map(|(i, m)| m.clone().with_seed(self.seed.wrapping_add(i as u64)))
            .collect()
    }

    /// The portfolio as a resumable [`SearchDriver`].
    pub fn driver(&self) -> PortfolioDriver {
        PortfolioDriver {
            config: self.clone(),
            members: self
                .seeded_members()
                .iter()
                .map(|m| MemberSlot {
                    driver: m.driver(),
                    done: false,
                })
                .collect(),
            pending_map: Vec::new(),
            done: false,
            outcome: SearchOutcome::empty(),
        }
    }
}

/// One serialized portfolio member.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct PortfolioMemberState {
    state: DriverState,
    done: bool,
}

/// Serializable state of a [`PortfolioDriver`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PortfolioState {
    members: Vec<PortfolioMemberState>,
    done: bool,
    outcome: SearchOutcome,
}

struct MemberSlot {
    driver: Box<dyn SearchDriver>,
    done: bool,
}

impl std::fmt::Debug for MemberSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemberSlot")
            .field("name", &self.driver.name())
            .field("done", &self.done)
            .finish()
    }
}

/// The portfolio meta-driver: steps every live member once per round and
/// merges their batches into one engine dispatch.
#[derive(Debug)]
pub struct PortfolioDriver {
    config: Portfolio,
    members: Vec<MemberSlot>,
    /// Chunk distribution of the in-flight batch: `(member, chunk count)`.
    pending_map: Vec<(usize, usize)>,
    done: bool,
    outcome: SearchOutcome,
}

impl PortfolioDriver {
    /// Resumes a driver from a serialized state. Returns `None` when the
    /// member states don't match the configured methods (a checkpoint
    /// from a different portfolio).
    pub fn from_state(config: Portfolio, state: PortfolioState) -> Option<Self> {
        let seeded = config.seeded_members();
        if seeded.len() != state.members.len() {
            return None;
        }
        let mut members = Vec::with_capacity(seeded.len());
        for (method, member) in seeded.iter().zip(state.members) {
            members.push(MemberSlot {
                driver: method.driver_from_state(&member.state)?,
                done: member.done,
            });
        }
        Some(Self {
            config,
            members,
            pending_map: Vec::new(),
            done: state.done,
            outcome: state.outcome,
        })
    }

    /// Merges a member's best-so-far into the portfolio outcome and
    /// refreshes the sample tally (members keep their own counts).
    fn refresh_outcome(&mut self) {
        let mut samples = 0;
        let mut completed = true;
        for member in &self.members {
            let sub = member.driver.outcome();
            samples += sub.samples;
            if member.done {
                completed &= sub.completed;
            }
            if let Some(best) = sub.best {
                self.outcome.consider(best, sub.best_cost);
            }
        }
        self.outcome.samples = samples;
        self.outcome.completed = completed;
    }

    /// `true` when the stopping policy is satisfied.
    fn target_reached(&self) -> bool {
        match self.config.policy {
            PortfolioPolicy::BestAtExhaustion => false,
            PortfolioPolicy::FirstToTarget(target) => self.outcome.best_cost <= target,
        }
    }
}

impl SearchDriver for PortfolioDriver {
    fn name(&self) -> &'static str {
        "Portfolio"
    }

    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Step {
        if self.done {
            return Step::Done;
        }
        if self.target_reached() || self.members.iter().all(|m| m.done) {
            self.refresh_outcome();
            self.done = true;
            return Step::Done;
        }
        let mut batch = EvalBatch::default();
        self.pending_map.clear();
        for mi in 0..self.members.len() {
            if self.members[mi].done {
                continue;
            }
            match self.members[mi].driver.next_batch(ctx) {
                Step::Evaluate(member_batch) => {
                    let count = member_batch.chunks.len();
                    batch.chunks.extend(member_batch.chunks);
                    self.pending_map.push((mi, count));
                }
                Step::Continue => {}
                Step::Done => self.members[mi].done = true,
            }
        }
        self.refresh_outcome();
        if batch.chunks.is_empty() {
            return Step::Continue;
        }
        Step::Evaluate(batch)
    }

    fn absorb(&mut self, ctx: &SearchContext<'_>, batch: EvalBatch) {
        let mut chunks = batch.chunks.into_iter();
        let map = std::mem::take(&mut self.pending_map);
        for (mi, count) in map {
            let member_batch = EvalBatch {
                chunks: chunks.by_ref().take(count).collect(),
            };
            self.members[mi].driver.absorb(ctx, member_batch);
        }
        self.refresh_outcome();
    }

    fn outcome(&self) -> SearchOutcome {
        self.outcome.clone()
    }

    fn state(&self) -> DriverState {
        DriverState::Portfolio(PortfolioState {
            members: self
                .members
                .iter()
                .map(|m| PortfolioMemberState {
                    state: m.driver.state(),
                    done: m.done,
                })
                .collect(),
            done: self.done,
            outcome: self.outcome.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{BufferSpace, Objective};
    use cocco_sim::{AcceleratorConfig, Evaluator};

    fn ctx<'a>(
        g: &'a cocco_graph::Graph,
        eval: &'a Evaluator<'a>,
        budget: u64,
    ) -> SearchContext<'a> {
        SearchContext::new(
            g,
            eval,
            BufferSpace::paper_shared(),
            Objective::paper_energy_capacity(),
            budget,
        )
    }

    #[test]
    fn portfolio_is_at_least_as_good_as_each_member_alone_on_shared_budget() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let portfolio = Portfolio::new(vec![
            SearchMethod::greedy(),
            SearchMethod::ga(),
            SearchMethod::sa(),
        ]);
        let out = SearchMethod::Portfolio(portfolio)
            .with_seed(7)
            .run(&ctx(&g, &eval, 400));
        let best = out.best.expect("portfolio found nothing");
        assert!(best.partition.validate(&g).is_ok());
        // Greedy alone (it consumes no samples) can never beat the
        // portfolio that contains it.
        let greedy_ctx = ctx(&g, &eval, 0);
        let greedy = SearchMethod::greedy().run(&greedy_ctx);
        assert!(out.best_cost <= greedy.best_cost);
        assert!(out.samples <= 400);
    }

    #[test]
    fn first_to_target_stops_early() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        // An infinite-cost target is reached by the first finite solution:
        // the portfolio must stop long before the budget is drained.
        let portfolio =
            Portfolio::new(vec![SearchMethod::ga(), SearchMethod::sa()]).first_to_target(f64::MAX);
        let out = SearchMethod::Portfolio(portfolio)
            .with_seed(3)
            .run(&ctx(&g, &eval, 100_000));
        assert!(out.best.is_some());
        assert!(
            out.samples < 100_000,
            "first-to-target must stop before exhaustion ({} samples)",
            out.samples
        );
    }

    #[test]
    fn first_to_target_sees_two_step_bests_mid_run() {
        // Regression: TwoStepDriver::outcome() must surface live inner
        // GAs' bests (not only folded slots), or a first-to-target
        // portfolio over a two-step member burns the whole budget.
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let member = SearchMethod::TwoStep(crate::TwoStep::random().with_per_candidate(2_000));
        let portfolio = Portfolio::new(vec![member]).first_to_target(f64::MAX);
        let out = SearchMethod::Portfolio(portfolio)
            .with_seed(6)
            .run(&ctx(&g, &eval, 50_000));
        assert!(out.best.is_some());
        assert!(
            out.samples < 10_000,
            "the portfolio must stop as soon as an inner GA finds a finite design \
             ({} samples burned)",
            out.samples
        );
    }

    #[test]
    fn deterministic_and_thread_invariant() {
        use cocco_engine::EngineConfig;
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let run = |threads: u32| {
            let ctx = ctx(&g, &eval, 300).with_engine(EngineConfig::with_threads(threads));
            let out = SearchMethod::Portfolio(Portfolio::new(vec![
                SearchMethod::ga(),
                SearchMethod::sa(),
            ]))
            .with_seed(11)
            .run(&ctx);
            (out.best_cost, out.best, out.samples, ctx.trace().points())
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel, "portfolio diverged across thread counts");
    }

    #[test]
    fn members_share_one_dispatch() {
        // Both stochastic members' chunks ride in one batch per round.
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = ctx(&g, &eval, 5_000);
        let mut driver =
            SearchMethod::Portfolio(Portfolio::new(vec![SearchMethod::ga(), SearchMethod::sa()]))
                .with_seed(1)
                .driver();
        // Round 1: GA seed population + SA seed state in one batch.
        let step = loop {
            match driver.next_batch(&ctx) {
                Step::Evaluate(batch) => break batch,
                Step::Continue => {}
                Step::Done => panic!("portfolio finished before evaluating"),
            }
        };
        assert_eq!(step.chunks.len(), 2, "one chunk per stochastic member");
        drop(step);
    }
}
