//! The method registry: every searcher of the crate behind one
//! serializable, seedable selector.
//!
//! [`SearchMethod`] is the method-agnostic entry point of the exploration
//! API: each variant carries the typed configuration of one search method,
//! and [`SearchMethod::run`] runs any of them the one way there is — the
//! method's [`SearchDriver`] stepped to completion on a [`SearchContext`]
//! (its budget, trace and engine).
//!
//! # Examples
//!
//! ```
//! use cocco_search::{BufferSpace, Objective, SearchContext, SearchMethod};
//! use cocco_sim::{AcceleratorConfig, Evaluator};
//!
//! let graph = cocco_graph::models::diamond();
//! let eval = Evaluator::new(&graph, AcceleratorConfig::default());
//! for method in SearchMethod::all() {
//!     let ctx = SearchContext::new(
//!         &graph,
//!         &eval,
//!         BufferSpace::paper_shared(),
//!         Objective::paper_energy_capacity(),
//!         300,
//!     );
//!     let name = method.name();
//!     let outcome = method.with_seed(7).run(&ctx);
//!     assert!(outcome.best.is_some(), "{name} found nothing");
//! }
//! ```

use crate::context::SearchContext;
use crate::dp::DepthDp;
use crate::driver::{run_driver, DriverState, SearchDriver};
use crate::exhaustive::{ExhaustiveDriver, ExhaustiveLimits};
use crate::ga::{GaConfig, GaDriver};
use crate::greedy::GreedyDriver;
use crate::outcome::SearchOutcome;
use crate::portfolio::{Portfolio, PortfolioDriver};
use crate::sa::{SaConfig, SaDriver};
use crate::twostep::{CapacitySampling, TwoStep, TwoStepDriver};
use serde::{Deserialize, Serialize};

/// Selects a search method together with its typed configuration.
///
/// Construct with the default-config constructors ([`ga`](SearchMethod::ga),
/// [`sa`](SearchMethod::sa), ...), by wrapping an explicit configuration in
/// the matching variant, or from a CLI key via
/// [`parse`](SearchMethod::parse).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SearchMethod {
    /// Genetic co-exploration — the paper's contribution (§4.3-§4.4).
    Ga(GaConfig),
    /// Simulated-annealing co-exploration baseline (§4.2.4).
    Sa(SaConfig),
    /// Halide-style greedy fusion baseline (§4.2.2). Deterministic,
    /// fixed hardware (see [`GreedyDriver`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use cocco_search::{BufferSpace, Objective, SearchContext, SearchMethod};
    /// use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, Evaluator};
    ///
    /// let g = cocco_graph::models::chain(4);
    /// let eval = Evaluator::new(&g, AcceleratorConfig::default());
    /// let ctx = SearchContext::new(
    ///     &g,
    ///     &eval,
    ///     BufferSpace::fixed(BufferConfig::shared(4 << 20)),
    ///     Objective::partition_only(CostMetric::Ema),
    ///     0, // greedy is analytic: it consumes no samples
    /// );
    /// let outcome = SearchMethod::Greedy.run(&ctx);
    /// assert_eq!(outcome.best.unwrap().partition.num_subgraphs(), 1);
    /// ```
    Greedy,
    /// Depth-ordered DP baseline, Irregular-NN (§4.2.3). Deterministic,
    /// fixed hardware.
    DepthDp(DepthDp),
    /// Exact downset enumeration (§4.2.1). Deterministic, fixed hardware;
    /// may report `completed = false` on large irregular graphs.
    Exhaustive(ExhaustiveLimits),
    /// Two-step capacity-then-partition scheme, RS+GA / GS+GA (§5.1.3).
    TwoStep(TwoStep),
    /// A portfolio of methods racing round-robin on one budget/engine
    /// (built on the step-driven [`SearchDriver`] surface).
    Portfolio(Portfolio),
}

impl SearchMethod {
    /// Genetic co-exploration with the default configuration.
    pub fn ga() -> Self {
        SearchMethod::Ga(GaConfig::default())
    }

    /// Simulated annealing with the default configuration.
    pub fn sa() -> Self {
        SearchMethod::Sa(SaConfig::default())
    }

    /// Greedy fusion.
    pub fn greedy() -> Self {
        SearchMethod::Greedy
    }

    /// Depth-ordered DP with the default run cap.
    pub fn depth_dp() -> Self {
        SearchMethod::DepthDp(DepthDp::default())
    }

    /// Exact enumeration with the default state/expansion limits.
    pub fn exhaustive() -> Self {
        SearchMethod::Exhaustive(ExhaustiveLimits::default())
    }

    /// Two-step scheme with random capacity sampling (RS+GA).
    pub fn two_step() -> Self {
        SearchMethod::TwoStep(TwoStep::random())
    }

    /// A default portfolio: the stochastic methods (GA, SA, two-step)
    /// racing best-at-exhaustion on one budget.
    pub fn portfolio() -> Self {
        SearchMethod::Portfolio(Portfolio::new(vec![
            Self::ga(),
            Self::sa(),
            Self::two_step(),
        ]))
    }

    /// One instance of every method, under default configurations
    /// (the order of the paper's method tables).
    pub fn all() -> Vec<SearchMethod> {
        vec![
            Self::greedy(),
            Self::depth_dp(),
            Self::exhaustive(),
            Self::sa(),
            Self::two_step(),
            Self::ga(),
        ]
    }

    /// The stable machine-readable key (`ga`, `sa`, `greedy`, `dp`,
    /// `exhaustive`, `twostep`) — what [`parse`](SearchMethod::parse)
    /// accepts and the CLI prints.
    pub fn key(&self) -> &'static str {
        match self {
            SearchMethod::Ga(_) => "ga",
            SearchMethod::Sa(_) => "sa",
            SearchMethod::Greedy => "greedy",
            SearchMethod::DepthDp(_) => "dp",
            SearchMethod::Exhaustive(_) => "exhaustive",
            SearchMethod::TwoStep(_) => "twostep",
            SearchMethod::Portfolio(_) => "portfolio",
        }
    }

    /// Builds a method (with default configuration) from its
    /// [`key`](SearchMethod::key). Returns `None` for unknown keys.
    pub fn parse(key: &str) -> Option<Self> {
        match key {
            "ga" => Some(Self::ga()),
            "sa" => Some(Self::sa()),
            "greedy" => Some(Self::greedy()),
            "dp" => Some(Self::depth_dp()),
            "exhaustive" => Some(Self::exhaustive()),
            "twostep" => Some(Self::two_step()),
            "portfolio" => Some(Self::portfolio()),
            _ => None,
        }
    }

    /// Re-seeds the method's RNG. A no-op for the deterministic methods
    /// (greedy, DP, enumeration).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        match &mut self {
            SearchMethod::Ga(cfg) => cfg.seed = seed,
            SearchMethod::Sa(cfg) => cfg.seed = seed,
            SearchMethod::TwoStep(cfg) => cfg.seed = seed,
            SearchMethod::Portfolio(cfg) => cfg.seed = seed,
            SearchMethod::Greedy | SearchMethod::DepthDp(_) | SearchMethod::Exhaustive(_) => {}
        }
        self
    }

    /// `true` when the method only works under a Formula-2 objective
    /// (currently the two-step scheme, whose first step scores capacity
    /// candidates by `BUF_SIZE + α·cost` — and any portfolio containing
    /// it).
    pub fn requires_formula2(&self) -> bool {
        match self {
            SearchMethod::TwoStep(_) => true,
            SearchMethod::Portfolio(cfg) => cfg.members.iter().any(Self::requires_formula2),
            _ => false,
        }
    }

    /// `true` when the method can explore a non-fixed buffer space. The
    /// deterministic baselines run on one fixed configuration (the paper's
    /// "cannot co-explore with DSE") — under a non-fixed space they pick
    /// the largest grid point.
    pub fn co_explores(&self) -> bool {
        match self {
            SearchMethod::Greedy | SearchMethod::DepthDp(_) | SearchMethod::Exhaustive(_) => false,
            SearchMethod::Portfolio(cfg) => cfg.members.iter().any(Self::co_explores),
            _ => true,
        }
    }

    /// A short display name (used in experiment tables).
    pub fn name(&self) -> &'static str {
        match self {
            SearchMethod::Ga(_) => "Cocco (GA)",
            SearchMethod::Sa(_) => "SA",
            SearchMethod::Greedy => "Halide (greedy)",
            SearchMethod::DepthDp(_) => "Irregular-NN (DP)",
            SearchMethod::Exhaustive(_) => "Enumeration",
            SearchMethod::TwoStep(cfg) => match cfg.sampling {
                CapacitySampling::Random => "RS+GA",
                CapacitySampling::Grid => "GS+GA",
            },
            SearchMethod::Portfolio(_) => "Portfolio",
        }
    }

    /// Runs the method against `ctx`, drawing from its budget and
    /// recording its trace: [`run_driver`] over [`driver`](Self::driver).
    pub fn run(&self, ctx: &SearchContext<'_>) -> SearchOutcome {
        run_driver(&mut *self.driver(), ctx)
    }

    /// Instantiates the method's resumable [`SearchDriver`] — the registry
    /// lookup ([`run`](Self::run) is a thin loop over this).
    pub fn driver(&self) -> Box<dyn SearchDriver> {
        match self {
            SearchMethod::Ga(cfg) => Box::new(GaDriver::new(cfg.clone())),
            SearchMethod::Sa(cfg) => Box::new(SaDriver::new(*cfg)),
            SearchMethod::Greedy => Box::<GreedyDriver>::default(),
            SearchMethod::DepthDp(cfg) => Box::new(cfg.driver()),
            SearchMethod::Exhaustive(limits) => Box::new(ExhaustiveDriver::new(*limits)),
            SearchMethod::TwoStep(cfg) => Box::new(cfg.driver()),
            SearchMethod::Portfolio(cfg) => Box::new(cfg.driver()),
        }
    }

    /// Resumes a driver from a serialized [`DriverState`]. Returns `None`
    /// when the state does not belong to this method (e.g. a checkpoint
    /// written by a different method or portfolio shape).
    pub fn driver_from_state(&self, state: &DriverState) -> Option<Box<dyn SearchDriver>> {
        match (self, state) {
            (SearchMethod::Ga(cfg), DriverState::Ga(s)) => {
                Some(Box::new(GaDriver::from_state(cfg.clone(), s.clone())))
            }
            (SearchMethod::Sa(cfg), DriverState::Sa(s)) => {
                Some(Box::new(SaDriver::from_state(*cfg, s.clone())))
            }
            (SearchMethod::Greedy, DriverState::Greedy(s)) => {
                Some(Box::new(GreedyDriver::from_state(s.clone())))
            }
            (SearchMethod::DepthDp(cfg), DriverState::DepthDp(s)) => Some(Box::new(
                crate::dp::DpDriver::from_state(cfg.clone(), s.clone()),
            )),
            (SearchMethod::Exhaustive(limits), DriverState::Exhaustive(s)) => {
                Some(Box::new(ExhaustiveDriver::from_state(*limits, s.clone())))
            }
            (SearchMethod::TwoStep(cfg), DriverState::TwoStep(s)) => {
                Some(Box::new(TwoStepDriver::from_state(cfg.clone(), s.clone())))
            }
            (SearchMethod::Portfolio(cfg), DriverState::Portfolio(s)) => {
                PortfolioDriver::from_state(cfg.clone(), s.clone())
                    .map(|d| Box::new(d) as Box<dyn SearchDriver>)
            }
            _ => None,
        }
    }
}

impl Default for SearchMethod {
    /// The paper's default engine: the genetic algorithm.
    fn default() -> Self {
        Self::ga()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{BufferSpace, Objective};
    use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, Evaluator};

    #[test]
    fn keys_round_trip() {
        for method in SearchMethod::all() {
            let parsed = SearchMethod::parse(method.key()).unwrap();
            assert_eq!(parsed.key(), method.key());
            assert_eq!(parsed, method, "parse must yield the default config");
        }
        assert!(SearchMethod::parse("annealing").is_none());
    }

    #[test]
    fn names_match_underlying_searchers() {
        for method in SearchMethod::all() {
            assert_eq!(method.name(), method.driver().name());
        }
    }

    #[test]
    fn with_seed_reaches_the_inner_config() {
        let SearchMethod::Ga(cfg) = SearchMethod::ga().with_seed(99) else {
            panic!("variant changed");
        };
        assert_eq!(cfg.seed, 99);
        let SearchMethod::TwoStep(ts) = SearchMethod::two_step().with_seed(5) else {
            panic!("variant changed");
        };
        assert_eq!(ts.seed, 5);
        // No-op on deterministic methods, but still returns the method.
        assert_eq!(SearchMethod::greedy().with_seed(1), SearchMethod::greedy());
    }

    #[test]
    fn serde_round_trip_preserves_configs() {
        use serde::{Deserialize, Serialize};
        let ga = GaConfig {
            population: 37,
            ..GaConfig::default()
        };
        let methods = vec![
            SearchMethod::Ga(ga),
            SearchMethod::sa().with_seed(11),
            SearchMethod::greedy(),
            SearchMethod::depth_dp(),
            SearchMethod::exhaustive(),
            SearchMethod::two_step(),
        ];
        for method in methods {
            let value = method.to_value();
            let back = SearchMethod::from_value(&value).unwrap();
            assert_eq!(back, method);
        }
    }

    #[test]
    fn fixed_space_methods_still_run_on_fixed_spaces() {
        let graph = cocco_graph::models::chain(4);
        let eval = Evaluator::new(&graph, AcceleratorConfig::default());
        for method in [
            SearchMethod::greedy(),
            SearchMethod::depth_dp(),
            // A zero run cap reads as 1, not as "nothing fits".
            SearchMethod::DepthDp(DepthDp { max_run: 0 }),
            SearchMethod::exhaustive(),
        ] {
            assert!(!method.co_explores());
            let ctx = SearchContext::new(
                &graph,
                &eval,
                BufferSpace::fixed(BufferConfig::shared(8 << 20)),
                Objective::partition_only(CostMetric::Ema),
                0,
            );
            let outcome = method.run(&ctx);
            assert!(outcome.best.is_some(), "{}", method.name());
        }
    }
}
