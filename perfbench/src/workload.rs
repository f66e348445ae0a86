//! The four benchmark workloads and the untraced, checked exploration.
//!
//! Every workload runs the paper's co-exploration setup (shared buffer
//! space, Formula-2 energy-capacity objective with α = 0.002, default
//! accelerator) through the public facade, [`Cocco::explore`]. Why each
//! workload exists is recorded on its [`Workload::why`] and in the crate's
//! README.

use cocco::engine::{CacheSnapshot, EvalCache};
use cocco::prelude::*;
use cocco::telemetry::Stopwatch;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Search method of a workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Method {
    /// The paper's genetic co-exploration (population 100).
    Ga,
    /// Simulated annealing (batches of 8 hinted neighbours).
    Sa,
}

/// Engine worker threads of a workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Threads {
    /// One worker: the pool is idle.
    One,
    /// The engine's automatic count: the host's CPUs, capped by the
    /// engine, so never more than `nproc`.
    Host,
}

/// One benchmark workload.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Workload {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Model-zoo name of the explored graph.
    pub model: &'static str,
    /// Search method.
    pub method: Method,
    /// Engine worker threads.
    pub threads: Threads,
    /// Sample budget of one exploration.
    pub budget: u64,
    /// Budget of the untimed cold run whose cache snapshot every timed
    /// exploration warm-starts from; `None` runs with a cold cache.
    pub seed_budget: Option<u64>,
    /// Explorations per benchmark run, each from its own sub-seed of the
    /// run seed, so one run's figures average over several searches.
    pub explorations: u64,
    /// Why the workload exists (one line).
    pub why: &'static str,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ga-resnet50",
        model: "resnet50",
        method: Method::Ga,
        threads: Threads::One,
        budget: 5_000,
        seed_budget: None,
        explorations: 29,
        why: "GA, resnet50, 29 x 5000 samples, 1 engine thread, cold cache: the paper's headline setup, repair-heavy; \
              the pool is idle, so dispatch changes predict no change",
    },
    Workload {
        name: "ga-randwire-par",
        model: "randwire-a",
        method: Method::Ga,
        threads: Threads::Host,
        budget: 2_000,
        seed_budget: None,
        explorations: 15,
        why: "GA, randwire-a (165 nodes), 15 x 2000 samples, nproc engine threads (2 on the defining host), cold: \
              heaviest connectivity repair, lowest reuse, 100-candidate pool batches",
    },
    Workload {
        name: "sa-googlenet-par",
        model: "googlenet",
        method: Method::Sa,
        threads: Threads::Host,
        budget: 4_000,
        seed_budget: None,
        explorations: 29,
        why: "SA, googlenet, 29 x 4000 samples, nproc engine threads (2 on the defining host), cold: 8-candidate \
              delta-scored batches, so per-dispatch overhead and small-batch regressions show",
    },
    Workload {
        name: "ga-resnet50-warm",
        model: "resnet50",
        method: Method::Ga,
        threads: Threads::One,
        budget: 5_000,
        seed_budget: Some(30),
        explorations: 13,
        why: "ga-resnet50 at 13 x 5000 samples, each from a fresh copy of a 30-sample seeding run's cache \
              snapshot: measures snapshot load, merge and save through the serde shim",
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).copied()
    }

    /// This workload at a tiny size, for the crate's tests: 300 samples
    /// per exploration and a 20-sample seeding run.
    pub fn tiny(self) -> Workload {
        Workload {
            budget: 300,
            seed_budget: self.seed_budget.map(|_| 20),
            ..self
        }
    }

    /// The sub-seeds of one run: `explorations` consecutive values
    /// starting at `seed · explorations`, so distinct run seeds never
    /// share a search.
    pub fn subseeds(&self, seed: u64) -> Vec<u64> {
        let first = seed.wrapping_mul(self.explorations);
        (0..self.explorations)
            .map(|i| first.wrapping_add(i))
            .collect()
    }

    /// The explored graph.
    pub fn graph(&self) -> Result<Graph, String> {
        cocco::graph::models::by_name(self.model)
            .ok_or_else(|| format!("unknown model {}", self.model))
    }

    /// The search method, seeded.
    pub fn search_method(&self, subseed: u64) -> SearchMethod {
        match self.method {
            Method::Ga => SearchMethod::ga(),
            Method::Sa => SearchMethod::sa(),
        }
        .with_seed(subseed)
    }

    /// The engine configuration.
    pub fn engine(&self) -> EngineConfig {
        match self.threads {
            Threads::One => EngineConfig::serial(),
            Threads::Host => EngineConfig::auto(),
        }
    }

    /// The facade session of one exploration (cold; the caller adds the
    /// cache file of a warm workload).
    pub fn session(&self, subseed: u64, budget: u64) -> Cocco {
        Cocco::new()
            .with_accelerator(AcceleratorConfig::default())
            .with_space(BufferSpace::paper_shared())
            .with_objective(Objective::paper_energy_capacity())
            .with_options(EvalOptions::default())
            .with_method(self.search_method(subseed))
            .with_engine(self.engine())
            .with_budget(budget)
    }

    /// Runs the untimed seeding exploration that writes the warm-start
    /// snapshot of `subseed` to `path`.
    pub fn write_seed_snapshot(
        &self,
        graph: &Graph,
        subseed: u64,
        path: &Path,
    ) -> Result<(), String> {
        let Some(seed_budget) = self.seed_budget else {
            return Err(format!("{} is a cold workload", self.name));
        };
        let run = self
            .session(subseed, seed_budget)
            .with_cache_file(path)
            .explore(graph)
            .map_err(|e| format!("seeding run failed: {e}"))?;
        match run.cache_save_error {
            Some(e) => Err(format!("seeding run could not save its snapshot: {e}")),
            None => Ok(()),
        }
    }
}

/// What one untraced exploration reports back: its timing, its outcome
/// (compared bit-for-bit against the traced run) and its output checks.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExploreReport {
    /// Sub-seed of the search.
    pub subseed: u64,
    /// Host wall time of the `Cocco::explore` call.
    pub wall_ns: u64,
    /// Budgeted samples (attempted).
    pub budget: u64,
    /// Samples the exploration reports spent.
    pub samples: u64,
    /// `Exploration.cost` as IEEE bits.
    pub cost_bits: u64,
    /// The recommended genome.
    pub genome: Option<Genome>,
    /// Failed samples: infeasible evaluations plus refunded ones, or the
    /// whole budget when the run erred or failed a check.
    pub failed_samples: u64,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// `VmHWM` of the exploring process, in KiB (0 when not measured).
    pub peak_rss_kb: u64,
}

impl ExploreReport {
    /// `Exploration.cost`.
    pub fn cost(&self) -> f64 {
        f64::from_bits(self.cost_bits)
    }
}

/// Runs one timed exploration through the facade and checks its output.
pub fn explore(
    workload: &Workload,
    graph: &Graph,
    subseed: u64,
    cache_file: Option<&Path>,
) -> ExploreReport {
    let mut session = workload.session(subseed, workload.budget);
    if let Some(path) = cache_file {
        session = session.with_cache_file(path);
    }
    let sw = Stopwatch::start();
    let result = session.explore(graph);
    let wall_ns = sw.elapsed_nanos();
    let mut report = ExploreReport {
        subseed,
        wall_ns,
        budget: workload.budget,
        samples: 0,
        cost_bits: f64::INFINITY.to_bits(),
        genome: None,
        failed_samples: workload.budget,
        failures: Vec::new(),
        peak_rss_kb: 0,
    };
    match result {
        Err(e) => report
            .failures
            .push(format!("explore returned an error: {e}")),
        Ok(x) => {
            report.failures = check_exploration(workload, graph, &x);
            if let Some(e) = &x.cache_save_error {
                report
                    .failures
                    .push(format!("cache snapshot save failed: {e}"));
            }
            report.samples = x.samples;
            report.cost_bits = x.cost.to_bits();
            report.failed_samples = x.infeasible_errors + x.health.refunded_samples;
            report.genome = Some(x.genome);
        }
    }
    if !report.failures.is_empty() {
        report.failed_samples = workload.budget;
    }
    report
}

/// The output checks of one exploration; returns the failed ones.
fn check_exploration(workload: &Workload, graph: &Graph, x: &Exploration) -> Vec<String> {
    let mut failures = Vec::new();
    if let Err(e) = x.genome.partition.validate(graph) {
        failures.push(format!("recommended partition is invalid: {e}"));
    }
    if x.samples != workload.budget {
        failures.push(format!(
            "spent {} samples of a {} budget",
            x.samples, workload.budget
        ));
    }
    match rescore(graph, &x.genome) {
        Err(e) => failures.push(e),
        Ok((report, cost)) => {
            if report != x.report {
                failures.push("fresh re-score differs from Exploration.report".to_string());
            }
            if cost.to_bits() != x.cost.to_bits() {
                failures.push(format!(
                    "fresh re-score costs {cost:e}, the exploration reported {:e}",
                    x.cost
                ));
            }
        }
    }
    failures
}

/// Re-scores `genome` with a fresh evaluator (no engine, no cache) under
/// the workloads' objective: the report and its Formula-2 cost.
pub fn rescore(graph: &Graph, genome: &Genome) -> Result<(PartitionReport, f64), String> {
    let objective = Objective::paper_energy_capacity();
    let alpha = objective
        .alpha
        .ok_or_else(|| "the paper objective has no alpha".to_string())?;
    let report = Evaluator::new(graph, AcceleratorConfig::default())
        .eval_partition(
            &genome.partition.subgraphs(),
            &genome.buffer,
            EvalOptions::default(),
        )
        .map_err(|e| format!("fresh re-score failed: {e}"))?;
    let cost = report.cost_formula2(objective.metric, alpha);
    Ok((report, cost))
}

/// One timed set-up: what a caller pays before the first sample.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SetupTiming {
    /// `models::by_name`.
    pub graph_ns: u64,
    /// The whole set-up: graph, `Evaluator::new`, and on a warm workload
    /// `CacheSnapshot::load` + `EvalCache::restore`.
    pub total_ns: u64,
}

/// Times one set-up of `workload` (`snapshot` is the pristine snapshot of
/// a warm workload).
pub fn time_setup(workload: &Workload, snapshot: Option<&Path>) -> Result<SetupTiming, String> {
    let total = Stopwatch::start();
    let graph = workload.graph()?;
    let graph_ns = total.elapsed_nanos();
    let evaluator = Evaluator::new(&graph, AcceleratorConfig::default());
    if let Some(path) = snapshot {
        let loaded = CacheSnapshot::load(path)
            .map_err(|e| format!("snapshot {} unusable: {e}", path.display()))?;
        let (mine, _) = loaded.split_fingerprint(evaluator.fingerprint());
        EvalCache::new().restore(&mine);
    }
    let total_ns = total.elapsed_nanos();
    std::hint::black_box(&evaluator);
    Ok(SetupTiming { graph_ns, total_ns })
}
