//! The traced run: the facade's search, stepped by hand through the
//! public layer functions, with spans around every call.
//!
//! The run builds the same context [`Cocco::explore`](cocco::Cocco::explore)
//! builds and drives the method's [`SearchDriver`] one step at a time:
//! `next_batch` (propose), `SearchContext::evaluate_chunks` (evaluate),
//! `absorb`. Its outcome must equal the untraced run's bit for bit.
//!
//! Per-call costs of the `partition` and `sim` layers come from a shadow
//! replay: before a step is evaluated, clones of its proposed genomes go,
//! in proposal order, through the repair pipeline and the cost model on
//! evaluators of their own, so the real context is never touched while
//! the shadow evaluators' statistics caches warm at the same pace as the
//! real one. Shadow time is excluded from the traced wall time. These are
//! per-call estimates, not an additive ledger.

use crate::metrics::{median_u64, ratio, Reading, Readings};
use crate::workload::{rescore, Workload};
use cocco::engine::CacheSnapshot;
use cocco::partition::{
    repair_connectivity_with_delta, repair_with_delta, split_oversized_with_delta,
};
use cocco::prelude::*;
use cocco::search::EvalCandidate;
use cocco::telemetry::Stopwatch;
use serde::Value;
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::io::Write as _;
use std::path::Path;

/// One recorded span; times are nanoseconds from the run's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Span name.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// In-memory span recorder; spans are written out once the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: self.origin.elapsed_nanos(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one); returns its duration.
    pub fn exit(&mut self, id: usize) -> u64 {
        let now = self.origin.elapsed_nanos();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost-first");
        self.open.pop();
        let span = &mut self.spans[id];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Runs `f` inside a span; returns its result and duration.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans named `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes `header` and then one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path, header: &Value) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let header = serde_json::to_string(header)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(out, "{header}")?;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Distinct subgraphs kept for the cold statistics probe.
const COLD_PROBE_SUBGRAPHS: usize = 4096;

/// Whether `members` fits `buffer`: the capacity test the search context
/// applies during repair (activation footprint, weight shard per core,
/// region count), on the shadow evaluator.
fn fits(evaluator: &Evaluator<'_>, members: &[NodeId], buffer: &BufferConfig) -> bool {
    match evaluator.subgraph_stats(members) {
        Ok(stats) => {
            let cores = u64::from(EvalOptions::default().cores());
            buffer.fits(
                stats.act_footprint_bytes,
                stats.wgt_resident_bytes.div_ceil(cores),
            ) && stats.regions <= evaluator.config().max_regions
        }
        Err(_) => false,
    }
}

/// The shadow replay's evaluators and per-call samples.
struct Shadow<'g> {
    graph: &'g Graph,
    /// Runs the full `repair_with_delta` and `eval_partition`.
    full: Evaluator<'g>,
    /// Runs connectivity repair, then capacity splits, separately timed.
    staged: Evaluator<'g>,
    repair_ns: Vec<u64>,
    connectivity_ns: Vec<u64>,
    split_ns: Vec<u64>,
    eval_ns: Vec<u64>,
    fits_ns: RefCell<Vec<u64>>,
    fits_calls: Cell<u64>,
    candidates: u64,
    altered: u64,
    distinct: BTreeSet<Vec<NodeId>>,
}

impl<'g> Shadow<'g> {
    fn new(graph: &'g Graph) -> Self {
        Self {
            graph,
            full: Evaluator::new(graph, AcceleratorConfig::default()),
            staged: Evaluator::new(graph, AcceleratorConfig::default()),
            repair_ns: Vec::new(),
            connectivity_ns: Vec::new(),
            split_ns: Vec::new(),
            eval_ns: Vec::new(),
            fits_ns: RefCell::new(Vec::new()),
            fits_calls: Cell::new(0),
            candidates: 0,
            altered: 0,
            distinct: BTreeSet::new(),
        }
    }

    /// Replays every proposed genome of `batch`, in proposal order.
    fn replay(&mut self, t: &mut Tracer, batch: &EvalBatch) {
        let span = t.enter("shadow");
        for candidate in batch.chunks.iter().flat_map(|c| &c.candidates) {
            self.replay_one(t, candidate);
        }
        t.exit(span);
    }

    fn replay_one(&mut self, t: &mut Tracer, candidate: &EvalCandidate) {
        let graph = self.graph;
        let proposed = &candidate.genome.partition;
        let buffer = candidate.genome.buffer;
        let delta = candidate
            .hint
            .as_ref()
            .map_or_else(|| PartitionDelta::all(graph.len()), |h| h.delta.clone());

        let full = &self.full;
        let calls = &self.fits_calls;
        let counting_fits = |members: &[NodeId]| {
            calls.set(calls.get() + 1);
            fits(full, members, &buffer)
        };
        let (partition, mut d) = (proposed.clone(), delta.clone());
        let (repaired, ns) = t.leaf("shadow.repair", || {
            repair_with_delta(graph, partition, &counting_fits, &mut d)
        });
        self.repair_ns.push(ns);

        let (partition, mut d) = (proposed.clone(), delta);
        let (connected, ns) = t.leaf("shadow.connectivity", || {
            repair_connectivity_with_delta(graph, partition, &mut d)
        });
        self.connectivity_ns.push(ns);
        let staged = &self.staged;
        let probes = &self.fits_ns;
        let timed_fits = |members: &[NodeId]| {
            let sw = Stopwatch::start();
            let ok = fits(staged, members, &buffer);
            probes.borrow_mut().push(sw.elapsed_nanos());
            ok
        };
        let (_, ns) = t.leaf("shadow.split", || {
            split_oversized_with_delta(graph, connected, &timed_fits, &mut d)
        });
        self.split_ns.push(ns);

        let subgraphs = repaired.subgraphs();
        let (_, ns) = t.leaf("shadow.eval_partition", || {
            self.full
                .eval_partition(&subgraphs, &buffer, EvalOptions::default())
        });
        self.eval_ns.push(ns);

        self.candidates += 1;
        let mut before = proposed.subgraphs();
        before.sort();
        let mut after = subgraphs;
        after.sort();
        if before != after {
            self.altered += 1;
        }
        for members in after {
            if self.distinct.len() >= COLD_PROBE_SUBGRAPHS {
                break;
            }
            self.distinct.insert(members);
        }
    }

    /// Times `subgraph_stats` for every kept distinct subgraph on a fresh
    /// evaluator, so each probe derives its statistics from scratch.
    fn cold_stats_ns(&self, t: &mut Tracer) -> Vec<u64> {
        let fresh = Evaluator::new(self.graph, AcceleratorConfig::default());
        self.distinct
            .iter()
            .map(|members| {
                let (stats, ns) = t.leaf("shadow.stats_cold", || fresh.subgraph_stats(members));
                std::hint::black_box(stats.is_ok());
                ns
            })
            .collect()
    }
}

/// What the traced run produced.
#[derive(Debug)]
pub struct TracedRun {
    /// The driver's final outcome.
    pub outcome: SearchOutcome,
    /// Failed samples (infeasible evaluations), or the whole budget when
    /// a check failed.
    pub failed_samples: u64,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// Per-layer readings measured inside the run.
    pub readings: Readings,
    /// Set-up + search (+ a warm workload's cache write-back), without the
    /// shadow replay: the traced counterpart of the explore wall time.
    pub traced_wall_ns: u64,
    /// The recorded spans.
    pub tracer: Tracer,
}

/// Runs the traced search of `workload` from `subseed`. `cache_file` is
/// a fresh copy of the warm-start snapshot (warm workloads), which the run
/// loads and writes back like `Cocco::with_cache_file`; `scratch_save` is
/// where a cold run's cache is saved to time the save.
pub fn traced_run(
    workload: &Workload,
    graph: &Graph,
    subseed: u64,
    cache_file: Option<&Path>,
    scratch_save: &Path,
) -> Result<TracedRun, String> {
    let mut t = Tracer::default();
    let mut r = Readings::default();
    let run = t.enter("run");

    let setup = t.enter("setup");
    let (evaluator, _) = t.leaf("evaluator_new", || {
        Evaluator::new(graph, AcceleratorConfig::default())
    });
    let ctx = SearchContext::new(
        graph,
        &evaluator,
        BufferSpace::paper_shared(),
        Objective::paper_energy_capacity(),
        workload.budget,
    )
    .with_options(EvalOptions::default())
    .with_engine(workload.engine());
    let mut foreign = CacheSnapshot::default();
    match cache_file {
        Some(path) => {
            let (loaded, load_ns) = t.leaf("snapshot_load", || CacheSnapshot::load(path));
            let loaded =
                loaded.map_err(|e| format!("snapshot {} unusable: {e}", path.display()))?;
            let bytes = std::fs::metadata(path)
                .map_err(|e| format!("snapshot {}: {e}", path.display()))?
                .len();
            r.set("engine.snapshot_load_ns", load_ns as f64);
            r.set("engine.snapshot_bytes", bytes as f64);
            r.set("engine.snapshot_entries", loaded.len() as f64);
            let (mine, rest) = loaded.split_fingerprint(evaluator.fingerprint());
            t.leaf("restore", || ctx.engine().cache().restore(&mine));
            foreign = rest;
        }
        None => {
            let cold = || Reading::Absent("cold workload: no snapshot is loaded".to_string());
            r.set_reading("engine.snapshot_load_ns", cold());
            r.set_reading("engine.snapshot_bytes", cold());
            r.set_reading("engine.snapshot_entries", cold());
        }
    }
    let setup_ns = t.exit(setup);

    let mut shadow = Shadow::new(graph);
    let mut driver = workload.search_method(subseed).driver();
    let mut propose_ns = Vec::new();
    let mut evaluate_ns = Vec::new();
    let mut per_candidate_ns = Vec::new();
    let mut absorb_ns = Vec::new();
    let mut candidates = 0u64;
    let mut improving = 0u64;
    let mut best = f64::INFINITY;
    let mut failures = Vec::new();
    let search = t.enter("search");
    loop {
        let step = t.enter("step");
        let (next, ns) = t.leaf("propose", || driver.next_batch(&ctx));
        let Step::Evaluate(mut batch) = next else {
            t.exit(step);
            if matches!(next, Step::Done) {
                break;
            }
            continue;
        };
        propose_ns.push(ns);
        let n = batch.len() as u64;
        candidates += n;
        shadow.replay(&mut t, &batch);
        let (_, ns) = t.leaf("evaluate", || ctx.evaluate_chunks(&mut batch));
        evaluate_ns.push(ns);
        per_candidate_ns.push(ns / n.max(1));
        if let Some(message) = ctx.fault_abort() {
            t.exit(step);
            failures.push(format!("a batch was quarantined: {message}"));
            break;
        }
        let (_, ns) = t.leaf("absorb", || driver.absorb(&ctx, batch));
        absorb_ns.push(ns);
        let cost = driver.outcome().best_cost;
        if cost < best {
            best = cost;
            improving += 1;
        }
        t.exit(step);
    }
    t.exit(search);
    let outcome = driver.outcome();
    let mut cache = ctx.engine().cache().snapshot();
    // A warm exploration writes its cache back the way the facade does
    // (other fingerprints' entries and the file's current contents merged
    // in) as part of the run; a cold one saves nothing, so its save is
    // probed after the run, to a scratch path.
    let saved = match cache_file {
        Some(path) => {
            cache.merge(foreign);
            let (on_disk, _) = t.leaf("snapshot_reload", || CacheSnapshot::load(path));
            if let Ok(on_disk) = on_disk {
                cache.merge(on_disk);
            }
            let saved = t.leaf("snapshot_save", || cache.save(path));
            t.exit(run);
            saved
        }
        None => {
            t.exit(run);
            t.leaf("snapshot_save", || cache.save(scratch_save))
        }
    };
    let save_ns = match saved {
        (Ok(()), ns) => Ok(ns),
        (Err(e), _) => Err(format!("snapshot save failed: {e}")),
    };
    if let (Some(_), Err(e)) = (cache_file, &save_ns) {
        failures.push(e.clone());
    }
    r.set_reading(
        "engine.snapshot_save_ns",
        save_ns.map_or_else(Reading::Absent, |ns| Reading::Value(ns as f64)),
    );
    let traced_wall_ns = t.spans()[run].end_ns - t.spans()[run].start_ns - t.total("shadow");

    let steps = evaluate_ns.len() as f64;
    let stepped_ns: u64 = propose_ns
        .iter()
        .chain(&evaluate_ns)
        .chain(&absorb_ns)
        .sum();
    let write_back_ns = match cache_file {
        Some(_) => t.total("snapshot_reload") + t.total("snapshot_save"),
        None => 0,
    };
    r.set_reading(
        "bench.unattributed_frac",
        ratio(
            traced_wall_ns as f64 - (setup_ns + stepped_ns + write_back_ns) as f64,
            traced_wall_ns as f64,
            "traced wall time",
        ),
    );
    let med = |v: &[u64], what: &str| {
        median_u64(v).map_or_else(|| Reading::Absent(format!("no {what}")), Reading::Value)
    };
    r.set_reading("search.propose_ns", med(&propose_ns, "steps"));
    r.set_reading("search.absorb_ns", med(&absorb_ns, "steps"));
    r.set("search.steps", steps);
    r.set_reading(
        "search.candidates_per_step",
        ratio(candidates as f64, steps, "steps"),
    );
    r.set_reading(
        "search.improve_frac",
        ratio(improving as f64, steps, "steps"),
    );
    r.set_reading("engine.evaluate_ns", med(&evaluate_ns, "steps"));
    r.set_reading(
        "engine.evaluate_per_candidate_ns",
        med(&per_candidate_ns, "steps"),
    );
    engine_readings(&mut r, &ctx.engine().metrics());

    r.set_reading("partition.repair_ns", med(&shadow.repair_ns, "candidates"));
    r.set_reading(
        "partition.connectivity_ns",
        med(&shadow.connectivity_ns, "candidates"),
    );
    r.set_reading("partition.split_ns", med(&shadow.split_ns, "candidates"));
    r.set_reading(
        "partition.fits_per_repair",
        ratio(
            shadow.fits_calls.get() as f64,
            shadow.candidates as f64,
            "candidates",
        ),
    );
    r.set_reading(
        "partition.altered_frac",
        ratio(
            shadow.altered as f64,
            shadow.candidates as f64,
            "candidates",
        ),
    );
    r.set_reading("sim.fits_ns", med(&shadow.fits_ns.borrow(), "fits probes"));
    r.set("sim.stats_hit_rate", evaluator.stats_cache_hit_rate());
    r.set("sim.stats_lock_waits", evaluator.stats_lock_waits() as f64);
    r.set_reading(
        "sim.stats_cold_ns",
        med(&shadow.cold_stats_ns(&mut t), "subgraphs"),
    );
    r.set_reading("sim.eval_partition_ns", med(&shadow.eval_ns, "candidates"));
    r.set("faults.seen", ctx.faults().health().faults_seen() as f64);

    if outcome.samples != workload.budget {
        failures.push(format!(
            "traced run spent {} samples of a {} budget",
            outcome.samples, workload.budget
        ));
    }
    match &outcome.best {
        None => failures.push("traced run found no design".to_string()),
        Some(genome) => {
            if let Err(e) = genome.partition.validate(graph) {
                failures.push(format!("traced partition is invalid: {e}"));
            }
            match rescore(graph, genome) {
                Err(e) => failures.push(e),
                Ok((report, cost)) => {
                    if cost.to_bits() != outcome.best_cost.to_bits() {
                        failures.push(format!(
                            "fresh re-score costs {cost:e}, the traced run reported {:e}",
                            outcome.best_cost
                        ));
                    }
                    r.set("search.best_ema_mb", report.ema_bytes as f64 / 1e6);
                    r.set(
                        "search.best_buffer_kb",
                        genome.buffer.total_bytes() as f64 / 1024.0,
                    );
                }
            }
        }
    }
    let failed_samples = if failures.is_empty() {
        ctx.trace().infeasible_errors() + ctx.faults().health().refunded_samples
    } else {
        workload.budget
    };
    Ok(TracedRun {
        outcome,
        failed_samples,
        failures,
        readings: r,
        traced_wall_ns,
        tracer: t,
    })
}

/// Engine counters and gauges, read from `Engine::metrics()` by name; a
/// name the engine no longer exports is reported absent.
fn engine_readings(r: &mut Readings, m: &MetricsSnapshot) {
    let get = |name: &str| {
        m.counters
            .iter()
            .chain(&m.gauges)
            .find(|e| e.name == name)
            .map(|e| e.value as f64)
            .ok_or_else(|| format!("Engine::metrics() has no {name}"))
    };
    let reading = |value: Result<f64, String>| value.map_or_else(Reading::Absent, Reading::Value);
    let frac = |num: Result<f64, String>, den: Result<f64, String>| match (num, den) {
        (Ok(n), Ok(d)) => ratio(n, d, "engine evaluations"),
        (Err(e), _) | (_, Err(e)) => Reading::Absent(e),
    };
    let evals = || get("engine.evals");
    let sub_hits = get("engine.cache.subgraph.hits");
    let sub_total = sub_hits
        .clone()
        .and_then(|h| Ok(h + get("engine.cache.subgraph.misses")?));
    r.set_reading(
        "search.novel_frac",
        frac(get("engine.cache.partition.misses"), evals()),
    );
    r.set_reading(
        "engine.hit_rate",
        frac(get("engine.cache.partition.hits"), evals()),
    );
    r.set_reading("engine.subgraph_hit_rate", frac(sub_hits, sub_total));
    r.set_reading(
        "engine.subgraph_scorings",
        reading(get("engine.subgraph.scorings")),
    );
    r.set_reading("engine.batch_wall_ns", reading(get("engine.batch.wall_ns")));
    r.set_reading(
        "engine.dispatched_jobs",
        reading(get("engine.pool.dispatched")),
    );
    r.set_reading("engine.chunks", reading(get("engine.pool.chunks")));
    r.set_reading(
        "engine.inline_batches",
        reading(get("engine.pool.inline_batches")),
    );
    r.set_reading(
        "engine.cache_entries",
        reading(
            get("engine.cache.partition.entries")
                .and_then(|p| Ok(p + get("engine.cache.subgraph.entries")?)),
        ),
    );
}
