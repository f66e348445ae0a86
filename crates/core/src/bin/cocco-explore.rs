//! Command-line co-exploration driver.
//!
//! ```console
//! $ cocco-explore resnet50 --budget 20000 --space shared --alpha 0.002
//! $ cocco-explore googlenet --method sa --space separate --metric ema --cores 2 --batch 8
//! $ cocco-explore resnet50 --method greedy --json
//! $ cocco-explore --list
//! ```

use cocco::prelude::*;
use std::process::ExitCode;
use std::str::FromStr;

/// The search itself failed: no feasible solution, the method gave up,
/// an internal evaluation error, or a worker panic with nothing salvaged.
const EXIT_SEARCH_FAILED: u8 = 1;
/// Bad invocation: unknown flags/values or an unknown model.
const EXIT_USAGE: u8 = 2;
/// An existing cache or checkpoint file was unusable (I/O or parse).
const EXIT_IO: u8 = 3;
/// Degraded outcome: the run produced a usable result but carries scar
/// tissue — a worker panic with salvaged best-so-far, a revoked budget,
/// or a failed cache/checkpoint save.
const EXIT_DEGRADED: u8 = 4;

struct Args {
    model: Option<String>,
    budget: u64,
    space: BufferSpace,
    metric: CostMetric,
    alpha: f64,
    seed: u64,
    options: EvalOptions,
    threads: EngineConfig,
    method: SearchMethod,
    cache_file: Option<String>,
    checkpoint_file: Option<String>,
    checkpoint_every: Option<u64>,
    stats_json: Option<String>,
    telemetry_jsonl: Option<String>,
    telemetry_report: bool,
    json: bool,
    list: bool,
    dot: bool,
}

fn usage() -> String {
    let models: Vec<&str> = cocco::graph::models::registry()
        .iter()
        .map(|(name, _)| *name)
        .collect();
    format!(
        "usage: cocco-explore <model> [options]\n\
         \n\
         models: {}\n\
         \n\
         options:\n\
           --method <m>       ga | sa | greedy | dp | exhaustive | twostep | portfolio\n\
                              (default ga)\n\
           --portfolio <ms>   race a comma-separated list of methods round-robin on\n\
                              one budget/engine (e.g. `--portfolio ga,sa,twostep`;\n\
                              overrides --method)\n\
           --target <cost>    stop a portfolio as soon as any member reaches this\n\
                              Formula-2 cost (default: run to exhaustion)\n\
           --budget <n>       evaluation samples (default 20000)\n\
           --space <s>        shared | separate (default shared)\n\
           --metric <m>       energy | ema (default energy)\n\
           --alpha <a>        Formula-2 preference factor (default 0.002)\n\
           --seed <n>         RNG seed (default 0xC0CC0)\n\
           --cores <n>        NPU cores (default 1)\n\
           --batch <n>        batch size (default 1)\n\
           --threads <n>      evaluation worker threads, or `auto` (default auto);\n\
                              results are identical at any thread count\n\
           --cache-capacity <n>  bound the evaluation cache to <n> entries\n\
                              (generation-sweep eviction; results unchanged)\n\
           --cache-file <p>   persist the evaluation cache at <p>: repeated\n\
                              explorations warm-start from it (results are\n\
                              unchanged; entries of other models/accelerator\n\
                              configs are kept but never reused)\n\
           --checkpoint-file <p>  run step-driven and checkpoint the search to <p>;\n\
                              an existing snapshot resumes the interrupted run\n\
                              bit-identically (removed on completion)\n\
           --checkpoint-every <n>  driver steps between checkpoint saves\n\
                              (default 16; a GA step is one generation)\n\
           --stats-json <p>   write engine stats + metrics + phase profile to <p>\n\
                              as JSON (enables telemetry; results unchanged)\n\
           --telemetry-jsonl <p>  write every telemetry event to <p>, one JSON\n\
                              object per line (enables telemetry)\n\
           --telemetry-report print a summary table of counters, latency\n\
                              histograms (p50/p90/p99) and per-phase wall time\n\
                              (enables telemetry)\n\
           --json             print the full exploration result as JSON\n\
           --dot              print the partitioned graph in Graphviz DOT\n\
           --list             list available models and exit\n\
         \n\
         exit codes:\n\
           0  success\n\
           1  search failed (no feasible solution, method gave up, or a\n\
              worker panic with nothing to salvage)\n\
           2  usage error (bad flags or unknown model)\n\
           3  cache/checkpoint file unusable (I/O or parse failure)\n\
           4  degraded: a usable result with recovery scars (worker panic\n\
              with salvaged best-so-far, revoked budget, or a failed\n\
              cache/checkpoint save)",
        models.join(" ")
    )
}

fn parse(mut argv: std::env::Args) -> Result<Args, String> {
    argv.next(); // program name
    let mut args = Args {
        model: None,
        budget: 20_000,
        space: BufferSpace::paper_shared(),
        metric: CostMetric::Energy,
        alpha: 0.002,
        seed: 0xC0CC0,
        options: EvalOptions::default(),
        threads: EngineConfig::auto(),
        method: SearchMethod::default(),
        cache_file: None,
        checkpoint_file: None,
        checkpoint_every: None,
        stats_json: None,
        telemetry_jsonl: None,
        telemetry_report: false,
        json: false,
        list: false,
        dot: false,
    };
    let mut cores: u32 = 1;
    let mut batch: u32 = 1;
    let mut cache_capacity: Option<usize> = None;
    let mut portfolio: Option<Vec<SearchMethod>> = None;
    let mut target: Option<f64> = None;
    let next_value =
        |argv: &mut std::env::Args, flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--budget" => args.budget = parse_num(&next_value(&mut argv, "--budget")?)?,
            "--seed" => args.seed = parse_num(&next_value(&mut argv, "--seed")?)?,
            "--cores" => cores = parse_num(&next_value(&mut argv, "--cores")?)?,
            "--batch" => batch = parse_num(&next_value(&mut argv, "--batch")?)?,
            "--threads" => {
                let value = next_value(&mut argv, "--threads")?;
                args.threads = match value.as_str() {
                    "auto" => EngineConfig::auto(),
                    n => {
                        let n: u32 = parse_num(n)?;
                        if n == 0 {
                            return Err("--threads must be >= 1 (or `auto`)".to_string());
                        }
                        EngineConfig::with_threads(n)
                    }
                };
            }
            "--alpha" => {
                args.alpha = next_value(&mut argv, "--alpha")?
                    .parse()
                    .map_err(|e| format!("bad --alpha: {e}"))?;
            }
            "--method" => {
                let key = next_value(&mut argv, "--method")?;
                args.method = SearchMethod::parse(&key).ok_or(format!(
                    "unknown method `{key}` \
                     (ga | sa | greedy | dp | exhaustive | twostep | portfolio)"
                ))?;
            }
            "--portfolio" => {
                let list = next_value(&mut argv, "--portfolio")?;
                let members = list
                    .split(',')
                    .map(|key| {
                        SearchMethod::parse(key.trim()).ok_or(format!(
                            "unknown portfolio member `{key}` \
                             (ga | sa | greedy | dp | exhaustive | twostep)"
                        ))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if members.is_empty() {
                    return Err("--portfolio needs at least one method".to_string());
                }
                portfolio = Some(members);
            }
            "--target" => {
                target = Some(
                    next_value(&mut argv, "--target")?
                        .parse()
                        .map_err(|e| format!("bad --target: {e}"))?,
                );
            }
            "--checkpoint-file" => {
                args.checkpoint_file = Some(next_value(&mut argv, "--checkpoint-file")?);
            }
            "--checkpoint-every" => {
                args.checkpoint_every =
                    Some(parse_num(&next_value(&mut argv, "--checkpoint-every")?)?);
            }
            "--space" => {
                args.space = match next_value(&mut argv, "--space")?.as_str() {
                    "shared" => BufferSpace::paper_shared(),
                    "separate" => BufferSpace::paper_separate(),
                    other => return Err(format!("unknown space `{other}`")),
                };
            }
            "--metric" => {
                args.metric = match next_value(&mut argv, "--metric")?.as_str() {
                    "energy" => CostMetric::Energy,
                    "ema" => CostMetric::Ema,
                    other => return Err(format!("unknown metric `{other}`")),
                };
            }
            "--cache-capacity" => {
                cache_capacity = Some(parse_num(&next_value(&mut argv, "--cache-capacity")?)?);
            }
            "--cache-file" => {
                args.cache_file = Some(next_value(&mut argv, "--cache-file")?);
            }
            "--stats-json" => {
                args.stats_json = Some(next_value(&mut argv, "--stats-json")?);
            }
            "--telemetry-jsonl" => {
                args.telemetry_jsonl = Some(next_value(&mut argv, "--telemetry-jsonl")?);
            }
            "--telemetry-report" => args.telemetry_report = true,
            "--json" => args.json = true,
            "--list" => args.list = true,
            "--dot" => args.dot = true,
            "--help" | "-h" => return Err(String::new()),
            other if args.model.is_none() && !other.starts_with('-') => {
                args.model = Some(other.to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.json && args.dot {
        return Err("--json and --dot are mutually exclusive (the DOT text would corrupt the JSON document)".to_string());
    }
    args.options =
        EvalOptions::new(cores, batch).map_err(|e| format!("bad --cores/--batch: {e}"))?;
    if let Some(capacity) = cache_capacity {
        args.threads = args.threads.with_cache_capacity(capacity);
    }
    if let Some(members) = portfolio {
        args.method = SearchMethod::Portfolio(Portfolio::new(members));
    }
    if let Some(target) = target {
        // Applies to `--portfolio ...` and `--method portfolio` alike.
        match &mut args.method {
            SearchMethod::Portfolio(p) => p.policy = PortfolioPolicy::FirstToTarget(target),
            _ => return Err("--target only applies to a portfolio run".to_string()),
        }
    }
    Ok(args)
}

/// Parses into the flag's exact integer type, so out-of-range values (e.g.
/// `--cores 5000000000`) are rejected instead of silently truncated.
fn parse_num<T: FromStr<Err = std::num::ParseIntError>>(s: &str) -> Result<T, String> {
    s.parse().map_err(|e| format!("bad number `{s}`: {e}"))
}

/// What `--json` prints: the request coordinates plus the full result,
/// round-trippable through `serde_json`.
#[derive(serde::Serialize, serde::Deserialize)]
struct JsonReport {
    model: String,
    method: SearchMethod,
    exploration: Exploration,
}

/// What `--stats-json` writes: the full metrics registry (engine counters
/// included) and the per-phase wall-time profile.
#[derive(serde::Serialize, serde::Deserialize)]
struct StatsDump {
    metrics: MetricsSnapshot,
    phases: PhaseSnapshot,
    events_dropped: u64,
}

/// Nanoseconds, human-scaled.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// The `--telemetry-report` summary table.
fn telemetry_report(telemetry: &Telemetry) -> String {
    use std::fmt::Write as _;
    let snap = telemetry.snapshot();
    let phases = telemetry.phases();
    let mut out = String::new();
    let _ = writeln!(out, "telemetry:");
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "  counters:");
        for c in &snap.counters {
            let _ = writeln!(out, "    {:<34} {:>12}", c.name, c.value);
        }
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(out, "  gauges:");
        for g in &snap.gauges {
            let _ = writeln!(out, "    {:<34} {:>12}", g.name, g.value);
        }
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(
            out,
            "  histograms:{:>30} {:>9} {:>9} {:>9}",
            "count", "p50", "p90", "p99"
        );
        for h in &snap.histograms {
            let _ = writeln!(
                out,
                "    {:<34} {:>6} {:>9} {:>9} {:>9}",
                h.name,
                h.count,
                fmt_ns(h.p50() as f64),
                fmt_ns(h.p90() as f64),
                fmt_ns(h.p99() as f64),
            );
        }
    }
    let rows: Vec<String> = phases
        .rows()
        .iter()
        .map(|(name, ms)| format!("{name} {ms:.1}"))
        .collect();
    let _ = writeln!(out, "  phases (ms): {}", rows.join(" | "));
    let _ = writeln!(
        out,
        "  events: {} recorded, {} dropped",
        telemetry.events().len(),
        telemetry.events_dropped(),
    );
    out
}

fn main() -> ExitCode {
    let args = match parse(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            // An empty message is `--help`: the usage text is the
            // requested output, not an error.
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n");
            eprintln!("{}", usage());
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if args.list {
        for (name, _) in cocco::graph::models::registry() {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    let Some(name) = args.model else {
        eprintln!("{}", usage());
        return ExitCode::from(EXIT_USAGE);
    };
    let Some(model) = cocco::graph::models::by_name(&name) else {
        eprintln!("error: {}", cocco::Error::UnknownModel { name });
        return ExitCode::from(EXIT_USAGE);
    };
    let method = args.method.with_seed(args.seed);
    // Telemetry is observation-only: enabling it never changes results.
    let wants_telemetry =
        args.stats_json.is_some() || args.telemetry_jsonl.is_some() || args.telemetry_report;
    let telemetry = if wants_telemetry {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let mut session = Cocco::new()
        .with_space(args.space)
        .with_objective(Objective::co_exploration(args.metric, args.alpha))
        .with_options(args.options)
        .with_engine(args.threads)
        .with_budget(args.budget)
        .with_method(method.clone())
        .with_telemetry(telemetry.clone());
    if let Some(path) = &args.cache_file {
        session = session.with_cache_file(path);
    }
    if let Some(path) = &args.checkpoint_file {
        session = session.with_checkpoint_file(path);
    }
    if let Some(every) = args.checkpoint_every {
        session = session.with_checkpoint_every(every);
    }
    let result = match session.explore(&model) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            let code = match &e {
                cocco::Error::WorkerPanic {
                    salvage: Some(salvage),
                    ..
                } => {
                    eprintln!(
                        "salvaged best-so-far: cost {:.4e} after {} samples \
                         ({} subgraphs, {} KB buffer)",
                        salvage.cost,
                        salvage.samples,
                        salvage.genome.partition.num_subgraphs(),
                        salvage.genome.buffer.total_bytes() >> 10,
                    );
                    EXIT_DEGRADED
                }
                cocco::Error::CacheFile { .. } | cocco::Error::Checkpoint { .. } => EXIT_IO,
                _ => EXIT_SEARCH_FAILED,
            };
            return ExitCode::from(code);
        }
    };
    // A run that completed with recovery scars (failed saves, revoked
    // budget, quarantine) still prints its result, but exits 4 so
    // harnesses can tell "clean" from "degraded but usable".
    let exit = if result.is_degraded() {
        ExitCode::from(EXIT_DEGRADED)
    } else {
        ExitCode::SUCCESS
    };
    // Telemetry side outputs are best effort: a failed write warns, it
    // never discards a completed exploration.
    if let Some(path) = &args.stats_json {
        let dump = StatsDump {
            metrics: telemetry.snapshot(),
            phases: telemetry.phases(),
            events_dropped: telemetry.events_dropped(),
        };
        let outcome = serde_json::to_string_pretty(&dump)
            .map_err(|e| e.to_string())
            .and_then(|text| std::fs::write(path, text).map_err(|e| e.to_string()));
        if let Err(e) = outcome {
            eprintln!("warning: could not write --stats-json {path}: {e}");
        }
    }
    if let Some(path) = &args.telemetry_jsonl {
        let outcome =
            std::fs::File::create(path).and_then(|mut file| telemetry.export_jsonl(&mut file));
        if let Err(e) = outcome {
            eprintln!("warning: could not write --telemetry-jsonl {path}: {e}");
        }
    }
    if args.telemetry_report && args.json {
        // The JSON document owns stdout; the table goes to stderr.
        eprint!("{}", telemetry_report(&telemetry));
    }
    if args.json {
        let report = JsonReport {
            model: model.name().to_string(),
            method,
            exploration: result,
        };
        match serde_json::to_string_pretty(&report) {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("error: {}", cocco::Error::Serde(e));
                return ExitCode::from(EXIT_SEARCH_FAILED);
            }
        }
        return exit;
    }
    println!("model: {model}");
    println!("method             : {}", method.name());
    let buffer = match result.genome.buffer {
        BufferConfig::Separate { glb, wgt } => {
            format!("GLB {} KB + WGT {} KB", glb >> 10, wgt >> 10)
        }
        BufferConfig::Shared { total } => format!("{} KB shared", total >> 10),
    };
    println!("recommended buffer : {buffer}");
    println!(
        "subgraphs          : {}",
        result.genome.partition.num_subgraphs()
    );
    println!("cost (Formula 2)   : {:.4e}", result.cost);
    println!(
        "EMA                : {:.2} MB",
        result.report.ema_bytes as f64 / (1 << 20) as f64
    );
    println!("energy             : {:.3} mJ", result.report.energy_mj());
    println!(
        "latency            : {:.3} ms",
        result.report.latency_ms(1.0)
    );
    println!("avg bandwidth      : {:.2} GB/s", result.report.avg_bw_gbps);
    println!("samples used       : {}", result.samples);
    let m = &result.metrics;
    let percent = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;
    let (evals, hits) = (
        m.counter("engine.evals"),
        m.counter("engine.cache.partition.hits"),
    );
    println!(
        "engine             : {} threads, {evals} evals, {hits} cache hits ({:.0}%), {:.1} ms",
        m.gauge("engine.threads"),
        percent(hits, evals),
        m.gauge("engine.batch.wall_ns") as f64 / 1e6,
    );
    let (scored, cached) = (
        m.counter("engine.subgraph.scorings"),
        m.counter("engine.cache.subgraph.hits"),
    );
    println!(
        "subgraph terms     : {scored} scored, {cached} cached ({:.0}% avoided)",
        percent(cached, scored + cached),
    );
    let (roll_ups, terms) = (
        m.counter("engine.cache.partition.evictions"),
        m.counter("engine.cache.subgraph.evictions"),
    );
    if roll_ups + terms > 0 {
        println!("cache evictions    : {roll_ups} roll-ups + {terms} terms (bounded cache)");
    }
    if let Some(save_error) = &result.cache_save_error {
        eprintln!("warning            : could not save cache file ({save_error})");
    }
    if let Some(save_error) = &result.checkpoint_save_error {
        eprintln!("warning            : could not save checkpoint ({save_error})");
    }
    if result.health.faults_seen() > 0 || result.health.recoveries() > 0 {
        println!(
            "fault recovery     : {} faults seen, {} recoveries ({} rescores, \
             {} refunded samples, {} save retries, {} salvaged entries)",
            result.health.faults_seen(),
            result.health.recoveries(),
            result.health.eval_rescores,
            result.health.refunded_samples,
            result.health.save_retries,
            result.health.salvaged_entries,
        );
    }
    if result.infeasible_errors > 0 {
        println!(
            "warning            : {} evaluator errors were folded into infeasibility",
            result.infeasible_errors
        );
    }
    if !result.completed {
        println!("note               : method did not complete (limits hit)");
    }
    if args.telemetry_report {
        print!("{}", telemetry_report(&telemetry));
    }
    if args.dot {
        let partition = &result.genome.partition;
        println!(
            "{}",
            model.to_dot(|id| Some(partition.subgraph_of(id) as usize))
        );
    }
    exit
}
