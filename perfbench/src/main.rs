//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload's seeded explorations through
//! `Cocco::explore`, each in a child process of its own (so `VmHWM` is the
//! high-water mark of that exploration alone), checks every output and
//! prints the end-to-end metrics. With `--trace 1` it runs one traced,
//! hand-stepped search beside an untraced one of the same sub-seed and
//! prints the per-layer metrics. The last line of standard output is the
//! JSON result; the exit code is 0 only when every check passed.
//! Scratch files live under `.perfbench/` in the working directory.

use cocco::telemetry::Stopwatch;
use perfbench::metrics::{median, median_u64, result_line, Readings, END_TO_END, PER_LAYER};
use perfbench::traced::traced_run;
use perfbench::workload::{explore, time_setup, ExploreReport, Workload, WORKLOADS};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// First argument of the child process that runs one exploration.
const CHILD: &str = "--explore-one";

/// Set-ups timed after each exploration; `setup_s` is their median. A
/// warm set-up parses a snapshot and costs far more than a cold one.
const COLD_SETUPS_PER_EXPLORATION: usize = 5;
const WARM_SETUPS_PER_EXPLORATION: usize = 1;

/// Untraced explorations of the traced sub-seed in a `--trace 1` run.
const UNTRACED_REFERENCE_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(CHILD) {
        return child(&argv[1..]);
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = Path::new(".perfbench").join(format!("tmp-{}", std::process::id()));
    let outcome = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))
        .and_then(|()| run(&args, &scratch));
    if let Err(e) = std::fs::remove_dir_all(&scratch) {
        eprintln!("perfbench: cannot remove {}: {e}", scratch.display());
    }
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Child process: one exploration, reported as one JSON line.
fn child(argv: &[String]) -> ExitCode {
    let report = (|| -> Result<ExploreReport, String> {
        let [name, subseed, rest @ ..] = argv else {
            return Err(format!("{CHILD} <workload> <subseed> [cache-file]"));
        };
        let workload = Workload::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
        let subseed = subseed
            .parse()
            .map_err(|_| format!("bad subseed {subseed}"))?;
        let graph = workload.graph()?;
        let mut report = explore(&workload, &graph, subseed, rest.first().map(Path::new));
        report.peak_rss_kb = peak_rss_kb()?;
        Ok(report)
    })();
    match report.and_then(|r| serde_json::to_string(&r).map_err(|e| e.to_string())) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench child: {e}");
            ExitCode::from(2)
        }
    }
}

/// `VmHWM` of this process, in KiB.
fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs one exploration in a child process and waits for it.
fn explore_in_child(
    workload: &Workload,
    subseed: u64,
    cache_file: Option<&Path>,
) -> Result<ExploreReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(CHILD).arg(workload.name).arg(subseed.to_string());
    if let Some(path) = cache_file {
        cmd.arg(path);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run an exploration: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "exploration {subseed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("unreadable exploration report: {e}"))
}

/// Pristine and working snapshot paths of a warm workload.
struct Snapshots {
    dir: PathBuf,
}

impl Snapshots {
    fn pristine(&self, subseed: u64) -> PathBuf {
        self.dir.join(format!("pristine-{subseed}.json"))
    }

    /// A fresh copy of the pristine snapshot for one timed exploration
    /// (the facade writes the merged cache back to it).
    fn working_copy(&self, subseed: u64) -> Result<PathBuf, String> {
        let work = self.dir.join("work.json");
        std::fs::copy(self.pristine(subseed), &work)
            .map_err(|e| format!("cannot copy the pristine snapshot: {e}"))?;
        Ok(work)
    }
}

/// Everything a run prints besides its metrics.
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, budget: u64, failed_samples: u64, failures: &[String]) {
        self.attempted += budget;
        self.failed += failed_samples;
        self.failures.extend(failures.iter().cloned());
    }
}

fn run(args: &Args, scratch: &Path) -> Result<bool, String> {
    let w = args.workload;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let graph = w.graph()?;
    let subseeds = if args.trace {
        w.subseeds(args.seed)[..1].to_vec()
    } else {
        w.subseeds(args.seed)
    };
    println!(
        "# perfbench {} seed={} model={} budget={} explorations={} threads={:?} host_cpus={host_cpus}",
        w.name,
        args.seed,
        w.model,
        w.budget,
        subseeds.len(),
        w.threads,
    );
    let snapshots = Snapshots {
        dir: scratch.to_path_buf(),
    };
    if w.seed_budget.is_some() {
        for &s in &subseeds {
            w.write_seed_snapshot(&graph, s, &snapshots.pristine(s))?;
        }
    }
    let setup_snapshot = w.seed_budget.map(|_| snapshots.pristine(subseeds[0]));
    let mut setups = Vec::new();
    let setups_per_exploration = match setup_snapshot {
        Some(_) => WARM_SETUPS_PER_EXPLORATION,
        None => COLD_SETUPS_PER_EXPLORATION,
    };
    let mut time_setups = || -> Result<(), String> {
        for _ in 0..setups_per_exploration {
            setups.push(time_setup(&w, setup_snapshot.as_deref())?);
        }
        Ok(())
    };
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let mut explore_checked = |s: u64| -> Result<ExploreReport, String> {
        let cache_file = match w.seed_budget {
            Some(_) => Some(snapshots.working_copy(s)?),
            None => None,
        };
        let report = explore_in_child(&w, s, cache_file.as_deref())?;
        tally.add(report.budget, report.failed_samples, &report.failures);
        Ok(report)
    };

    let mut r = Readings::default();
    let catalogue = if args.trace {
        let s = subseeds[0];
        let mut untraced = Vec::new();
        for _ in 0..UNTRACED_REFERENCE_RUNS {
            untraced.push(explore_checked(s)?);
            time_setups()?;
        }
        let traced = traced_run(
            &w,
            &graph,
            s,
            match w.seed_budget {
                Some(_) => Some(snapshots.working_copy(s)?),
                None => None,
            }
            .as_deref(),
            &scratch.join("traced-save.json"),
        )?;
        check_repeats(&untraced, &mut tally);
        let reference = &untraced[0];
        let mut failures = traced.failures;
        if (reference.cost_bits, reference.samples, &reference.genome)
            != (
                traced.outcome.best_cost.to_bits(),
                traced.outcome.samples,
                &traced.outcome.best,
            )
        {
            failures.push(format!(
                "traced outcome (cost {:e}, {} samples) differs from the untraced one \
                 (cost {:e}, {} samples)",
                traced.outcome.best_cost,
                traced.outcome.samples,
                reference.cost(),
                reference.samples
            ));
        }
        let failed = if failures.is_empty() {
            traced.failed_samples
        } else {
            w.budget
        };
        tally.add(w.budget, failed, &failures);
        r = traced.readings;
        let graph_ns: Vec<u64> = setups.iter().map(|s| s.graph_ns).collect();
        r.set("graph.build_ns", median_u64(&graph_ns).unwrap_or(0.0));
        let untraced_wall: Vec<u64> = untraced.iter().map(|u| u.wall_ns).collect();
        let untraced_wall = median_u64(&untraced_wall).unwrap_or(0.0);
        r.set(
            "bench.trace_overhead_frac",
            1.0 - untraced_wall / traced.traced_wall_ns as f64,
        );
        r.set("bench.host_cpus", host_cpus as f64);
        write_spans(&w, args.seed, s, host_cpus, &r, &traced.tracer);
        &PER_LAYER[..]
    } else {
        // Passes over the sub-seeds until the time is up (at least one),
        // with set-ups timed between explorations so both see the same
        // host conditions.
        let clock = Stopwatch::start();
        let mut runs: Vec<Vec<ExploreReport>> = vec![Vec::new(); subseeds.len()];
        loop {
            let pass = Stopwatch::start();
            for (i, &s) in subseeds.iter().enumerate() {
                runs[i].push(explore_checked(s)?);
                time_setups()?;
            }
            if clock.elapsed() + pass.elapsed() > std::time::Duration::from_secs(args.seconds) {
                break;
            }
        }
        for (s, reports) in subseeds.iter().zip(&runs) {
            check_repeats(reports, &mut tally);
            let walls: Vec<String> = reports
                .iter()
                .map(|x| format!("{:.1}", x.wall_ns as f64 / 1e6))
                .collect();
            println!(
                "# subseed {s}: cost {:e}, wall {} ms",
                reports[0].cost(),
                walls.join(" ")
            );
        }
        let all: Vec<&ExploreReport> = runs.iter().flatten().collect();
        let throughput: Vec<f64> = all
            .iter()
            .map(|x| x.budget as f64 / (x.wall_ns as f64 / 1e9))
            .collect();
        r.set("samples_per_s", median(&throughput).unwrap_or(0.0));
        let setup_ns: Vec<u64> = setups.iter().map(|s| s.total_ns).collect();
        r.set("setup_s", median_u64(&setup_ns).unwrap_or(0.0) / 1e9);
        let costs: Vec<f64> = runs.iter().map(|reports| reports[0].cost()).collect();
        r.set("best_cost", median(&costs).unwrap_or(f64::INFINITY));
        let rss: Vec<u64> = all.iter().map(|x| x.peak_rss_kb).collect();
        r.set("peak_rss_mb", median_u64(&rss).unwrap_or(0.0) / 1024.0);
        &END_TO_END[..]
    };

    let correct = tally.failures.is_empty();
    for line in r.lines(catalogue) {
        println!("{line}");
    }
    println!(
        "{:<34} {} fraction ({} of {} samples failed)",
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for failure in &tally.failures {
        println!("FAILED: {failure}");
    }
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, r.json(catalogue))
    );
    Ok(correct)
}

/// Repeated explorations of one sub-seed must agree bit for bit; a
/// disagreeing repeat fails its whole budget.
fn check_repeats(reports: &[ExploreReport], tally: &mut Tally) {
    let Some(first) = reports.first() else {
        return;
    };
    for other in &reports[1..] {
        if (other.cost_bits, other.samples, &other.genome)
            != (first.cost_bits, first.samples, &first.genome)
        {
            tally.failed += other.budget - other.failed_samples;
            tally.failures.push(format!(
                "sub-seed {}: repeated explorations disagree ({:e} vs {:e})",
                first.subseed,
                first.cost(),
                other.cost()
            ));
        }
    }
}

/// Writes the traced run's spans to `.perfbench/spans-<workload>.jsonl`,
/// after a header naming the run and every absent metric.
fn write_spans(
    w: &Workload,
    seed: u64,
    subseed: u64,
    host_cpus: usize,
    r: &Readings,
    tracer: &perfbench::traced::Tracer,
) {
    let absent: Vec<(String, Value)> = PER_LAYER
        .iter()
        .filter_map(|def| match r.get(def.name) {
            Some(perfbench::metrics::Reading::Value(_)) => None,
            Some(perfbench::metrics::Reading::Absent(reason)) => {
                Some((def.name.to_string(), Value::Str(reason.clone())))
            }
            None => Some((def.name.to_string(), Value::Str("not recorded".into()))),
        })
        .collect();
    let header = Value::Object(vec![
        ("workload".into(), Value::Str(w.name.into())),
        ("seed".into(), Value::U64(seed)),
        ("subseed".into(), Value::U64(subseed)),
        ("budget".into(), Value::U64(w.budget)),
        ("host_cpus".into(), Value::U64(host_cpus as u64)),
        ("absent".into(), Value::Object(absent)),
    ]);
    let path = Path::new(".perfbench").join(format!("spans-{}.jsonl", w.name));
    match tracer.write_jsonl(&path, &header) {
        Ok(()) => println!("# spans: {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
