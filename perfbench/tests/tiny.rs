//! Tiny-scale runs of all four workloads through every output check, and
//! the shape of the repository's `BENCHMARK.json` against the catalogue.

use perfbench::metrics::{Reading, END_TO_END, PER_LAYER};
use perfbench::traced::traced_run;
use perfbench::workload::{explore, WORKLOADS};
use serde::Value;
use std::path::{Path, PathBuf};

/// Per-layer metrics the binary adds after the traced run (set-up reps,
/// the untraced reference and the host), not the traced run itself.
const SET_BY_BINARY: [&str; 3] = [
    "graph.build_ns",
    "bench.trace_overhead_frac",
    "bench.host_cpus",
];

fn scratch(test: &str, workload: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}-{workload}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn every_workload_passes_its_checks_and_traces_identically() {
    for workload in WORKLOADS {
        let w = workload.tiny();
        let graph = w.graph().expect("model");
        let subseed = w.subseeds(3)[0];
        let dir = scratch("tiny", w.name);
        let pristine = dir.join("pristine.json");
        let work = dir.join("work.json");
        let cache_file = w.seed_budget.map(|_| {
            w.write_seed_snapshot(&graph, subseed, &pristine)
                .expect("seeding run");
            std::fs::copy(&pristine, &work).expect("working copy");
            work.as_path()
        });

        let untraced = explore(&w, &graph, subseed, cache_file);
        assert_eq!(untraced.failures, Vec::<String>::new(), "{}", w.name);
        assert_eq!(untraced.samples, w.budget, "{}", w.name);
        assert_eq!(untraced.failed_samples, 0, "{}", w.name);
        assert!(untraced.cost().is_finite());

        if cache_file.is_some() {
            std::fs::copy(&pristine, &work).expect("working copy");
        }
        let traced = traced_run(&w, &graph, subseed, cache_file, &dir.join("save.json"))
            .expect("traced run");
        assert_eq!(traced.failures, Vec::<String>::new(), "{}", w.name);
        assert_eq!(traced.outcome.best_cost.to_bits(), untraced.cost_bits);
        assert_eq!(traced.outcome.samples, untraced.samples);
        assert_eq!(traced.outcome.best, untraced.genome, "{}", w.name);

        for def in PER_LAYER {
            let reading = traced.readings.get(def.name);
            let snapshot_metric =
                def.name.starts_with("engine.snapshot_") && def.name != "engine.snapshot_save_ns";
            match reading {
                Some(Reading::Value(v)) => {
                    assert!(v.is_finite(), "{} {} = {v}", w.name, def.name);
                    assert!(!(snapshot_metric && w.seed_budget.is_none()));
                }
                Some(Reading::Absent(_)) => assert!(
                    snapshot_metric && w.seed_budget.is_none(),
                    "{} {} absent",
                    w.name,
                    def.name
                ),
                None => assert!(SET_BY_BINARY.contains(&def.name), "{}", def.name),
            }
        }
        let spans = traced.tracer.spans();
        assert_eq!(spans[0].name, "run");
        for span in spans {
            assert!(span.end_ns >= span.start_ns, "{span:?}");
            assert!(span.parent.is_none_or(|p| p < span.id), "{span:?}");
        }
        for name in [
            "setup",
            "step",
            "propose",
            "evaluate",
            "absorb",
            "shadow.repair",
        ] {
            assert!(
                spans.iter().any(|s| s.name == name),
                "{} has no {name}",
                w.name
            );
        }
    }
}

#[test]
fn an_unusable_cache_file_fails_the_whole_budget() {
    let w = WORKLOADS[3].tiny();
    let graph = w.graph().expect("model");
    let corrupt = scratch("corrupt", w.name).join("cache.json");
    std::fs::write(&corrupt, "not a snapshot").expect("write");
    let report = explore(&w, &graph, 1, Some(&corrupt));
    assert_eq!(report.failed_samples, w.budget);
    assert!(report.failures[0].contains("explore returned an error"));
}

fn field<'v>(value: &'v Value, key: &str) -> &'v Value {
    value
        .get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn number(value: &Value) -> f64 {
    match value {
        Value::F64(v) => *v,
        Value::U64(v) => *v as f64,
        other => panic!("expected a number, found {other:?}"),
    }
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("valid JSON");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths = field(&doc, "paths").as_array().expect("paths");
    assert_eq!(paths.len(), 1);
    assert_eq!(text(&paths[0]), "perfbench");
    let command: Vec<&str> = field(&doc, "command")
        .as_array()
        .expect("command")
        .iter()
        .map(text)
        .collect();
    assert!(command.contains(&"perfbench/Cargo.toml"));

    let workloads = field(&doc, "workloads").as_array().expect("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, w) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(text(field(entry, "name")), w.name);
        assert_eq!(text(field(entry, "why")), w.why);
        assert!(w.why.len() <= 200, "{} why is too long", w.name);
    }

    let e2e = field(&doc, "end_to_end").as_array().expect("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    let mut setup_bound = 0.0;
    let mut max_bound: f64 = 0.0;
    for (entry, def) in e2e.iter().zip(END_TO_END) {
        assert_eq!(text(field(entry, "name")), def.name);
        assert_eq!(text(field(entry, "unit")), def.unit);
        assert_eq!(text(field(entry, "better")), def.better.as_str());
        let bound = number(field(entry, "bound"));
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", def.name);
        max_bound = max_bound.max(bound);
        if def.name == "setup_s" {
            setup_bound = bound;
        }
    }
    assert_eq!(setup_bound, max_bound, "setup_s carries the largest bound");

    let per_layer = field(&doc, "per_layer").as_array().expect("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, def) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(text(field(entry, "name")), def.name);
        assert_eq!(text(field(entry, "unit")), def.unit);
        assert_eq!(text(field(entry, "better")), def.better.as_str());
    }
}
