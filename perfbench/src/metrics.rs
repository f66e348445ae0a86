//! Metric definitions, run-level statistics and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's metric catalogue;
//! `BENCHMARK.json` at the repository root mirrors them (the crate's tests
//! check that the two agree).

use serde::Value;

/// Which way a metric improves.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One catalogue entry.
#[derive(Copy, Clone, Debug)]
pub struct MetricDef {
    /// Metric name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, measured with tracing off. `error_rate` is printed
/// beside them but carried in the result line as `failed / attempted`: it
/// is 0 on a healthy run, and a gated metric must never read 0.
pub const END_TO_END: [MetricDef; 4] = [
    def("samples_per_s", "samples/s", Better::Higher),
    def("setup_s", "s", Better::Lower),
    def("best_cost", "cost", Better::Lower),
    def("peak_rss_mb", "MiB", Better::Lower),
];

/// Per-layer metrics of the traced run. Times are medians per call.
pub const PER_LAYER: [MetricDef; 37] = [
    def("graph.build_ns", "ns", Better::Lower),
    def("search.propose_ns", "ns", Better::Lower),
    def("search.absorb_ns", "ns", Better::Lower),
    def("search.steps", "count", Better::Lower),
    def("search.candidates_per_step", "count", Better::Higher),
    def("search.improve_frac", "fraction", Better::Higher),
    def("search.novel_frac", "fraction", Better::Lower),
    def("search.best_ema_mb", "MB", Better::Lower),
    def("search.best_buffer_kb", "KB", Better::Lower),
    def("engine.evaluate_ns", "ns", Better::Lower),
    def("engine.evaluate_per_candidate_ns", "ns", Better::Lower),
    def("engine.hit_rate", "fraction", Better::Higher),
    def("engine.subgraph_hit_rate", "fraction", Better::Higher),
    def("engine.subgraph_scorings", "count", Better::Lower),
    def("engine.batch_wall_ns", "ns", Better::Lower),
    def("engine.dispatched_jobs", "count", Better::Lower),
    def("engine.chunks", "count", Better::Lower),
    def("engine.inline_batches", "count", Better::Higher),
    def("engine.cache_entries", "count", Better::Lower),
    def("engine.snapshot_load_ns", "ns", Better::Lower),
    def("engine.snapshot_bytes", "B", Better::Lower),
    def("engine.snapshot_entries", "count", Better::Higher),
    def("engine.snapshot_save_ns", "ns", Better::Lower),
    def("partition.repair_ns", "ns", Better::Lower),
    def("partition.connectivity_ns", "ns", Better::Lower),
    def("partition.split_ns", "ns", Better::Lower),
    def("partition.fits_per_repair", "count", Better::Lower),
    def("partition.altered_frac", "fraction", Better::Lower),
    def("sim.fits_ns", "ns", Better::Lower),
    def("sim.stats_hit_rate", "fraction", Better::Higher),
    def("sim.stats_lock_waits", "count", Better::Lower),
    def("sim.stats_cold_ns", "ns", Better::Lower),
    def("sim.eval_partition_ns", "ns", Better::Lower),
    def("faults.seen", "count", Better::Lower),
    def("bench.unattributed_frac", "fraction", Better::Lower),
    def("bench.trace_overhead_frac", "fraction", Better::Lower),
    def("bench.host_cpus", "count", Better::Higher),
];

/// A reported value: measured, or absent with the reason.
#[derive(Clone, Debug, PartialEq)]
pub enum Reading {
    /// The measured value.
    Value(f64),
    /// Not measurable on this run; the reason is printed.
    Absent(String),
}

/// Named readings of one run, checked against a catalogue on output.
#[derive(Clone, Debug, Default)]
pub struct Readings {
    entries: Vec<(&'static str, Reading)>,
}

impl Readings {
    /// Records a measured value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.entries.push((name, Reading::Value(value)));
    }

    /// Records a value that may be absent.
    pub fn set_reading(&mut self, name: &'static str, reading: Reading) {
        self.entries.push((name, reading));
    }

    /// The reading recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Reading> {
        self.entries
            .iter()
            .find(|(entry, _)| *entry == name)
            .map(|(_, reading)| reading)
    }

    /// One human-readable line per catalogue entry, in catalogue order.
    /// A catalogue entry with no reading is reported absent.
    pub fn lines(&self, catalogue: &[MetricDef]) -> Vec<String> {
        catalogue
            .iter()
            .map(|def| match self.get(def.name) {
                Some(Reading::Value(v)) => format!("{:<34} {v} {}", def.name, def.unit),
                Some(Reading::Absent(reason)) => {
                    format!("{:<34} absent ({reason})", def.name)
                }
                None => format!("{:<34} absent (not recorded)", def.name),
            })
            .collect()
    }

    /// The `metrics` object of the result line: every catalogue entry as
    /// `{"value", "unit"}`. An absent reading is written as 0; its reason
    /// is on the human-readable lines above the result.
    pub fn json(&self, catalogue: &[MetricDef]) -> Value {
        Value::Object(
            catalogue
                .iter()
                .map(|def| {
                    let value = match self.get(def.name) {
                        Some(Reading::Value(v)) => *v,
                        _ => 0.0,
                    };
                    (
                        def.name.to_string(),
                        Value::Object(vec![
                            ("value".to_string(), Value::F64(value)),
                            ("unit".to_string(), Value::Str(def.unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(failed)),
        ("metrics".to_string(), metrics),
    ]);
    serde_json::to_string(&line).unwrap_or_else(|e| format!("{{\"error\": \"{e}\"}}"))
}

/// Median of `values` (the mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// [`median`] of integer samples (nanoseconds, counts).
pub fn median_u64(values: &[u64]) -> Option<f64> {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// `numerator / denominator`, absent when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64, what: &str) -> Reading {
    if denominator == 0.0 {
        Reading::Absent(format!("no {what}"))
    } else {
        Reading::Value(numerator / denominator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn absent_readings_are_zero_in_json_and_named_in_lines() {
        let mut r = Readings::default();
        r.set("setup_s", 0.5);
        let json = serde_json::to_string(&r.json(&END_TO_END)).unwrap_or_default();
        assert!(json.contains("\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}"));
        assert!(json.contains("\"best_cost\":{\"value\":0"));
        let lines = r.lines(&END_TO_END);
        assert!(lines[2].contains("absent (not recorded)"));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        for (i, name) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(name), "{name} listed twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
