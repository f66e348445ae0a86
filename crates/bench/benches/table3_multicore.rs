//! Table 3 — multi-core and batch evaluation under the energy-capacity
//! co-optimization: cores ∈ {1, 2, 4} × batch ∈ {1, 2, 8} for the four
//! table workloads; reports energy (mJ), latency (ms) and the chosen
//! per-core shared buffer size.
//!
//! Run with: `cargo bench -p cocco-bench --bench table3_multicore`

use cocco::prelude::*;
use cocco_bench::methods::{ExperimentCfg, TABLE_MODELS};
use cocco_bench::{Scale, Table};

fn main() {
    let scale = Scale::from_env();
    println!("== Table 3: cores x batch (energy-capacity co-opt) ==\n");
    let mut table = Table::new(
        "table3_multicore",
        &[
            "model",
            "cores",
            "batch",
            "energy mJ",
            "latency ms",
            "size KB",
        ],
    );
    for name in TABLE_MODELS {
        let model = cocco::graph::models::by_name(name).unwrap();
        let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
        for cores in [1u32, 2, 4] {
            for batch in [1u32, 2, 8] {
                let options = EvalOptions::new(cores, batch).expect("nonzero cores/batch");
                let cfg = ExperimentCfg {
                    model: &model,
                    evaluator: &evaluator,
                    metric: CostMetric::Energy,
                    alpha: 0.002,
                    budget: scale.coopt_samples / 2,
                    refine_budget: scale.coopt_samples / 4,
                    population: scale.population,
                    options,
                    seed: 3,
                };
                let result = cfg.co_opt(SearchMethod::Ga(cfg.ga()), BufferSpace::paper_shared());
                let (energy_mj, latency_ms) = match &result.partition {
                    Some(p) => {
                        let report = evaluator
                            .eval_partition(&p.subgraphs(), &result.buffer, options)
                            .expect("evaluation");
                        (report.energy_mj(), report.latency_ms(1.0))
                    }
                    None => (f64::NAN, f64::NAN),
                };
                table.row(&[
                    name.to_string(),
                    cores.to_string(),
                    batch.to_string(),
                    format!("{energy_mj:.2}"),
                    format!("{latency_ms:.2}"),
                    format!("{}", result.buffer.total_bytes() >> 10),
                ]);
            }
        }
    }
    table.emit();
    println!(
        "paper shapes: energy rises from 1 to 2 cores (crossbar weight\n\
         rotation) while latency drops ~linearly with cores; batch latency\n\
         and energy grow sub-linearly (weights amortized); per-core capacity\n\
         falls as cores share weights."
    );
}
