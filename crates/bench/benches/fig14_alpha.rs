//! Figure 14 — the α trade-off: larger α trades memory capacity for lower
//! energy. Energy is normalized to the α = 5e-4 result per model.
//!
//! Run with: `cargo bench -p cocco-bench --bench fig14_alpha`

use cocco::prelude::*;
use cocco_bench::methods::{ExperimentCfg, TABLE_MODELS};
use cocco_bench::{Scale, Table};

fn main() {
    let scale = Scale::from_env();
    println!("== Figure 14: energy vs capacity across alpha ==\n");
    let alphas = [5e-4, 1e-3, 2e-3, 5e-3, 1e-2];
    let mut table = Table::new(
        "fig14_alpha",
        &["model", "alpha", "capacity MB", "energy mJ", "energy norm"],
    );
    for name in TABLE_MODELS {
        let model = cocco::graph::models::by_name(name).unwrap();
        let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
        let mut base_energy: Option<f64> = None;
        for alpha in alphas {
            let cfg = ExperimentCfg {
                model: &model,
                evaluator: &evaluator,
                metric: CostMetric::Energy,
                alpha,
                budget: scale.coopt_samples,
                refine_budget: scale.coopt_samples / 2,
                population: scale.population,
                options: EvalOptions::default(),
                seed: 14,
            };
            let result = cfg.co_opt(SearchMethod::Ga(cfg.ga()), BufferSpace::paper_shared());
            // Recover the achieved energy from the final cost decomposition.
            let energy_pj = (result.cost - result.buffer.total_bytes() as f64) / alpha;
            let energy_mj = energy_pj / 1e9;
            let base = *base_energy.get_or_insert(energy_mj);
            table.row(&[
                name.to_string(),
                format!("{alpha:.0e}"),
                format!(
                    "{:.3}",
                    result.buffer.total_bytes() as f64 / (1 << 20) as f64
                ),
                format!("{energy_mj:.3}"),
                format!("{:.3}", energy_mj / base),
            ]);
        }
    }
    table.emit();
    println!(
        "paper shapes: capacity grows and energy falls with larger alpha;\n\
         NasNet needs the largest capacities for its energy gains."
    );
}
