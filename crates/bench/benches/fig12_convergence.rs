//! Figure 12 — convergence and sample efficiency of the co-exploration
//! methods on ResNet50, GoogleNet and RandWire: best-cost-so-far curves
//! plus the 12(d) samples-to-reach-1.05×-Cocco table.
//!
//! Every method's trace is converted to the common Formula-2 cost
//! (`buffer + α·metric`) so fixed-HW, two-step and co-opt runs are
//! comparable point-for-point.
//!
//! Run with: `cargo bench -p cocco-bench --bench fig12_convergence`

use cocco::prelude::*;
use cocco_bench::harness::sci;
use cocco_bench::methods::fixed_shared;
use cocco_bench::{Scale, Table};

const ALPHA: f64 = 0.002;

/// Best-so-far Formula-2 curve of a context's trace, sampled at `points`
/// evenly spaced sample counts.
fn curve(ctx: &SearchContext<'_>, budget: u64, points: usize) -> Vec<(u64, f64)> {
    let mut best = f64::INFINITY;
    let mut full: Vec<(u64, f64)> = Vec::new();
    for p in ctx.trace().points() {
        if p.metric_value.is_finite() {
            let cost = p.buffer_bytes as f64 + ALPHA * p.metric_value;
            if cost < best {
                best = cost;
            }
        }
        full.push((p.sample, best));
    }
    (1..=points)
        .map(|i| {
            let at = budget * i as u64 / points as u64;
            let value = full
                .iter()
                .take_while(|(s, _)| *s < at)
                .map(|(_, c)| *c)
                .last()
                .unwrap_or(f64::INFINITY);
            (at, value)
        })
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    let budget = scale.coopt_samples;
    println!("== Figure 12: convergence over {budget} samples ==\n");
    let mut curves = Table::new("fig12_convergence", &["model", "method", "samples", "cost"]);
    let mut reach = Table::new(
        "fig12d_samples_to_reach",
        &["model", "method", "samples to 1.05x Cocco"],
    );

    for name in ["resnet50", "googlenet", "randwire-a"] {
        let model = cocco::graph::models::by_name(name).unwrap();
        let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
        let objective = Objective::co_exploration(CostMetric::Energy, ALPHA);
        let mut runs: Vec<(&str, SearchContext<'_>)> = Vec::new();

        // Fixed-HW schemes: partition-only GA at S/M/L shared buffers.
        for (label, buffer) in fixed_shared() {
            let ctx = SearchContext::new(
                &model,
                &evaluator,
                BufferSpace::fixed(buffer),
                Objective::partition_only(CostMetric::Energy),
                budget,
            );
            SearchMethod::Ga(GaConfig {
                population: scale.population,
                ..GaConfig::default()
            })
            .with_seed(1)
            .run(&ctx);
            runs.push((
                match label {
                    "Buf(S)" => "Buf(S)+GA",
                    "Buf(M)" => "Buf(M)+GA",
                    _ => "Buf(L)+GA",
                },
                ctx,
            ));
        }
        // Two-step schemes.
        for (label, method) in [("RS+GA", TwoStep::random()), ("GS+GA", TwoStep::grid())] {
            let ctx = SearchContext::new(
                &model,
                &evaluator,
                BufferSpace::paper_shared(),
                objective,
                budget,
            );
            SearchMethod::TwoStep(method.with_per_candidate((budget / 10).max(1)))
                .with_seed(2)
                .run(&ctx);
            runs.push((label, ctx));
        }
        // Co-optimization.
        {
            let ctx = SearchContext::new(
                &model,
                &evaluator,
                BufferSpace::paper_shared(),
                objective,
                budget,
            );
            SearchMethod::sa().with_seed(3).run(&ctx);
            runs.push(("SA", ctx));
        }
        let cocco_ctx = SearchContext::new(
            &model,
            &evaluator,
            BufferSpace::paper_shared(),
            objective,
            budget,
        );
        SearchMethod::Ga(GaConfig {
            population: scale.population,
            ..GaConfig::default()
        })
        .with_seed(4)
        .run(&cocco_ctx);
        runs.push(("Cocco", cocco_ctx));

        // Emit curves and the 12(d) threshold table.
        let cocco_final = curve(&runs.last().unwrap().1, budget, 50)
            .last()
            .map(|(_, c)| *c)
            .unwrap_or(f64::INFINITY);
        let threshold = 1.05 * cocco_final;
        println!(
            "{name}: Cocco final cost {} (threshold {})",
            sci(cocco_final),
            sci(threshold)
        );
        for (method, ctx) in &runs {
            for (s, c) in curve(ctx, budget, 25) {
                curves.row(&[
                    name.to_string(),
                    method.to_string(),
                    s.to_string(),
                    if c.is_finite() {
                        format!("{c:.0}")
                    } else {
                        "inf".into()
                    },
                ]);
            }
            let reached = curve(ctx, budget, 200)
                .into_iter()
                .find(|(_, c)| *c <= threshold)
                .map(|(s, _)| s.to_string())
                .unwrap_or_else(|| "never".to_string());
            reach.row(&[name.to_string(), method.to_string(), reached]);
        }
    }
    curves.emit();
    println!("== Figure 12(d): required samples to attain 1.05x of Cocco's final cost ==\n");
    reach.emit();
    println!(
        "paper shapes: Cocco converges fastest and lowest; GS+GA is slow on\n\
         models whose optimum lies at small capacities (GoogleNet, RandWire)."
    );
}
