//! Customize the accelerator model and inspect the consumption-centric
//! execution scheme of a subgraph (paper §3.1) on an irregular RandWire
//! network.
//!
//! Run with: `cargo run --release -p cocco --example custom_npu`

use cocco::mem::footprint::subgraph_footprint;
use cocco::prelude::*;

fn main() -> Result<(), cocco::Error> {
    // An 8x8 PE array at 1.2 GHz with 32 GB/s of DRAM — a beefier core
    // than the paper's default.
    let accel = AcceleratorConfig {
        pe_rows: 8,
        pe_cols: 8,
        freq_ghz: 1.2,
        dram_gbps: 32.0,
        mapper: Mapper::new(MapperPolicy::Tile { rows: 4, cols: 16 }),
        ..AcceleratorConfig::default()
    };
    println!("peak throughput: {:.2} TOPS", accel.peak_tops());

    let model = cocco::graph::models::randwire_a();
    println!("{model}");

    let evaluator = Evaluator::new(&model, accel.clone());
    let ctx = SearchContext::new(
        &model,
        &evaluator,
        BufferSpace::paper_shared(),
        Objective::paper_energy_capacity(),
        4_000,
    );
    let outcome = SearchMethod::ga().with_seed(7).run(&ctx);
    let best = outcome.best.expect("feasible solution");
    println!(
        "recommended buffer {} KB, cost {:.3e}",
        best.buffer.total_bytes() >> 10,
        outcome.best_cost
    );

    // Inspect the derived execution scheme of the largest subgraph.
    let subgraphs = best.partition.subgraphs();
    let largest = subgraphs.iter().max_by_key(|m| m.len()).unwrap();
    let scheme = derive_scheme(&model, largest, &accel.mapper)?;
    let fp = subgraph_footprint(&model, largest, &scheme, 1);
    println!(
        "\nlargest subgraph: {} layers, {} buffer regions, {:.1} KB activations, {:.1} KB weights",
        largest.len(),
        fp.regions,
        fp.activation_bytes as f64 / 1024.0,
        fp.weight_bytes as f64 / 1024.0
    );
    println!(
        "{:<22} {:>10} {:>10} {:>8} {:>8}",
        "layer", "Δ (h,w)", "x (h,w)", "upd", "side?"
    );
    for (id, s) in scheme.iter() {
        println!(
            "{:<22} {:>10} {:>10} {:>8} {:>8}",
            model.node(id).name(),
            format!("{},{}", s.delta.h, s.delta.w),
            format!("{},{}", s.tile.h, s.tile.w),
            format!("{}x{}", s.upd_num.h, s.upd_num.w),
            if s.interior_consumed && s.overlap_rows() > 0 {
                "yes"
            } else {
                "-"
            }
        );
    }
    Ok(())
}
