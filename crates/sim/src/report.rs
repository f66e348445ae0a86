//! Whole-partition evaluation reports.

use crate::config::BufferConfig;
use crate::cost::{CostMetric, SubgraphStats};
use serde::{Deserialize, Serialize};

/// Evaluation result of one subgraph within a partition.
///
/// Produced by [`Evaluator::eval_subgraph`](crate::Evaluator::eval_subgraph)
/// — a pure function of the subgraph's statistics, the successor's weight
/// prefetch (`next_wgt`), the buffer configuration and the evaluation
/// options — so per-subgraph terms are individually cacheable and a whole
/// partition composes with [`PartitionReport::from_parts`].
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SubgraphReport {
    /// Index of the subgraph in execution order (assigned by the roll-up).
    pub index: usize,
    /// The cached raw statistics.
    pub stats: SubgraphStats,
    /// DRAM traffic of this subgraph in bytes under the evaluated options
    /// (weights once, activations per sample, halo per extra core).
    pub ema_bytes: u64,
    /// Energy in picojoules under the evaluated buffer configuration.
    pub energy_pj: f64,
    /// Latency in core cycles (max of compute and DRAM transfer, with the
    /// next subgraph's weights prefetched during compute).
    pub latency_cycles: f64,
    /// Bandwidth requirement in bytes/cycle while this subgraph runs
    /// (next-subgraph weight prefetch + boundary activations).
    pub bw_bytes_per_cycle: f64,
    /// Whether the subgraph's footprints fit the buffer configuration.
    pub fits: bool,
}

/// Evaluation result of a whole ordered partition (paper Formulas 1 and 2).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PartitionReport {
    /// Total DRAM traffic in bytes.
    pub ema_bytes: u64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Total latency in core cycles.
    pub latency_cycles: f64,
    /// Average bandwidth requirement in GB/s (total DRAM bytes over total
    /// execution time).
    pub avg_bw_gbps: f64,
    /// Peak per-subgraph bandwidth requirement in GB/s.
    pub peak_bw_gbps: f64,
    /// Whether every subgraph fits the buffer configuration.
    pub fits: bool,
    /// Indices of subgraphs that do not fit (for in-situ repair).
    pub oversized: Vec<usize>,
    /// Per-subgraph breakdown in execution order.
    pub per_subgraph: Vec<SubgraphReport>,
    /// The buffer configuration this report was evaluated under.
    pub buffer: BufferConfig,
}

impl PartitionReport {
    /// Composes a whole-partition report from per-subgraph parts in
    /// execution order — the associative roll-up of the incremental
    /// evaluation path.
    ///
    /// The only cross-subgraph coupling of the cost model is the
    /// successor's weight prefetch, and it is already folded into each
    /// part's `bw_bytes_per_cycle` by
    /// [`Evaluator::eval_subgraph`](crate::Evaluator::eval_subgraph); the
    /// roll-up is therefore a plain in-order fold (sums, `max`, `all`),
    /// bit-identical to evaluating the partition in one pass.
    pub fn from_parts(mut parts: Vec<SubgraphReport>, buffer: BufferConfig, freq_ghz: f64) -> Self {
        let mut report = PartitionReport {
            ema_bytes: 0,
            energy_pj: 0.0,
            latency_cycles: 0.0,
            avg_bw_gbps: 0.0,
            peak_bw_gbps: 0.0,
            fits: true,
            oversized: Vec::new(),
            per_subgraph: Vec::new(),
            buffer,
        };
        for (index, part) in parts.iter_mut().enumerate() {
            part.index = index;
            if !part.fits {
                report.fits = false;
                report.oversized.push(index);
            }
            report.ema_bytes += part.ema_bytes;
            report.energy_pj += part.energy_pj;
            report.latency_cycles += part.latency_cycles;
            report.peak_bw_gbps = report.peak_bw_gbps.max(part.bw_bytes_per_cycle * freq_ghz);
        }
        report.avg_bw_gbps = report.ema_bytes as f64 / report.latency_cycles * freq_ghz;
        report.per_subgraph = parts;
        report
    }

    /// The metric value used by the cost functions.
    pub fn metric(&self, metric: CostMetric) -> f64 {
        match metric {
            CostMetric::Ema => self.ema_bytes as f64,
            CostMetric::Energy => self.energy_pj,
        }
    }

    /// Formula 1: the mapping-only cost `Σ_i Cost_M(subgraph_i)`.
    ///
    /// Returns infinity when the partition does not fit, so optimizers
    /// without a repair step reject it.
    pub fn cost_formula1(&self, metric: CostMetric) -> f64 {
        if self.fits {
            self.metric(metric)
        } else {
            f64::INFINITY
        }
    }

    /// Formula 2: the co-exploration cost `BUF_SIZE + α·Σ_i Cost_M`.
    pub fn cost_formula2(&self, metric: CostMetric, alpha: f64) -> f64 {
        if self.fits {
            self.buffer.total_bytes() as f64 + alpha * self.metric(metric)
        } else {
            f64::INFINITY
        }
    }

    /// Total latency in milliseconds at the given clock.
    pub fn latency_ms(&self, freq_ghz: f64) -> f64 {
        self.latency_cycles / (freq_ghz * 1e6)
    }

    /// Total energy in millijoules.
    pub fn energy_mj(&self) -> f64 {
        self.energy_pj / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(fits: bool) -> PartitionReport {
        PartitionReport {
            ema_bytes: 1000,
            energy_pj: 5e6,
            latency_cycles: 2e6,
            avg_bw_gbps: 4.0,
            peak_bw_gbps: 9.0,
            fits,
            oversized: vec![],
            per_subgraph: vec![],
            buffer: BufferConfig::shared(1 << 20),
        }
    }

    #[test]
    fn formula1_uses_metric() {
        let r = report(true);
        assert_eq!(r.cost_formula1(CostMetric::Ema), 1000.0);
        assert_eq!(r.cost_formula1(CostMetric::Energy), 5e6);
    }

    #[test]
    fn formula2_adds_buffer_size() {
        let r = report(true);
        let cost = r.cost_formula2(CostMetric::Energy, 0.002);
        assert!((cost - ((1 << 20) as f64 + 0.002 * 5e6)).abs() < 1e-9);
    }

    #[test]
    fn unfit_partitions_cost_infinity() {
        let r = report(false);
        assert!(r.cost_formula1(CostMetric::Ema).is_infinite());
        assert!(r.cost_formula2(CostMetric::Ema, 1.0).is_infinite());
    }

    #[test]
    fn unit_conversions() {
        let r = report(true);
        assert!((r.latency_ms(1.0) - 2.0).abs() < 1e-12);
        assert!((r.energy_mj() - 5e-3).abs() < 1e-15);
    }
}
