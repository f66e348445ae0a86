//! Search results.

use crate::genome::Genome;
use serde::{Deserialize, Serialize};

/// Result of one search run.
///
/// Serializes (infinite costs included — they round-trip exactly), so a
/// best-so-far outcome can travel inside a
/// [`DriverState`](crate::DriverState) checkpoint.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// The best genome found (repaired, canonical), if any evaluation
    /// produced a finite cost.
    pub best: Option<Genome>,
    /// Cost of the best genome (infinite when nothing fit).
    pub best_cost: f64,
    /// Budget samples consumed by this run.
    pub samples: u64,
    /// `false` when the method gave up before exploring its whole space
    /// (e.g. enumeration hitting its state budget — the paper's "cannot
    /// complete within a reasonable time").
    pub completed: bool,
}

impl SearchOutcome {
    /// An outcome carrying no solution.
    pub fn empty() -> Self {
        Self {
            best: None,
            best_cost: f64::INFINITY,
            samples: 0,
            completed: true,
        }
    }

    /// Folds another candidate into this outcome, keeping the lower cost.
    pub fn consider(&mut self, genome: Genome, cost: f64) {
        if cost < self.best_cost {
            self.best_cost = cost;
            self.best = Some(genome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocco_partition::Partition;
    use cocco_sim::BufferConfig;

    #[test]
    fn consider_keeps_minimum() {
        let mut o = SearchOutcome::empty();
        let g = |c| Genome::new(Partition::singletons(3), BufferConfig::shared(c));
        o.consider(g(1), 5.0);
        o.consider(g(2), 9.0);
        assert_eq!(o.best_cost, 5.0);
        assert_eq!(o.best.as_ref().unwrap().buffer.total_bytes(), 1);
        o.consider(g(3), 2.0);
        assert_eq!(o.best_cost, 2.0);
    }
}
