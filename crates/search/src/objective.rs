//! Objectives and buffer search spaces.

use cocco_sim::{BufferConfig, CapacityRange, CostMetric};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The buffer design space a search explores.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BufferSpace {
    /// A single fixed configuration (partition-only search).
    Fixed(BufferConfig),
    /// Separate global/weight buffers, each on a capacity grid.
    Separate {
        /// Global (activation) buffer range.
        glb: CapacityRange,
        /// Weight buffer range.
        wgt: CapacityRange,
    },
    /// One shared buffer on a capacity grid.
    Shared(CapacityRange),
}

impl BufferSpace {
    /// Fixed-configuration space.
    pub fn fixed(config: BufferConfig) -> Self {
        BufferSpace::Fixed(config)
    }

    /// The paper's separate-buffer co-exploration space
    /// (GLB 128–2048 KB /64, WGT 144–2304 KB /72).
    pub fn paper_separate() -> Self {
        BufferSpace::Separate {
            glb: CapacityRange::paper_glb(),
            wgt: CapacityRange::paper_wgt(),
        }
    }

    /// The paper's shared-buffer co-exploration space (128–3072 KB /64).
    pub fn paper_shared() -> Self {
        BufferSpace::Shared(CapacityRange::paper_shared())
    }

    /// `true` when the space holds exactly one configuration.
    pub fn is_fixed(&self) -> bool {
        matches!(self, BufferSpace::Fixed(_))
    }

    /// Samples a configuration uniformly from the space.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> BufferConfig {
        match self {
            BufferSpace::Fixed(c) => *c,
            BufferSpace::Separate { glb, wgt } => BufferConfig::separate(
                glb.candidate(rng.gen_range(0..glb.len())),
                wgt.candidate(rng.gen_range(0..wgt.len())),
            ),
            BufferSpace::Shared(r) => BufferConfig::shared(r.candidate(rng.gen_range(0..r.len()))),
        }
    }

    /// Snaps an arbitrary configuration onto the space's grid (identity for
    /// fixed spaces).
    pub fn snap(&self, config: BufferConfig) -> BufferConfig {
        match (self, config) {
            (BufferSpace::Fixed(c), _) => *c,
            (BufferSpace::Separate { glb, wgt }, BufferConfig::Separate { glb: g, wgt: w }) => {
                BufferConfig::separate(glb.snap(g), wgt.snap(w))
            }
            (BufferSpace::Separate { glb, wgt }, BufferConfig::Shared { total }) => {
                // Split a shared total proportionally to the grid midpoints.
                BufferConfig::separate(glb.snap(total / 2), wgt.snap(total / 2))
            }
            (BufferSpace::Shared(r), c) => BufferConfig::shared(r.snap(c.total_bytes())),
        }
    }

    /// Perturbs a configuration with Gaussian noise of `sigma` (as a
    /// fraction of each range's span), snapped back onto the grid — the
    /// paper's `mutation-DSE`.
    pub fn perturb<R: Rng + ?Sized>(
        &self,
        config: BufferConfig,
        sigma: f64,
        rng: &mut R,
    ) -> BufferConfig {
        let jitter = |value: u64, range: &CapacityRange, rng: &mut R| -> u64 {
            let span = (range.max - range.min) as f64;
            let noise = gaussian(rng) * sigma * span;
            let v = value as f64 + noise;
            range.snap(v.max(0.0) as u64)
        };
        match (self, config) {
            (BufferSpace::Fixed(c), _) => *c,
            (BufferSpace::Separate { glb, wgt }, BufferConfig::Separate { glb: g, wgt: w }) => {
                BufferConfig::separate(jitter(g, glb, rng), jitter(w, wgt, rng))
            }
            (BufferSpace::Separate { .. }, shared) => self.snap(shared),
            (BufferSpace::Shared(r), c) => BufferConfig::shared(jitter(c.total_bytes(), r, rng)),
        }
    }

    /// Averages two configurations and snaps to the grid — the paper's
    /// hardware crossover rule ("the average of its parents, rounded to the
    /// nearest candidate value").
    pub fn blend(&self, a: BufferConfig, b: BufferConfig) -> BufferConfig {
        match self {
            BufferSpace::Fixed(c) => *c,
            BufferSpace::Separate { .. } => {
                let (ga, wa) = split(a);
                let (gb, wb) = split(b);
                self.snap(BufferConfig::separate((ga + gb) / 2, (wa + wb) / 2))
            }
            BufferSpace::Shared(_) => self.snap(BufferConfig::shared(
                (a.total_bytes() + b.total_bytes()) / 2,
            )),
        }
    }

    /// The last [`grid`](Self::grid) point — the largest configuration —
    /// without materializing the grid: the fixed hardware the
    /// deterministic baselines (greedy, DP, enumeration) run on.
    pub fn largest(&self) -> BufferConfig {
        let last = |r: &CapacityRange| r.candidate(r.len() - 1);
        match self {
            BufferSpace::Fixed(c) => *c,
            BufferSpace::Separate { glb, wgt } => BufferConfig::separate(last(glb), last(wgt)),
            BufferSpace::Shared(r) => BufferConfig::shared(last(r)),
        }
    }

    /// Every configuration of the space on its grid (for grid search);
    /// fixed spaces yield their single configuration.
    pub fn grid(&self) -> Vec<BufferConfig> {
        match self {
            BufferSpace::Fixed(c) => vec![*c],
            BufferSpace::Separate { glb, wgt } => {
                let mut out = Vec::with_capacity(glb.len() * wgt.len());
                for g in glb.iter() {
                    for w in wgt.iter() {
                        out.push(BufferConfig::separate(g, w));
                    }
                }
                out
            }
            BufferSpace::Shared(r) => r.iter().map(BufferConfig::shared).collect(),
        }
    }
}

fn split(c: BufferConfig) -> (u64, u64) {
    match c {
        BufferConfig::Separate { glb, wgt } => (glb, wgt),
        BufferConfig::Shared { total } => (total / 2, total / 2),
    }
}

/// Box–Muller standard normal sample.
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The optimization objective (paper Formulas 1 and 2).
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Objective {
    /// The metric `M`.
    pub metric: CostMetric,
    /// `None` ⇒ Formula 1 (partition-only); `Some(α)` ⇒ Formula 2.
    pub alpha: Option<f64>,
}

impl Objective {
    /// Formula 1: minimize `Σ Cost_M` at a fixed buffer.
    pub fn partition_only(metric: CostMetric) -> Self {
        Self {
            metric,
            alpha: None,
        }
    }

    /// Formula 2: minimize `BUF_SIZE + α·Σ Cost_M`.
    pub fn co_exploration(metric: CostMetric, alpha: f64) -> Self {
        Self {
            metric,
            alpha: Some(alpha),
        }
    }

    /// The paper's energy-capacity co-optimization (α = 0.002).
    pub fn paper_energy_capacity() -> Self {
        Self::co_exploration(CostMetric::Energy, 0.002)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_stays_on_grid() {
        let space = BufferSpace::paper_shared();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let c = space.sample(&mut rng);
            let t = c.total_bytes();
            assert!((128 << 10..=3072 << 10).contains(&t));
            assert_eq!((t - (128 << 10)) % (64 << 10), 0);
        }
    }

    #[test]
    fn blend_averages() {
        let space = BufferSpace::paper_shared();
        let a = BufferConfig::shared(128 << 10);
        let b = BufferConfig::shared(384 << 10);
        assert_eq!(space.blend(a, b).total_bytes(), 256 << 10);
    }

    #[test]
    fn perturb_respects_fixed_space() {
        let fixed = BufferSpace::fixed(BufferConfig::shared(1 << 20));
        let mut rng = StdRng::seed_from_u64(2);
        let p = fixed.perturb(BufferConfig::shared(123), 0.5, &mut rng);
        assert_eq!(p.total_bytes(), 1 << 20);
    }

    #[test]
    fn grid_enumerates_everything() {
        let space = BufferSpace::Shared(CapacityRange::new(100, 300, 100));
        assert_eq!(space.grid().len(), 3);
        let sep = BufferSpace::Separate {
            glb: CapacityRange::new(100, 200, 100),
            wgt: CapacityRange::new(100, 300, 100),
        };
        assert_eq!(sep.grid().len(), 6);
        let fixed = BufferSpace::fixed(BufferConfig::shared(1 << 20));
        // A range whose max is off the step grid ends below max.
        let off_step = BufferSpace::Shared(CapacityRange::new(100, 250, 100));
        for space in [fixed, space, sep, off_step, BufferSpace::paper_separate()] {
            assert_eq!(space.grid().last(), Some(&space.largest()));
        }
    }

    #[test]
    fn separate_blend_rounds_per_buffer() {
        let space = BufferSpace::paper_separate();
        let a = BufferConfig::separate(128 << 10, 144 << 10);
        let b = BufferConfig::separate(256 << 10, 288 << 10);
        let c = space.blend(a, b);
        assert_eq!(c, BufferConfig::separate(192 << 10, 216 << 10));
    }
}
