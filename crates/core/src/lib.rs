//! **Cocco** — hardware-mapping co-exploration towards memory
//! capacity-communication optimization.
//!
//! This crate is the facade of a full reproduction of the ASPLOS'24 paper
//! by Tan, Zhu and Ma. It re-exports every subsystem and offers a
//! high-level driver ([`Cocco`]) that mirrors the framework of the paper's
//! Figure 10: feed it a model, a memory design space and a search method,
//! get back a recommended memory configuration, graph-execution strategy
//! and performance evaluation.
//!
//! # Subsystems
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `cocco-graph` | computation-graph IR + model zoo |
//! | [`tiling`] | `cocco-tiling` | consumption-centric execution flow (§3.1) |
//! | [`mem`] | `cocco-mem` | MAIN/SIDE regions, region manager, footprints (§3.2) |
//! | [`sim`] | `cocco-sim` | SIMBA-like NPU cost model (§5.1) |
//! | [`partition`] | `cocco-partition` | partitions, validity, repair (§4.1) |
//! | [`engine`] | `cocco-engine` | parallel, memoized evaluation engine |
//! | [`faults`] | `cocco-faults` | seeded fault injection + recovery accounting |
//! | [`search`] | `cocco-search` | method registry: GA + all baselines (§4.2-4.4) |
//! | [`telemetry`] | `cocco-telemetry` | spans, metrics, per-phase profiling (observation-only) |
//!
//! # Quickstart
//!
//! One exploration session, method-agnostic: pick a model and a memory
//! design space, select any method from the registry and read the
//! recommendation. Every fallible step returns the unified [`Error`].
//!
//! ```
//! use cocco::prelude::*;
//!
//! # fn main() -> Result<(), cocco::Error> {
//! let model = cocco::graph::models::diamond();
//! let exploration = Cocco::new()
//!     .with_space(BufferSpace::paper_shared())
//!     .with_objective(Objective::paper_energy_capacity())
//!     .with_method(SearchMethod::ga()) // or sa(), greedy(), depth_dp(), ...
//!     .with_budget(2_000)
//!     .with_seed(7)
//!     .explore(&model)?;
//! println!(
//!     "recommended buffer: {} KB, energy: {:.3} mJ ({} samples)",
//!     exploration.genome.buffer.total_bytes() >> 10,
//!     exploration.report.energy_mj(),
//!     exploration.samples,
//! );
//! // Results round-trip as JSON for archiving and post-processing.
//! let json = serde_json::to_string(&exploration).map_err(cocco::Error::Serde)?;
//! let back: Exploration = serde_json::from_str(&json)?;
//! assert_eq!(back.genome, exploration.genome);
//! # Ok(())
//! # }
//! ```

pub use cocco_engine as engine;
pub use cocco_faults as faults;
pub use cocco_graph as graph;
pub use cocco_mem as mem;
pub use cocco_partition as partition;
pub use cocco_search as search;
pub use cocco_sim as sim;
pub use cocco_telemetry as telemetry;
pub use cocco_tiling as tiling;

mod error;
mod framework;
pub mod prelude;

pub use error::{Error, SalvagedBest};
pub use framework::{Cocco, Exploration};
