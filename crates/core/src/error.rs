//! The unified error hierarchy of the Cocco framework.
//!
//! Every subsystem keeps its own precise error enum ([`GraphError`],
//! [`MemError`], [`PartitionError`], [`TilingError`], [`SimError`]); this
//! module folds them — plus the facade-level failure modes — into one
//! [`Error`] type with `From` conversions and `source()` chaining, so
//! application code can use a single `Result<_, cocco::Error>` across graph
//! construction, exploration and (de)serialization.
//!
//! # Examples
//!
//! ```
//! use cocco::prelude::*;
//!
//! fn build_and_explore() -> Result<Exploration, cocco::Error> {
//!     let mut b = GraphBuilder::new("two-layer");
//!     let input = b.input(TensorShape::new(16, 16, 8));
//!     let c1 = b.conv("c1", input, 8, Kernel::pointwise())?; // GraphError -> Error
//!     b.conv("c2", c1, 8, Kernel::pointwise())?;
//!     let model = b.finish()?;
//!     Cocco::new().with_budget(200).explore(&model)
//! }
//! # build_and_explore().unwrap();
//! ```

use cocco_graph::GraphError;
use cocco_mem::MemError;
use cocco_partition::PartitionError;
use cocco_search::Genome;
use cocco_sim::SimError;
use cocco_tiling::TilingError;
use std::fmt;

/// The best feasible result a search had already found when a worker
/// panic forced it to stop — carried on [`Error::WorkerPanic`] so a
/// degraded run still hands its progress to the caller.
#[derive(Clone, Debug, PartialEq)]
pub struct SalvagedBest {
    /// The best genome found before the fault.
    pub genome: Genome,
    /// Its objective cost.
    pub cost: f64,
    /// Samples consumed by the interrupted run (quarantined samples were
    /// refunded and are not counted).
    pub samples: u64,
}

/// Any failure of the Cocco framework, from graph construction to
/// exploration to request/result (de)serialization.
///
/// The subsystem variants wrap their crate's error unchanged and expose it
/// through [`std::error::Error::source`], so callers can both match on the
/// broad category and drill into the precise cause.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Building or validating a computation graph failed.
    Graph(GraphError),
    /// Buffer-region allocation failed.
    Mem(MemError),
    /// A partition was structurally invalid.
    Partition(PartitionError),
    /// Deriving a subgraph execution scheme failed.
    Tiling(TilingError),
    /// Evaluating a partition failed.
    Sim(SimError),
    /// No buffer configuration in the space could execute the model (some
    /// layer exceeds every candidate capacity).
    NoFeasibleSolution,
    /// The method gave up before exploring its whole space — the paper's
    /// "cannot complete within a reasonable time" — without finding any
    /// solution, so infeasibility was *not* proven.
    SearchIncomplete {
        /// Display name of the method that gave up.
        method: &'static str,
    },
    /// The requested model is not in the zoo
    /// ([`cocco_graph::models::registry`]).
    UnknownModel {
        /// The name that failed to resolve.
        name: String,
    },
    /// The selected search method cannot run under the configured
    /// objective (e.g. the two-step scheme requires Formula 2).
    IncompatibleObjective {
        /// Display name of the offending method.
        method: &'static str,
        /// What the method needs.
        requirement: &'static str,
    },
    /// A request or result failed to (de)serialize.
    Serde(serde::Error),
    /// Reading or writing a cross-run evaluation-cache file failed.
    CacheFile {
        /// The offending path.
        path: String,
        /// The underlying I/O or parse failure.
        reason: String,
    },
    /// A search checkpoint file was unusable: unreadable, malformed, or
    /// recorded under different coordinates (another method/configuration,
    /// budget, or evaluator fingerprint — i.e. model/accelerator).
    Checkpoint {
        /// The offending path.
        path: String,
        /// Why the checkpoint cannot resume this exploration.
        reason: String,
    },
    /// An evaluation worker panicked mid-dispatch. The batch was
    /// quarantined — its funded samples refunded, no trace points
    /// recorded — and the engine, budget and cache stay reusable. When
    /// the run had already found a feasible genome, the best-so-far is
    /// salvaged here; a checkpointed run also keeps its last snapshot on
    /// disk so the search can resume.
    WorkerPanic {
        /// The panic payload's message.
        message: String,
        /// Best-so-far at the time of the fault, if any was found.
        salvage: Option<Box<SalvagedBest>>,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Graph(e) => write!(f, "graph construction failed: {e}"),
            Error::Mem(e) => write!(f, "buffer allocation failed: {e}"),
            Error::Partition(e) => write!(f, "invalid partition: {e}"),
            Error::Tiling(e) => write!(f, "tiling failed: {e}"),
            Error::Sim(e) => write!(f, "evaluation failed: {e}"),
            Error::NoFeasibleSolution => {
                write!(
                    f,
                    "no buffer configuration in the space can execute the model"
                )
            }
            Error::SearchIncomplete { method } => {
                write!(
                    f,
                    "method {method} hit its limits before finding a solution \
                     (infeasibility not proven)"
                )
            }
            Error::UnknownModel { name } => {
                write!(f, "unknown model `{name}` (see models::registry())")
            }
            Error::IncompatibleObjective {
                method,
                requirement,
            } => write!(f, "method {method} requires {requirement}"),
            Error::Serde(e) => write!(f, "serialization failed: {e}"),
            Error::CacheFile { path, reason } => {
                write!(f, "cache file `{path}` unusable: {reason}")
            }
            Error::Checkpoint { path, reason } => {
                write!(f, "checkpoint file `{path}` unusable: {reason}")
            }
            Error::WorkerPanic { message, salvage } => {
                write!(
                    f,
                    "evaluation worker panicked ({message}); batch quarantined"
                )?;
                if salvage.is_some() {
                    write!(f, ", best-so-far salvaged")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Graph(e) => Some(e),
            Error::Mem(e) => Some(e),
            Error::Partition(e) => Some(e),
            Error::Tiling(e) => Some(e),
            Error::Sim(e) => Some(e),
            Error::Serde(e) => Some(e),
            Error::NoFeasibleSolution
            | Error::SearchIncomplete { .. }
            | Error::UnknownModel { .. }
            | Error::IncompatibleObjective { .. }
            | Error::CacheFile { .. }
            | Error::Checkpoint { .. }
            | Error::WorkerPanic { .. } => None,
        }
    }
}

impl From<GraphError> for Error {
    fn from(e: GraphError) -> Self {
        Error::Graph(e)
    }
}

impl From<MemError> for Error {
    fn from(e: MemError) -> Self {
        Error::Mem(e)
    }
}

impl From<PartitionError> for Error {
    fn from(e: PartitionError) -> Self {
        Error::Partition(e)
    }
}

impl From<TilingError> for Error {
    fn from(e: TilingError) -> Self {
        Error::Tiling(e)
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        Error::Sim(e)
    }
}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::Serde(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn conversions_preserve_sources() {
        let tiling = TilingError::EmptySubgraph;
        let sim: SimError = tiling.clone().into();
        let unified: Error = sim.clone().into();
        // Two-level chain: Error -> SimError -> TilingError.
        let level1 = unified.source().expect("Sim variant has a source");
        assert_eq!(level1.to_string(), sim.to_string());
        let level2 = level1.source().expect("SimError::Tiling has a source");
        assert_eq!(level2.to_string(), tiling.to_string());
    }

    #[test]
    fn every_subsystem_error_converts() {
        let cases: Vec<Error> = vec![
            GraphError::Empty.into(),
            MemError::ExceedsCapacity {
                needed: 2,
                capacity: 1,
            }
            .into(),
            PartitionError::CyclicQuotient.into(),
            TilingError::EmptySubgraph.into(),
            SimError::InvalidOptions.into(),
            serde::Error::custom("bad json").into(),
        ];
        for error in cases {
            // Display stays lowercase and the wrapped message is preserved.
            let msg = error.to_string();
            assert!(msg.starts_with(char::is_lowercase), "{msg}");
            assert!(error.source().is_some(), "{msg} lost its source");
        }
    }

    #[test]
    fn is_send_sync_static() {
        fn check<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        check(Error::NoFeasibleSolution);
    }
}
