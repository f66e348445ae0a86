//! The repository benchmark of the Cocco co-exploration engine.
//!
//! Four seeded workloads ([`workload::WORKLOADS`]) run through the public
//! facade with tracing off for the end-to-end metrics, and a separate
//! hand-stepped traced run ([`traced::traced_run`]) gives the per-layer
//! metrics of the workspace's layers: `graph`, `partition`, `sim` (with
//! `tiling` and `mem` beneath it), `engine`, `search`, `core` and
//! `faults`. Every timing goes through `cocco_telemetry::Stopwatch`.

pub mod metrics;
pub mod traced;
pub mod workload;
