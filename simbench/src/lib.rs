//! # simbench — host-time benchmark of the CEIO simulator
//!
//! Drives whole simulator runs through the repository's public APIs and
//! measures what they cost the host: end to end from untraced runs, and
//! per layer from traced replays of the same runs. README.md gives the
//! workloads, the metrics, and which layer should move which metric.

pub mod reference;
pub mod report;
pub mod run;
pub mod timed;
pub mod workloads;
