//! Per-runtime time-to-solution benchmark of BabelFlow-RS.
//!
//! One invocation builds one workload from a seed, then times complete
//! `Controller::run` calls on all six backends, interleaved round-robin on
//! reused controllers, and checks every run's outputs byte for byte against
//! the serial golden. With tracing on it also splits each backend's time
//! by layer from one traced run. See `README.md` in this directory.

pub mod bench;
pub mod kernel;
pub mod spans;
pub mod stats;
pub mod workloads;

pub use bench::{catalogue, run, Catalogue, Metric, Options, Outcome, BACKENDS};
pub use workloads::Scale;
