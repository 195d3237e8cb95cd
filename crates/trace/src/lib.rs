//! # babelflow-trace
//!
//! Runtime observability for BabelFlow-RS: recording, export, and
//! analysis of per-task traces from every controller.
//!
//! The schema ([`TraceEvent`], [`TraceSink`]) lives in `babelflow-core`
//! so the controllers can emit events without depending on this crate;
//! everything that *consumes* events lives here:
//!
//! * [`TraceRecorder`] — the thread-safe in-memory sink to pass to
//!   [`Controller::run_traced`], producing a time-sorted [`Trace`];
//! * [`chrome`] — export to the Chrome `trace_event` JSON format
//!   (`chrome://tracing`, Perfetto);
//! * [`json`] — the in-repo JSON parser used to self-validate exports;
//! * [`analysis`] — summaries (latency histograms, rank utilization),
//!   the exactly-once and well-nestedness invariant checks, and observed
//!   critical-path extraction;
//! * [`mod@replay`] — predicted-vs-observed comparison against the
//!   discrete-event simulator in `babelflow-sim`.
//!
//! ```
//! use std::collections::HashMap;
//! use std::sync::Arc;
//! use babelflow_core::*;
//! use babelflow_trace::{TraceRecorder, TraceSummary, to_chrome_json};
//!
//! // The one-task doubling graph from babelflow-core's docs.
//! struct Double;
//! impl TaskGraph for Double {
//!     fn size(&self) -> usize { 1 }
//!     fn task(&self, id: TaskId) -> Option<Task> {
//!         (id == TaskId(0)).then(|| {
//!             let mut t = Task::new(id, CallbackId(0));
//!             t.incoming = vec![TaskId::EXTERNAL];
//!             t.outgoing = vec![vec![TaskId::EXTERNAL]];
//!             t
//!         })
//!     }
//!     fn callback_ids(&self) -> Vec<CallbackId> { vec![CallbackId(0)] }
//! }
//!
//! let mut registry = Registry::new();
//! registry.register(CallbackId(0), |inputs, _| inputs);
//! let mut initial = HashMap::new();
//! initial.insert(TaskId(0), vec![Payload::wrap(Blob(vec![21]))]);
//!
//! let recorder = TraceRecorder::shared();
//! let map = ModuloMap::new(1, 1);
//! SerialController::new()
//!     .run_traced(&Double, &map, &registry, initial, recorder.clone())
//!     .unwrap();
//! let trace = recorder.take();
//! assert!(trace.task_span(TaskId(0)).is_some());
//! let _json = to_chrome_json(&trace);
//! println!("{}", TraceSummary::from_trace(&trace));
//! ```
//!
//! [`Controller::run_traced`]: babelflow_core::Controller::run_traced
//! [`TraceSink`]: babelflow_core::TraceSink
//! [`TraceEvent`]: babelflow_core::TraceEvent

#![warn(missing_docs)]

pub mod analysis;
pub mod chrome;
pub mod json;
pub mod recorder;
pub mod replay;

pub use analysis::{
    check_coverage, check_coverage_effective, check_well_nested, observed_critical_path,
    CallbackStats, CoverageError,
    Histogram, RankStats, TraceSummary,
};
pub use chrome::to_chrome_json;
pub use json::{parse as parse_json, Json, JsonError};
pub use recorder::{Trace, TraceRecorder};
pub use replay::{replay, ObservedCostModel, ReplayReport};
