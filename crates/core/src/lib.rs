//! # babelflow-core
//!
//! Core of BabelFlow-RS, a Rust reproduction of *"BabelFlow: An Embedded
//! Domain Specific Language for Parallel Analysis and Visualization"*
//! (Petruzza, Treichler, Pascucci, Bremer — IPDPS 2018).
//!
//! BabelFlow explicitly separates the implementation of the individual
//! tasks of an algorithm from the dataflow connecting them. An algorithm is
//! described once, as a [`TaskGraph`] of idempotent tasks exchanging
//! [`Payload`]s, and then executed unmodified by any of several runtime
//! [`Controller`]s (serial, MPI-like, Charm++-like or Legion-like). The
//! discrete-event cluster simulator in `babelflow-sim` models the same
//! graphs at scale.
//!
//! The user performs the paper's three basic steps:
//!
//! 1. implement all tasks as callbacks and register them in a [`Registry`];
//! 2. provide ser/de routines by implementing [`PayloadData`] for every
//!    type exchanged between tasks;
//! 3. describe the dataflow by implementing [`TaskGraph`] (or use a
//!    prototypical graph from `babelflow-graphs`).
//!
//! ```
//! use babelflow_core::*;
//! use std::collections::HashMap;
//!
//! // A one-task graph: EXTERNAL -> double -> EXTERNAL.
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
//! registry.register(CallbackId(0), |inputs, _id| {
//!     let blob = inputs[0].extract::<Blob>().unwrap();
//!     vec![Payload::wrap(Blob(blob.0.iter().map(|b| b * 2).collect()))]
//! });
//!
//! let mut initial = HashMap::new();
//! initial.insert(TaskId(0), vec![Payload::wrap(Blob(vec![21]))]);
//! let report = run_serial(&Double, &registry, initial).unwrap();
//! assert_eq!(report.outputs[&TaskId(0)][0].extract::<Blob>().unwrap().0, vec![42]);
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod channel;
pub mod codec;
pub mod compose;
pub mod controller;
pub mod dot;
pub mod exec;
pub mod fault;
pub mod graph;
pub mod hash;
pub mod ids;
pub mod lint;
pub mod payload;
pub mod plan;
pub mod proptest_lite;
pub mod registry;
pub mod rng;
pub mod serial;
pub mod stats;
pub mod sync;
pub mod task;
pub mod taskmap;
pub mod trace;

pub use buffer::{Bytes, BytesMut};
pub use codec::{DecodeError, Decoder, Encoder};
pub use compose::{ChainGraph, Link, OffsetGraph};
pub use controller::{
    Controller, ControllerError, InitialInputs, PerfStats, RecoveryStats, Result, RunReport,
    RunStats, WithPlan,
};
pub use exec::exec;
pub use fault::{inject_panics, quiet_panic_hook, FaultPlan, MAX_TASK_RETRIES, PANIC_MARKER};
pub use dot::{to_dot, to_dot_styled, to_dot_subset};
pub use graph::{ExplicitGraph, TaskGraph};
pub use hash::{IdBuildHasher, IdHasher, IdMap};
pub use ids::{CallbackId, ShardId, TaskId};
pub use lint::{
    lint_bindings, lint_graph, lint_plan, lint_run, Diagnostic, DiagnosticCode, Severity,
    VerifyReport,
};
pub use payload::{Blob, Payload, PayloadData, PayloadError};
pub use plan::{Bindings, Callbacks, Pending, PlanBuffer, PlanTask, Route, ShardPlan};
pub use registry::{Callback, DuplicateCallback, Registry};
pub use serial::{canonical_outputs, run_serial, SerialController};
pub use stats::{graph_stats, GraphStats};
pub use task::Task;
pub use taskmap::{BlockMap, FnMap, ModuloMap, TaskMap};
pub use trace::{noop_sink, NoopSink, SpanKind, TraceEvent, TraceSink};
