//! # babelflow-verify
//!
//! Correctness tooling for BabelFlow dataflows, in two halves:
//!
//! * **Static:** coded lint diagnostics (`BF001`–`BF011`) over a
//!   `Graph + TaskMap + Registry` triple, before anything runs. The
//!   passes and the one-call [`lint_graph`] / [`lint_run`] entry points
//!   live in `babelflow-core`'s `lint` module, so [`ShardPlan`] preflight
//!   runs them with no extra dependency; this crate re-exports them.
//! * **Dynamic:** [`check_happens_before`] reconstructs the
//!   send/recv/exec partial order of a recorded [`Trace`] with vector
//!   clocks and proves every task executed after all of its inputs'
//!   producers — on any backend; [`check_determinism`] replays a graph
//!   under seeded schedule permutations and byte-compares the results
//!   to catch order-sensitive callbacks.
//!
//! ```no_run
//! use babelflow_core::{ModuloMap, TaskGraph};
//! # fn graph() -> impl TaskGraph { babelflow_core::ExplicitGraph::new(vec![], vec![]) }
//! let g = graph();
//! let map = ModuloMap::new(4, g.size() as u64);
//! let report = babelflow_verify::lint_graph(&g, &map);
//! assert!(report.is_clean(), "{report}");
//! ```
//!
//! [`ShardPlan`]: babelflow_core::plan::ShardPlan
//! [`Trace`]: babelflow_trace::Trace

#![warn(missing_docs)]

pub mod determinism;
pub mod hb;

pub use babelflow_core::lint::{
    lint_bindings, lint_graph, lint_plan, lint_run, Diagnostic, DiagnosticCode, Severity,
    VerifyReport,
};
pub use determinism::{check_determinism, DeterminismReport};
pub use hb::{check_happens_before, HbReport, HbViolation};
