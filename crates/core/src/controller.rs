//! The runtime-controller interface.
//!
//! "All runtime controllers share the same interface by deriving from the
//! same base class to make switching between controllers easy." In Rust the
//! base class is the [`Controller`] trait: every backend — serial, MPI-like,
//! Charm++-like and Legion-like — implements [`Controller::execute`] over a
//! prebuilt [`ShardPlan`], and the trait's provided `run`/`run_traced`
//! build that plan from a [`TaskGraph`], so an algorithm written once runs
//! on any of them unmodified. Each backend's `execute` supplies only
//! scheduling and transport; running one task is the shared
//! [`exec`](crate::exec::exec).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::graph::TaskGraph;
use crate::ids::TaskId;
use crate::lint::VerifyReport;
use crate::payload::Payload;
use crate::plan::ShardPlan;
use crate::registry::Registry;
use crate::taskmap::TaskMap;
use crate::trace::{noop_sink, TraceSink};

/// Initial inputs handed to the dataflow: for each task with external input
/// slots, the payloads filling those slots in slot order.
pub type InitialInputs = HashMap<TaskId, Vec<Payload>>;

/// Everything a completed run returns to the host application.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Payloads the graph sent to [`TaskId::EXTERNAL`], keyed by producing
    /// task (slot order preserved). `BTreeMap` so iteration order is
    /// deterministic across runtimes — required by the cross-runtime
    /// equivalence tests.
    pub outputs: BTreeMap<TaskId, Vec<Payload>>,
    /// Execution statistics.
    pub stats: RunStats,
}

/// Counters every controller maintains; used by benchmarks and tests.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Tasks executed.
    pub tasks_executed: u64,
    /// Messages that crossed a shard boundary (serialized).
    pub remote_messages: u64,
    /// Bytes serialized for remote messages.
    pub remote_bytes: u64,
    /// Messages delivered in memory, without serialization: within a
    /// shard (MPI rank, Charm PE), or over any internal edge on the
    /// backends that share one store (serial, Legion region writes).
    pub local_messages: u64,
    /// What fault recovery cost this run (all zero on a clean run).
    pub recovery: RecoveryStats,
    /// Fast-path efficiency counters (see [`PerfStats`]).
    pub perf: PerfStats,
}

impl RunStats {
    /// Fold another shard's counters into this one.
    pub fn merge(&mut self, other: &RunStats) {
        self.tasks_executed += other.tasks_executed;
        self.remote_messages += other.remote_messages;
        self.remote_bytes += other.remote_bytes;
        self.local_messages += other.local_messages;
        self.recovery.merge(&other.recovery);
        self.perf.merge(&other.perf);
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} tasks, {} local messages, {} remote messages ({} bytes); {}; {}",
            self.tasks_executed,
            self.local_messages,
            self.remote_messages,
            self.remote_bytes,
            self.recovery,
            self.perf
        )
    }
}

/// Fast-path counters.
///
/// The build machines this repo is benchmarked on have two cores shared
/// with other work, so wall-clock timings are too noisy to gate on. The
/// structural counters are exact and reproducible: they measure the
/// *work the controller avoided* — how often the procedural graph was
/// re-queried, how many payload handles were cloned for routing, how many
/// deliveries had to allocate, and how well the transport coalesced
/// envelopes. The perf smoke in `ci.sh` regresses on these, not on
/// nanoseconds. The work-pool counters (`parks`, `wakes`, `pool_locks`)
/// attribute scheduling cost; they move with thread timing, so the perf
/// smoke prints them and gates on none.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PerfStats {
    /// Procedural `TaskGraph::task()` invocations (plan builds count each
    /// task exactly once; a controller reusing a prebuilt plan counts 0).
    pub task_queries: u64,
    /// `Payload` handle clones made while routing outputs, one per route
    /// of a slot but the last (refcount bumps; the plan sets the count).
    pub payload_clones: u64,
    /// Always 0: a delivery fills the input slot its route names and
    /// allocates nothing. Nothing counts it; it is kept only because
    /// perfbench reads it.
    pub delivery_allocs: u64,
    /// Envelopes handed to the transport channel (each is one channel
    /// operation and one fault-injection sequence point).
    pub envelopes_sent: u64,
    /// Envelopes that carried more than one coalesced message.
    pub batches_sent: u64,
    /// Times a work-pool worker slept for lack of work
    /// ([`PoolStats::parks`](crate::sync::PoolStats)). This and the next
    /// two depend on thread timing: they describe a run, and no gate
    /// compares them.
    pub parks: u64,
    /// Wakes a push claimed for a parked work-pool worker.
    pub wakes: u64,
    /// Acquisitions of the work pools' locks.
    pub pool_locks: u64,
}

impl PerfStats {
    /// Fold another shard's counters into this one.
    pub fn merge(&mut self, other: &PerfStats) {
        self.task_queries += other.task_queries;
        self.payload_clones += other.payload_clones;
        self.delivery_allocs += other.delivery_allocs;
        self.envelopes_sent += other.envelopes_sent;
        self.batches_sent += other.batches_sent;
        self.parks += other.parks;
        self.wakes += other.wakes;
        self.pool_locks += other.pool_locks;
    }

    /// Add a work pool's parks, wakes and lock acquisitions.
    pub fn add_pool(&mut self, pool: &crate::sync::PoolStats) {
        self.parks += pool.parks;
        self.wakes += pool.wakes;
        self.pool_locks += pool.locks;
    }
}

impl std::fmt::Display for PerfStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} task queries, {} payload clones, {} envelopes ({} batched), \
             {} parks, {} wakes, {} pool locks",
            self.task_queries,
            self.payload_clones,
            self.envelopes_sent,
            self.batches_sent,
            self.parks,
            self.wakes,
            self.pool_locks
        )
    }
}

/// Counters for the recovery layer: what surviving injected (or real)
/// faults cost the run. Surfaced through [`RunStats`] and, span by span,
/// through the trace sink (every retry is an extra `TaskExec` span).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Task re-executions (after a callback panic or a lost worker).
    pub retries: u64,
    /// Messages re-sent because their ack was overdue.
    pub retransmits: u64,
    /// Received messages discarded as duplicates of an already-delivered
    /// sequence number.
    pub duplicates_suppressed: u64,
}

impl RecoveryStats {
    /// Fold another shard's counters into this one.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.retries += other.retries;
        self.retransmits += other.retransmits;
        self.duplicates_suppressed += other.duplicates_suppressed;
    }

    /// Whether no recovery action was ever taken.
    pub fn is_clean(&self) -> bool {
        *self == RecoveryStats::default()
    }
}

impl std::fmt::Display for RecoveryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} retries, {} retransmits, {} duplicates suppressed",
            self.retries, self.retransmits, self.duplicates_suppressed
        )
    }
}

/// Errors a controller can produce.
///
/// Payload type mismatches inside callbacks surface as panics (they are
/// programming errors); these variants cover what a controller can detect
/// up front or observe during execution.
#[derive(Debug)]
pub enum ControllerError {
    /// The lint found `Error`-level diagnostics, so the graph cannot
    /// execute correctly; the report lists every finding with its `BFnnn`
    /// code (an unbound callback is BF004). Build the plan with
    /// [`ShardPlan::lenient`](crate::plan::ShardPlan::lenient) to run a
    /// flawed dataflow anyway and observe the failure where it actually
    /// bites.
    LintRejected(VerifyReport),
    /// `initial` is missing inputs for a task with external input slots,
    /// supplies the wrong number of payloads, or supplies payloads for a
    /// task with no external slot or for no task of the plan (`expected`
    /// 0 either way).
    BadInitialInputs {
        /// The offending task.
        task: TaskId,
        /// External slots the task has.
        expected: usize,
        /// Payloads supplied.
        got: usize,
    },
    /// A callback returned the wrong number of outputs.
    BadOutputArity {
        /// The executing task.
        task: TaskId,
        /// Output slots the task has.
        expected: usize,
        /// Payloads the callback returned.
        got: usize,
    },
    /// The dataflow stalled: tasks remain but none can become ready. Either
    /// the graph is cyclic or inputs never arrived.
    Deadlock {
        /// Tasks that never executed.
        pending: Vec<TaskId>,
    },
    /// A task's callback kept panicking: every recovery retry (see
    /// [`MAX_TASK_RETRIES`](crate::fault::MAX_TASK_RETRIES)) was used up
    /// and the last attempt still failed.
    TaskError {
        /// The failing task.
        task: TaskId,
        /// Total execution attempts made.
        attempts: u32,
        /// The final attempt's panic message.
        reason: String,
    },
    /// A backend-specific failure (e.g. a simulated-network fault injected
    /// by a test).
    Runtime(String),
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerError::LintRejected(report) => {
                write!(f, "graph rejected by lint:\n{report}")
            }
            ControllerError::BadInitialInputs { task, expected, got } => write!(
                f,
                "task {task} has {expected} external inputs but {got} payloads were supplied"
            ),
            ControllerError::BadOutputArity { task, expected, got } => write!(
                f,
                "callback for task {task} returned {got} outputs, graph expects {expected}"
            ),
            ControllerError::Deadlock { pending } => {
                write!(f, "dataflow stalled with {} tasks pending", pending.len())
            }
            ControllerError::TaskError { task, attempts, reason } => {
                write!(f, "task {task} failed after {attempts} attempts: {reason}")
            }
            ControllerError::Runtime(msg) => write!(f, "runtime error: {msg}"),
        }
    }
}

impl std::error::Error for ControllerError {}

/// Result alias for controller operations.
pub type Result<T> = std::result::Result<T, ControllerError>;

/// A runtime backend capable of executing task graphs.
///
/// A backend implements [`execute`](Self::execute) over a prebuilt,
/// preflighted [`ShardPlan`]. Callers use the provided
/// [`run`](Self::run)/[`run_traced`](Self::run_traced), which build the
/// plan from the graph and map (charging its queries to
/// [`PerfStats::task_queries`]), or [`with_plan`](Self::with_plan) to reuse
/// one plan across runs.
pub trait Controller {
    /// Execute `plan` with implementations from `registry` and external
    /// inputs `initial`, emitting trace events into `sink`. Blocks until
    /// the dataflow drains and returns the external outputs. The plan has
    /// already passed [`ShardPlan::preflight`] against `registry` and
    /// `initial`.
    fn execute(
        &mut self,
        plan: &Arc<ShardPlan>,
        registry: &Registry,
        initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport>;

    /// Human-readable backend name (used in reports and benchmarks).
    fn name(&self) -> &'static str;

    /// Execute `graph` with tasks placed by `map`, implementations from
    /// `registry`, and external inputs `initial`. Blocks until the dataflow
    /// drains and returns the external outputs.
    fn run(
        &mut self,
        graph: &dyn TaskGraph,
        map: &dyn TaskMap,
        registry: &Registry,
        initial: InitialInputs,
    ) -> Result<RunReport> {
        self.run_traced(graph, map, registry, initial, noop_sink())
    }

    /// Like [`run`](Self::run), but emit [`TraceEvent`]s describing the
    /// execution (task spans, callback spans, message send/recv, queue
    /// waits) into `sink`. Every backend emits the same schema, so traces
    /// from different runtimes are directly comparable. Pass a
    /// [`NoopSink`](crate::trace::NoopSink) (what [`run`](Self::run)
    /// does) to opt out at zero cost.
    ///
    /// [`TraceEvent`]: crate::trace::TraceEvent
    fn run_traced(
        &mut self,
        graph: &dyn TaskGraph,
        map: &dyn TaskMap,
        registry: &Registry,
        initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        let plan = Arc::new(ShardPlan::build(graph, map));
        let mut report = run_plan(self, &plan, registry, initial, sink)?;
        report.stats.perf.task_queries += plan.build_queries();
        Ok(report)
    }

    /// Reuse a prebuilt `plan` on every run instead of building one: the
    /// returned controller's `run`/`run_traced` ignore their graph and map
    /// (the plan must have been built from the same pair) and make zero
    /// procedural graph queries.
    fn with_plan(self, plan: Arc<ShardPlan>) -> WithPlan<Self>
    where
        Self: Sized,
    {
        WithPlan { inner: self, plan }
    }
}

/// A controller bound to a prebuilt plan; see [`Controller::with_plan`].
#[derive(Debug, Clone)]
pub struct WithPlan<C> {
    inner: C,
    plan: Arc<ShardPlan>,
}

impl<C: Controller> Controller for WithPlan<C> {
    fn execute(
        &mut self,
        plan: &Arc<ShardPlan>,
        registry: &Registry,
        initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        self.inner.execute(plan, registry, initial, sink)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run_traced(
        &mut self,
        _graph: &dyn TaskGraph,
        _map: &dyn TaskMap,
        registry: &Registry,
        initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        let plan = self.plan.clone();
        run_plan(&mut self.inner, &plan, registry, initial, sink)
    }
}

/// The single entry into a backend: preflight the plan, then execute it.
fn run_plan<C: Controller + ?Sized>(
    ctrl: &mut C,
    plan: &Arc<ShardPlan>,
    registry: &Registry,
    initial: InitialInputs,
    sink: Arc<dyn TraceSink>,
) -> Result<RunReport> {
    plan.preflight(registry, &initial)?;
    ctrl.execute(plan, registry, initial, sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(
        te: u64,
        rm: u64,
        rb: u64,
        lm: u64,
        rec: (u64, u64, u64),
        perf: (u64, u64, u64, u64, u64, u64, u64, u64),
    ) -> RunStats {
        RunStats {
            tasks_executed: te,
            remote_messages: rm,
            remote_bytes: rb,
            local_messages: lm,
            recovery: RecoveryStats {
                retries: rec.0,
                retransmits: rec.1,
                duplicates_suppressed: rec.2,
            },
            perf: PerfStats {
                task_queries: perf.0,
                payload_clones: perf.1,
                delivery_allocs: perf.2,
                envelopes_sent: perf.3,
                batches_sent: perf.4,
                parks: perf.5,
                wakes: perf.6,
                pool_locks: perf.7,
            },
        }
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = stats(1, 2, 3, 4, (5, 6, 7), (8, 9, 10, 11, 12, 13, 14, 15));
        let b = stats(10, 20, 30, 40, (50, 60, 70), (80, 90, 100, 110, 120, 130, 140, 150));
        a.merge(&b);
        let sum = (88, 99, 110, 121, 132, 143, 154, 165);
        assert_eq!(a, stats(11, 22, 33, 44, (55, 66, 77), sum));
    }

    /// Parse a `Display`ed RunStats back into counters.
    fn parse_stats(text: &str) -> RunStats {
        let nums: Vec<u64> = text
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(nums.len(), 14, "display carries exactly the fourteen counters: {text}");
        stats(
            nums[0],
            nums[2],
            nums[3],
            nums[1],
            (nums[4], nums[5], nums[6]),
            (nums[7], nums[8], 0, nums[9], nums[10], nums[11], nums[12], nums[13]),
        )
    }

    #[test]
    fn stats_merge_then_display_round_trips() {
        let mut a = stats(5, 7, 1024, 11, (1, 0, 2), (30, 12, 0, 6, 2, 4, 3, 50));
        let b = stats(3, 2, 16, 9, (0, 4, 1), (10, 5, 0, 3, 1, 1, 1, 25));
        a.merge(&b);
        let shown = a.to_string();
        // Every merged counter appears, in a stable order, and survives a
        // parse back — Display is lossless over the counters.
        assert_eq!(parse_stats(&shown), a);
        assert_eq!(
            shown,
            "8 tasks, 20 local messages, 9 remote messages (1040 bytes); \
             1 retries, 4 retransmits, 3 duplicates suppressed; \
             40 task queries, 17 payload clones, 9 envelopes (3 batched), \
             5 parks, 4 wakes, 75 pool locks"
        );
    }

    #[test]
    fn clean_recovery_is_detectable() {
        assert!(RecoveryStats::default().is_clean());
        assert!(!stats(0, 0, 0, 0, (1, 0, 0), (0, 0, 0, 0, 0, 0, 0, 0)).recovery.is_clean());
    }
}
