//! The blocking-communication baseline controller ("Original MPI").
//!
//! The paper compares BabelFlow's MPI backend against the hand-tuned
//! implementation of Landge et al. and attributes the difference to
//! communication style: "the original implementation used blocking
//! communication while our MPI backend uses asynchronous calls and
//! independent threads. Since the computation is naturally load imbalanced
//! […] an asynchronous execution is likely more tolerant of delays."
//!
//! This controller reproduces the baseline's mechanism: each rank executes
//! its tasks in a *fixed static order* (a global topological order of the
//! graph), blocking on each missing input in turn, with no worker threads.
//! Everything else — task graph, callbacks, payloads, transport — is
//! identical to the asynchronous controller (including the [`ShardPlan`]
//! fast path and batched sends), so benchmark deltas between the two
//! isolate exactly the scheduling difference.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use babelflow_core::channel::RecvTimeoutError;
use babelflow_core::trace::{now_ns, SpanKind, TraceEvent, TraceSink};
use babelflow_core::{
    exec, Controller, ControllerError, InitialInputs, Registry, Result, RunReport, RunStats,
    ShardId, ShardPlan, TaskId,
};

use crate::comm::FaultPlan;
use crate::controller::DEFAULT_TIMEOUT;
use crate::rank::{encode_remote, run_world, RankOutcome, RankState};
use crate::reliable::ReliableEndpoint;

/// Blocking, statically ordered MPI-style controller (the "Original MPI"
/// baseline of Fig. 6).
#[derive(Clone, Debug)]
pub struct BlockingMpiController {
    /// Stall-detection timeout per blocking receive.
    pub timeout: Duration,
    /// Fault injection for tests.
    pub faults: FaultPlan,
}

impl Default for BlockingMpiController {
    fn default() -> Self {
        BlockingMpiController { timeout: DEFAULT_TIMEOUT, faults: FaultPlan::none() }
    }
}

impl BlockingMpiController {
    /// Controller with the default timeout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the stall-detection timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Inject transport faults (tests only).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

impl Controller for BlockingMpiController {
    fn execute(
        &mut self,
        plan: &Arc<ShardPlan>,
        registry: &Registry,
        initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        let schedule = plan.static_schedule();
        let timeout = self.timeout;
        run_world(plan, &self.faults, timeout, initial, |rel, inputs| {
            blocking_rank_main(rel, plan, registry, inputs, &schedule, timeout, &*sink)
        })
    }

    fn name(&self) -> &'static str {
        "mpi-blocking"
    }
}

fn blocking_rank_main(
    rel: &mut ReliableEndpoint,
    plan: &ShardPlan,
    registry: &Registry,
    initial: InitialInputs,
    schedule: &HashMap<TaskId, usize>,
    timeout: Duration,
    sink: &dyn TraceSink,
) -> RankOutcome {
    let tracing = sink.enabled();
    let my_rank = rel.rank() as u32;
    let mut state = RankState::new(plan, rel, initial, sink)?;
    // The static schedule: strictly follow the global topological order.
    let mut local: Vec<u32> = plan.local(ShardId(my_rank)).to_vec();
    local.sort_by_key(|&ix| schedule[&plan.task(ix).id()]);

    let mut stats = RunStats::default();
    // Readiness is read off the buffers in schedule order, not queued.
    let mut unused_ready = Vec::new();

    for &task_ix in &local {
        let pt = plan.task(task_ix);
        let task_id = pt.id();
        // Blocking phase: wait until this specific task is complete,
        // ignoring whether later tasks could already run (the baseline's
        // weakness under load imbalance).
        let wait_start = if tracing { now_ns() } else { 0 };
        let tick = Duration::from_millis(10).min(timeout);
        let mut last_progress = Instant::now();
        while !state.buffers[&task_id].ready() {
            // Drain whatever the reliable layer has restored to order.
            if state.receive(rel, &mut unused_ready)? {
                unused_ready.clear();
                last_progress = Instant::now();
                continue;
            }
            match rel.inbox().recv_timeout(tick) {
                Ok(env) => rel.handle(env),
                Err(RecvTimeoutError::Timeout) => {
                    rel.tick();
                    if last_progress.elapsed() >= timeout {
                        let mut pending: Vec<TaskId> = state
                            .buffers
                            .iter()
                            .filter(|(_, b)| !b.ready())
                            .map(|(&id, _)| id)
                            .collect();
                        pending.sort();
                        return Err(ControllerError::Deadlock { pending });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ControllerError::Runtime("world torn down".into()));
                }
            }
        }

        let inputs = state.buffers.remove(&task_id).expect("scheduled task buffered").take();
        if tracing {
            // For the blocking baseline, "queue wait" is the blocking-recv
            // phase: time the static schedule stalled on this task's inputs.
            sink.record(
                TraceEvent::span(SpanKind::QueueWait, wait_start, now_ns(), my_rank, 0)
                    .with_task(task_id, pt.callback()),
            );
        }
        let cb = registry.get(pt.callback()).expect("preflight checked bindings");
        exec(pt, cb, &inputs, (my_rank, 0), sink, &mut stats, |outs, stats| {
            stats.tasks_executed += 1;
            let remote = encode_remote(pt, &outs, (my_rank, 0), sink);
            state.route(rel, pt, outs, remote, 0, stats, &mut unused_ready)
        })?;
        unused_ready.clear();
        // Ack what arrived while the callback ran now, not when this rank
        // next blocks: a peer's retransmit timer keeps running meanwhile.
        rel.drain_inbox();
    }

    Ok((state.outputs, stats))
}
