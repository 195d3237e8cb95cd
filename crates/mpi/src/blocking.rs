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
//! A task that never becomes ready (a dangling input) comes last in that
//! order, so its rank waits for it and reports it pending.
//! Everything else — task graph, callbacks, payloads, transport — is
//! identical to the asynchronous controller (including the [`ShardPlan`]
//! fast path and batched sends), so benchmark deltas between the two
//! isolate exactly the scheduling difference.

use std::sync::Arc;

use babelflow_core::trace::{now_ns, SpanKind, TraceEvent, TraceSink};
use babelflow_core::{
    exec, Controller, InitialInputs, Pending, Registry, Result, RunReport, RunStats, ShardId,
    ShardPlan,
};

use crate::comm::FaultPlan;
use crate::rank::{encode_remote, run_world, RankOutcome, RankState};
use crate::reliable::ReliableEndpoint;

/// Blocking, statically ordered MPI-style controller (the "Original MPI"
/// baseline of Fig. 6).
#[derive(Clone, Debug, Default)]
pub struct BlockingMpiController {
    /// Fault injection for tests.
    pub faults: FaultPlan,
}

impl BlockingMpiController {
    /// Controller with no fault injection.
    pub fn new() -> Self {
        Self::default()
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
        run_world(plan, &self.faults, initial, |rel, pending| {
            blocking_rank_main(rel, plan, registry, pending, schedule, &*sink)
        })
    }

    fn name(&self) -> &'static str {
        "mpi-blocking"
    }
}

fn blocking_rank_main<'a>(
    rel: &mut ReliableEndpoint,
    plan: &'a ShardPlan,
    registry: &Registry,
    pending: Pending<'a>,
    schedule: &[u32],
    sink: &'a dyn TraceSink,
) -> RankOutcome {
    let tracing = sink.enabled();
    let my_rank = rel.rank() as u32;
    let mut state = RankState::new(plan, rel, pending, sink);
    let mut stats = RunStats::default();
    // Readiness is read off the buffers in schedule order, not queued.
    let mut unused_ready = Vec::new();

    // The static schedule: strictly follow the global topological order.
    for &task_ix in schedule.iter().filter(|&&ix| plan.task(ix).shard == ShardId(my_rank)) {
        let pt = plan.task(task_ix);
        let task_id = pt.id();
        // Blocking phase: wait until this specific task is complete,
        // ignoring whether later tasks could already run (the baseline's
        // weakness under load imbalance). The rank counts as busy only
        // once this task is ready.
        let wait_start = if tracing { now_ns() } else { 0 };
        loop {
            // Drain whatever the reliable layer has restored to order.
            let delivered = state.receive(rel, &mut unused_ready)?;
            unused_ready.clear();
            let ready = state.pending.is_ready(task_ix);
            state.settle(rel, ready, delivered);
            if ready {
                break;
            }
            state.check_world(rel)?;
            rel.wait();
        }

        let inputs = state.pending.take(task_ix).expect("scheduled task buffered");
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
    state.settle(rel, false, 0);

    Ok((state.outputs, stats))
}
