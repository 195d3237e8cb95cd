//! What the two MPI controllers share: one thread per rank over a
//! reliable world, and one rank's dataflow state — its pending tasks'
//! input buffers, its external outputs, message receipt and output
//! routing (remote payloads serialized by [`encode_remote`] first). The
//! controllers differ only in when a ready task runs.

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use babelflow_core::trace::{now_ns, SpanKind, TraceEvent, TraceSink, CONTROL_THREAD};
use babelflow_core::{
    Bytes, ControllerError, InitialInputs, Payload, PlanBuffer, PlanTask, Result, RunReport,
    RunStats, ShardId, ShardPlan, TaskId,
};

use crate::comm::{FaultPlan, RankComm, World};
use crate::reliable::ReliableEndpoint;
use crate::wire::{DataflowMsg, TAG_DATAFLOW};

/// What one rank produced.
pub(crate) type RankOutcome = Result<(BTreeMap<TaskId, Vec<Payload>>, RunStats)>;

/// Run `body` on one thread per rank of `plan`'s world, each over its
/// reliable endpoint and with the initial inputs of its own tasks, and
/// merge the ranks' outputs and counters.
pub(crate) fn run_world<F>(
    plan: &ShardPlan,
    faults: &FaultPlan,
    timeout: Duration,
    initial: InitialInputs,
    body: F,
) -> Result<RunReport>
where
    F: Fn(&mut ReliableEndpoint, InitialInputs) -> RankOutcome + Sync,
{
    let nranks = plan.num_shards() as usize;
    let mut world = World::with_faults(nranks, faults.clone());
    // "Each rank creates only the portion of the tasks assigned to it"
    // and receives only the initial inputs local to it.
    let mut rank_inputs: Vec<InitialInputs> = (0..nranks).map(|_| HashMap::new()).collect();
    for (task, payloads) in initial {
        let shard = plan.task_by_id(task).expect("preflight checked inputs").shard;
        rank_inputs[shard.0 as usize].insert(task, payloads);
    }

    let body = &body;
    let outcomes: Vec<RankOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = world
            .endpoints()
            .into_iter()
            .zip(rank_inputs)
            .map(|(ep, inputs)| s.spawn(move || run_rank(ep, timeout, |rel| body(rel, inputs))))
            .collect();
        handles.into_iter().enumerate().map(|(r, h)| rank_outcome(r, h.join())).collect()
    });

    let mut report = RunReport::default();
    for outcome in outcomes {
        let (outputs, stats) = outcome?;
        report.outputs.extend(outputs);
        report.stats.merge(&stats);
    }
    Ok(report)
}

/// One rank's life: run `body` over a reliable endpoint, then drain it and
/// fold the transport's counters into the rank's.
pub(crate) fn run_rank(
    ep: RankComm,
    timeout: Duration,
    body: impl FnOnce(&mut ReliableEndpoint) -> RankOutcome,
) -> RankOutcome {
    // On an error return or a panic, dropping `rel` marks this rank
    // finished, which releases peers lingering at the shutdown barrier.
    let mut rel = ReliableEndpoint::new(ep);
    let (outputs, mut stats) = body(&mut rel)?;
    // Drain: wait for our acks, then linger re-acking peers until the
    // whole world is finished. A `false` here means a peer died without
    // reaching the barrier — its own outcome carries the error, ours is
    // complete.
    rel.flush(timeout);
    stats.recovery.merge(&rel.stats);
    stats.perf.envelopes_sent += rel.envelopes_sent;
    stats.perf.batches_sent += rel.batches_sent;
    Ok((outputs, stats))
}

/// A rank thread's outcome from its join: a panic that escaped the rank
/// (callbacks are guarded by `exec`; this is anything else, a trace sink
/// for one) becomes an error instead of aborting the host.
fn rank_outcome(rank: usize, joined: std::thread::Result<RankOutcome>) -> RankOutcome {
    joined.unwrap_or_else(|_| Err(ControllerError::Runtime(format!("rank {rank} thread panicked"))))
}

/// Serialize the outputs of `pt` that leave its rank, in route order, as
/// `(destination rank, body)` pairs for [`RankState::route`] to send.
/// This needs none of the rank's state, so a worker runs it before it
/// takes the rank's lock. Each encoding is one `MsgSend` span on `row`.
pub(crate) fn encode_remote(
    pt: &PlanTask,
    outs: &[Payload],
    row: (u32, u32),
    sink: &dyn TraceSink,
) -> Vec<(usize, Bytes)> {
    let tracing = sink.enabled();
    let mut bodies = Vec::new();
    for (slot, payload) in outs.iter().enumerate() {
        for route in &pt.routes[slot] {
            if route.is_external() || route.shard == pt.shard {
                continue;
            }
            let start = if tracing { now_ns() } else { 0 };
            let body = DataflowMsg::from_payload(route.dst, pt.id(), payload).encode();
            if tracing {
                sink.record(
                    TraceEvent::span(SpanKind::MsgSend, start, now_ns(), row.0, row.1)
                        .with_task(pt.id(), pt.callback())
                        .with_message(route.dst, body.len() as u64),
                );
            }
            bodies.push((route.shard.0 as usize, body));
        }
    }
    bodies
}

/// One rank's dataflow state.
pub(crate) struct RankState<'a> {
    plan: &'a ShardPlan,
    shard: ShardId,
    /// Input buffers of the rank's tasks that have not run yet.
    pub(crate) buffers: HashMap<TaskId, PlanBuffer>,
    /// External outputs of the rank's tasks.
    pub(crate) outputs: BTreeMap<TaskId, Vec<Payload>>,
    sink: &'a dyn TraceSink,
    tracing: bool,
}

impl<'a> RankState<'a> {
    /// The pending tasks of `rel`'s rank, with `initial` delivered.
    pub(crate) fn new(
        plan: &'a ShardPlan,
        rel: &ReliableEndpoint,
        initial: InitialInputs,
        sink: &'a dyn TraceSink,
    ) -> Result<Self> {
        let shard = ShardId(rel.rank() as u32);
        let mut buffers: HashMap<TaskId, PlanBuffer> = plan
            .local(shard)
            .iter()
            .map(|&ix| (plan.task(ix).id(), PlanBuffer::new(plan, ix)))
            .collect();
        for (task, payloads) in initial {
            let buf = buffers.get_mut(&task).ok_or_else(|| {
                ControllerError::Runtime(format!("initial input for non-local task {task}"))
            })?;
            let pt = plan.task(buf.ix());
            for p in payloads {
                if !buf.deliver(pt, TaskId::EXTERNAL, p) {
                    return Err(ControllerError::Runtime(format!(
                        "too many initial inputs for {task}"
                    )));
                }
            }
        }
        let tracing = sink.enabled();
        Ok(RankState { plan, shard, buffers, outputs: BTreeMap::new(), sink, tracing })
    }

    fn rank(&self) -> u32 {
        self.shard.0
    }

    /// Deliver every message the reliable layer has restored to order,
    /// pushing tasks that became ready onto `ready`. Returns whether any
    /// message arrived.
    pub(crate) fn receive(
        &mut self,
        rel: &mut ReliableEndpoint,
        ready: &mut Vec<TaskId>,
    ) -> Result<bool> {
        let mut arrived = false;
        while let Some((src_rank, _tag, body)) = rel.pop_ready() {
            let recv_start = if self.tracing { now_ns() } else { 0 };
            let msg = DataflowMsg::decode(&body).ok_or_else(|| {
                ControllerError::Runtime(format!("malformed message from rank {src_rank}"))
            })?;
            let buf = self.buffers.get_mut(&msg.dst_task).ok_or_else(|| {
                ControllerError::Runtime(format!(
                    "message for unknown/finished task {}",
                    msg.dst_task
                ))
            })?;
            let dst_pt = self.plan.task(buf.ix());
            if !buf.deliver(dst_pt, msg.src_task, Payload::Buffer(msg.payload)) {
                return Err(ControllerError::Runtime(format!(
                    "unexpected delivery {} -> {}",
                    msg.src_task, msg.dst_task
                )));
            }
            if self.tracing {
                self.sink.record(
                    TraceEvent::span(
                        SpanKind::MsgRecv,
                        recv_start,
                        now_ns(),
                        self.shard.0,
                        CONTROL_THREAD,
                    )
                    .with_task(msg.dst_task, dst_pt.callback())
                    .with_message(msg.src_task, body.len() as u64),
                );
            }
            if buf.ready() {
                ready.push(msg.dst_task);
            }
            arrived = true;
        }
        Ok(arrived)
    }

    /// Route a completed task's outputs: external ones to the host,
    /// same-rank ones in memory (no serialization), and `remote`, the
    /// rest as [`encode_remote`] serialized them, onto `rel` as one
    /// envelope per destination. Same-rank consumers that became ready are
    /// pushed onto `ready`; the in-memory deliveries' `MsgSend` spans go
    /// on this rank's `thread` row.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn route(
        &mut self,
        rel: &mut ReliableEndpoint,
        pt: &PlanTask,
        outs: Vec<Payload>,
        remote: Vec<(usize, Bytes)>,
        thread: u32,
        stats: &mut RunStats,
        ready: &mut Vec<TaskId>,
    ) -> Result<()> {
        let (id, sink, rank) = (pt.id(), self.sink, self.rank());
        for (slot, payload) in outs.into_iter().enumerate() {
            for route in &pt.routes[slot] {
                let dst = route.dst;
                if route.is_external() {
                    self.outputs.entry(id).or_default().push(payload.clone());
                    stats.perf.payload_clones += 1;
                } else if route.shard == self.shard {
                    let send_start = if self.tracing { now_ns() } else { 0 };
                    let buf = self.buffers.get_mut(&dst).ok_or_else(|| {
                        ControllerError::Runtime(format!(
                            "local consumer {dst} missing or already executed"
                        ))
                    })?;
                    if !buf.deliver(self.plan.task(buf.ix()), id, payload.clone()) {
                        return Err(ControllerError::Runtime(format!(
                            "unexpected local delivery {id} -> {dst}"
                        )));
                    }
                    stats.perf.payload_clones += 1;
                    stats.local_messages += 1;
                    if buf.ready() {
                        ready.push(dst);
                    }
                    if self.tracing {
                        // In-memory move: no serialization, bytes = 0.
                        sink.record(
                            TraceEvent::span(SpanKind::MsgSend, send_start, now_ns(), rank, thread)
                                .with_task(id, pt.callback())
                                .with_message(dst, 0),
                        );
                    }
                }
            }
        }
        for (dst_rank, body) in remote {
            stats.remote_messages += 1;
            stats.remote_bytes += body.len() as u64;
            rel.send(dst_rank, TAG_DATAFLOW, body);
        }
        // One envelope per destination for this task's whole fan-out.
        rel.flush_sends();
        Ok(())
    }
}
