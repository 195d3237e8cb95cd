//! What the two MPI controllers share: one thread per rank over a
//! reliable world, and one rank's dataflow state — its pending tasks'
//! input buffers, its external outputs, message receipt and output
//! routing (remote payloads serialized by [`encode_remote`] first,
//! straight into the frames the reliable layer sends), and its share of
//! the world's work count. The controllers differ only in when a ready
//! task runs.

use std::collections::BTreeMap;

use babelflow_core::trace::{now_ns, SpanKind, TraceEvent, TraceSink, CONTROL_THREAD};
use babelflow_core::{
    BytesMut, ControllerError, InitialInputs, Payload, Pending, PlanTask, Result, RunReport,
    RunStats, ShardId, ShardPlan, TaskId,
};

use crate::comm::{FaultPlan, RankComm, World};
use crate::reliable::{ReliableEndpoint, SEQ_ROOM};
use crate::wire::{DataflowMsg, TAG_DATAFLOW};

/// What one rank produced.
pub(crate) type RankOutcome = Result<(BTreeMap<TaskId, Vec<Payload>>, RunStats)>;

/// Run `body` on one thread per rank of `plan`'s world, each over its
/// reliable endpoint and with its own pending tasks, initial inputs
/// delivered, and merge the ranks' outputs and counters. A failed run
/// reports its root cause: the error of the rank that failed first (its
/// peers only stopped), with the pending tasks of every deadlocked rank
/// merged.
pub(crate) fn run_world<'p, F>(
    plan: &'p ShardPlan,
    faults: &FaultPlan,
    initial: InitialInputs,
    body: F,
) -> Result<RunReport>
where
    F: Fn(&mut ReliableEndpoint, Pending<'p>) -> RankOutcome + Sync,
{
    let nranks = plan.num_shards() as usize;
    let mut world = World::with_faults(nranks, faults.clone());
    // "Each rank creates only the portion of the tasks assigned to it"
    // and receives only the initial inputs local to it: one pass over
    // `initial`, each input delivered by plan index to its rank's tasks.
    let mut pending: Vec<Pending<'p>> =
        (0..nranks).map(|rank| Pending::local(plan, ShardId(rank as u32))).collect();
    for (task, payloads) in initial {
        let ix = plan.index_of(task).expect("preflight checked initial inputs");
        pending[plan.task(ix).shard.0 as usize].deliver_initial(ix, payloads)?;
    }

    let body = &body;
    let outcomes: Vec<RankOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = world
            .endpoints()
            .into_iter()
            .zip(pending)
            .map(|(ep, pending)| s.spawn(move || run_rank(ep, |rel| body(rel, pending))))
            .collect();
        handles.into_iter().enumerate().map(|(r, h)| rank_outcome(r, h.join())).collect()
    });

    let first = world.first_failed();
    let (mut report, mut root, mut pending) = (RunReport::default(), None, Vec::new());
    for (rank, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok((outputs, stats)) => {
                report.outputs.extend(outputs);
                report.stats.merge(&stats);
            }
            Err(e) => {
                if let ControllerError::Deadlock { pending: p } = &e {
                    pending.extend_from_slice(p);
                }
                if root.is_none() || Some(rank) == first {
                    root = Some(e);
                }
            }
        }
    }
    match root {
        None => Ok(report),
        Some(ControllerError::Deadlock { .. }) => {
            pending.sort();
            Err(ControllerError::Deadlock { pending })
        }
        Some(e) => Err(e),
    }
}

/// One rank's life: run `body` over a reliable endpoint, then drain it and
/// fold the transport's counters into the rank's.
pub(crate) fn run_rank(
    ep: RankComm,
    body: impl FnOnce(&mut ReliableEndpoint) -> RankOutcome,
) -> RankOutcome {
    // On an error return or a panic, dropping `rel` fails the world,
    // which releases every peer at once.
    let mut rel = ReliableEndpoint::new(ep);
    let (outputs, mut stats) = body(&mut rel)?;
    // Drain: wait for our acks, then linger re-acking peers until the
    // whole world is finished. If a peer failed, its own outcome carries
    // the error and ours is complete; data for this finished rank is an
    // error of its own.
    rel.flush();
    if let Some((src, ..)) = rel.pop_ready() {
        let msg = format!("rank {src} sent data to finished rank {}", rel.rank());
        return Err(ControllerError::Runtime(msg));
    }
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
/// `(destination rank, frame)` pairs for [`RankState::route`] to send.
/// Each payload is encoded once, into its frame (see
/// [`DataflowMsg::encode_frame`]). This needs none of the rank's state,
/// so a worker runs it before it takes the rank's lock. Each encoding is
/// one `MsgSend` span on `row`, sized without the sequence room.
/// A route that fills no consumer slot, local or remote, fails the task
/// here ([`ShardPlan::unroutable`]), before any output moves.
pub(crate) fn encode_remote(
    plan: &ShardPlan,
    pt: &PlanTask,
    outs: &[Payload],
    row: (u32, u32),
    sink: &dyn TraceSink,
) -> Result<Vec<(usize, BytesMut)>> {
    let tracing = sink.enabled();
    let mut bodies = Vec::new();
    for (slot, payload) in outs.iter().enumerate() {
        for route in &pt.routes[slot] {
            if route.is_external() {
                continue;
            }
            if route.input.is_none() {
                return Err(plan.unroutable(pt.id(), route.dst));
            }
            if route.shard == pt.shard {
                continue;
            }
            let start = if tracing { now_ns() } else { 0 };
            let frame = DataflowMsg::encode_frame(route.dst, pt.id(), payload);
            if tracing {
                sink.record(
                    TraceEvent::span(SpanKind::MsgSend, start, now_ns(), row.0, row.1)
                        .with_task(pt.id(), pt.callback())
                        .with_message(route.dst, (frame.len() - SEQ_ROOM) as u64),
                );
            }
            bodies.push((route.shard.0 as usize, frame));
        }
    }
    Ok(bodies)
}

/// One rank's dataflow state.
pub(crate) struct RankState<'a> {
    plan: &'a ShardPlan,
    shard: ShardId,
    /// The rank's tasks that have not been taken up yet.
    pub(crate) pending: Pending<'a>,
    /// External outputs of the rank's tasks.
    pub(crate) outputs: BTreeMap<TaskId, Vec<Payload>>,
    /// Whether the rank holds its unit of the world's work; it starts so.
    busy: bool,
    sink: &'a dyn TraceSink,
    tracing: bool,
}

impl<'a> RankState<'a> {
    /// The state of `rel`'s rank, whose tasks, initial inputs delivered,
    /// are `pending`.
    pub(crate) fn new(
        plan: &'a ShardPlan,
        rel: &ReliableEndpoint,
        pending: Pending<'a>,
        sink: &'a dyn TraceSink,
    ) -> Self {
        let shard = ShardId(rel.rank() as u32);
        let (outputs, tracing) = (BTreeMap::new(), sink.enabled());
        RankState { plan, shard, pending, outputs, busy: true, sink, tracing }
    }

    fn rank(&self) -> u32 {
        self.shard.0
    }

    /// Deliver every message the reliable layer has restored to order,
    /// pushing tasks that became ready onto `ready`. Returns how many
    /// arrived: the caller retires them with [`settle`](Self::settle),
    /// once it has taken up the tasks they readied.
    pub(crate) fn receive(
        &mut self,
        rel: &mut ReliableEndpoint,
        ready: &mut Vec<u32>,
    ) -> Result<u64> {
        let mut arrived = 0;
        while let Some((src_rank, _tag, body)) = rel.pop_ready() {
            let recv_start = if self.tracing { now_ns() } else { 0 };
            let msg = DataflowMsg::decode(&body).ok_or_else(|| {
                ControllerError::Runtime(format!("malformed message from rank {src_rank}"))
            })?;
            let (src, dst) = (msg.src_task, msg.dst_task);
            let ix = self.plan.index_of(dst).ok_or_else(|| self.plan.unroutable(src, dst))?;
            let became_ready = self.pending.deliver(src, ix, Payload::Buffer(msg.payload))?;
            if self.tracing {
                self.sink.record(
                    TraceEvent::span(
                        SpanKind::MsgRecv,
                        recv_start,
                        now_ns(),
                        self.shard.0,
                        CONTROL_THREAD,
                    )
                    .with_task(dst, self.plan.task(ix).callback())
                    .with_message(src, body.len() as u64),
                );
            }
            if became_ready {
                ready.push(ix);
            }
            arrived += 1;
        }
        Ok(arrived)
    }

    /// Hold the rank's unit of work exactly while it is `busy` (it has a
    /// task to run or running), then retire `delivered` messages. In that
    /// order, a message that readies a task hands its unit to the rank
    /// without the world's count passing through zero.
    pub(crate) fn settle(&mut self, rel: &ReliableEndpoint, busy: bool, delivered: u64) {
        let comm = rel.comm();
        if busy != self.busy {
            self.busy = busy;
            if busy {
                comm.hold(1);
            } else {
                comm.release(1);
            }
        }
        comm.release(delivered);
    }

    /// Why an idle rank must stop waiting, if it must: no work is left
    /// anywhere while its tasks are unrun — a `Deadlock` naming them — or
    /// a peer failed.
    pub(crate) fn check_world(&self, rel: &ReliableEndpoint) -> Result<()> {
        let comm = rel.comm();
        if comm.quiescent() {
            // The rank is waiting, so some task of it is pending.
            self.pending.drained()?;
        }
        comm.failed().map_or(Ok(()), |r| Err(ControllerError::Runtime(format!("rank {r} failed"))))
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
        remote: Vec<(usize, BytesMut)>,
        thread: u32,
        stats: &mut RunStats,
        ready: &mut Vec<u32>,
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
                    let Some((c, _)) = route.input else {
                        return Err(self.plan.unroutable(id, dst));
                    };
                    if self.pending.deliver(id, c, payload.clone())? {
                        ready.push(c);
                    }
                    stats.perf.payload_clones += 1;
                    stats.local_messages += 1;
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
        // Counted before they leave, retired by the receiver on delivery.
        rel.comm().hold(remote.len() as u64);
        for (dst_rank, frame) in remote {
            stats.remote_messages += 1;
            stats.remote_bytes += (frame.len() - SEQ_ROOM) as u64;
            rel.send(dst_rank, TAG_DATAFLOW, frame);
        }
        // One envelope per destination for this task's whole fan-out.
        rel.flush_sends();
        Ok(())
    }
}
