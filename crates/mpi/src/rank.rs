//! What the two MPI controllers share: one thread per rank over a
//! reliable world, and one rank's dataflow state — its pending tasks'
//! input buffers, its external outputs, message receipt and output
//! routing (remote payloads serialized by [`encode_remote`] first,
//! straight into the frames the reliable layer sends), and its share of
//! the world's work count. The controllers differ only in when a ready
//! task runs.

use std::collections::BTreeMap;

use babelflow_core::exec::route_outputs;
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
        pending[plan.task(ix).shard.0 as usize].deliver_initial(ix, payloads.into_iter())?;
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
/// one `MsgSend` span on `row`, sized without the sequence room. A route
/// that fills no consumer slot is skipped: routing fails the task first.
pub(crate) fn encode_remote(
    pt: &PlanTask,
    outs: &[Payload],
    row: (u32, u32),
    sink: &dyn TraceSink,
) -> Vec<(usize, BytesMut)> {
    let tracing = sink.enabled();
    let mut bodies = Vec::new();
    for (slot, payload) in outs.iter().enumerate() {
        for route in &pt.routes[slot] {
            let Some(input) = route.input.filter(|_| route.shard != pt.shard) else { continue };
            let start = if tracing { now_ns() } else { 0 };
            let frame = DataflowMsg::encode_frame(input, pt.id(), payload);
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
    bodies
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
            let pt = self.addressee(&msg)?;
            let became_ready = self.pending.deliver(msg.dst, Payload::Buffer(msg.payload))?;
            if self.tracing {
                self.sink.record(
                    TraceEvent::span(
                        SpanKind::MsgRecv,
                        recv_start,
                        now_ns(),
                        self.shard.0,
                        CONTROL_THREAD,
                    )
                    .with_task(pt.id(), pt.callback())
                    .with_message(msg.src_task, body.len() as u64),
                );
            }
            if became_ready {
                ready.push(msg.dst.0);
            }
            arrived += 1;
        }
        Ok(arrived)
    }

    /// The task whose input slot `msg` fills, checked where the frame
    /// enters the rank (the task exists and is on this rank, the slot
    /// exists and is wired to the frame's source); else a `Runtime` error.
    fn addressee(&self, msg: &DataflowMsg) -> Result<&'a PlanTask> {
        let ((ix, slot), src) = (msg.dst, msg.src_task);
        let fault = match self.plan.tasks().get(ix as usize) {
            None => "there is no such task",
            Some(pt) if pt.shard != self.shard => "the task is on another rank",
            Some(pt) => match pt.task.incoming.get(slot as usize) {
                None => "the task has no such slot",
                Some(&wired) if wired != src => "the slot is wired to another task",
                Some(_) => return Ok(pt),
            },
        };
        let rank = self.rank();
        let at = format!("rank {rank}: frame from task {src} to input {slot} of plan task {ix}");
        Err(ControllerError::Runtime(format!("{at}: {fault}")))
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
        route_outputs(self.plan, pt, outs, stats, |route, payload, stats| {
            let Some(input @ (c, _)) = route.input else {
                self.outputs.entry(id).or_default().push(payload);
                return Ok(());
            };
            if route.shard == self.shard {
                let send_start = if self.tracing { now_ns() } else { 0 };
                if self.pending.deliver(input, payload)? {
                    ready.push(c);
                }
                stats.local_messages += 1;
                if self.tracing {
                    // In-memory move: no serialization, bytes = 0.
                    sink.record(
                        TraceEvent::span(SpanKind::MsgSend, send_start, now_ns(), rank, thread)
                            .with_task(id, pt.callback())
                            .with_message(route.dst, 0),
                    );
                }
            }
            Ok(())
        })?;
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

#[cfg(test)]
mod tests {
    use babelflow_core::{Blob, CallbackId, ExplicitGraph, ModuloMap, NoopSink, Task};

    use super::*;
    use crate::comm::World;

    /// The diamond 0 -> {1, 2} -> 3 over two ranks: rank 1 holds tasks 1
    /// and 3 (plan indices 1 and 3), and task 3 wires slot 0 to task 1 and
    /// slot 1 to task 2.
    fn diamond_plan() -> ShardPlan {
        let task = |id: u64, incoming: &[TaskId], outgoing: &[TaskId]| {
            let mut t = Task::new(TaskId(id), CallbackId(0));
            t.incoming = incoming.to_vec();
            t.outgoing = vec![outgoing.to_vec()];
            t
        };
        let tasks = vec![
            task(0, &[TaskId::EXTERNAL], &[TaskId(1), TaskId(2)]),
            task(1, &[TaskId(0)], &[TaskId(3)]),
            task(2, &[TaskId(0)], &[TaskId(3)]),
            task(3, &[TaskId(1), TaskId(2)], &[TaskId::EXTERNAL]),
        ];
        ShardPlan::build(
            &ExplicitGraph::new(tasks, vec![CallbackId(0)]),
            &ModuloMap::new(2, 4),
        )
    }

    /// Rank 1's receipt of one frame from rank 0 for input `dst` from
    /// task `src`: the plan indices it made ready.
    fn receive_one(dst: (u32, u32), src: u64) -> Result<Vec<u32>> {
        let plan = diamond_plan();
        let mut world = World::new(2);
        let mut eps = world.endpoints().into_iter().map(ReliableEndpoint::new);
        let (mut rank0, mut rank1) = (eps.next().unwrap(), eps.next().unwrap());
        let frame = DataflowMsg::encode_frame(dst, TaskId(src), &Payload::wrap(Blob(vec![7])));
        rank0.send(1, TAG_DATAFLOW, frame);
        rank0.flush_sends();
        rank1.drain_inbox();
        let pending = Pending::local(&plan, ShardId(1));
        let mut state = RankState::new(&plan, &rank1, pending, &NoopSink);
        let mut ready = Vec::new();
        assert_eq!(state.receive(&mut rank1, &mut ready)?, 1);
        Ok(ready)
    }

    fn refused(dst: (u32, u32), src: u64) -> String {
        match receive_one(dst, src) {
            Err(ControllerError::Runtime(msg)) => msg,
            other => panic!("{dst:?} from {src}: got {other:?}"),
        }
    }

    #[test]
    fn a_frame_fills_the_slot_it_names() {
        assert_eq!(receive_one((1, 0), 0).unwrap(), [1]);
        assert_eq!(receive_one((3, 1), 2).unwrap(), [] as [u32; 0]);
    }

    #[test]
    fn a_frame_naming_a_plan_index_out_of_range_is_refused() {
        let at = "rank 1: frame from task 2 to input 0 of plan task 4";
        assert_eq!(refused((4, 0), 2), format!("{at}: there is no such task"));
    }

    #[test]
    fn a_frame_for_a_task_on_another_rank_is_refused() {
        let at = "rank 1: frame from task 0 to input 0 of plan task 2";
        assert_eq!(refused((2, 0), 0), format!("{at}: the task is on another rank"));
    }

    #[test]
    fn a_frame_naming_a_slot_out_of_range_is_refused() {
        let at = "rank 1: frame from task 2 to input 2 of plan task 3";
        assert_eq!(refused((3, 2), 2), format!("{at}: the task has no such slot"));
    }

    #[test]
    fn a_frame_for_a_slot_wired_to_another_producer_is_refused() {
        let at = "rank 1: frame from task 2 to input 0 of plan task 3";
        assert_eq!(refused((3, 0), 2), format!("{at}: the slot is wired to another task"));
    }
}
