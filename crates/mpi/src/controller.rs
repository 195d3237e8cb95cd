//! The asynchronous MPI controller — §IV-A of the paper.
//!
//! "The MPI controller uses a static allocation of the tasks and
//! asynchronous point-to-point messages for communication. […] Each time
//! new information arrives, the controller checks whether all input
//! requirements for some tasks are met. When a task is ready to execute, it
//! spawns a new thread that is executed in the background. […] Tasks are
//! scheduled greedily, i.e., each task is started as soon as all its input
//! data has been received, in the order in which this data arrived."
//!
//! Fidelity notes:
//! * static task→rank allocation via the user's [`TaskMap`], precompiled
//!   into a [`ShardPlan`] so the steady state never re-queries the
//!   procedural graph (see `crate::plan` in `babelflow-core`);
//! * per-rank controller thread + a pool of worker threads executing ready
//!   tasks in arrival order. The pool is a work-stealing
//!   [`WorkPool`](babelflow_core::sync::WorkPool): an idle worker steals
//!   queued tasks from a busy sibling's deque, so one slow callback cannot
//!   strand the backlog behind it;
//! * the in-memory fast path: intra-rank messages move the `Payload` by
//!   reference, skipping de/serialization; inter-rank messages serialize
//!   and are *batched* — every destination gets at most one envelope per
//!   completed task's fan-out ([`ReliableEndpoint::flush_sends`]);
//! * each task owns its inputs and relinquishes its outputs, so payloads
//!   are never mutated in place (enforced by `Payload`'s shared-`Arc`
//!   design).
//!
//! Recovery (DESIGN.md §11): all inter-rank traffic flows through the
//! [`ReliableEndpoint`] ack/retransmit layer, so transport drop/duplicate/
//! reorder faults converge to exactly-once in-order delivery. Execution
//! faults are survived by exploiting task idempotence: a dispatched task's
//! inputs are *retained* until its completion is observed, a panicking
//! callback is retried in place by the worker, and a task whose completion
//! is overdue (its worker died) is re-fired from the retained inputs onto
//! another pool thread. Stall detection is decoupled from the retransmit
//! tick: the run only deadlocks when nothing has progressed for the full
//! `timeout`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use babelflow_core::channel::{select2, unbounded, Select2};
use babelflow_core::fault::{catch_invoke, MAX_TASK_RETRIES};
use babelflow_core::sync::WorkPool;
use babelflow_core::trace::{now_ns, SpanKind, TraceEvent, TraceSink, CONTROL_THREAD};
use babelflow_core::{
    Controller, ControllerError, InitialInputs, Payload, PlanBuffer, Registry, Result, RunReport,
    RunStats, ShardId, ShardPlan, TaskGraph, TaskId, TaskMap,
};

use crate::comm::{FaultPlan, RankComm, World};
use crate::reliable::ReliableEndpoint;
use crate::wire::{DataflowMsg, TAG_DATAFLOW};

/// Default per-rank stall timeout before declaring the dataflow dead.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

/// Asynchronous MPI-style controller.
#[derive(Clone, Debug)]
pub struct MpiController {
    /// Worker threads per rank executing ready tasks ("spawns a new thread
    /// that is executed in the background" — bounded here by a pool).
    pub workers_per_rank: usize,
    /// Stall-detection timeout per rank: how long a rank tolerates zero
    /// progress (no completion, no delivery) before giving up.
    pub timeout: Duration,
    /// Fault injection for tests: transport faults feed the [`World`],
    /// `kill_worker` entries kill this controller's pool threads.
    pub faults: FaultPlan,
    /// Prebuilt execution plan; when absent one is built (and its query
    /// cost counted) per run.
    pub plan: Option<Arc<ShardPlan>>,
}

impl Default for MpiController {
    fn default() -> Self {
        MpiController {
            workers_per_rank: 2,
            timeout: DEFAULT_TIMEOUT,
            faults: FaultPlan::none(),
            plan: None,
        }
    }
}

impl MpiController {
    /// Controller with default worker pool and timeout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the per-rank worker pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker per rank");
        self.workers_per_rank = workers;
        self
    }

    /// Set the stall-detection timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Inject faults (tests only). A `kill_worker` entry must leave the
    /// rank at least one live pool thread (see `workers_per_rank`).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Reuse a prebuilt [`ShardPlan`] (it must have been built against the
    /// same graph and map this run uses): repeated runs then perform zero
    /// procedural graph queries.
    pub fn with_plan(mut self, plan: Arc<ShardPlan>) -> Self {
        self.plan = Some(plan);
        self
    }
}

/// What one rank produced.
pub(crate) type RankOutcome = Result<(BTreeMap<TaskId, Vec<Payload>>, RunStats)>;

/// A rank thread's outcome from its join: a panic that escaped the rank
/// (callbacks are guarded by `catch_invoke`; this is anything else, a
/// trace sink for one) becomes an error instead of aborting the host.
pub(crate) fn rank_outcome(rank: usize, joined: std::thread::Result<RankOutcome>) -> RankOutcome {
    joined.unwrap_or_else(|_| Err(ControllerError::Runtime(format!("rank {rank} thread panicked"))))
}

impl Controller for MpiController {
    fn run_traced(
        &mut self,
        graph: &dyn TaskGraph,
        map: &dyn TaskMap,
        registry: &Registry,
        initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        let mut built_queries = 0u64;
        let plan = match &self.plan {
            Some(p) => p.clone(),
            None => {
                let p = Arc::new(ShardPlan::build(graph, map));
                built_queries = p.build_queries();
                p
            }
        };
        plan.preflight(registry, &initial)?;
        let nranks = plan.num_shards() as usize;
        let mut world = World::with_faults(nranks, self.faults.clone());
        let endpoints = world.endpoints();

        // "Each rank creates only the portion of the tasks assigned to it"
        // and receives only the initial inputs local to it.
        let mut rank_inputs: Vec<InitialInputs> = (0..nranks).map(|_| HashMap::new()).collect();
        for (task, payloads) in initial {
            let shard = plan.task_by_id(task).expect("preflight checked inputs").shard;
            rank_inputs[shard.0 as usize].insert(task, payloads);
        }

        let timeout = self.timeout;
        let workers = self.workers_per_rank;
        let faults = &self.faults;

        let outcomes: Vec<RankOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .zip(rank_inputs)
                .map(|(ep, inputs)| {
                    let sink = sink.clone();
                    let plan = plan.clone();
                    s.spawn(move || {
                        rank_main(ep, &plan, registry, inputs, workers, timeout, faults, sink)
                    })
                })
                .collect();
            handles.into_iter().enumerate().map(|(r, h)| rank_outcome(r, h.join())).collect()
        });

        let mut report = RunReport::default();
        for outcome in outcomes {
            let (outputs, stats) = outcome?;
            report.outputs.extend(outputs);
            report.stats.merge(&stats);
        }
        report.stats.perf.task_queries += built_queries;
        Ok(report)
    }

    fn name(&self) -> &'static str {
        "mpi-async"
    }
}

/// Work item handed to a worker thread: a plan index plus the task's
/// inputs. The `Task` itself stays interned in the shared plan — nothing
/// is cloned per dispatch beyond the input payload handles.
struct WorkItem {
    ix: u32,
    inputs: Vec<Payload>,
    /// When the task's inputs completed (0 when tracing is off); the
    /// worker turns the gap until pickup into a queue-wait span.
    ready_ns: u64,
}

/// Result returned by a worker.
struct DoneItem {
    ix: u32,
    outputs: std::result::Result<Vec<Payload>, ControllerError>,
    /// In-place panic retries the worker performed.
    retries: u64,
}

/// A dispatched-but-not-completed task with its inputs retained so it can
/// be re-fired if its worker dies (idempotent re-execution).
struct Inflight {
    ix: u32,
    inputs: Vec<Payload>,
    dispatched_at: Instant,
    refires: u32,
}

/// Move ready buffers to the worker pool, retaining each task's inputs in
/// `inflight` until its completion is observed.
fn dispatch_ready(
    buffers: &mut HashMap<TaskId, PlanBuffer>,
    ready: Vec<TaskId>,
    pool: &WorkPool<WorkItem>,
    inflight: &mut HashMap<TaskId, Inflight>,
    stats: &mut RunStats,
    tracing: bool,
) {
    let ready_ns = if tracing { now_ns() } else { 0 };
    for id in ready {
        if let Some(buf) = buffers.remove(&id) {
            let ix = buf.ix();
            let inputs = buf.take();
            // The retained (re-fire) copy is the one input clone dispatch
            // costs.
            stats.perf.payload_clones += inputs.len() as u64;
            inflight.insert(
                id,
                Inflight {
                    ix,
                    inputs: inputs.clone(),
                    dispatched_at: Instant::now(),
                    refires: 0,
                },
            );
            pool.push(WorkItem { ix, inputs, ready_ns });
        }
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn rank_main(
    ep: RankComm,
    plan: &Arc<ShardPlan>,
    registry: &Registry,
    initial: InitialInputs,
    workers: usize,
    timeout: Duration,
    faults: &FaultPlan,
    sink: Arc<dyn TraceSink>,
) -> RankOutcome {
    // On an error return or a panic, dropping `rel` marks this rank
    // finished, which releases peers lingering at the shutdown barrier.
    let mut rel = ReliableEndpoint::new(ep);
    let (outputs, mut stats) =
        rank_main_inner(&mut rel, plan, registry, initial, workers, timeout, faults, sink)?;
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

/// Closes the pool when dropped, also when the control loop unwinds, so
/// the scope's join of the workers cannot hang.
struct ClosePool<'a>(&'a WorkPool<WorkItem>);

impl Drop for ClosePool<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

#[allow(clippy::too_many_arguments)]
fn rank_main_inner(
    rel: &mut ReliableEndpoint,
    plan: &Arc<ShardPlan>,
    registry: &Registry,
    initial: InitialInputs,
    workers: usize,
    timeout: Duration,
    faults: &FaultPlan,
    sink: Arc<dyn TraceSink>,
) -> Result<(BTreeMap<TaskId, Vec<Payload>>, RunStats)> {
    let my_shard = ShardId(rel.rank() as u32);
    let local = plan.local(my_shard);
    let local_total = local.len();
    let mut buffers: HashMap<TaskId, PlanBuffer> = local
        .iter()
        .map(|&ix| (plan.task(ix).id(), PlanBuffer::new(plan, ix)))
        .collect();

    for (task, payloads) in initial {
        let buf = buffers
            .get_mut(&task)
            .ok_or_else(|| ControllerError::Runtime(format!("initial input for non-local task {task}")))?;
        let pt = plan.task(buf.ix());
        for p in payloads {
            if !buf.deliver(pt, TaskId::EXTERNAL, p) {
                return Err(ControllerError::Runtime(format!("too many initial inputs for {task}")));
            }
        }
    }

    let tracing = sink.enabled();
    let my_rank = rel.rank() as u32;
    let kills: Arc<HashSet<u32>> = Arc::new(
        faults
            .kill_worker
            .iter()
            .filter(|&&(r, _)| r == rel.rank())
            .map(|&(_, w)| w)
            .collect(),
    );
    let pool: WorkPool<WorkItem> = WorkPool::new(workers);
    let (done_tx, done_rx) = unbounded::<DoneItem>();

    std::thread::scope(|s| {
        // Worker pool: executes ready tasks in the order their inputs
        // completed, retrying a panicking callback in place. Idle workers
        // steal from busy siblings' deques.
        for worker_idx in 0..workers as u32 {
            let pool = pool.clone();
            let done_tx = done_tx.clone();
            let sink = sink.clone();
            let kills = kills.clone();
            let plan = plan.clone();
            s.spawn(move || {
                while let Some(WorkItem { ix, inputs, ready_ns }) = pool.recv(worker_idx as usize)
                {
                    if kills.contains(&worker_idx) {
                        // Injected worker death: abandon the task just
                        // picked up and die. The controller re-fires it
                        // from the retained inputs onto a live worker.
                        break;
                    }
                    let pt = plan.task(ix);
                    let (task_id, task_cb) = (pt.id(), pt.callback());
                    let pickup = if tracing { now_ns() } else { 0 };
                    if tracing {
                        sink.record(
                            TraceEvent::span(
                                SpanKind::QueueWait,
                                ready_ns,
                                pickup,
                                my_rank,
                                worker_idx,
                            )
                            .with_task(task_id, task_cb),
                        );
                    }
                    let cb = registry.get(task_cb).expect("preflight checked bindings");
                    let mut retries = 0u64;
                    let result = loop {
                        let attempt_start = if tracing { now_ns() } else { 0 };
                        let attempt = catch_invoke(cb, inputs.clone(), task_id);
                        if tracing {
                            // Every attempt — failed ones included — gets
                            // its own Callback + TaskExec span pair, so
                            // retries are visible in the trace.
                            let end = now_ns();
                            sink.record(
                                TraceEvent::span(
                                    SpanKind::Callback,
                                    attempt_start,
                                    end,
                                    my_rank,
                                    worker_idx,
                                )
                                .with_task(task_id, task_cb),
                            );
                            sink.record(
                                TraceEvent::span(
                                    SpanKind::TaskExec,
                                    attempt_start,
                                    end,
                                    my_rank,
                                    worker_idx,
                                )
                                .with_task(task_id, task_cb),
                            );
                        }
                        match attempt {
                            Ok(outs) => break Ok(outs),
                            Err(reason) => {
                                if retries >= MAX_TASK_RETRIES as u64 {
                                    break Err(ControllerError::TaskError {
                                        task: task_id,
                                        attempts: retries as u32 + 1,
                                        reason,
                                    });
                                }
                                retries += 1;
                            }
                        }
                    };
                    let outputs = result.and_then(|outs| {
                        if outs.len() == pt.fan_out() {
                            Ok(outs)
                        } else {
                            Err(ControllerError::BadOutputArity {
                                task: task_id,
                                expected: pt.fan_out(),
                                got: outs.len(),
                            })
                        }
                    });
                    let _ = done_tx.send(DoneItem { ix, outputs, retries });
                }
            });
        }
        drop(done_tx);

        // Release the workers however the loop ends — error return or
        // unwind included; the scope's join needs them to exit.
        let _close = ClosePool(&pool);

        let mut outputs: BTreeMap<TaskId, Vec<Payload>> = BTreeMap::new();
        let mut stats = RunStats::default();
        let mut executed = 0usize;
        let mut inflight: HashMap<TaskId, Inflight> = HashMap::new();
        let mut completed: HashSet<TaskId> = HashSet::new();

        let initially_ready: Vec<TaskId> = {
            let mut r: Vec<TaskId> = buffers
                .iter()
                .filter(|(_, b)| b.ready())
                .map(|(&id, _)| id)
                .collect();
            r.sort();
            r
        };
        dispatch_ready(&mut buffers, initially_ready, &pool, &mut inflight, &mut stats, tracing);

        // Short select tick (drives retransmits and re-fires) decoupled
        // from the stall timeout (no progress at all for `timeout`).
        let tick = Duration::from_millis(10).min(timeout);
        let refire_after =
            (timeout / 8).clamp(Duration::from_millis(50), Duration::from_secs(2));
        let mut last_progress = Instant::now();

        while executed < local_total {
            // Reliable layer first: deliver whatever is in order.
            let mut newly_ready = Vec::new();
            while let Some((src_rank, _tag, body)) = rel.pop_ready() {
                let recv_start = if tracing { now_ns() } else { 0 };
                let wire_bytes = body.len() as u64;
                let msg = DataflowMsg::decode(&body).ok_or_else(|| {
                    ControllerError::Runtime(format!("malformed message from rank {src_rank}"))
                })?;
                let buf = buffers.get_mut(&msg.dst_task).ok_or_else(|| {
                    ControllerError::Runtime(format!(
                        "message for unknown/finished task {}", msg.dst_task
                    ))
                })?;
                let dst_pt = plan.task(buf.ix());
                if !buf.deliver(dst_pt, msg.src_task, Payload::Buffer(msg.payload)) {
                    return Err(ControllerError::Runtime(format!(
                        "unexpected delivery {} -> {}", msg.src_task, msg.dst_task
                    )));
                }
                if tracing {
                    sink.record(
                        TraceEvent::span(
                            SpanKind::MsgRecv,
                            recv_start,
                            now_ns(),
                            my_rank,
                            CONTROL_THREAD,
                        )
                        .with_task(msg.dst_task, dst_pt.callback())
                        .with_message(msg.src_task, wire_bytes),
                    );
                }
                if buf.ready() {
                    newly_ready.push(msg.dst_task);
                }
                last_progress = Instant::now();
            }
            dispatch_ready(&mut buffers, newly_ready, &pool, &mut inflight, &mut stats, tracing);

            // Biased two-way select: worker completions first, then network
            // envelopes, then the protocol tick.
            let sel = select2(&done_rx, rel.inbox(), tick);
            match sel {
                Select2::A(DoneItem { ix, outputs: result, retries }) => {
                    stats.recovery.retries += retries;
                    let pt = plan.task(ix);
                    let id = pt.id();
                    if !completed.insert(id) {
                        // A re-fired task completing a second time: its
                        // outputs were already routed (exactly-once).
                        continue;
                    }
                    if let Some(inf) = inflight.remove(&id) {
                        // Each execution attempt cloned the inputs once
                        // inside the worker.
                        stats.perf.payload_clones +=
                            inf.inputs.len() as u64 * (retries + 1);
                    }
                    let outs = result?;
                    executed += 1;
                    stats.tasks_executed += 1;
                    last_progress = Instant::now();

                    let mut newly_ready = Vec::new();
                    for (slot, payload) in outs.into_iter().enumerate() {
                        for route in &pt.routes[slot] {
                            if route.is_external() {
                                outputs.entry(id).or_default().push(payload.clone());
                                stats.perf.payload_clones += 1;
                            } else if route.shard == my_shard {
                                let dst = route.dst;
                                // In-memory fast path: skip serialization.
                                let buf = buffers.get_mut(&dst).ok_or_else(|| {
                                    ControllerError::Runtime(format!(
                                        "local consumer {dst} missing or already executed"
                                    ))
                                })?;
                                let dst_pt = plan.task(buf.ix());
                                if !buf.deliver(dst_pt, id, payload.clone()) {
                                    return Err(ControllerError::Runtime(format!(
                                        "unexpected local delivery {} -> {dst}", id
                                    )));
                                }
                                stats.perf.payload_clones += 1;
                                stats.local_messages += 1;
                                if tracing {
                                    let t = now_ns();
                                    // In-memory move: no serialization, bytes = 0.
                                    sink.record(
                                        TraceEvent::span(
                                            SpanKind::MsgSend,
                                            t,
                                            t,
                                            my_rank,
                                            CONTROL_THREAD,
                                        )
                                        .with_task(id, pt.callback())
                                        .with_message(dst, 0),
                                    );
                                }
                                if buf.ready() {
                                    newly_ready.push(dst);
                                }
                            } else {
                                let send_start = if tracing { now_ns() } else { 0 };
                                let msg = DataflowMsg::from_payload(route.dst, id, &payload);
                                let body = msg.encode();
                                stats.remote_messages += 1;
                                stats.remote_bytes += body.len() as u64;
                                let wire_bytes = body.len() as u64;
                                rel.send(route.shard.0 as usize, TAG_DATAFLOW, body);
                                if tracing {
                                    sink.record(
                                        TraceEvent::span(
                                            SpanKind::MsgSend,
                                            send_start,
                                            now_ns(),
                                            my_rank,
                                            CONTROL_THREAD,
                                        )
                                        .with_task(id, pt.callback())
                                        .with_message(route.dst, wire_bytes),
                                    );
                                }
                            }
                        }
                    }
                    // One envelope per destination for this task's whole
                    // fan-out.
                    rel.flush_sends();
                    dispatch_ready(
                        &mut buffers, newly_ready, &pool, &mut inflight, &mut stats, tracing,
                    );
                }
                Select2::B(env) => {
                    rel.handle(env);
                }
                Select2::DisconnectedA => {
                    return Err(ControllerError::Runtime("worker pool died".into()));
                }
                Select2::DisconnectedB => {
                    return Err(ControllerError::Runtime("world torn down".into()));
                }
                Select2::Timeout => {
                    rel.tick();
                    // Re-fire tasks whose completion is overdue — their
                    // worker died holding them. Idempotence makes the
                    // duplicate execution harmless; `completed` dedups.
                    let now = Instant::now();
                    for inf in inflight.values_mut() {
                        if now.duration_since(inf.dispatched_at) >= refire_after
                            && inf.refires < MAX_TASK_RETRIES
                        {
                            inf.refires += 1;
                            inf.dispatched_at = now;
                            stats.recovery.retries += 1;
                            stats.perf.payload_clones += inf.inputs.len() as u64;
                            pool.push(WorkItem {
                                ix: inf.ix,
                                inputs: inf.inputs.clone(),
                                ready_ns: if tracing { now_ns() } else { 0 },
                            });
                        }
                    }
                    if last_progress.elapsed() >= timeout {
                        let mut pending: Vec<TaskId> =
                            buffers.keys().copied().chain(inflight.keys().copied()).collect();
                        pending.sort();
                        return Err(ControllerError::Deadlock { pending });
                    }
                }
            }
        }

        Ok((outputs, stats))
    })
}
