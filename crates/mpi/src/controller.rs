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
//! * static task→rank allocation via the user's
//!   [`TaskMap`](babelflow_core::TaskMap), precompiled
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

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use babelflow_core::channel::{select2, unbounded, Select2};
use babelflow_core::fault::MAX_TASK_RETRIES;
use babelflow_core::sync::WorkPool;
use babelflow_core::trace::{now_ns, SpanKind, TraceEvent, TraceSink, CONTROL_THREAD};
use babelflow_core::{
    exec, Controller, ControllerError, InitialInputs, Payload, PlanBuffer, Registry, Result,
    RunReport, RunStats, ShardPlan, TaskId,
};

use crate::comm::FaultPlan;
use crate::rank::{run_world, RankOutcome, RankState};
use crate::reliable::ReliableEndpoint;

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
    /// Fault injection for tests: transport faults feed the
    /// [`World`](crate::comm::World), `kill_worker` entries kill this
    /// controller's pool threads.
    pub faults: FaultPlan,
}

impl Default for MpiController {
    fn default() -> Self {
        MpiController { workers_per_rank: 2, timeout: DEFAULT_TIMEOUT, faults: FaultPlan::none() }
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
}

impl Controller for MpiController {
    fn execute(
        &mut self,
        plan: &Arc<ShardPlan>,
        registry: &Registry,
        initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        let (workers, timeout, faults) = (self.workers_per_rank, self.timeout, &self.faults);
        run_world(plan, faults, timeout, initial, |rel, inputs| {
            rank_main(rel, plan, registry, inputs, workers, timeout, faults, &*sink)
        })
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
    outputs: Result<Vec<Payload>>,
    /// What executing the task cost: in-place panic retries and the
    /// inputs cloned per attempt.
    stats: RunStats,
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

/// Closes the pool when dropped, also when the control loop unwinds, so
/// the scope's join of the workers cannot hang.
struct ClosePool<'a>(&'a WorkPool<WorkItem>);

impl Drop for ClosePool<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// One rank of the asynchronous controller: a control thread that
/// receives messages, routes completed tasks' outputs and dispatches ready
/// tasks to a pool of `workers` threads.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rank_main(
    rel: &mut ReliableEndpoint,
    plan: &Arc<ShardPlan>,
    registry: &Registry,
    initial: InitialInputs,
    workers: usize,
    timeout: Duration,
    faults: &FaultPlan,
    sink: &dyn TraceSink,
) -> RankOutcome {
    let mut state = RankState::new(plan, rel, initial, sink)?;
    let local_total = state.buffers.len();
    let tracing = sink.enabled();
    let my_rank = rel.rank() as u32;
    let kills: HashSet<u32> = faults
        .kill_worker
        .iter()
        .filter(|&&(r, _)| r == rel.rank())
        .map(|&(_, w)| w)
        .collect();
    let pool: WorkPool<WorkItem> = WorkPool::new(workers);
    let (done_tx, done_rx) = unbounded::<DoneItem>();

    std::thread::scope(|s| {
        // Worker pool: executes ready tasks in the order their inputs
        // completed, retrying a panicking callback in place, and hands the
        // outputs to the control thread. Idle workers steal from busy
        // siblings' deques.
        for worker_idx in 0..workers as u32 {
            let (pool, done_tx, kills) = (pool.clone(), done_tx.clone(), &kills);
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
                    if tracing {
                        sink.record(
                            TraceEvent::span(
                                SpanKind::QueueWait,
                                ready_ns,
                                now_ns(),
                                my_rank,
                                worker_idx,
                            )
                            .with_task(pt.id(), pt.callback()),
                        );
                    }
                    let cb = registry.get(pt.callback()).expect("preflight checked bindings");
                    let mut stats = RunStats::default();
                    let handoff = |outs: Vec<Payload>, stats: &mut RunStats| -> Result<()> {
                        let stats = std::mem::take(stats);
                        let _ = done_tx.send(DoneItem { ix, outputs: Ok(outs), stats });
                        Ok(())
                    };
                    let row = (my_rank, worker_idx);
                    if let Err(e) = exec(pt, cb, &inputs, row, sink, &mut stats, handoff) {
                        let _ = done_tx.send(DoneItem { ix, outputs: Err(e), stats });
                    }
                }
            });
        }
        drop(done_tx);

        // Release the workers however the loop ends — error return or
        // unwind included; the scope's join needs them to exit.
        let _close = ClosePool(&pool);

        let mut stats = RunStats::default();
        let mut executed = 0usize;
        let mut inflight: HashMap<TaskId, Inflight> = HashMap::new();
        let mut completed: HashSet<TaskId> = HashSet::new();

        let mut ready: Vec<TaskId> =
            state.buffers.iter().filter(|(_, b)| b.ready()).map(|(&id, _)| id).collect();
        ready.sort();
        dispatch_ready(&mut state.buffers, ready, &pool, &mut inflight, &mut stats, tracing);

        // Short select tick (drives retransmits and re-fires) decoupled
        // from the stall timeout (no progress at all for `timeout`).
        let tick = Duration::from_millis(10).min(timeout);
        let refire_after =
            (timeout / 8).clamp(Duration::from_millis(50), Duration::from_secs(2));
        let mut last_progress = Instant::now();

        while executed < local_total {
            // Reliable layer first: deliver whatever is in order.
            let mut ready = Vec::new();
            if state.receive(rel, &mut ready)? {
                last_progress = Instant::now();
            }
            dispatch_ready(&mut state.buffers, ready, &pool, &mut inflight, &mut stats, tracing);

            // Biased two-way select: worker completions first, then network
            // envelopes, then the protocol tick.
            match select2(&done_rx, rel.inbox(), tick) {
                Select2::A(DoneItem { ix, outputs, stats: cost }) => {
                    stats.merge(&cost);
                    let pt = plan.task(ix);
                    let id = pt.id();
                    if !completed.insert(id) {
                        // A re-fired task completing a second time: its
                        // outputs were already routed (exactly-once).
                        continue;
                    }
                    inflight.remove(&id);
                    let outs = outputs?;
                    executed += 1;
                    stats.tasks_executed += 1;
                    last_progress = Instant::now();

                    let mut ready = Vec::new();
                    state.route(rel, pt, outs, CONTROL_THREAD, &mut stats, &mut ready)?;
                    dispatch_ready(
                        &mut state.buffers, ready, &pool, &mut inflight, &mut stats, tracing,
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
                        let mut pending: Vec<TaskId> = state
                            .buffers
                            .keys()
                            .copied()
                            .chain(inflight.keys().copied())
                            .collect();
                        pending.sort();
                        return Err(ControllerError::Deadlock { pending });
                    }
                }
            }
        }

        Ok((std::mem::take(&mut state.outputs), stats))
    })
}
