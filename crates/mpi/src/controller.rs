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
//! * per-rank control thread + a pool of worker threads executing ready
//!   tasks in arrival order. The pool is a work-stealing
//!   [`WorkPool`]: an idle worker steals
//!   queued tasks from a busy sibling's deque, so one slow callback cannot
//!   strand the backlog behind it;
//! * workers complete their own tasks: a worker serializes the task's
//!   remote outputs, then takes the one rank lock (the rank's
//!   `RankState`, its `&mut` [`ReliableEndpoint`], the in-flight and
//!   completed sets) to mark the task done, deliver same-rank outputs,
//!   push the consumers that became ready to the pool and stage the
//!   remote sends. The control thread only receives envelopes,
//!   dispatches what they make ready, and runs the retransmit tick, the
//!   re-fires and the stall check. A worker that runs the rank's last
//!   task, or fails, wakes it with a `TAG_WAKE` envelope in the rank's
//!   own inbox;
//! * the in-memory fast path: intra-rank messages move the `Payload` by
//!   reference, skipping de/serialization; inter-rank messages serialize
//!   and a task's whole fan-out leaves as one envelope per destination
//!   rank ([`ReliableEndpoint::flush_sends`]);
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
//! another pool thread. Each worker the fault plan kills is handed one of
//! the rank's first dispatched tasks, pinned to it, so the injected death
//! always happens. Stall detection is decoupled from the retransmit
//! tick: the run only deadlocks when nothing has progressed for the full
//! `timeout`. A worker thread that panics outside the callback fails the
//! rank at once.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use babelflow_core::channel::RecvTimeoutError;
use babelflow_core::fault::MAX_TASK_RETRIES;
use babelflow_core::sync::{Mutex, WorkPool};
use babelflow_core::trace::{now_ns, SpanKind, TraceEvent, TraceSink};
use babelflow_core::{
    exec, BytesMut, Controller, ControllerError, InitialInputs, Payload, PlanTask, Registry,
    Result, RunReport, RunStats, ShardPlan, TaskId,
};

use crate::comm::FaultPlan;
use crate::rank::{encode_remote, run_world, RankOutcome, RankState};
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

/// A dispatched-but-not-completed task with its inputs retained so it can
/// be re-fired if its worker dies (idempotent re-execution).
struct Inflight {
    ix: u32,
    inputs: Vec<Payload>,
    dispatched_at: Instant,
    refires: u32,
}

/// Everything a rank's control thread and its workers share, behind the
/// one rank lock.
struct Core<'r, 'a> {
    state: RankState<'a>,
    rel: &'r mut ReliableEndpoint,
    /// Dispatched tasks whose completion has not been observed yet.
    inflight: HashMap<TaskId, Inflight>,
    /// Tasks whose outputs were routed; a re-fired duplicate's are not.
    completed: HashSet<TaskId>,
    /// How many of the rank's tasks completed, out of `local_total`.
    executed: usize,
    local_total: usize,
    stats: RunStats,
    /// The first error a worker hit; the control thread returns it.
    error: Option<ControllerError>,
    /// Workers the fault plan kills that have not been handed their fatal
    /// task yet (see [`Core::dispatch`]).
    doomed: Vec<u32>,
}

impl Core<'_, '_> {
    /// Move ready buffers to the worker pool, retaining each task's inputs
    /// in `inflight` until its completion is observed. Each worker the
    /// fault plan kills gets one of the rank's first tasks pinned to it,
    /// so its death, and the re-fire, always happen.
    fn dispatch(&mut self, ready: Vec<TaskId>, pool: &WorkPool<WorkItem>, tracing: bool) {
        let ready_ns = if tracing { now_ns() } else { 0 };
        for id in ready {
            if let Some(buf) = self.state.buffers.remove(&id) {
                let ix = buf.ix();
                let inputs = buf.take();
                // The retained (re-fire) copy is the one input clone
                // dispatch costs.
                self.stats.perf.payload_clones += inputs.len() as u64;
                let retained = Inflight {
                    ix,
                    inputs: inputs.clone(),
                    dispatched_at: Instant::now(),
                    refires: 0,
                };
                self.inflight.insert(id, retained);
                let item = WorkItem { ix, inputs, ready_ns };
                match self.doomed.pop() {
                    Some(worker) => pool.push_to(worker as usize, item),
                    None => pool.push(item),
                }
            }
        }
    }

    /// Record a worker's completion of `pt`: route its outputs (remote
    /// ones already serialized) and dispatch the consumers that became
    /// ready. A re-fired task completing a second time is dropped — its
    /// outputs were already routed (exactly-once).
    fn complete(
        &mut self,
        pt: &PlanTask,
        outs: Vec<Payload>,
        remote: Vec<(usize, BytesMut)>,
        worker: u32,
        pool: &WorkPool<WorkItem>,
        tracing: bool,
    ) -> Result<()> {
        let id = pt.id();
        if !self.completed.insert(id) {
            return Ok(());
        }
        self.inflight.remove(&id);
        self.executed += 1;
        self.stats.tasks_executed += 1;
        let mut ready = Vec::new();
        self.state.route(self.rel, pt, outs, remote, worker, &mut self.stats, &mut ready)?;
        self.dispatch(ready, pool, tracing);
        if self.executed == self.local_total {
            self.rel.wake();
        }
        Ok(())
    }

    /// Keep the first error and wake the control thread to return it.
    fn fail(&mut self, e: ControllerError) {
        if self.error.is_none() {
            self.error = Some(e);
            self.rel.wake();
        }
    }
}

/// Fails the rank when its worker unwinds. A panic outside the callback
/// (a panicking [`TraceSink`], say) can leave a task half-routed with its
/// re-fire suppressed; without this the control thread would learn of it
/// only at the stall timeout.
struct WorkerAlarm<'c, 'r, 'a> {
    core: &'c Mutex<Core<'r, 'a>>,
    worker: u32,
}

impl Drop for WorkerAlarm<'_, '_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let msg = format!("worker {} panicked", self.worker);
            self.core.lock().fail(ControllerError::Runtime(msg));
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

/// One rank of the asynchronous controller: a pool of `workers` threads
/// that execute ready tasks and route their outputs themselves, and a
/// control thread that receives messages, dispatches the tasks they make
/// ready, and drives retransmits, re-fires and stall detection.
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
    let state = RankState::new(plan, rel, initial, sink)?;
    let tracing = sink.enabled();
    let my_rank = rel.rank() as u32;
    let mut kills: Vec<u32> = faults
        .kill_worker
        .iter()
        .filter(|&&(r, w)| r == rel.rank() && (w as usize) < workers)
        .map(|&(_, w)| w)
        .collect();
    kills.sort_unstable();
    kills.dedup();
    let inbox = rel.inbox().clone();
    let pool: WorkPool<WorkItem> = WorkPool::new(workers);
    let core = Mutex::new(Core {
        local_total: state.buffers.len(),
        state,
        rel,
        inflight: HashMap::new(),
        completed: HashSet::new(),
        executed: 0,
        stats: RunStats::default(),
        error: None,
        doomed: kills.iter().rev().copied().collect(),
    });

    std::thread::scope(|s| {
        // Worker pool: executes ready tasks in the order their inputs
        // completed, retrying a panicking callback in place, and routes
        // the outputs under the rank lock — same-rank consumers that
        // become ready go straight back to the pool. Idle workers steal
        // from busy siblings' deques.
        for worker in 0..workers as u32 {
            let (pool, core, kills) = (pool.clone(), &core, &kills);
            s.spawn(move || {
                let _alarm = WorkerAlarm { core, worker };
                let row = (my_rank, worker);
                while let Some(WorkItem { ix, inputs, ready_ns }) = pool.recv(worker as usize) {
                    if kills.contains(&worker) {
                        // Injected worker death: abandon the task just
                        // picked up and die. The controller re-fires it
                        // from the retained inputs onto a live worker.
                        break;
                    }
                    let pt = plan.task(ix);
                    if tracing {
                        sink.record(
                            TraceEvent::span(SpanKind::QueueWait, ready_ns, now_ns(), row.0, row.1)
                                .with_task(pt.id(), pt.callback()),
                        );
                    }
                    let cb = registry.get(pt.callback()).expect("preflight checked bindings");
                    let mut stats = RunStats::default();
                    let done = exec(pt, cb, &inputs, row, sink, &mut stats, |outs, stats| {
                        // Serialize before taking the lock.
                        let remote = encode_remote(pt, &outs, row, sink);
                        let mut core = core.lock();
                        core.stats.merge(&std::mem::take(stats));
                        if let Err(e) = core.complete(pt, outs, remote, worker, &pool, tracing) {
                            core.fail(e);
                        }
                        Ok(())
                    });
                    if let Err(e) = done {
                        let mut core = core.lock();
                        core.stats.merge(&stats);
                        // A re-fired duplicate's failure does not matter.
                        if !core.completed.contains(&pt.id()) {
                            core.fail(e);
                        }
                    }
                }
            });
        }

        // Release the workers however the loop ends — error return or
        // unwind included; the scope's join needs them to exit.
        let _close = ClosePool(&pool);

        let mut ready: Vec<TaskId> = {
            let core = core.lock();
            core.state.buffers.iter().filter(|(_, b)| b.ready()).map(|(&id, _)| id).collect()
        };
        ready.sort();
        core.lock().dispatch(ready, &pool, tracing);

        // Short receive tick (drives retransmits and re-fires) decoupled
        // from the stall timeout (no progress at all for `timeout`).
        let tick = Duration::from_millis(10).min(timeout);
        let refire_after =
            (timeout / 8).clamp(Duration::from_millis(50), Duration::from_secs(2));
        let mut last_progress = Instant::now();
        let mut executed_seen = 0;
        let mut arrived = None;

        loop {
            {
                let mut guard = core.lock();
                let core = &mut *guard;
                if let Some(env) = arrived.take() {
                    core.rel.handle(env);
                    core.rel.drain_inbox();
                }
                // Deliver whatever the reliable layer restored to order.
                let mut ready = Vec::new();
                if core.state.receive(core.rel, &mut ready)? {
                    last_progress = Instant::now();
                }
                core.dispatch(ready, &pool, tracing);
                if let Some(e) = core.error.take() {
                    return Err(e);
                }
                if core.executed == core.local_total {
                    return Ok(());
                }
            }
            // Network envelopes, a worker's wake, or the protocol tick.
            match inbox.recv_timeout(tick) {
                Ok(env) => arrived = Some(env),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ControllerError::Runtime("world torn down".into()));
                }
                Err(RecvTimeoutError::Timeout) => {
                    let mut guard = core.lock();
                    let core = &mut *guard;
                    core.rel.tick();
                    if core.executed != executed_seen {
                        executed_seen = core.executed;
                        last_progress = Instant::now();
                    }
                    // Re-fire tasks whose completion is overdue — their
                    // worker died holding them. Idempotence makes the
                    // duplicate execution harmless; `completed` dedups.
                    let now = Instant::now();
                    for inf in core.inflight.values_mut() {
                        if now.duration_since(inf.dispatched_at) >= refire_after
                            && inf.refires < MAX_TASK_RETRIES
                        {
                            inf.refires += 1;
                            inf.dispatched_at = now;
                            core.stats.recovery.retries += 1;
                            core.stats.perf.payload_clones += inf.inputs.len() as u64;
                            pool.push(WorkItem {
                                ix: inf.ix,
                                inputs: inf.inputs.clone(),
                                ready_ns: if tracing { now_ns() } else { 0 },
                            });
                        }
                    }
                    if last_progress.elapsed() >= timeout {
                        let mut pending: Vec<TaskId> = core
                            .state
                            .buffers
                            .keys()
                            .copied()
                            .chain(core.inflight.keys().copied())
                            .collect();
                        pending.sort();
                        return Err(ControllerError::Deadlock { pending });
                    }
                }
            }
        }
    })?;

    let core = core.into_inner();
    Ok((core.state.outputs, core.stats))
}
