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
//!   `RankState`, its `&mut` [`ReliableEndpoint`] and the in-flight set)
//!   to mark the task done, deliver same-rank outputs, push the consumers
//!   that became ready to the pool and stage the remote sends. The
//!   control thread only receives envelopes and dispatches what they make
//!   ready; between events it sleeps in the reliable layer's one wait. A
//!   worker that runs the rank's last task, or fails, wakes it with a
//!   `TAG_WAKE` envelope in the rank's own inbox;
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
//! reorder faults converge to exactly-once in-order delivery. A
//! panicking callback is retried in place. A worker that dies holding a
//! task hands it back as it exits, for a live worker to run once; the
//! fault plan kills a worker before it runs the task, so it hands back
//! the inputs it was handed and no copy is retained (each worker the
//! fault plan kills is pinned one of the rank's first tasks, so the death
//! always happens). No clock decides anything: the rank is
//! busy while a task is in flight, and reports `Deadlock` when the
//! world's count of busy ranks and messages in flight reaches zero with
//! its tasks unrun. A worker that panics outside the callback fails the
//! rank at once.

use std::sync::Arc;

use babelflow_core::sync::{Mutex, WorkPool};
use babelflow_core::trace::{now_ns, SpanKind, TraceEvent, TraceSink};
use babelflow_core::{
    exec, BytesMut, Controller, ControllerError, InitialInputs, Payload, Pending, Registry, Result,
    RunReport, RunStats, ShardId, ShardPlan,
};

use crate::comm::FaultPlan;
use crate::rank::{encode_remote, run_world, RankOutcome, RankState};
use crate::reliable::ReliableEndpoint;

/// Asynchronous MPI-style controller.
#[derive(Clone, Debug)]
pub struct MpiController {
    /// Worker threads per rank executing ready tasks ("spawns a new thread
    /// that is executed in the background" — bounded here by a pool).
    pub workers_per_rank: usize,
    /// Fault injection for tests: transport faults feed the
    /// [`World`](crate::comm::World), `kill_worker` entries kill this
    /// controller's pool threads.
    pub faults: FaultPlan,
}

impl Default for MpiController {
    fn default() -> Self {
        MpiController { workers_per_rank: 2, faults: FaultPlan::none() }
    }
}

impl MpiController {
    /// Controller with the default worker pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the per-rank worker pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker per rank");
        self.workers_per_rank = workers;
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
        let (workers, faults) = (self.workers_per_rank, &self.faults);
        run_world(plan, faults, initial, |rel, pending| {
            rank_main(rel, plan, registry, pending, workers, faults, &*sink)
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

/// Everything a rank's control thread and its workers share, behind the
/// one rank lock.
struct Core<'r, 'a> {
    plan: &'a ShardPlan,
    state: RankState<'a>,
    rel: &'r mut ReliableEndpoint,
    pool: WorkPool<WorkItem>,
    tracing: bool,
    /// Per local slot ([`ShardPlan::local_slot`]): whether the task was
    /// dispatched and its completion has not been observed yet.
    inflight: Vec<bool>,
    /// How many of `inflight` are there.
    running: usize,
    stats: RunStats,
    /// The first error a worker hit; the control thread returns it.
    error: Option<ControllerError>,
    /// Workers the fault plan kills that have not been handed their fatal
    /// task yet (see [`Core::dispatch`]).
    doomed: Vec<u32>,
}

impl Core<'_, '_> {
    /// Move ready buffers to the worker pool, marking each task in flight
    /// until its completion, then settle the rank's work with `delivered`
    /// messages retired (see [`RankState::settle`]). Each worker the fault
    /// plan kills gets one of the rank's first tasks pinned to it, so its
    /// death, and the hand-back, always happen.
    fn dispatch(&mut self, ready: Vec<u32>, delivered: u64) {
        let ready_ns = if self.tracing { now_ns() } else { 0 };
        for ix in ready {
            if let Some(inputs) = self.state.pending.take(ix) {
                self.inflight[self.plan.local_slot(ix)] = true;
                self.running += 1;
                let item = WorkItem { ix, inputs, ready_ns };
                match self.doomed.pop() {
                    Some(worker) => self.pool.push_to(worker as usize, item),
                    None => self.pool.push(item),
                }
            }
        }
        self.state.settle(self.rel, self.running > 0, delivered);
    }

    /// Record a worker's completion of the task at plan index `ix`: route
    /// its outputs (remote ones already serialized) and dispatch the
    /// consumers that became ready. Clearing `inflight` is the
    /// exactly-once check. A task whose routing fails stays running, so
    /// the rank holds its unit of work until the error ends the rank and
    /// no peer mistakes the stop for a deadlock.
    fn complete(
        &mut self,
        ix: u32,
        outs: Vec<Payload>,
        remote: Vec<(usize, BytesMut)>,
        worker: u32,
    ) -> Result<()> {
        if !std::mem::take(&mut self.inflight[self.plan.local_slot(ix)]) {
            return Ok(());
        }
        let mut ready = Vec::new();
        let pt = self.plan.task(ix);
        self.state.route(self.rel, pt, outs, remote, worker, &mut self.stats, &mut ready)?;
        self.running -= 1;
        self.stats.tasks_executed += 1;
        self.dispatch(ready, 0);
        if self.done() {
            self.rel.wake();
        }
        Ok(())
    }

    /// Whether every task of the rank has completed.
    fn done(&self) -> bool {
        self.state.pending.is_empty() && self.running == 0
    }

    /// Re-queue the task a dead worker held (plan index `ix`), with the
    /// inputs it was handed.
    fn hand_back(&mut self, ix: u32, inputs: Vec<Payload>) {
        if self.inflight[self.plan.local_slot(ix)] {
            self.stats.recovery.retries += 1;
            let ready_ns = if self.tracing { now_ns() } else { 0 };
            self.pool.push(WorkItem { ix, inputs, ready_ns });
        }
    }

    /// Keep the first error and wake the control thread to return it.
    fn fail(&mut self, e: ControllerError) {
        if self.error.is_none() {
            self.error = Some(e);
            self.rel.wake();
        }
    }
}

/// Settles a worker's exit. A worker the fault plan kills dies holding
/// the task it just picked up, before running it, and hands it back with
/// its inputs for a live worker to run. A panic outside the callback (a
/// panicking [`TraceSink`], say) can leave a task half-routed, so it fails
/// the rank at once.
struct WorkerExit<'c, 'r, 'a> {
    core: &'c Mutex<Core<'r, 'a>>,
    worker: u32,
    /// The task this worker dies holding, by plan index, and its inputs.
    holding: Option<(u32, Vec<Payload>)>,
}

impl Drop for WorkerExit<'_, '_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let msg = format!("worker {} panicked", self.worker);
            self.core.lock().fail(ControllerError::Runtime(msg));
        } else if let Some((ix, inputs)) = self.holding.take() {
            self.core.lock().hand_back(ix, inputs);
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
/// control thread that receives messages and dispatches the tasks they
/// make ready.
pub(crate) fn rank_main<'a>(
    rel: &mut ReliableEndpoint,
    plan: &'a ShardPlan,
    registry: &Registry,
    pending: Pending<'a>,
    workers: usize,
    faults: &FaultPlan,
    sink: &'a dyn TraceSink,
) -> RankOutcome {
    let state = RankState::new(plan, rel, pending, sink);
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
    if kills.len() == workers {
        let msg = format!("the fault plan kills every worker of rank {my_rank}");
        return Err(ControllerError::Runtime(msg));
    }
    let pool: WorkPool<WorkItem> = WorkPool::new(workers);
    // The control thread sleeps on the inbox with the rank lock released,
    // through its own handle.
    let inbox = rel.comm().inbox().clone();
    let core = Mutex::new(Core {
        plan,
        inflight: vec![false; plan.local(ShardId(my_rank)).len()],
        running: 0,
        state,
        rel,
        pool: pool.clone(),
        tracing,
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
            let (pool, core, kills) = (&pool, &core, &kills);
            s.spawn(move || {
                let mut exit = WorkerExit { core, worker, holding: None };
                let row = (my_rank, worker);
                while let Some(WorkItem { ix, inputs, ready_ns }) = pool.recv(worker as usize) {
                    let pt = plan.task(ix);
                    if kills.contains(&worker) {
                        // Injected worker death: die holding the task just
                        // picked up; `exit` hands it back.
                        exit.holding = Some((ix, inputs));
                        break;
                    }
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
                        if let Err(e) = core.complete(ix, outs, remote, worker) {
                            core.fail(e);
                        }
                        Ok(())
                    });
                    if let Err(e) = done {
                        let mut core = core.lock();
                        core.stats.merge(&stats);
                        core.fail(e);
                    }
                }
            });
        }

        // Release the workers however the loop ends — error return or
        // unwind included; the scope's join needs them to exit.
        let _close = ClosePool(&pool);

        {
            let mut core = core.lock();
            let ready = core.state.pending.ready();
            core.dispatch(ready, 0);
        }

        let mut woke_with = None;
        loop {
            let sleep = {
                let mut guard = core.lock();
                let core = &mut *guard;
                core.rel.woke(woke_with.take());
                // Deliver whatever the reliable layer restored to order.
                let mut ready = Vec::new();
                let delivered = core.state.receive(core.rel, &mut ready)?;
                core.dispatch(ready, delivered);
                if let Some(e) = core.error.take() {
                    return Err(e);
                }
                if core.done() {
                    return Ok(());
                }
                core.state.check_world(core.rel)?;
                core.rel.sleep()
            };
            // Network envelopes, a worker's wake, or a retransmit deadline.
            woke_with = sleep.until_event(&inbox);
        }
    })?;

    let mut core = core.into_inner();
    core.stats.perf.add_pool(&pool.stats());
    Ok((core.state.outputs, core.stats))
}
