//! A Legion-like data-centric runtime.
//!
//! "Legion is a data-centric programming system that describes the
//! dependency relationships of a program using so-called logical regions
//! that contain the meta-information describing a piece of data but not
//! necessarily the data itself. A region associated with a physical copy of
//! its data is referred to as a physical region."
//!
//! This module rebuilds the subset of Legion the paper's controllers need:
//!
//! * **logical regions**, numbered densely by
//!   [`LegionRuntime::create_regions`], and their physical instances (a
//!   [`Payload`] written once into the region store). The controllers
//!   create one region per consumer input slot of the plan;
//! * **region requirements**: a launcher declares the regions it reads;
//!   the runtime derives execution dependencies from data, not from
//!   explicit task edges;
//! * **three launcher kinds** — single task, index launch, must-epoch —
//!   with the cost of preparing and scheduling subtasks *borne by the
//!   parent*, on its thread ("the costs for preparing and scheduling tasks
//!   is borne by its parent task and roughly proportional to the number of
//!   subtasks used");
//! * **phase barriers**: "a lightweight producer-consumer synchronization
//!   mechanism that allow a set of producer operations to notify a set of
//!   consumer operations when data is ready" — modeled as trigger-once
//!   events usable as launch preconditions, with no global synchronization.
//!
//! Scheduling is join counting. A pending launcher holds the number of its
//! reads and barrier waits not yet met; the first write of a region and
//! the trigger of a barrier decrement the counter of every launcher
//! waiting on it, and a launcher whose counter reaches zero is pushed into
//! the workers' [`WorkPool`]. [`LegionRuntime::wait_all`] runs the workers
//! until that pool is idle, an exact condition, not a timer: no task is
//! queued and no worker is running one. The run has then completed if no
//! launcher is still pending and has stalled otherwise.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use babelflow_core::sync::{Mutex, PoolStats, WorkPool};
use babelflow_core::trace::{
    noop_sink, now_ns, SpanKind, TraceEvent, TraceSink, CONTROL_THREAD, HOST_RANK,
};
use babelflow_core::{CallbackId, Payload, TaskId};

/// A phase barrier handle: generation 0, a fixed arrival count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PhaseBarrier {
    /// Barrier identity, dense from 0 in creation order.
    pub id: u32,
    /// Arrivals needed to trigger.
    pub arrivals: u32,
}

/// The body of a launched task. It receives a [`TaskCtx`] to read its input
/// regions, write its output regions, arrive at barriers, and launch
/// subtasks.
pub type TaskBody = Box<dyn FnOnce(&TaskCtx<'_>) + Send>;

/// A single-task launcher.
pub struct TaskLauncher {
    /// Debug name.
    pub name: &'static str,
    /// Regions the task reads: it runs once each has a physical instance.
    pub reads: Vec<u32>,
    /// Phase barriers the task waits on (SPMD cross-shard edges).
    pub barriers: Vec<u32>,
    /// The task body.
    pub body: TaskBody,
    /// Dataflow task id this launcher executes, for trace attribution
    /// (`u64::MAX` for launchers that are not dataflow tasks, e.g. SPMD
    /// shard tasks — their queue waits are recorded unattributed).
    pub trace_task: u64,
}

impl TaskLauncher {
    /// A launcher with the given name and body and no requirements yet.
    pub fn new(name: &'static str, body: TaskBody) -> Self {
        TaskLauncher {
            name,
            reads: Vec::new(),
            barriers: Vec::new(),
            body,
            trace_task: u64::MAX,
        }
    }

    /// Attribute this launcher's trace events to a dataflow task.
    pub fn with_trace_task(mut self, task: u64) -> Self {
        self.trace_task = task;
        self
    }

    /// Add a read requirement on `region`.
    pub fn add_read(mut self, region: u32) -> Self {
        self.reads.push(region);
        self
    }

    /// Add a phase-barrier wait.
    pub fn add_barrier_wait(mut self, barrier: u32) -> Self {
        self.barriers.push(barrier);
        self
    }
}

/// How a [`LegionRuntime::wait_all`] ended.
///
/// Distinguishes a run that drained from one that *stalled* (launched
/// tasks whose preconditions can no longer trigger), from one that could
/// never progress at all because the runtime has *zero workers*, and from
/// one abandoned because a worker thread panicked — each needs a different
/// fix (missing dependency, missing resources, a broken runtime hook).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitOutcome {
    /// Every outstanding task completed.
    Completed,
    /// No task is ready or running, yet some are outstanding; `pending`
    /// names the tasks still waiting on preconditions.
    Stalled {
        /// Debug names of tasks whose preconditions never triggered.
        pending: Vec<&'static str>,
    },
    /// The runtime has no workers, so outstanding tasks can never run.
    NoWorkers {
        /// Tasks launched but unrunnable.
        outstanding: usize,
    },
    /// A worker thread panicked outside any task callback (callback panics
    /// are retried by the controllers), e.g. in a trace sink.
    WorkerPanicked {
        /// Index of the (first) worker that panicked.
        worker: u32,
    },
}

impl WaitOutcome {
    /// Whether the run drained completely.
    pub fn is_completed(&self) -> bool {
        matches!(self, WaitOutcome::Completed)
    }
}

/// Runtime launch counters. (Fig. 3's staging/compute split is modelled
/// by `babelflow-sim`, not measured here.)
#[derive(Debug, Default, Clone)]
pub struct LegionStats {
    /// Individual tasks launched (points count individually).
    pub tasks_launched: u64,
    /// Launcher objects processed (an index launch is one).
    pub launches: u64,
    /// The workers' pool (timing-dependent).
    pub pool: PoolStats,
}

struct BarrierState {
    needed: u32,
    arrived: u32,
    /// Pending launchers waiting for the trigger.
    waiters: Vec<u32>,
}

struct PendingTask {
    name: &'static str,
    body: TaskBody,
    /// Join counter: reads and barrier waits not yet met.
    unmet: u32,
    trace_task: u64,
}

/// A task whose preconditions are all met, queued in the worker pool.
struct ReadyTask {
    body: TaskBody,
    trace_task: u64,
    /// [`now_ns`] when the task became ready (0 when tracing is off).
    ready_ns: u64,
}

struct SchedState {
    /// Physical instance of each logical region, `None` until written.
    regions: Vec<Option<Payload>>,
    /// Per region: the pending launchers waiting for its first write.
    readers: Vec<Vec<u32>>,
    barriers: Vec<BarrierState>,
    /// Launchers with unmet preconditions (`None` once queued).
    pending: Vec<Option<PendingTask>>,
    /// Ready tasks, pushed under this state's lock: the lock order is
    /// state, then pool. A worker takes its own lane first and steals
    /// when it runs dry, so a burst of triggers on one lane cannot idle
    /// the rest of the pool.
    pool: WorkPool<ReadyTask>,
    /// Cached `sink.enabled()`, so state updates can stamp ready times
    /// without reaching the sink through `Inner`.
    tracing: bool,
}

impl SchedState {
    fn queue(&mut self, body: TaskBody, trace_task: u64) {
        let ready_ns = if self.tracing { now_ns() } else { 0 };
        self.pool.push(ReadyTask { body, trace_task, ready_ns });
    }

    /// Decrement the join counter of each waiter, queuing those that reach
    /// zero.
    fn release(&mut self, waiters: Vec<u32>) {
        for idx in waiters {
            let p = self.pending[idx as usize].as_mut().expect("waiters are pending");
            p.unmet -= 1;
            if p.unmet == 0 {
                let p = self.pending[idx as usize].take().expect("checked above");
                self.queue(p.body, p.trace_task);
            }
        }
    }

    fn write(&mut self, region: u32, payload: Payload) {
        let instance = self
            .regions
            .get_mut(region as usize)
            .unwrap_or_else(|| panic!("write of unknown region {region}"));
        if instance.replace(payload).is_none() {
            let readers = std::mem::take(&mut self.readers[region as usize]);
            self.release(readers);
        }
    }

    fn arrive(&mut self, barrier: u32) {
        let b = self.barriers.get_mut(barrier as usize).expect("arrive at unknown barrier");
        b.arrived += 1;
        if b.arrived == b.needed {
            let waiters = std::mem::take(&mut b.waiters);
            self.release(waiters);
        }
    }

    /// Dependence analysis: count the launcher's unmet preconditions and
    /// either queue it or park it on each one.
    fn submit(&mut self, launcher: TaskLauncher) {
        let idx = self.pending.len() as u32;
        let mut unmet = 0;
        for &r in &launcher.reads {
            let written = self
                .regions
                .get(r as usize)
                .unwrap_or_else(|| panic!("read of unknown region {r}"))
                .is_some();
            if !written {
                unmet += 1;
                self.readers[r as usize].push(idx);
            }
        }
        for &b in &launcher.barriers {
            let b = self.barriers.get_mut(b as usize).expect("wait on unknown barrier");
            if b.arrived < b.needed {
                unmet += 1;
                b.waiters.push(idx);
            }
        }
        if unmet == 0 {
            self.queue(launcher.body, launcher.trace_task);
            return;
        }
        self.pending.push(Some(PendingTask {
            name: launcher.name,
            body: launcher.body,
            unmet,
            trace_task: launcher.trace_task,
        }));
    }
}

struct Inner {
    state: Mutex<SchedState>,
    stats_tasks: AtomicU64,
    stats_launches: AtomicU64,
    sink: Arc<dyn TraceSink>,
}

impl Inner {
    /// Submit a launcher: dependence analysis + enqueue. This work runs on
    /// the caller's thread — the parent pays.
    fn submit(&self, launcher: TaskLauncher) {
        self.stats_tasks.fetch_add(1, Ordering::Relaxed);
        self.state.lock().submit(launcher);
    }
}

/// The Legion-like runtime: a worker pool executing launched tasks as their
/// region/barrier preconditions trigger.
pub struct LegionRuntime {
    inner: Arc<Inner>,
    workers: usize,
}

/// Handle passed to executing task bodies.
pub struct TaskCtx<'a> {
    inner: &'a Inner,
    worker: u32,
}

impl TaskCtx<'_> {
    /// The worker thread running this task, the trace row's thread.
    /// Must-epoch tasks run outside the pool and report
    /// [`CONTROL_THREAD`].
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// Read the physical instance of a region declared as a read.
    ///
    /// # Panics
    /// If the region has no physical instance (dependence analysis
    /// guarantees it does for declared reads).
    pub fn read_region(&self, region: u32) -> Payload {
        self.inner.state.lock().regions[region as usize]
            .clone()
            .unwrap_or_else(|| panic!("read of unmapped region {region}"))
    }

    /// Write the physical instance of a region, triggering dependents.
    pub fn write_region(&self, region: u32, payload: Payload) {
        self.inner.state.lock().write(region, payload);
    }

    /// Arrive at a phase barrier; triggers it when the arrival count is
    /// reached.
    pub fn arrive(&self, barrier: u32) {
        self.inner.state.lock().arrive(barrier);
    }

    /// Launch a subtask from inside a task (recursive spawning). The
    /// staging cost is attributed to this (parent) task.
    pub fn launch(&self, launcher: TaskLauncher) {
        self.inner.submit(launcher);
    }

    /// The runtime's trace sink, so task bodies can emit execution spans
    /// on the same timeline as the runtime's queue-wait events.
    pub fn trace_sink(&self) -> &dyn TraceSink {
        &*self.inner.sink
    }

    /// Whether tracing is live (callers skip clock reads when not).
    pub fn tracing(&self) -> bool {
        self.inner.sink.enabled()
    }

    /// Whether a phase barrier has triggered (for polling shard tasks).
    pub fn barrier_triggered(&self, barrier: u32) -> bool {
        let st = self.inner.state.lock();
        let b = &st.barriers[barrier as usize];
        b.arrived >= b.needed
    }
}

impl LegionRuntime {
    /// A runtime executing on `workers` threads.
    pub fn new(workers: usize) -> Self {
        Self::with_sink(workers, noop_sink())
    }

    /// A runtime recording queue-wait spans into `sink` (task bodies reach
    /// the same sink through [`TaskCtx::trace_sink`]).
    ///
    /// Zero workers is allowed: launches are accepted but nothing runs,
    /// and [`wait_all`](Self::wait_all) reports
    /// [`WaitOutcome::NoWorkers`].
    pub fn with_sink(workers: usize, sink: Arc<dyn TraceSink>) -> Self {
        let tracing = sink.enabled();
        let inner = Arc::new(Inner {
            state: Mutex::new(SchedState {
                regions: Vec::new(),
                readers: Vec::new(),
                barriers: Vec::new(),
                pending: Vec::new(),
                pool: WorkPool::new(workers),
                tracing,
            }),
            stats_tasks: AtomicU64::new(0),
            stats_launches: AtomicU64::new(0),
            sink,
        });
        LegionRuntime { inner, workers }
    }

    /// Create `count` logical regions without physical instances; returns
    /// the number of the first (the rest follow densely).
    pub fn create_regions(&self, count: u32) -> u32 {
        let mut st = self.inner.state.lock();
        let first = st.regions.len();
        let end = first + count as usize;
        st.regions.resize(end, None);
        st.readers.resize_with(end, Vec::new);
        first as u32
    }

    /// Create a phase barrier expecting `arrivals` arrivals.
    pub fn create_barrier(&self, arrivals: u32) -> PhaseBarrier {
        let mut st = self.inner.state.lock();
        let id = st.barriers.len() as u32;
        st.barriers.push(BarrierState { needed: arrivals, arrived: 0, waiters: Vec::new() });
        PhaseBarrier { id, arrivals }
    }

    /// Pre-populate a region's physical instance (external input data).
    pub fn attach_region(&self, region: u32, payload: Payload) {
        self.inner.state.lock().write(region, payload);
    }

    /// Launch a single task from the top level.
    pub fn launch(&self, launcher: TaskLauncher) {
        self.inner.stats_launches.fetch_add(1, Ordering::Relaxed);
        self.inner.submit(launcher);
    }

    /// Index launch: one launcher object spawning a set of point tasks.
    /// The per-point staging loop runs on the caller (parent) thread.
    pub fn index_launch<F>(&self, name: &'static str, points: u64, mut point_launcher: F)
    where
        F: FnMut(u64) -> TaskLauncher,
    {
        self.inner.stats_launches.fetch_add(1, Ordering::Relaxed);
        for p in 0..points {
            let mut l = point_launcher(p);
            l.name = name;
            self.inner.submit(l);
        }
    }

    /// Must-epoch launch: a set of tasks guaranteed to run concurrently
    /// (each gets a dedicated thread, outside the worker pool), so they may
    /// synchronize with each other through phase barriers.
    ///
    /// Blocks until every epoch task has returned. Unlike single/index
    /// launches, epoch tasks run without runtime synchronization — exactly
    /// why the SPMD controller scales better.
    pub fn must_epoch_launch(&self, tasks: Vec<TaskLauncher>) {
        self.inner.stats_launches.fetch_add(1, Ordering::Relaxed);
        std::thread::scope(|s| {
            for t in tasks {
                self.inner.stats_tasks.fetch_add(1, Ordering::Relaxed);
                let inner = &*self.inner;
                s.spawn(move || (t.body)(&TaskCtx { inner, worker: CONTROL_THREAD }));
            }
        });
    }

    /// Run worker threads until no task is queued or running, then report
    /// whether everything launched completed. Call it after the top-level
    /// launches: from then on only running tasks can make a pending task
    /// ready, so an idle pool with a launcher still pending is a stall,
    /// detected at once and exactly. A worker thread that panics ends the
    /// wait with [`WaitOutcome::WorkerPanicked`].
    pub fn wait_all(&self) -> WaitOutcome {
        let inner = &*self.inner;
        let pool = inner.state.lock().pool.clone();
        if self.workers == 0 {
            let outstanding = pool.len() + self.stalled_tasks().len();
            return if outstanding == 0 {
                WaitOutcome::Completed
            } else {
                WaitOutcome::NoWorkers { outstanding }
            };
        }
        let run = pool.run_until_idle(
            |_| (),
            |_, worker, ReadyTask { body, trace_task, ready_ns }| {
                let worker = worker as u32;
                if trace_task != u64::MAX && inner.sink.enabled() {
                    // The runtime has no shard notion; the task body records
                    // its execution span with the controller's rank on this
                    // worker's thread.
                    inner.sink.record(
                        TraceEvent::span(SpanKind::QueueWait, ready_ns, now_ns(), HOST_RANK, worker)
                            .with_task(TaskId(trace_task), CallbackId(u32::MAX)),
                    );
                }
                body(&TaskCtx { inner, worker });
            },
        );
        if let Err(worker) = run {
            return WaitOutcome::WorkerPanicked { worker: worker as u32 };
        }
        let pending = self.stalled_tasks();
        if pending.is_empty() {
            WaitOutcome::Completed
        } else {
            WaitOutcome::Stalled { pending }
        }
    }

    /// Names of tasks still waiting on preconditions (diagnostics after a
    /// stalled [`wait_all`](Self::wait_all)).
    pub fn stalled_tasks(&self) -> Vec<&'static str> {
        self.inner
            .state
            .lock()
            .pending
            .iter()
            .flatten()
            .map(|p| p.name)
            .collect()
    }

    /// Snapshot of the runtime counters.
    pub fn stats(&self) -> LegionStats {
        LegionStats {
            tasks_launched: self.inner.stats_tasks.load(Ordering::Relaxed),
            launches: self.inner.stats_launches.load(Ordering::Relaxed),
            pool: self.inner.state.lock().pool.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::*;
    use babelflow_core::Blob;

    fn pay(v: u64) -> Payload {
        Payload::wrap(Blob(v.to_le_bytes().to_vec()))
    }

    fn val(p: &Payload) -> u64 {
        u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
    }

    #[test]
    fn region_dependence_orders_tasks() {
        let rt = LegionRuntime::new(2);
        let out = Arc::new(Mutex::new(Vec::<u64>::new()));

        // Consumer launched FIRST: must wait for producer's write.
        let r = rt.create_regions(1);
        let out2 = out.clone();
        rt.launch(
            TaskLauncher::new(
                "consumer",
                Box::new(move |ctx| {
                    let v = val(&ctx.read_region(r));
                    out2.lock().push(v + 1);
                }),
            )
            .add_read(r),
        );
        rt.launch(TaskLauncher::new(
            "producer",
            Box::new(move |ctx| {
                ctx.write_region(r, pay(41));
            }),
        ));
        assert!(rt.wait_all().is_completed());
        assert_eq!(*out.lock(), vec![42]);
    }

    #[test]
    fn regions_are_numbered_densely() {
        let rt = LegionRuntime::new(1);
        assert_eq!(rt.create_regions(3), 0);
        assert_eq!(rt.create_regions(2), 3);
        assert_eq!(rt.create_regions(0), 5);
        assert_eq!(rt.create_regions(1), 5);
        assert_eq!((rt.create_barrier(1).id, rt.create_barrier(4).id), (0, 1));
    }

    #[test]
    fn attached_regions_are_immediately_ready() {
        let rt = LegionRuntime::new(1);
        let r = rt.create_regions(1);
        rt.attach_region(r, pay(7));
        let got = Arc::new(Mutex::new(0u64));
        let got2 = got.clone();
        rt.launch(
            TaskLauncher::new(
                "reader",
                Box::new(move |ctx| {
                    *got2.lock() = val(&ctx.read_region(r));
                }),
            )
            .add_read(r),
        );
        assert!(rt.wait_all().is_completed());
        assert_eq!(*got.lock(), 7);
    }

    #[test]
    fn phase_barrier_gates_execution() {
        let rt = LegionRuntime::new(2);
        let pb = rt.create_barrier(2);
        let fired = Arc::new(Mutex::new(false));
        let fired2 = fired.clone();
        rt.launch(
            TaskLauncher::new("gated", Box::new(move |_| *fired2.lock() = true))
                .add_barrier_wait(pb.id),
        );
        // One arrival is not enough.
        rt.launch(TaskLauncher::new("arrive1", Box::new(move |ctx| ctx.arrive(pb.id))));
        std::thread::sleep(Duration::from_millis(50));
        // Second arrival releases the gated task.
        rt.launch(TaskLauncher::new("arrive2", Box::new(move |ctx| ctx.arrive(pb.id))));
        assert!(rt.wait_all().is_completed());
        assert!(*fired.lock());
    }

    #[test]
    fn join_counter_waits_for_every_read_and_barrier() {
        // Two reads and one barrier wait: the task runs only after all
        // three triggered, whatever order they trigger in.
        let rt = LegionRuntime::new(2);
        let r = rt.create_regions(2);
        let pb = rt.create_barrier(1);
        let sum = Arc::new(AtomicU64::new(0));
        let sum2 = sum.clone();
        rt.launch(
            TaskLauncher::new(
                "join",
                Box::new(move |ctx| {
                    let v = val(&ctx.read_region(r)) + val(&ctx.read_region(r + 1));
                    sum2.store(v, Ordering::Relaxed);
                }),
            )
            .add_read(r)
            .add_read(r + 1)
            .add_barrier_wait(pb.id),
        );
        rt.launch(TaskLauncher::new(
            "second",
            Box::new(move |ctx| {
                ctx.write_region(r + 1, pay(20));
                ctx.arrive(pb.id);
            }),
        ));
        rt.attach_region(r, pay(3));
        assert!(rt.wait_all().is_completed());
        assert_eq!(sum.load(Ordering::Relaxed), 23);
    }

    #[test]
    fn index_launch_spawns_all_points() {
        let rt = LegionRuntime::new(3);
        let sum = Arc::new(AtomicU64::new(0));
        let sum2 = sum.clone();
        rt.index_launch("points", 32, move |p| {
            let sum = sum2.clone();
            TaskLauncher::new(
                "point",
                Box::new(move |_| {
                    sum.fetch_add(p, Ordering::Relaxed);
                }),
            )
        });
        assert!(rt.wait_all().is_completed());
        assert_eq!(sum.load(Ordering::Relaxed), (0..32).sum::<u64>());
        let stats = rt.stats();
        assert_eq!(stats.tasks_launched, 32);
        assert_eq!(stats.launches, 1);
    }

    #[test]
    fn must_epoch_tasks_run_concurrently() {
        // Two epoch tasks synchronize through a barrier: only possible if
        // they truly run at the same time.
        let rt = LegionRuntime::new(1);
        let pb_ab = rt.create_barrier(1);
        let pb_ba = rt.create_barrier(1);
        let log = Arc::new(Mutex::new(Vec::<&str>::new()));
        let (l1, l2) = (log.clone(), log.clone());
        let a = TaskLauncher::new(
            "shard-a",
            Box::new(move |ctx| {
                l1.lock().push("a-start");
                ctx.arrive(pb_ab.id);
                // Busy-wait for B's arrival through the region-free barrier:
                // a must-epoch shard may block on its partner.
                while !ctx.barrier_triggered(pb_ba.id) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                l1.lock().push("a-end");
            }),
        );
        let b = TaskLauncher::new(
            "shard-b",
            Box::new(move |ctx| {
                l2.lock().push("b-start");
                while !ctx.barrier_triggered(pb_ab.id) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                ctx.arrive(pb_ba.id);
                l2.lock().push("b-end");
            }),
        );
        rt.must_epoch_launch(vec![a, b]);
        let log = log.lock();
        assert!(log.contains(&"a-end") && log.contains(&"b-end"));
    }

    #[test]
    fn stalled_run_reports_pending() {
        let rt = LegionRuntime::new(1);
        let r = rt.create_regions(1);
        rt.launch(TaskLauncher::new("starved", Box::new(|_| {})).add_read(r));
        let started = Instant::now();
        let outcome = rt.wait_all();
        // Detected by counting, not by waiting out a timer.
        assert!(started.elapsed() < Duration::from_millis(100));
        assert_eq!(outcome, WaitOutcome::Stalled { pending: vec!["starved"] });
        assert_eq!(rt.stalled_tasks(), vec!["starved"]);
    }

    #[test]
    fn stall_after_partial_progress_names_only_the_starved() {
        // `fed` runs and writes one of the two regions `starved` reads;
        // the pool then idles with `starved` outstanding.
        let rt = LegionRuntime::new(2);
        let r = rt.create_regions(3);
        rt.attach_region(r, pay(1));
        rt.launch(
            TaskLauncher::new("fed", Box::new(move |ctx| ctx.write_region(r + 1, pay(2))))
                .add_read(r),
        );
        rt.launch(
            TaskLauncher::new("starved", Box::new(|_| {})).add_read(r + 1).add_read(r + 2),
        );
        assert_eq!(rt.wait_all(), WaitOutcome::Stalled { pending: vec!["starved"] });
    }

    #[test]
    fn panicking_worker_is_reported_not_hung() {
        babelflow_core::quiet_panic_hook();
        let rt = LegionRuntime::new(2);
        let r = rt.create_regions(1);
        rt.launch(TaskLauncher::new("waits-forever", Box::new(|_| {})).add_read(r));
        rt.launch(TaskLauncher::new(
            "boom",
            Box::new(|_| panic!("{}: worker dies", babelflow_core::PANIC_MARKER)),
        ));
        let started = Instant::now();
        let outcome = rt.wait_all();
        assert!(matches!(outcome, WaitOutcome::WorkerPanicked { .. }), "got {outcome:?}");
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn zero_workers_is_reported_not_stalled() {
        let rt = LegionRuntime::new(0);
        rt.launch(TaskLauncher::new("unrunnable", Box::new(|_| {})));
        rt.launch(TaskLauncher::new("also-unrunnable", Box::new(|_| {})));
        assert_eq!(rt.wait_all(), WaitOutcome::NoWorkers { outstanding: 2 });
    }

    #[test]
    fn zero_workers_with_nothing_launched_completes() {
        let rt = LegionRuntime::new(0);
        assert!(rt.wait_all().is_completed());
    }

    #[test]
    fn launch_after_wait_all_runs_in_the_next_wait() {
        let rt = LegionRuntime::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..2 {
            let h = hits.clone();
            rt.launch(TaskLauncher::new(
                "late",
                Box::new(move |_| {
                    h.fetch_add(1, Ordering::Relaxed);
                }),
            ));
            assert!(rt.wait_all().is_completed());
        }
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn recursive_launch_from_task_body() {
        let rt = LegionRuntime::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        rt.launch(TaskLauncher::new(
            "parent",
            Box::new(move |ctx| {
                for _ in 0..4 {
                    let h = hits2.clone();
                    ctx.launch(TaskLauncher::new(
                        "child",
                        Box::new(move |_| {
                            h.fetch_add(1, Ordering::Relaxed);
                        }),
                    ));
                }
            }),
        ));
        assert!(rt.wait_all().is_completed());
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }
}
