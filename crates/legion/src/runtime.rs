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
//! * **logical regions** ([`RegionKey`]) and their physical instances (a
//!   [`Payload`] in the region store);
//! * **region requirements**: tasks declare the regions they read and
//!   write; the runtime derives execution dependencies from data, not from
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

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use babelflow_core::trace::{
    noop_sink, now_ns, SpanKind, TraceEvent, TraceSink, CONTROL_THREAD, HOST_RANK,
};
use babelflow_core::Payload;
use babelflow_core::sync::{Condvar, Mutex, WorkDeques};

/// A logical region: metadata naming a piece of data. The tuple mirrors how
/// the BabelFlow controllers name dataflow edges: (producer task, consumer
/// task, occurrence index among parallel edges).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionKey {
    /// Producer-side identifier.
    pub src: u64,
    /// Consumer-side identifier.
    pub dst: u64,
    /// Disambiguates parallel edges between the same pair.
    pub occurrence: u32,
}

/// A phase barrier handle: generation 0, a fixed arrival count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PhaseBarrier {
    /// Barrier identity.
    pub id: u64,
    /// Arrivals needed to trigger.
    pub arrivals: u32,
}

/// A precondition a launched task waits on before it may run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Precondition {
    /// The region has been written (its physical instance is valid).
    RegionReady(RegionKey),
    /// The phase barrier has triggered.
    BarrierTriggered(u64),
}

/// Access privilege of a region requirement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Privilege {
    /// The task reads the physical region (implies a
    /// [`Precondition::RegionReady`] dependence).
    Read,
    /// The task produces the physical region.
    Write,
}

/// A region requirement: which region a task touches and how.
#[derive(Clone, Copy, Debug)]
pub struct RegionRequirement {
    /// The region.
    pub region: RegionKey,
    /// Read or write access.
    pub privilege: Privilege,
}

impl RegionRequirement {
    /// A read requirement.
    pub fn read(region: RegionKey) -> Self {
        RegionRequirement { region, privilege: Privilege::Read }
    }

    /// A write requirement.
    pub fn write(region: RegionKey) -> Self {
        RegionRequirement { region, privilege: Privilege::Write }
    }
}

/// The body of a launched task. It receives a [`TaskCtx`] to read its input
/// regions, write its output regions, arrive at barriers, and launch
/// subtasks.
pub type TaskBody = Box<dyn FnOnce(&TaskCtx<'_>) + Send>;

/// A single-task launcher.
pub struct TaskLauncher {
    /// Debug name.
    pub name: &'static str,
    /// Declared region requirements.
    pub requirements: Vec<RegionRequirement>,
    /// Additional barrier preconditions (SPMD cross-shard edges).
    pub barriers: Vec<u64>,
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
            requirements: Vec::new(),
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

    /// Add a region requirement.
    pub fn add_requirement(mut self, req: RegionRequirement) -> Self {
        self.requirements.push(req);
        self
    }

    /// Add a phase-barrier wait.
    pub fn add_barrier_wait(mut self, barrier: u64) -> Self {
        self.barriers.push(barrier);
        self
    }
}

/// How a [`LegionRuntime::wait_all`] ended.
///
/// Distinguishes a run that drained from one that *stalled* (no progress
/// for the timeout, with named pending tasks) and from one that could
/// never progress at all because the runtime has *zero workers* — the
/// latter two need different fixes (missing dependency vs. missing
/// resources), so they are different variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaitOutcome {
    /// Every outstanding task completed.
    Completed,
    /// No task completed within the timeout; `pending` names the tasks
    /// still waiting on preconditions.
    Stalled {
        /// Debug names of tasks whose preconditions never triggered.
        pending: Vec<&'static str>,
    },
    /// The runtime has no workers, so outstanding tasks can never run.
    NoWorkers {
        /// Tasks launched but unrunnable.
        outstanding: usize,
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
}

#[derive(Default)]
struct BarrierState {
    arrivals_needed: u32,
    arrived: u32,
    triggered: bool,
}

struct PendingTask {
    name: &'static str,
    body: TaskBody,
    unmet: usize,
    trace_task: u64,
}

/// A task whose preconditions are all met, queued for a worker.
struct ReadyTask {
    body: TaskBody,
    trace_task: u64,
    /// [`now_ns`] when the task became ready (0 when tracing is off).
    ready_ns: u64,
}

struct SchedState {
    regions: HashMap<RegionKey, Payload>,
    barriers: HashMap<u64, BarrierState>,
    /// Pending tasks (slot map; None = moved to ready).
    pending: Vec<Option<PendingTask>>,
    /// Precondition -> indices of pending tasks waiting on it.
    waiters: HashMap<Precondition, Vec<usize>>,
    /// Events already triggered (region writes / barrier triggers).
    triggered: std::collections::HashSet<Precondition>,
    /// Ready tasks in per-worker lanes: a worker drains its own lane and
    /// steals from the others when it runs dry, so a burst of triggers on
    /// one lane cannot idle the rest of the pool.
    ready: WorkDeques<ReadyTask>,
    /// Tasks launched but not yet completed.
    outstanding: usize,
    shutdown: bool,
    /// Cached `sink.enabled()`, so `trigger` can stamp ready times without
    /// reaching the sink through `Inner`.
    tracing: bool,
}

struct Inner {
    state: Mutex<SchedState>,
    cv: Condvar,
    stats_tasks: AtomicU64,
    stats_launches: AtomicU64,
    next_barrier: AtomicU64,
    sink: Arc<dyn TraceSink>,
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

    /// Read the physical instance of a region declared with `Read`.
    ///
    /// # Panics
    /// If the region has no physical instance (dependence analysis
    /// guarantees it does for declared requirements).
    pub fn read_region(&self, region: RegionKey) -> Payload {
        self.inner
            .state
            .lock()
            .regions
            .get(&region)
            .cloned()
            .unwrap_or_else(|| panic!("read of unmapped region {region:?}"))
    }

    /// Write the physical instance of a region, triggering dependents.
    pub fn write_region(&self, region: RegionKey, payload: Payload) {
        let mut st = self.inner.state.lock();
        st.regions.insert(region, payload);
        trigger(&mut st, Precondition::RegionReady(region));
        drop(st);
        self.inner.cv.notify_all();
    }

    /// Arrive at a phase barrier; triggers it when the arrival count is
    /// reached.
    pub fn arrive(&self, barrier: u64) {
        let mut st = self.inner.state.lock();
        let b = st.barriers.get_mut(&barrier).expect("arrive at unknown barrier");
        b.arrived += 1;
        if b.arrived >= b.arrivals_needed && !b.triggered {
            b.triggered = true;
            trigger(&mut st, Precondition::BarrierTriggered(barrier));
        }
        drop(st);
        self.inner.cv.notify_all();
    }

    /// Launch a subtask from inside a task (recursive spawning). The
    /// staging cost is attributed to this (parent) task.
    pub fn launch(&self, launcher: TaskLauncher) {
        submit(self.inner, launcher);
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
    pub fn barrier_triggered(&self, barrier: u64) -> bool {
        self.inner
            .state
            .lock()
            .barriers
            .get(&barrier)
            .is_some_and(|b| b.triggered)
    }
}

/// Mark a precondition triggered and move satisfied waiters to the ready
/// queue.
fn trigger(st: &mut SchedState, pre: Precondition) {
    if !st.triggered.insert(pre) {
        return;
    }
    if let Some(waiters) = st.waiters.remove(&pre) {
        let ready_ns = if st.tracing { now_ns() } else { 0 };
        for idx in waiters {
            if let Some(p) = st.pending[idx].as_mut() {
                p.unmet -= 1;
                if p.unmet == 0 {
                    let p = st.pending[idx].take().expect("checked above");
                    st.ready.push(ReadyTask {
                        body: p.body,
                        trace_task: p.trace_task,
                        ready_ns,
                    });
                }
            }
        }
    }
}

/// Submit a launcher: dependence analysis + enqueue. This work runs on the
/// caller's thread — the parent pays.
fn submit(inner: &Inner, launcher: TaskLauncher) {
    let mut st = inner.state.lock();
    st.outstanding += 1;
    let mut unmet = 0usize;
    let mut pres: Vec<Precondition> = Vec::new();
    for req in &launcher.requirements {
        if req.privilege == Privilege::Read {
            pres.push(Precondition::RegionReady(req.region));
        }
    }
    for &b in &launcher.barriers {
        pres.push(Precondition::BarrierTriggered(b));
    }

    let idx = st.pending.len();
    for pre in &pres {
        if !st.triggered.contains(pre) {
            unmet += 1;
            st.waiters.entry(*pre).or_default().push(idx);
        }
    }
    if unmet == 0 {
        let ready_ns = if st.tracing { now_ns() } else { 0 };
        st.ready.push(ReadyTask {
            body: launcher.body,
            trace_task: launcher.trace_task,
            ready_ns,
        });
        st.pending.push(None);
    } else {
        st.pending.push(Some(PendingTask {
            name: launcher.name,
            body: launcher.body,
            unmet,
            trace_task: launcher.trace_task,
        }));
    }
    drop(st);
    inner.cv.notify_all();
    inner.stats_tasks.fetch_add(1, Ordering::Relaxed);
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
    /// [`WaitOutcome::NoWorkers`] instead of spinning until the stall
    /// timeout.
    pub fn with_sink(workers: usize, sink: Arc<dyn TraceSink>) -> Self {
        let tracing = sink.enabled();
        let inner = Arc::new(Inner {
            state: Mutex::new(SchedState {
                regions: HashMap::new(),
                barriers: HashMap::new(),
                pending: Vec::new(),
                waiters: HashMap::new(),
                triggered: std::collections::HashSet::new(),
                ready: WorkDeques::new(workers),
                outstanding: 0,
                shutdown: false,
                tracing,
            }),
            cv: Condvar::new(),
            stats_tasks: AtomicU64::new(0),
            stats_launches: AtomicU64::new(0),
            next_barrier: AtomicU64::new(0),
            sink,
        });
        LegionRuntime { inner, workers }
    }

    /// Create a phase barrier expecting `arrivals` arrivals.
    pub fn create_barrier(&self, arrivals: u32) -> PhaseBarrier {
        let id = self.inner.next_barrier.fetch_add(1, Ordering::Relaxed);
        self.inner
            .state
            .lock()
            .barriers
            .insert(id, BarrierState { arrivals_needed: arrivals, arrived: 0, triggered: false });
        PhaseBarrier { id, arrivals }
    }

    /// Pre-populate a region's physical instance (external input data).
    pub fn attach_region(&self, region: RegionKey, payload: Payload) {
        let mut st = self.inner.state.lock();
        st.regions.insert(region, payload);
        trigger(&mut st, Precondition::RegionReady(region));
    }

    /// Launch a single task from the top level.
    pub fn launch(&self, launcher: TaskLauncher) {
        self.inner.stats_launches.fetch_add(1, Ordering::Relaxed);
        submit(&self.inner, launcher);
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
            submit(&self.inner, l);
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
                let inner = self.inner.clone();
                s.spawn(move || {
                    let ctx = TaskCtx { inner: &inner, worker: CONTROL_THREAD };
                    (t.body)(&ctx);
                });
            }
        });
    }

    /// Run worker threads until all outstanding tasks complete or `timeout`
    /// passes with no progress. The outcome distinguishes a stall (some
    /// precondition never triggered) from a runtime that cannot make
    /// progress at all because it has no workers.
    pub fn wait_all(&self, timeout: Duration) -> WaitOutcome {
        let inner = &self.inner;
        if self.workers == 0 {
            // Nothing will ever run; report immediately rather than
            // burning the stall timeout on an impossibility.
            let outstanding = inner.state.lock().outstanding;
            return if outstanding == 0 {
                WaitOutcome::Completed
            } else {
                WaitOutcome::NoWorkers { outstanding }
            };
        }
        std::thread::scope(|s| {
            for w in 0..self.workers as u32 {
                s.spawn(move || worker_main(inner, w));
            }
            // Progress monitor.
            let done = {
                let mut last_outstanding = usize::MAX;
                let mut last_progress = Instant::now();
                loop {
                    let st = inner.state.lock();
                    let outstanding = st.outstanding;
                    drop(st);
                    if outstanding == 0 {
                        break true;
                    }
                    if outstanding != last_outstanding {
                        last_outstanding = outstanding;
                        last_progress = Instant::now();
                    } else if last_progress.elapsed() > timeout {
                        break false;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            };
            let mut st = inner.state.lock();
            st.shutdown = true;
            drop(st);
            inner.cv.notify_all();
            if done {
                WaitOutcome::Completed
            } else {
                WaitOutcome::Stalled { pending: self.stalled_tasks() }
            }
        })
    }

    /// Names of tasks still waiting on preconditions (diagnostics after a
    /// stalled [`wait_all`]).
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
        }
    }
}

fn worker_main(inner: &Inner, worker: u32) {
    loop {
        let task = {
            let mut st = inner.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(t) = st.ready.pop(worker as usize) {
                    break t;
                }
                inner.cv.wait(&mut st);
            }
        };
        let ReadyTask { body, trace_task, ready_ns } = task;
        if trace_task != u64::MAX && inner.sink.enabled() {
            // The runtime has no shard notion; the task body records its
            // execution span with the controller's rank on this worker's
            // thread.
            inner.sink.record(
                TraceEvent::span(SpanKind::QueueWait, ready_ns, now_ns(), HOST_RANK, worker)
                    .with_task(
                        babelflow_core::TaskId(trace_task),
                        babelflow_core::CallbackId(u32::MAX),
                    ),
            );
        }
        body(&TaskCtx { inner, worker });
        let mut st = inner.state.lock();
        st.outstanding -= 1;
        drop(st);
        inner.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use babelflow_core::{Blob, TaskId};

    fn pay(v: u64) -> Payload {
        Payload::wrap(Blob(v.to_le_bytes().to_vec()))
    }

    fn val(p: &Payload) -> u64 {
        u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
    }

    fn region(src: u64, dst: u64) -> RegionKey {
        RegionKey { src, dst, occurrence: 0 }
    }

    #[test]
    fn region_dependence_orders_tasks() {
        let rt = LegionRuntime::new(2);
        let out = Arc::new(Mutex::new(Vec::<u64>::new()));

        // Consumer launched FIRST: must wait for producer's write.
        let r = region(1, 2);
        let out2 = out.clone();
        rt.launch(
            TaskLauncher::new(
                "consumer",
                Box::new(move |ctx| {
                    let v = val(&ctx.read_region(r));
                    out2.lock().push(v + 1);
                }),
            )
            .add_requirement(RegionRequirement::read(r)),
        );
        rt.launch(
            TaskLauncher::new(
                "producer",
                Box::new(move |ctx| {
                    ctx.write_region(r, pay(41));
                }),
            )
            .add_requirement(RegionRequirement::write(r)),
        );
        assert!(rt.wait_all(Duration::from_secs(5)).is_completed());
        assert_eq!(*out.lock(), vec![42]);
    }

    #[test]
    fn attached_regions_are_immediately_ready() {
        let rt = LegionRuntime::new(1);
        let r = region(0, 1);
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
            .add_requirement(RegionRequirement::read(r)),
        );
        assert!(rt.wait_all(Duration::from_secs(5)).is_completed());
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
        assert!(rt.wait_all(Duration::from_secs(5)).is_completed());
        assert!(*fired.lock());
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
        assert!(rt.wait_all(Duration::from_secs(5)).is_completed());
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
        let r = region(9, 10);
        rt.launch(
            TaskLauncher::new("starved", Box::new(|_| {}))
                .add_requirement(RegionRequirement::read(r)),
        );
        let outcome = rt.wait_all(Duration::from_millis(100));
        assert_eq!(outcome, WaitOutcome::Stalled { pending: vec!["starved"] });
        assert_eq!(rt.stalled_tasks(), vec!["starved"]);
    }

    #[test]
    fn zero_workers_is_reported_not_stalled() {
        let rt = LegionRuntime::new(0);
        rt.launch(TaskLauncher::new("unrunnable", Box::new(|_| {})));
        rt.launch(TaskLauncher::new("also-unrunnable", Box::new(|_| {})));
        // Reported immediately (no 100 ms stall wait) and distinctly.
        let outcome = rt.wait_all(Duration::from_secs(100));
        assert_eq!(outcome, WaitOutcome::NoWorkers { outstanding: 2 });
    }

    #[test]
    fn zero_workers_with_nothing_launched_completes() {
        let rt = LegionRuntime::new(0);
        assert!(rt.wait_all(Duration::from_secs(100)).is_completed());
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
        assert!(rt.wait_all(Duration::from_secs(5)).is_completed());
        assert_eq!(hits.load(Ordering::Relaxed), 4);
        // src marker to silence unused import
        let _ = TaskId::EXTERNAL;
    }
}
