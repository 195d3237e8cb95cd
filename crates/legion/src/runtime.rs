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
//!   [`Payload`] written once into the region and moved out by its one
//!   reader). The controllers create one region per consumer input slot
//!   of the plan;
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
//! A launcher is an *item* of the runtime's type parameter `T` — the
//! controllers launch a task's `u32` plan index — plus the regions it
//! reads and the barriers it waits on, passed as iterators and never
//! stored. One handler, given to [`LegionRuntime::wait_all`], runs every
//! item, so a launch allocates no body and the handler borrows whatever
//! the run needs.
//!
//! Scheduling is join counting with no lock on the per-task path. Each
//! region and each barrier keeps the head of its waiters' chain in an
//! atomic. A launch links a waiter in with a CAS; the first write of a
//! region, or the arrival that triggers a barrier, swaps in `MET` and
//! walks the chain. A chain's last waiter is named by the head, or by the
//! link before it, so a region with one reader needs no link at all. A
//! launcher that parks has an atomic join counter, which starts at
//! `PARKING` while the launch links it in and is settled once at the end,
//! so a trigger racing the launch cannot release it early; the decrement
//! that reaches zero owns the launcher and hands it back to the caller as
//! [`Released`]. A region's payload passes from its writer to its reader
//! through the region's own cell. Regions, barriers, wait-list links and
//! launchers live in tables whose entries never move, so a worker reaches
//! one while a launch appends more.
//!
//! Only launches, set-up and the end-of-run check take the one state lock
//! ([`LegionStats::state_locks`]); reads, writes and arrivals take none.
//! Only the lock holder links waiters in, so a chain's head changes under
//! anyone else only to `MET`. Released launchers go into the workers'
//! [`WorkPool`] once the state lock, if held, is released: the runtime
//! never holds both locks. A worker keeps the first launcher its task
//! releases and runs it next ([`TaskCtx::keep`]); the rest, and everything
//! a launch batch makes ready, enter the pool as one batch in contiguous
//! blocks.
//!
//! [`LegionRuntime::wait_all`] runs the workers until that pool is idle,
//! an exact condition, not a timer: no task is queued and no worker is
//! running one. The run has then completed if no launcher is still pending
//! and has stalled otherwise.

use std::sync::Arc;

use babelflow_core::sync::{
    scope, AtomicU32, Local, Mutex, MutexGuard, OnceLock, Ordering, PoolStats, WorkPool,
};
use babelflow_core::trace::{noop_sink, now_ns, TraceSink, CONTROL_THREAD};
use babelflow_core::Payload;

/// Wait-list end, and the head of a list nobody waits on yet.
const NIL: u32 = u32::MAX;
/// Head of the list of a region written or a barrier triggered: a wait on
/// it is met at once.
const MET: u32 = u32::MAX - 1;
/// Tags a wait-list reference that names a launcher, the list's last
/// waiter, rather than a link: launcher `id` is `LAST | id`. Every other
/// reference below [`MET`] is a link's index.
const LAST: u32 = 1 << 31;
/// A parking launcher's join counter until its launch settles it: larger
/// than any launch's count of preconditions, so no trigger can bring it
/// to zero before then.
const PARKING: u32 = 1 << 31;

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
    /// No task is ready or running, yet some are outstanding;
    /// [`LegionRuntime::stalled`] names them.
    Stalled {
        /// Launchers whose preconditions never triggered.
        pending: usize,
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
    /// Launches processed: a single-task launch, an index launch, a
    /// shard task's batch and a must-epoch launch count one each.
    pub launches: u64,
    /// Acquisitions of the state lock: one per set-up step, per launch
    /// batch, per must-epoch launch and per end-of-run check. Task reads,
    /// writes and arrivals take none, so a run's count does not grow with
    /// its tasks; [`LegionRuntime::stats`] does not count. Exact for a
    /// given run: it depends on no thread timing.
    pub state_locks: u64,
    /// The workers' pool (timing-dependent).
    pub pool: PoolStats,
}

/// Log2 of the entries in a [`Table`]'s second chunk.
const CHUNK_BITS: u32 = 10;

/// An append-only table whose entries never move, in chunks created once:
/// the first holds as many entries as the table's first growth asks for,
/// and chunk `k > 0` holds `2^(CHUNK_BITS + k - 1)`. A thread that holds
/// an entry's index reads it with no lock while the table grows. Only the
/// state lock's holder grows a table.
struct Table<E> {
    /// Entries published so far. A growth stores it (Release) after the
    /// chunks and `first_chunk` it covers are set, and [`Table::get`]
    /// loads it (Acquire) before it reads them.
    len: AtomicU32,
    /// Entries in the chunks created so far (the grower's own count).
    built: AtomicU32,
    /// Entries in the first chunk, set by the first growth.
    first_chunk: AtomicU32,
    chunks: [OnceLock<Box<[E]>>; 33 - CHUNK_BITS as usize],
}

impl<E: Default> Table<E> {
    fn new() -> Self {
        Table {
            len: AtomicU32::new(0),
            built: AtomicU32::new(0),
            first_chunk: AtomicU32::new(0),
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// The chunk holding entry `i`, and its offset there.
    fn locate(&self, i: u32) -> (usize, usize) {
        let first_chunk = self.first_chunk.load(Ordering::Relaxed);
        if i < first_chunk {
            return (0, i as usize);
        }
        let j = u64::from(i - first_chunk) + (1 << CHUNK_BITS);
        let k = j.ilog2() - CHUNK_BITS;
        (k as usize + 1, (j - (1 << (k + CHUNK_BITS))) as usize)
    }

    fn len(&self) -> u32 {
        self.len.load(Ordering::Acquire)
    }

    /// Publish `n` more entries; returns the index of the first. Entry
    /// `i` of a chunk this growth creates is built as `make(i)`, in index
    /// order; every other entry has its default state. Indices stay below
    /// `MET & !LAST`, so a [`LAST`]-tagged one is never `NIL` or `MET`.
    fn grow_with(&self, n: u32, mut make: impl FnMut(u32) -> E) -> u32 {
        let first = self.len.load(Ordering::Relaxed);
        let end = first.checked_add(n).filter(|&end| end <= MET & !LAST);
        let end = end.expect("table index space");
        let mut built = self.built.load(Ordering::Relaxed);
        while built < end {
            let (k, size) = if built == 0 {
                self.first_chunk.store(n, Ordering::Relaxed);
                (0, n)
            } else {
                let k = self.locate(built).0;
                (k, 1 << (CHUNK_BITS as usize + k - 1))
            };
            let start = built;
            self.chunks[k].get_or_init(|| {
                let entry = |i| if i < end { make(i) } else { E::default() };
                (start..start + size).map(entry).collect()
            });
            built += size;
        }
        self.built.store(built, Ordering::Relaxed);
        self.len.store(end, Ordering::Release);
        first
    }

    /// [`grow_with`](Self::grow_with) in the default state.
    fn grow(&self, n: u32) -> u32 {
        self.grow_with(n, |_| E::default())
    }

    /// Entry `i`, if published.
    fn get(&self, i: u32) -> Option<&E> {
        if i >= self.len() {
            return None;
        }
        let (k, offset) = self.locate(i);
        self.chunks[k].get().map(|chunk| &chunk[offset])
    }
}

struct Region {
    /// The physical instance, `None` until written and again once its
    /// reader took it.
    instance: Mutex<Option<Payload>>,
    /// Head of the readers' chain, or [`MET`] once written.
    first_reader: AtomicU32,
}

impl Default for Region {
    fn default() -> Self {
        Region { instance: Mutex::new(None), first_reader: AtomicU32::new(NIL) }
    }
}

#[derive(Default)]
struct Barrier {
    /// Arrivals still needed to trigger.
    remaining: AtomicU32,
    /// Head of the waiters' chain, or [`MET`] once triggered.
    first_waiter: AtomicU32,
}

/// One entry of a wait list, written before a CAS publishes it and never
/// changed after.
#[derive(Default)]
struct Link {
    launcher: AtomicU32,
    next: AtomicU32,
}

/// A launcher that parked on at least one precondition.
struct Launcher<T> {
    /// The item, until the decrement that reaches zero takes it.
    item: Mutex<Option<T>>,
    /// Preconditions not yet met, plus [`PARKING`] until the launch
    /// settles; 0 once released.
    unmet: AtomicU32,
}

impl<T> Default for Launcher<T> {
    fn default() -> Self {
        Launcher { item: Mutex::new(None), unmet: AtomicU32::new(0) }
    }
}

/// An item whose preconditions are all met, queued in the worker pool.
struct Ready<T> {
    item: T,
    /// [`now_ns`] when the item became ready (0 when tracing is off).
    ready_ns: u64,
}

/// Launchers a state update made ready, returned by
/// [`LegionRuntime::write_region`] and [`LegionRuntime::arrive`].
///
/// Dropping it queues them in the workers' pool as stealable work, in
/// release order and under one pool lock; a launch batch drops it only
/// after releasing the state lock, so it never holds both. A task hands it
/// to [`TaskCtx::keep`] instead to run the first one itself. The first
/// launcher is kept apart from the rest, so an update that releases one
/// (every write of a reduction) allocates nothing.
pub struct Released<'a, T> {
    pool: &'a WorkPool<Ready<T>>,
    first: Option<Ready<T>>,
    rest: Vec<Ready<T>>,
}

impl<'a, T> Released<'a, T> {
    fn new(pool: &'a WorkPool<Ready<T>>) -> Self {
        Released { pool, first: None, rest: Vec::new() }
    }

    fn add(&mut self, ready: Ready<T>) {
        match self.first {
            None => self.first = Some(ready),
            Some(_) => self.rest.push(ready),
        }
    }

    /// How many launchers were released.
    pub fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    /// Whether none was.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Released<'_, T> {
    fn drop(&mut self) {
        if let Some(first) = self.first.take() {
            if self.rest.is_empty() {
                self.pool.push_all([first]);
                return;
            }
            self.rest.insert(0, first);
        }
        self.pool.push_all(self.rest.drain(..));
    }
}

/// What only launches, set-up and the end-of-run check touch.
#[derive(Default)]
struct SchedState {
    tasks_launched: u64,
    launches: u64,
    locks: u64,
}

/// The Legion-like runtime: a worker pool executing launched items as
/// their region/barrier preconditions trigger.
pub struct LegionRuntime<T> {
    state: Mutex<SchedState>,
    regions: Table<Region>,
    barriers: Table<Barrier>,
    /// Every region's and barrier's wait list.
    links: Table<Link>,
    /// Launchers that parked, in the order they did.
    launchers: Table<Launcher<T>>,
    /// Ready items, pushed only with the state lock released.
    pool: WorkPool<Ready<T>>,
    sink: Arc<dyn TraceSink>,
    /// Cached `sink.enabled()`, so triggers can stamp ready times.
    tracing: bool,
    workers: usize,
}

/// What a handler gets with each item it runs.
pub struct TaskCtx<'a, T> {
    /// The runtime, to read and write regions, arrive and launch subtasks.
    pub runtime: &'a LegionRuntime<T>,
    /// The worker thread running this task, the trace row's thread.
    /// Must-epoch tasks run outside the pool and report
    /// [`CONTROL_THREAD`].
    pub worker: u32,
    /// [`now_ns`] when the item became ready, for a queue-wait span (0
    /// when tracing is off, and for must-epoch tasks).
    pub ready_ns: u64,
    /// The running worker's own queue, until this task has kept a
    /// successor in it; `None` from then on, and for must-epoch tasks.
    successor: Option<&'a mut Local<Ready<T>>>,
}

impl<T> TaskCtx<'_, T> {
    /// Run the first launcher of `released` on this worker, right after
    /// this task, if the task runs on a pool worker and has kept none
    /// yet (a successor cache of one). The rest are queued in the pool
    /// as stealable work when `released` drops, so a task that makes
    /// several launchers ready still feeds the other workers.
    pub fn keep(&mut self, mut released: Released<'_, T>) {
        let Some(local) = self.successor.as_deref_mut() else { return };
        let Some(first) = released.first.take() else { return };
        local.push(first);
        self.successor = None;
    }
}

/// Launchers submitted under one acquisition of the state lock, held until
/// the batch is dropped: one index launch, or the single-task launchers one
/// shard task stages. The submitting thread pays for the dependence
/// analysis — the parent pays. The launchers that are ready at once enter
/// the pool as one batch when it drops, in contiguous blocks, one per
/// worker, so neighbours in launch order start on the same worker.
pub struct LaunchBatch<'a, T> {
    runtime: &'a LegionRuntime<T>,
    // Fields drop in declaration order: the state lock is released
    // before `ready` queues its launchers.
    state: MutexGuard<'a, SchedState>,
    ready: Released<'a, T>,
}

impl<T> LaunchBatch<'_, T> {
    /// Launch `item`, which runs once every region in `reads` has been
    /// written and every barrier in `waits` has triggered.
    pub fn launch(
        &mut self,
        item: T,
        reads: impl IntoIterator<Item = u32>,
        waits: impl IntoIterator<Item = u32>,
    ) {
        self.state.tasks_launched += 1;
        self.runtime.submit(item, reads, waits, &mut self.ready);
    }
}

impl<T> LegionRuntime<T> {
    fn ready(&self, item: T) -> Ready<T> {
        let ready_ns = if self.tracing { now_ns() } else { 0 };
        Ready { item, ready_ns }
    }

    /// Count `met` more preconditions of `launcher` as met, releasing it
    /// into `out` if that was the last. The decrement is AcqRel, so the
    /// one that reaches zero sees the item its launch stored and every
    /// payload the earlier triggers wrote.
    fn join(&self, launcher: &Launcher<T>, met: u32, out: &mut Released<'_, T>) {
        if launcher.unmet.fetch_sub(met, Ordering::AcqRel) == met {
            let item = launcher.item.lock().take().expect("a launcher is released once");
            out.add(self.ready(item));
        }
    }

    fn launcher(&self, id: u32) -> &Launcher<T> {
        self.launchers.get(id).expect("waiters are launchers")
    }

    /// Mark the list headed by `head` met and release its waiters into
    /// `out`; a list already met is left as it is. The swap is AcqRel: a
    /// launch that loads `MET` (Acquire) sees what was written before the
    /// trigger, and the trigger sees the links the launches' CAS published.
    fn trigger(&self, head: &AtomicU32, out: &mut Released<'_, T>) {
        let mut next = head.swap(MET, Ordering::AcqRel);
        if next == MET {
            return;
        }
        while next != NIL {
            if next & LAST != 0 {
                self.join(self.launcher(next & !LAST), 1, out);
                return;
            }
            let link = self.links.get(next).expect("waiters are links");
            self.join(self.launcher(link.launcher.load(Ordering::Relaxed)), 1, out);
            next = link.next.load(Ordering::Relaxed);
        }
    }

    /// Link `launcher` (made on first use) into the list headed by
    /// `head`; returns 1 if it now waits there, 0 if the list was met.
    /// The first waiter of a list is named by the head itself, with no
    /// link. Called only under the state lock, so nothing but a trigger's
    /// `MET` can replace the head under it.
    fn park<'s>(&'s self, head: &AtomicU32, launcher: &mut Option<(u32, &'s Launcher<T>)>) -> u32 {
        let first = head.load(Ordering::Acquire);
        if first == MET {
            return 0;
        }
        // The counter and the link are stored Relaxed: the CAS below
        // publishes them (Release) and a trigger's swap (Acquire) reads them.
        let (id, _) = *launcher.get_or_insert_with(|| {
            let id = self.launchers.grow(1);
            let l = self.launcher(id);
            l.unmet.store(PARKING, Ordering::Relaxed);
            (id, l)
        });
        let waiter = if first == NIL {
            LAST | id
        } else {
            let ix = self.links.grow(1);
            let link = self.links.get(ix).expect("just published");
            link.launcher.store(id, Ordering::Relaxed);
            link.next.store(first, Ordering::Relaxed);
            ix
        };
        match head.compare_exchange(first, waiter, Ordering::Release, Ordering::Acquire) {
            Ok(_) => 1,
            Err(now) => {
                debug_assert_eq!(now, MET, "only the state lock's holder links waiters in");
                0
            }
        }
    }

    /// Dependence analysis: park the launcher on each unmet precondition
    /// and settle its join counter, or release it into `out` if none is.
    fn submit(
        &self,
        item: T,
        reads: impl IntoIterator<Item = u32>,
        waits: impl IntoIterator<Item = u32>,
        out: &mut Released<'_, T>,
    ) {
        let mut launcher = None;
        let mut parked = 0;
        for r in reads {
            let region =
                self.regions.get(r).unwrap_or_else(|| panic!("read of unknown region {r}"));
            parked += self.park(&region.first_reader, &mut launcher);
        }
        for b in waits {
            let barrier = self.barriers.get(b).expect("wait on unknown barrier");
            parked += self.park(&barrier.first_waiter, &mut launcher);
        }
        match launcher {
            Some((_, l)) if parked > 0 => {
                *l.item.lock() = Some(item);
                self.join(l, PARKING - parked, out);
            }
            // Every list it found open was met before it linked in.
            Some((_, l)) => {
                l.unmet.store(0, Ordering::Relaxed);
                out.add(self.ready(item));
            }
            None => out.add(self.ready(item)),
        }
    }

    fn write(&self, region: u32, payload: Payload, out: &mut Released<'_, T>) {
        let r = self
            .regions
            .get(region)
            .unwrap_or_else(|| panic!("write of unknown region {region}"));
        *r.instance.lock() = Some(payload);
        self.trigger(&r.first_reader, out);
    }

    fn arrive_at(&self, barrier: u32, out: &mut Released<'_, T>) {
        let b = self.barriers.get(barrier).expect("arrive at unknown barrier");
        // Arrivals past the count find it triggered and change nothing.
        let arrive = |remaining: u32| remaining.checked_sub(1);
        if b.remaining.fetch_update(Ordering::AcqRel, Ordering::Acquire, arrive) == Ok(1) {
            self.trigger(&b.first_waiter, out);
        }
    }
}

impl<T: Send> LegionRuntime<T> {
    /// A runtime executing on `workers` threads.
    pub fn new(workers: usize) -> Self {
        Self::with_sink(workers, noop_sink())
    }

    /// A runtime whose handlers reach `sink` through
    /// [`trace_sink`](Self::trace_sink), with ready times stamped when it
    /// is enabled.
    ///
    /// Zero workers is allowed: launches are accepted but nothing runs,
    /// and [`wait_all`](Self::wait_all) reports
    /// [`WaitOutcome::NoWorkers`].
    pub fn with_sink(workers: usize, sink: Arc<dyn TraceSink>) -> Self {
        LegionRuntime {
            state: Mutex::new(SchedState::default()),
            regions: Table::new(),
            barriers: Table::new(),
            links: Table::new(),
            launchers: Table::new(),
            pool: WorkPool::new(workers),
            tracing: sink.enabled(),
            sink,
            workers,
        }
    }

    /// Take the state lock, counting the acquisition.
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        let mut st = self.state.lock();
        st.locks += 1;
        st
    }

    /// The runtime's trace sink, so handlers can emit execution spans.
    pub fn trace_sink(&self) -> &dyn TraceSink {
        &*self.sink
    }

    /// Create `count` logical regions without physical instances; returns
    /// the number of the first (the rest follow densely).
    pub fn create_regions(&self, count: u32) -> u32 {
        self.create_mapped_regions(count, [])
    }

    /// [`create_regions`](Self::create_regions), then
    /// [`attach_regions`](Self::attach_regions) under the same lock. A
    /// region this call creates in a new chunk of the region table is
    /// built holding its instance, with no atomic touched, when the
    /// instances come in ascending region order: the controllers map all
    /// of a run's regions this way.
    pub fn create_mapped_regions(
        &self,
        count: u32,
        instances: impl IntoIterator<Item = (u32, Payload)>,
    ) -> u32 {
        let mut released = Released::new(&self.pool);
        let st = self.lock();
        let mut instances = instances.into_iter().peekable();
        let first = self.regions.grow_with(count, |r| {
            let instance = instances.next_if(|&(at, _)| at == r).map(|(_, payload)| payload);
            let head = if instance.is_some() { MET } else { NIL };
            Region { instance: Mutex::new(instance), first_reader: AtomicU32::new(head) }
        });
        for (region, payload) in instances {
            self.write(region, payload, &mut released);
        }
        drop(st);
        first
    }

    /// Create `count` phase barriers, each expecting `arrivals` arrivals;
    /// returns the id of the first (the rest follow densely).
    pub fn create_barriers(&self, count: u32, arrivals: u32) -> u32 {
        let _st = self.lock();
        let first_waiter = if arrivals == 0 { MET } else { NIL };
        let first = self.barriers.grow(count);
        // Release, for the arrivals' and waits' Acquire on these words.
        for b in first..first + count {
            let b = self.barriers.get(b).expect("just published");
            b.remaining.store(arrivals, Ordering::Release);
            b.first_waiter.store(first_waiter, Ordering::Release);
        }
        first
    }

    /// Pre-populate regions' physical instances (external input data).
    /// Launchers this makes ready are queued as stealable work.
    pub fn attach_regions(&self, instances: impl IntoIterator<Item = (u32, Payload)>) {
        self.create_mapped_regions(0, instances);
    }

    /// Move the physical instances of `regions` out into `into`, in order.
    /// Each region has one reader, and it takes the data.
    ///
    /// # Panics
    /// If a region has no physical instance (dependence analysis
    /// guarantees one for a declared read that was not taken before).
    pub fn take_regions(&self, regions: impl IntoIterator<Item = u32>, into: &mut Vec<Payload>) {
        into.extend(regions.into_iter().map(|r| {
            let instance = self.regions.get(r).and_then(|region| region.instance.lock().take());
            instance.unwrap_or_else(|| panic!("read of unmapped region {r}"))
        }));
    }

    /// Write the physical instance of a region, triggering its readers,
    /// and arrive at `barrier` if given. Returns the launchers this made
    /// ready; they are queued once it drops.
    pub fn write_region(
        &self,
        region: u32,
        payload: Payload,
        barrier: Option<u32>,
    ) -> Released<'_, T> {
        let mut released = Released::new(&self.pool);
        self.write(region, payload, &mut released);
        if let Some(b) = barrier {
            self.arrive_at(b, &mut released);
        }
        released
    }

    /// Arrive at a phase barrier; triggers it when the arrival count is
    /// reached. Returns the launchers this made ready, as
    /// [`write_region`](Self::write_region) does.
    pub fn arrive(&self, barrier: u32) -> Released<'_, T> {
        let mut released = Released::new(&self.pool);
        self.arrive_at(barrier, &mut released);
        released
    }

    /// Whether a phase barrier has triggered (for polling shard tasks).
    pub fn barrier_triggered(&self, barrier: u32) -> bool {
        let b = self.barriers.get(barrier).expect("poll of unknown barrier");
        b.remaining.load(Ordering::Acquire) == 0
    }

    /// Start a batch of launches, counted as one launch.
    pub fn launch_batch(&self) -> LaunchBatch<'_, T> {
        let mut state = self.lock();
        state.launches += 1;
        LaunchBatch { runtime: self, state, ready: Released::new(&self.pool) }
    }

    /// Launch a single task: a batch of one.
    pub fn launch(
        &self,
        item: T,
        reads: impl IntoIterator<Item = u32>,
        waits: impl IntoIterator<Item = u32>,
    ) {
        self.launch_batch().launch(item, reads, waits);
    }

    /// Must-epoch launch: `tasks` tasks guaranteed to run concurrently
    /// (each gets a dedicated thread, outside the worker pool), so they may
    /// synchronize with each other through phase barriers. Task `i` runs
    /// `body(ctx, i)`.
    ///
    /// Blocks until every epoch task has returned. Unlike single/index
    /// launches, epoch tasks run without runtime synchronization — exactly
    /// why the SPMD controller scales better.
    pub fn must_epoch_launch(&self, tasks: u32, body: impl Fn(&TaskCtx<'_, T>, u32) + Sync) {
        let mut st = self.lock();
        st.launches += 1;
        st.tasks_launched += u64::from(tasks);
        drop(st);
        let body = &body;
        scope(|s| {
            for i in 0..tasks {
                let ctx =
                    TaskCtx { runtime: self, worker: CONTROL_THREAD, ready_ns: 0, successor: None };
                s.spawn(move || body(&ctx, i));
            }
        });
    }

    /// Run worker threads until no task is queued or running, then report
    /// whether everything launched completed, with each worker's final
    /// state.
    ///
    /// Worker `w` starts with state `init(w)` and runs each item it pops
    /// with `handle(&mut state, ctx, item)`; the item a task keeps
    /// ([`TaskCtx::keep`]) is the next one its worker runs. Call it after
    /// the top-level launches: from then on only running tasks can make a
    /// pending task ready, so an idle pool with a launcher still pending
    /// is a stall, detected at once and exactly. A worker thread that
    /// panics ends the wait with [`WaitOutcome::WorkerPanicked`] and no
    /// states.
    pub fn wait_all<S: Send>(
        &self,
        init: impl Fn(usize) -> S + Sync,
        handle: impl Fn(&mut S, &mut TaskCtx<'_, T>, T) + Sync,
    ) -> (WaitOutcome, Vec<S>) {
        if self.workers == 0 {
            let outstanding = self.pool.len() + self.waiting();
            return match outstanding {
                0 => (WaitOutcome::Completed, Vec::new()),
                _ => (WaitOutcome::NoWorkers { outstanding }, Vec::new()),
            };
        }
        let run = self.pool.run_until_idle(init, |state, local, Ready { item, ready_ns }| {
            let worker = local.worker() as u32;
            let mut ctx = TaskCtx { runtime: self, worker, ready_ns, successor: Some(local) };
            handle(state, &mut ctx, item);
        });
        match run {
            Err(worker) => (WaitOutcome::WorkerPanicked { worker: worker as u32 }, Vec::new()),
            Ok(states) => match self.waiting() {
                0 => (WaitOutcome::Completed, states),
                pending => (WaitOutcome::Stalled { pending }, states),
            },
        }
    }

    /// Launchers that parked and are not released yet.
    fn pending(&self) -> impl Iterator<Item = &Launcher<T>> {
        let launchers = &self.launchers;
        let parked = (0..launchers.len()).map(|id| launchers.get(id).expect("published"));
        parked.filter(|l| l.unmet.load(Ordering::Acquire) != 0)
    }

    /// How many launchers still wait on preconditions.
    fn waiting(&self) -> usize {
        let _st = self.lock();
        self.pending().count()
    }

    /// `name` of each launcher still waiting on preconditions, in launch
    /// order (diagnostics after a stalled [`wait_all`](Self::wait_all)).
    pub fn stalled<R>(&self, mut name: impl FnMut(&T) -> R) -> Vec<R> {
        let _st = self.state.lock();
        self.pending().filter_map(|l| l.item.lock().as_ref().map(&mut name)).collect()
    }

    /// Snapshot of the runtime counters.
    pub fn stats(&self) -> LegionStats {
        let st = self.state.lock();
        LegionStats {
            tasks_launched: st.tasks_launched,
            launches: st.launches,
            state_locks: st.locks,
            pool: self.pool.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    use super::*;
    use babelflow_core::Blob;

    /// The unit tests' item: a named boxed closure, run by [`run`].
    struct Body(&'static str, Closure);

    type Closure = Box<dyn FnOnce(&mut TaskCtx<'_, Body>) + Send>;

    fn body(name: &'static str, f: impl FnOnce(&mut TaskCtx<'_, Body>) + Send + 'static) -> Body {
        Body(name, Box::new(f))
    }

    /// `wait_all` with the handler that calls each item's closure.
    fn run(rt: &LegionRuntime<Body>) -> WaitOutcome {
        rt.wait_all(|_| (), |_, ctx, Body(_, f)| f(ctx)).0
    }

    fn names(rt: &LegionRuntime<Body>) -> Vec<&'static str> {
        rt.stalled(|b| b.0)
    }

    const NONE: [u32; 0] = [];

    fn pay(v: u64) -> Payload {
        Payload::wrap(Blob(v.to_le_bytes().to_vec()))
    }

    fn val(p: &Payload) -> u64 {
        u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
    }

    /// The value of region `r`, moved out.
    fn take(ctx: &TaskCtx<'_, Body>, r: u32) -> u64 {
        let mut inputs = Vec::new();
        ctx.runtime.take_regions([r], &mut inputs);
        val(&inputs[0])
    }

    #[test]
    fn region_dependence_orders_tasks() {
        let rt = LegionRuntime::new(2);
        let out = Arc::new(Mutex::new(Vec::<u64>::new()));

        // Consumer launched FIRST: must wait for producer's write.
        let r = rt.create_regions(1);
        let out2 = out.clone();
        rt.launch(body("consumer", move |ctx| out2.lock().push(take(ctx, r) + 1)), [r], NONE);
        let producer =
            body("producer", move |ctx| ctx.keep(ctx.runtime.write_region(r, pay(41), None)));
        rt.launch(producer, NONE, NONE);
        assert!(run(&rt).is_completed());
        assert_eq!(*out.lock(), vec![42]);
    }

    #[test]
    fn regions_are_numbered_densely() {
        let rt = LegionRuntime::<Body>::new(1);
        assert_eq!(rt.create_regions(3), 0);
        assert_eq!(rt.create_regions(2), 3);
        assert_eq!(rt.create_regions(0), 5);
        assert_eq!(rt.create_regions(1), 5);
        assert_eq!((rt.create_barriers(1, 1), rt.create_barriers(2, 4)), (0, 1));
        assert_eq!(rt.create_barriers(1, 1), 3);
    }

    #[test]
    fn a_table_builds_entries_in_the_chunks_a_growth_creates() {
        // The first chunk holds 3 entries, the second 1024 and the third
        // 2048: the second growth creates both, the third finds entry 2003
        // in an existing chunk, where it keeps its default.
        let table = Table::<AtomicU32>::new();
        let make = |i| AtomicU32::new(i + 1);
        assert_eq!((table.grow_with(3, make), table.grow_with(2000, make)), (0, 3));
        assert_eq!(table.grow_with(1, make), 2003);
        let value = |i| table.get(i).map(|e| e.load(Ordering::Relaxed));
        assert!((0..2003).all(|i| value(i) == Some(i + 1)));
        assert_eq!((value(2003), value(2004)), (Some(0), None));
        assert_eq!((table.locate(1026), table.locate(1027)), ((1, 1023), (2, 0)));
    }

    #[test]
    fn mapped_regions_hold_their_instances_in_new_and_existing_chunks() {
        // Regions 1-3 fill a new chunk; regions 4-5 land in that chunk's
        // spare entries and are written as attached ones are.
        let rt = LegionRuntime::<u32>::new(2);
        assert_eq!(rt.create_regions(1), 0);
        assert_eq!(rt.create_mapped_regions(3, [(1, pay(1)), (3, pay(3))]), 1);
        assert_eq!(rt.create_mapped_regions(2, [(4, pay(4)), (0, pay(0))]), 4);
        let mut batch = rt.launch_batch();
        for r in 0..6 {
            batch.launch(r, [r], NONE);
        }
        drop(batch);
        let (outcome, workers) = rt.wait_all(
            |_| Vec::new(),
            |ran: &mut Vec<u64>, ctx: &mut TaskCtx<'_, u32>, r| {
                let mut inputs = Vec::new();
                ctx.runtime.take_regions([r], &mut inputs);
                ran.push(val(&inputs[0]));
            },
        );
        assert_eq!(outcome, WaitOutcome::Stalled { pending: 2 });
        let mut ran = workers.concat();
        ran.sort_unstable();
        assert_eq!(ran, vec![0, 1, 3, 4]);
        assert_eq!(rt.stalled(|&r| r), vec![2, 5]);
    }

    #[test]
    fn attached_regions_are_immediately_ready() {
        let rt = LegionRuntime::new(1);
        let r = rt.create_regions(1);
        rt.attach_regions([(r, pay(7))]);
        let got = Arc::new(AtomicU64::new(0));
        let got2 = got.clone();
        let reader = body("reader", move |ctx| got2.store(take(ctx, r), Ordering::Relaxed));
        rt.launch(reader, [r], NONE);
        assert!(run(&rt).is_completed());
        assert_eq!(got.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn phase_barrier_gates_execution() {
        let rt = LegionRuntime::new(2);
        let pb = rt.create_barriers(1, 2);
        let fired = Arc::new(Mutex::new(false));
        let fired2 = fired.clone();
        rt.launch(body("gated", move |_| *fired2.lock() = true), NONE, [pb]);
        // One arrival is not enough.
        rt.launch(body("arrive1", move |ctx| ctx.keep(ctx.runtime.arrive(pb))), NONE, NONE);
        assert_eq!(run(&rt), WaitOutcome::Stalled { pending: 1 });
        assert!(!*fired.lock());
        // Second arrival releases the gated task.
        rt.launch(body("arrive2", move |ctx| ctx.keep(ctx.runtime.arrive(pb))), NONE, NONE);
        assert!(run(&rt).is_completed());
        assert!(*fired.lock());
    }

    #[test]
    fn join_counter_waits_for_every_read_and_barrier() {
        // Two reads and one barrier wait: the task runs only after all
        // three triggered, whatever order they trigger in.
        let rt = LegionRuntime::new(2);
        let r = rt.create_regions(2);
        let pb = rt.create_barriers(1, 1);
        let sum = Arc::new(AtomicU64::new(0));
        let sum2 = sum.clone();
        rt.launch(
            body("join", move |ctx| {
                let mut inputs = Vec::new();
                ctx.runtime.take_regions([r, r + 1], &mut inputs);
                sum2.store(inputs.iter().map(val).sum(), Ordering::Relaxed);
            }),
            [r, r + 1],
            [pb],
        );
        rt.launch(
            body("second", move |ctx| ctx.keep(ctx.runtime.write_region(r + 1, pay(20), Some(pb)))),
            NONE,
            NONE,
        );
        rt.attach_regions([(r, pay(3))]);
        assert!(run(&rt).is_completed());
        assert_eq!(sum.load(Ordering::Relaxed), 23);
    }

    #[test]
    fn flat_wait_lists_release_each_waiter_once_in_any_trigger_order() {
        // Items 0-2 read region r, items 3-4 wait on a two-arrival barrier
        // and item 5 does both: whichever triggers first releases exactly
        // its own waiters, and each item runs once.
        for write_first in [true, false] {
            let rt = LegionRuntime::<u32>::new(2);
            let r = rt.create_regions(1);
            let b = rt.create_barriers(1, 2);
            let mut batch = rt.launch_batch();
            for item in 0..3 {
                batch.launch(item, [r], NONE);
            }
            for item in 3..5 {
                batch.launch(item, NONE, [b]);
            }
            batch.launch(5, [r], [b]);
            drop(batch);
            let ran = || {
                let (outcome, workers) = rt.wait_all(|_| Vec::new(), |ran, _, item| ran.push(item));
                let mut ran = workers.concat();
                ran.sort_unstable();
                (outcome, ran)
            };
            let write = || rt.write_region(r, pay(1), None);
            if write_first {
                write();
                assert_eq!(ran(), (WaitOutcome::Stalled { pending: 3 }, vec![0, 1, 2]));
                rt.arrive(b);
                assert_eq!(ran(), (WaitOutcome::Stalled { pending: 3 }, vec![]));
                rt.arrive(b);
                assert_eq!(ran(), (WaitOutcome::Completed, vec![3, 4, 5]));
            } else {
                rt.arrive(b);
                assert_eq!(ran(), (WaitOutcome::Stalled { pending: 6 }, vec![]));
                rt.arrive(b);
                assert_eq!(ran(), (WaitOutcome::Stalled { pending: 4 }, vec![3, 4]));
                write();
                assert_eq!(ran(), (WaitOutcome::Completed, vec![0, 1, 2, 5]));
            }
            // A late trigger or a late waiter finds the lists met.
            rt.write_region(r, pay(2), None);
            rt.arrive(b);
            rt.launch(6, [r], [b]);
            assert_eq!(ran(), (WaitOutcome::Completed, vec![6]));
        }
    }

    #[test]
    fn a_write_that_releases_eight_keeps_one_and_queues_seven() {
        // One worker, so the run is deterministic. Producer 8 writes the
        // region consumers 0-7 read; the chain releases them last-parked
        // first. The worker keeps the first, 7, and runs it next without
        // touching the pool, whose length each task records: the other
        // seven wait there, and leave it one pop at a time.
        let rt = LegionRuntime::<u32>::new(1);
        let r = rt.create_regions(1);
        let mut batch = rt.launch_batch();
        for item in 0..8 {
            batch.launch(item, [r], NONE);
        }
        batch.launch(8, NONE, NONE);
        drop(batch);
        let (outcome, workers) = rt.wait_all(
            |_| Vec::new(),
            |ran: &mut Vec<(u32, usize)>, ctx: &mut TaskCtx<'_, u32>, item| {
                if item == 8 {
                    let released = ctx.runtime.write_region(r, pay(1), None);
                    assert_eq!(released.len(), 8);
                    ctx.keep(released);
                }
                ran.push((item, ctx.runtime.pool.len()));
            },
        );
        assert!(outcome.is_completed());
        let want: Vec<(u32, usize)> =
            [(8, 7), (7, 7)].into_iter().chain((0..7).rev().map(|i| (i, i as usize))).collect();
        assert_eq!(workers, vec![want]);
    }

    #[test]
    fn a_task_keeps_one_successor_across_its_writes() {
        // Producer 2 writes two regions, each releasing one reader: the
        // first released stays on the worker, the second goes to the pool.
        let rt = LegionRuntime::<u32>::new(1);
        let r = rt.create_regions(2);
        let mut batch = rt.launch_batch();
        batch.launch(0, [r], NONE);
        batch.launch(1, [r + 1], NONE);
        batch.launch(2, NONE, NONE);
        drop(batch);
        let (outcome, workers) = rt.wait_all(
            |_| Vec::new(),
            |ran: &mut Vec<(u32, usize)>, ctx: &mut TaskCtx<'_, u32>, item| {
                if item == 2 {
                    ctx.keep(ctx.runtime.write_region(r, pay(1), None));
                    ctx.keep(ctx.runtime.write_region(r + 1, pay(2), None));
                }
                ran.push((item, ctx.runtime.pool.len()));
            },
        );
        assert!(outcome.is_completed());
        assert_eq!(workers, vec![vec![(2, 1), (0, 1), (1, 0)]]);
    }

    #[test]
    fn racing_launches_and_triggers_run_every_launcher_once() {
        // Items 0..4 write region r, items 4..10 arrive (three arrivals per
        // barrier) and items 10..13 are spawners. They start in one
        // shuffled batch, so the workers race: a spawner's batch links
        // readers in while the other workers write and arrive. Each spawner
        // launches a reader of every region, a waiter on every barrier and
        // one task on regions 0 and 1 and barrier 0, so each list has
        // several waiters, some linked before its trigger and some after.
        // Spawner 0's readers move the payload out and check it.
        const REGIONS: u32 = 4;
        const ARRIVALS: u32 = 3;
        const SPAWNERS: u32 = 3;
        const SPAWNED: u32 = 10 + SPAWNERS;
        const PER_SPAWNER: u32 = REGIONS + 2 + 1;
        const ITEMS: u32 = SPAWNED + SPAWNERS * PER_SPAWNER;
        for iteration in 0..1200 {
            let rt = LegionRuntime::<u32>::new(2 + iteration % 3);
            let r = rt.create_regions(REGIONS);
            let b = rt.create_barriers(2, ARRIVALS);
            let mut batch = rt.launch_batch();
            for k in 0..SPAWNED {
                batch.launch(k * 5 % SPAWNED, NONE, NONE);
            }
            drop(batch);
            let (outcome, workers) = rt.wait_all(
                |_| Vec::new(),
                |ran: &mut Vec<u32>, ctx: &mut TaskCtx<'_, u32>, item| {
                    let runtime = ctx.runtime;
                    match item {
                        0..REGIONS => {
                            ctx.keep(runtime.write_region(r + item, pay(item.into()), None));
                        }
                        4..10 => ctx.keep(runtime.arrive(b + (item - 4) / ARRIVALS)),
                        10..SPAWNED => {
                            let first = SPAWNED + (item - 10) * PER_SPAWNER;
                            let mut batch = runtime.launch_batch();
                            for k in 0..REGIONS {
                                batch.launch(first + k, [r + k], NONE);
                            }
                            batch.launch(first + REGIONS, NONE, [b]);
                            batch.launch(first + REGIONS + 1, NONE, [b + 1]);
                            batch.launch(first + REGIONS + 2, [r, r + 1], [b]);
                        }
                        _ if item < SPAWNED + REGIONS => {
                            let k = item - SPAWNED;
                            let mut inputs = Vec::new();
                            runtime.take_regions([r + k], &mut inputs);
                            assert_eq!(val(&inputs[0]), u64::from(k));
                        }
                        _ => {}
                    }
                    ran.push(item);
                },
            );
            assert_eq!(outcome, WaitOutcome::Completed, "iteration {iteration}");
            let mut ran = workers.concat();
            ran.sort_unstable();
            assert_eq!(ran, (0..ITEMS).collect::<Vec<_>>(), "iteration {iteration}");
            assert!(rt.stalled(|&item| item).is_empty());
        }
    }

    #[test]
    fn index_launch_spawns_all_points() {
        let rt = LegionRuntime::new(3);
        let sum = Arc::new(AtomicU64::new(0));
        let mut batch = rt.launch_batch();
        for p in 0..32 {
            let sum = sum.clone();
            batch.launch(body("point", move |_| {
                sum.fetch_add(p, Ordering::Relaxed);
            }), NONE, NONE);
        }
        drop(batch);
        assert!(run(&rt).is_completed());
        assert_eq!(sum.load(Ordering::Relaxed), (0..32).sum::<u64>());
        let stats = rt.stats();
        assert_eq!(stats.tasks_launched, 32);
        assert_eq!(stats.launches, 1);
    }

    #[test]
    fn must_epoch_tasks_run_concurrently() {
        // Two epoch tasks synchronize through barriers: only possible if
        // they truly run at the same time.
        let rt = LegionRuntime::<Body>::new(1);
        let pb = rt.create_barriers(2, 1);
        let log = Mutex::new(Vec::<&str>::new());
        rt.must_epoch_launch(2, |ctx, shard| {
            // Shard s arrives at barrier s and waits for its partner's;
            // a must-epoch shard may block on its partner.
            log.lock().push(["a-start", "b-start"][shard as usize]);
            ctx.runtime.arrive(pb + shard);
            while !ctx.runtime.barrier_triggered(pb + 1 - shard) {
                std::thread::sleep(Duration::from_millis(1));
            }
            log.lock().push(["a-end", "b-end"][shard as usize]);
        });
        let log = log.lock();
        assert!(log.contains(&"a-end") && log.contains(&"b-end"));
        assert_eq!((rt.stats().tasks_launched, rt.stats().launches), (2, 1));
    }

    #[test]
    fn stalled_run_reports_pending() {
        let rt = LegionRuntime::new(1);
        let r = rt.create_regions(1);
        rt.launch(body("starved", |_| {}), [r], NONE);
        let started = Instant::now();
        let outcome = run(&rt);
        // Detected by counting, not by waiting out a timer.
        assert!(started.elapsed() < Duration::from_millis(100));
        assert_eq!(outcome, WaitOutcome::Stalled { pending: 1 });
        assert_eq!(names(&rt), vec!["starved"]);
    }

    #[test]
    fn stall_after_partial_progress_names_only_the_starved() {
        // `fed` runs and writes one of the two regions `starved` reads,
        // `late` waits on a barrier that never triggers; the pool then
        // idles with both outstanding.
        let rt = LegionRuntime::new(2);
        let r = rt.create_regions(3);
        let pb = rt.create_barriers(1, 1);
        rt.attach_regions([(r, pay(1))]);
        let fed = body("fed", move |ctx| ctx.keep(ctx.runtime.write_region(r + 1, pay(2), None)));
        rt.launch(fed, [r], NONE);
        rt.launch(body("starved", |_| {}), [r + 1, r + 2], NONE);
        rt.launch(body("late", |_| {}), [r + 1], [pb]);
        rt.launch(body("free", |_| {}), [r + 1], NONE);
        assert_eq!(run(&rt), WaitOutcome::Stalled { pending: 2 });
        assert_eq!(names(&rt), vec!["starved", "late"]);
    }

    #[test]
    fn panicking_worker_is_reported_not_hung() {
        babelflow_core::quiet_panic_hook();
        let rt = LegionRuntime::new(2);
        let r = rt.create_regions(1);
        rt.launch(body("waits-forever", |_| {}), [r], NONE);
        let boom = body("boom", |_| panic!("{}: worker dies", babelflow_core::PANIC_MARKER));
        rt.launch(boom, NONE, NONE);
        let started = Instant::now();
        let outcome = run(&rt);
        assert!(matches!(outcome, WaitOutcome::WorkerPanicked { .. }), "got {outcome:?}");
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn zero_workers_is_reported_not_stalled() {
        let rt = LegionRuntime::new(0);
        rt.launch(body("unrunnable", |_| {}), NONE, NONE);
        rt.launch(body("also-unrunnable", |_| {}), NONE, NONE);
        assert_eq!(run(&rt), WaitOutcome::NoWorkers { outstanding: 2 });
    }

    #[test]
    fn a_plan_index_launch_on_zero_workers_reports_no_workers() {
        let rt = LegionRuntime::<u32>::new(0);
        let r = rt.create_regions(1);
        let mut batch = rt.launch_batch();
        batch.launch(0, NONE, NONE);
        batch.launch(1, [r], NONE);
        drop(batch);
        let (outcome, workers) = rt.wait_all(|_| (), |_, _, _| panic!("nothing runs"));
        assert_eq!(outcome, WaitOutcome::NoWorkers { outstanding: 2 });
        assert!(workers.is_empty());
    }

    #[test]
    fn zero_workers_with_nothing_launched_completes() {
        let rt = LegionRuntime::new(0);
        assert!(run(&rt).is_completed());
    }

    #[test]
    fn launch_after_wait_all_runs_in_the_next_wait() {
        let rt = LegionRuntime::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..2 {
            let h = hits.clone();
            rt.launch(body("late", move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            }), NONE, NONE);
            assert!(run(&rt).is_completed());
        }
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn recursive_launch_from_task_body() {
        let rt = LegionRuntime::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = hits.clone();
        rt.launch(
            body("parent", move |ctx| {
                let mut batch = ctx.runtime.launch_batch();
                for _ in 0..4 {
                    let h = hits2.clone();
                    batch.launch(body("child", move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            }), NONE, NONE);
                }
            }),
            NONE,
            NONE,
        );
        assert!(run(&rt).is_completed());
        assert_eq!(hits.load(Ordering::Relaxed), 4);
        assert_eq!((rt.stats().tasks_launched, rt.stats().launches), (5, 2));
    }
}
