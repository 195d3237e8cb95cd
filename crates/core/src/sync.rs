//! Thin synchronization wrappers over `std::sync`.
//!
//! Part of the zero-dependency substrate: an in-repo replacement for the
//! `parking_lot` API shape the runtimes use — `lock()` returns a guard
//! directly (no `Result`), and [`Condvar::wait`] takes the guard by
//! mutable reference so scheduler loops can wait in place.
//!
//! Poisoning is deliberately ignored: a panicking runtime thread already
//! aborts the run through its join handle, and the shared state these
//! locks protect (queues, counters, rank state) stays structurally
//! valid across a panic, so propagating poison would only turn one failure
//! into a cascade of secondary ones.
//!
//! The runtimes take their atomics, their once-cells and their scoped
//! threads from here too, re-exported from `std`, so that every
//! synchronization point of a backend is named in this one module.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

pub use std::sync::atomic::{AtomicU32, Ordering};
pub use std::sync::OnceLock;
pub use std::thread::scope;

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a mutex protecting `value` (usable in a `static`).
    pub const fn new(value: T) -> Self {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)) }
    }

    /// Exclusive access through a unique reference (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII guard of a [`Mutex`]; releases the lock on drop.
///
/// The guard internally holds an `Option` so [`Condvar::wait`] can take
/// the underlying std guard out and put the reacquired one back — that is
/// what lets `wait` borrow the guard mutably instead of consuming it.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside Condvar::wait")
    }
}

/// A monotonically increasing `u64` counter over `AtomicU64`.
///
/// The documented atomic wrapper for the substrate's hot-path counters
/// (delivery tallies, tickets): `fetch_add` under
/// `Relaxed` ordering, because each counter is an independent statistic —
/// no other memory is published through it, so acquire/release fences
/// would buy nothing and cost a barrier on weakly-ordered targets.
/// Callers needing a happens-before edge must pair the counter with a
/// lock or channel (as the runtimes already do for payload delivery).
#[derive(Debug, Default)]
pub struct Counter {
    inner: std::sync::atomic::AtomicU64,
}

impl Counter {
    /// Create a counter starting at `value`.
    pub fn new(value: u64) -> Self {
        Counter { inner: std::sync::atomic::AtomicU64::new(value) }
    }

    /// Add `n`, returning the value *before* the addition (so the result
    /// is a unique ticket when `n == 1`).
    pub fn fetch_add(&self, n: u64) -> u64 {
        self.inner.fetch_add(n, std::sync::atomic::Ordering::Relaxed)
    }

    /// Increment by one, returning the previous value.
    pub fn next(&self) -> u64 {
        self.fetch_add(1)
    }

    /// Current value. A snapshot only: other threads may be mid-increment.
    pub fn get(&self) -> u64 {
        self.inner.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// A condition variable paired with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a condition variable.
    pub fn new() -> Self {
        Condvar { inner: std::sync::Condvar::new() }
    }

    /// Atomically release the guard's lock and sleep until notified; the
    /// lock is reacquired before returning. As with any condition
    /// variable, spurious wakeups are possible — callers loop on their
    /// predicate.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard present");
        guard.inner = Some(self.inner.wait(g).unwrap_or_else(PoisonError::into_inner));
    }

    /// Like [`Condvar::wait`] with an upper bound on the sleep. Returns
    /// `true` if the wait timed out without a notification.
    pub fn wait_timeout<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> bool {
        let g = guard.inner.take().expect("guard present");
        let (g, result) =
            self.inner.wait_timeout(g, timeout).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(g);
        result.timed_out()
    }

    /// Wake one waiting thread.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiting thread.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// Per-worker double-ended work queues with stealing, the lanes behind
/// [`WorkPool`].
///
/// Each worker owns two lanes: a *pinned* lane whose items only that
/// worker may pop (work with affinity — e.g. a chare bound to its PE),
/// and a *floating* lane that idle peers may steal from the back of.
/// [`WorkDeques::pop`] serves the worker's own lanes in FIFO order first
/// and steals round-robin from the other workers' floating lanes when
/// both are empty, so a stalled or killed worker cannot strand floating
/// work.
///
/// A single floating item is dealt round-robin; a batch is cut into
/// contiguous blocks, one per floating lane in lane order
/// ([`WorkDeques::push_blocks`]), so neighbours in a launch (the sibling
/// leaves of one reduction node, say) start on the same worker.
#[derive(Debug)]
struct WorkDeques<T> {
    pinned: Vec<VecDeque<T>>,
    floating: Vec<VecDeque<T>>,
    next: usize,
    len: usize,
    steals: u64,
}

impl<T> WorkDeques<T> {
    /// Create lanes for `workers` workers (at least one).
    fn new(workers: usize) -> Self {
        let n = workers.max(1);
        WorkDeques {
            pinned: (0..n).map(|_| VecDeque::new()).collect(),
            floating: (0..n).map(|_| VecDeque::new()).collect(),
            next: 0,
            len: 0,
            steals: 0,
        }
    }

    /// Queued items across all lanes.
    fn len(&self) -> usize {
        self.len
    }

    /// Whether every lane is empty.
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Completed steals (pops that took another worker's floating work).
    fn steals(&self) -> u64 {
        self.steals
    }

    /// Enqueue stealable work, distributed round-robin over the floating
    /// lanes.
    fn push(&mut self, item: T) {
        let w = self.next;
        self.next = (self.next + 1) % self.floating.len();
        self.floating[w].push_back(item);
        self.len += 1;
    }

    /// Enqueue a batch of stealable work in contiguous blocks of
    /// `ceil(k / lanes)` items, in order: floating lane 0 gets the first
    /// block, lane 1 the next, and so on, so `2n` items on `n` lanes give
    /// lane `w` the items `[2w, 2w + 2)`.
    fn push_blocks(&mut self, mut items: impl ExactSizeIterator<Item = T>) {
        let k = items.len();
        let block = k.div_ceil(self.floating.len()).max(1);
        for lane in &mut self.floating {
            lane.extend(items.by_ref().take(block));
        }
        self.len += k;
    }

    /// Enqueue work pinned to `worker`; no other worker will pop it.
    fn push_to(&mut self, worker: usize, item: T) {
        let w = worker % self.pinned.len();
        self.pinned[w].push_back(item);
        self.len += 1;
    }

    /// Move all of `worker`'s pinned lane into `batch` (empty), which
    /// keeps its FIFO order, and return the batch's first item; `None`
    /// if the lane is empty. The lane takes over `batch`'s buffer, so a
    /// drain allocates nothing once both have grown.
    fn drain_pinned(&mut self, worker: usize, batch: &mut VecDeque<T>) -> Option<T> {
        debug_assert!(batch.is_empty(), "a batch is drained only once it has run");
        let n = self.pinned.len();
        let lane = &mut self.pinned[worker % n];
        if lane.is_empty() {
            return None;
        }
        std::mem::swap(lane, batch);
        self.len -= batch.len();
        batch.pop_front()
    }

    /// Dequeue work for `worker`: its own pinned lane first, then its own
    /// floating lane (both FIFO), then steal from the back of the other
    /// workers' floating lanes.
    fn pop(&mut self, worker: usize) -> Option<T> {
        let n = self.floating.len();
        let w = worker % n;
        if let Some(item) = self.pinned[w].pop_front() {
            self.len -= 1;
            return Some(item);
        }
        if let Some(item) = self.floating[w].pop_front() {
            self.len -= 1;
            return Some(item);
        }
        for off in 1..n {
            let victim = (w + off) % n;
            if let Some(item) = self.floating[victim].pop_back() {
                self.len -= 1;
                self.steals += 1;
                return Some(item);
            }
        }
        None
    }

    /// Items still pinned to `worker` (stealable by nobody).
    fn pinned_len(&self, worker: usize) -> usize {
        self.pinned[worker % self.pinned.len()].len()
    }
}

/// Counters a [`WorkPool`] keeps as plain fields under its own lock, so
/// counting adds no shared write of its own. They depend on thread timing,
/// so they describe a run rather than gate one.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Pops that took another worker's floating work.
    pub steals: u64,
    /// Times a worker found nothing to pop and slept on its condvar.
    pub parks: u64,
    /// Wakes a push claimed for a parked worker (one notify each).
    pub wakes: u64,
    /// Acquisitions of the pool's lock by its pushes, pops, parks (the
    /// reacquisition on waking) and closes; [`WorkPool::stats`] and
    /// [`WorkPool::len`] do not count.
    pub locks: u64,
}

/// A blocking work-stealing pool: per-worker lanes + [`Mutex`] +
/// [`Condvar`], shareable across threads by cloning the handle.
///
/// Each worker owns a *pinned* lane ([`push_to`](WorkPool::push_to)) that
/// only it pops, and a *floating* lane ([`push`](WorkPool::push),
/// round-robin) that idle peers steal from the back of, so a stalled or
/// killed worker cannot strand floating work. A batch enters under one
/// lock: [`push_all`](WorkPool::push_all) cuts floating work into one
/// contiguous block per lane, in order, and
/// [`push_all_to`](WorkPool::push_all_to) pins each item to its worker.
///
/// A pool is driven in one of two ways:
/// * [`WorkPool::recv`]: consumers the caller spawns, one per worker
///   index, that stop once the pool is [`close`](WorkPool::close)d —
///   for a pool that goes idle while it waits on something else (the
///   MPI ranks wait for the network);
/// * [`WorkPool::run_until_idle`]: the pool spawns its workers and ends
///   the run itself once no work is left and no handler runs — for a
///   pool whose handlers produce all the work that follows (Charm PEs,
///   Legion workers). A worker here takes its whole pinned lane in one
///   lock acquisition and runs that batch without the lock, and its
///   handlers can queue work on it through its [`Local`] queue, which
///   takes no lock at all.
///
/// Both pop through one loop. Each worker index parks on its own condvar
/// and flags itself parked under the lock; a push wakes only a parked
/// worker that can take the item (the pinned lane's owner, or any parked
/// worker for floating work) and clears its flag, so two pushes never
/// spend both wakes on the same sleeper. Nothing is notified when no
/// worker is parked — `std`'s futex condvar makes a syscall on every
/// notify. One thread per worker index.
#[derive(Debug)]
pub struct WorkPool<T> {
    inner: std::sync::Arc<PoolInner<T>>,
}

#[derive(Debug)]
struct PoolInner<T> {
    state: Mutex<PoolState<T>>,
    /// One condvar per worker index.
    wake: Vec<Condvar>,
}

#[derive(Debug)]
struct PoolState<T> {
    deques: WorkDeques<T>,
    /// Which workers are parked with no wake claimed for them. A worker
    /// is unparked from the wake that a push claims for it until it next
    /// finds nothing to pop, so every running handler, and every worker
    /// still holding a drained batch, has its flag clear.
    parked: Vec<bool>,
    closed: bool,
    /// [`PoolStats`] but `steals`, which the deques count.
    parks: u64,
    wakes: u64,
    locks: u64,
}

impl<T> Clone for WorkPool<T> {
    fn clone(&self) -> Self {
        WorkPool { inner: self.inner.clone() }
    }
}

impl<T> WorkPool<T> {
    /// Create a pool with lanes for `workers` workers.
    pub fn new(workers: usize) -> Self {
        let n = workers.max(1);
        WorkPool {
            inner: std::sync::Arc::new(PoolInner {
                state: Mutex::new(PoolState {
                    deques: WorkDeques::new(n),
                    parked: vec![false; n],
                    closed: false,
                    parks: 0,
                    wakes: 0,
                    locks: 0,
                }),
                wake: (0..n).map(|_| Condvar::new()).collect(),
            }),
        }
    }

    /// Take the pool's lock, counting the acquisition.
    fn lock(&self) -> MutexGuard<'_, PoolState<T>> {
        let mut st = self.inner.state.lock();
        st.locks += 1;
        st
    }

    /// Enqueue stealable work, waking one parked worker if any. Items
    /// pushed after [`close`](Self::close) are dropped.
    pub fn push(&self, item: T) {
        let mut st = self.lock();
        if st.closed {
            return;
        }
        st.deques.push(item);
        let sleeper = st.parked.iter().position(|&p| p);
        self.wake(st, sleeper);
    }

    /// Enqueue work pinned to `worker`, waking that worker if it is
    /// parked. Items pushed after [`close`](Self::close) are dropped.
    pub fn push_to(&self, worker: usize, item: T) {
        let mut st = self.lock();
        if st.closed {
            return;
        }
        st.deques.push_to(worker, item);
        let w = worker % st.parked.len();
        let sleeper = st.parked[w].then_some(w);
        self.wake(st, sleeper);
    }

    /// Enqueue a batch of stealable work under one lock, in contiguous
    /// blocks: with `k` items on `n` lanes, worker `w`'s floating lane
    /// gets items `[w·b, (w+1)·b)` in order, `b = ceil(k / n)`. Wakes up
    /// to `k` parked workers. Items pushed after [`close`](Self::close)
    /// are dropped.
    pub fn push_all<I>(&self, items: I)
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        let k = items.len();
        if k == 0 {
            return;
        }
        let mut st = self.lock();
        if st.closed {
            return;
        }
        st.deques.push_blocks(items);
        self.wake_all(st, k, |_, _| true);
    }

    /// Enqueue a batch of `(worker, item)` pairs under one lock, each
    /// item pinned to its worker, waking every parked worker that got
    /// one. Items pushed after [`close`](Self::close) are dropped.
    pub fn push_all_to(&self, items: impl IntoIterator<Item = (usize, T)>) {
        let mut st = self.lock();
        if st.closed {
            return;
        }
        for (worker, item) in items {
            st.deques.push_to(worker, item);
        }
        // A parked worker found its pinned lane empty and no push has
        // filled it since (that push would have claimed its wake).
        self.wake_all(st, usize::MAX, |deques, w| deques.pinned_len(w) > 0);
    }

    /// Claim the wake of parked `worker` (if any) and notify it after
    /// releasing the lock.
    fn wake(&self, mut st: MutexGuard<'_, PoolState<T>>, worker: Option<usize>) {
        if let Some(w) = worker {
            st.parked[w] = false;
            st.wakes += 1;
            drop(st);
            self.inner.wake[w].notify_one();
        }
    }

    /// Claim the wakes of up to `max` parked workers that `can_take`
    /// work now, lowest index first, and notify them after releasing the
    /// lock.
    fn wake_all(
        &self,
        mut st: MutexGuard<'_, PoolState<T>>,
        max: usize,
        can_take: impl Fn(&WorkDeques<T>, usize) -> bool,
    ) {
        let mut woken = Vec::new();
        for w in 0..st.parked.len() {
            if woken.len() == max {
                break;
            }
            if st.parked[w] && can_take(&st.deques, w) {
                st.parked[w] = false;
                st.wakes += 1;
                woken.push(w);
            }
        }
        drop(st);
        for w in woken {
            self.inner.wake[w].notify_one();
        }
    }

    /// Block until work is available for `worker` (own lanes or a steal),
    /// or the pool is closed. Returns `None` only when closed and nothing
    /// remains for this worker to take.
    pub fn recv(&self, worker: usize) -> Option<T> {
        self.next(worker, None)
    }

    /// The one pop/park loop. A [`run_until_idle`](Self::run_until_idle)
    /// worker passes its (empty) [`Local`] queue as `batch`: it takes its
    /// whole pinned lane into it when the lane holds anything, and it
    /// closes the pool instead of parking if it finds nothing to pop while
    /// the pool is idle: every lane is empty, the pinned lanes of other
    /// workers included, and every other worker is parked, so no handler
    /// is running that could push more and no worker holds a batch or a
    /// self-pushed item (a worker comes back here only once its local
    /// queue is empty). A handler's pushes are queued before its worker
    /// comes back here, so the pool cannot look idle while work remains.
    fn next(&self, worker: usize, mut batch: Option<&mut VecDeque<T>>) -> Option<T> {
        let w = worker % self.inner.wake.len();
        let mut st = self.lock();
        loop {
            let drained = batch.as_deref_mut().and_then(|b| st.deques.drain_pinned(w, b));
            if let Some(item) = drained.or_else(|| st.deques.pop(worker)) {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            if batch.is_some()
                && st.deques.is_empty()
                && st.parked.iter().enumerate().all(|(v, &parked)| parked || v == w)
            {
                st.closed = true;
                drop(st);
                self.notify_all();
                return None;
            }
            st.parked[w] = true;
            st.parks += 1;
            self.inner.wake[w].wait(&mut st);
            st.locks += 1;
            st.parked[w] = false;
        }
    }

    /// Run one worker per lane until the pool is idle, then close it.
    ///
    /// Worker `w` starts with state `init(w)` and calls
    /// `handle(&mut state, &mut local, item)` on each item it pops: its
    /// local queue first, then its pinned lane, then its floating lane,
    /// then a steal. It takes the whole pinned lane at once into its
    /// local queue and runs that batch in FIFO order before it looks
    /// again, so items its handlers pin back to `w` run after the batch.
    /// Handlers may push more work, to the pool or, through
    /// [`Local::push`], to their own worker: a self-push takes no lock,
    /// wakes nobody and cannot be stolen, and it runs after everything
    /// the local queue already holds. The run ends when every lane is
    /// empty, no handler is running and no worker holds local work, so it
    /// needs no timer and cannot end while work remains; items pushed
    /// before the call are part of the run. The idle rule needs nothing
    /// new for self-pushes: a worker holding local work is not parked.
    ///
    /// Returns each worker's final state, or the index of the first worker
    /// (by index) whose `init` or `handle` unwound. An unwind closes the
    /// pool, so its peers finish what is queued and stop instead of
    /// waiting for the dead worker; the rest of the dead worker's batch is
    /// dropped with its state. The pool is open again when the call
    /// returns, so work pushed afterwards waits for the next run instead
    /// of being dropped.
    pub fn run_until_idle<S, I, H>(&self, init: I, handle: H) -> Result<Vec<S>, usize>
    where
        T: Send,
        S: Send,
        I: Fn(usize) -> S + Sync,
        H: Fn(&mut S, &mut Local<T>, T) + Sync,
    {
        let workers = self.inner.wake.len();
        let (init, handle) = (&init, &handle);
        let states = std::thread::scope(|s| {
            let threads: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let run = std::panic::AssertUnwindSafe(|| {
                            let mut state = init(w);
                            let mut local = Local { worker: w, queue: VecDeque::new() };
                            while let Some(item) = local
                                .queue
                                .pop_front()
                                .or_else(|| self.next(w, Some(&mut local.queue)))
                            {
                                handle(&mut state, &mut local, item);
                            }
                            state
                        });
                        std::panic::catch_unwind(run).map_err(|_| self.close())
                    })
                })
                .collect();
            let states = threads.into_iter().map(|t| t.join().expect("unwinds are caught"));
            states.enumerate().map(|(w, state)| state.map_err(|()| w)).collect()
        });
        self.lock().closed = false;
        states
    }

    /// Close the pool: wake every blocked worker; `recv` drains what is
    /// left and then returns `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.notify_all();
    }

    /// Wake every worker, parked or not (a close, which claims no wake).
    fn notify_all(&self) {
        for cv in &self.inner.wake {
            cv.notify_all();
        }
    }

    /// The pool's counters so far, across runs.
    pub fn stats(&self) -> PoolStats {
        let st = self.inner.state.lock();
        PoolStats { steals: st.deques.steals(), parks: st.parks, wakes: st.wakes, locks: st.locks }
    }

    /// Queued items across all lanes right now (a drained batch has left
    /// its lane).
    pub fn len(&self) -> usize {
        self.inner.state.lock().deques.len()
    }

    /// Whether the pool currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A [`run_until_idle`](WorkPool::run_until_idle) worker's own queue,
/// handed to each of its handlers: the rest of the pinned batch it
/// drained, then whatever its handlers pushed to it. Only this worker
/// touches it, so nothing here takes the pool's lock or is counted in
/// [`PoolStats`].
#[derive(Debug)]
pub struct Local<T> {
    worker: usize,
    queue: VecDeque<T>,
}

impl<T> Local<T> {
    /// The index of the worker that owns this queue.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Queue `item` to run on this worker after everything the queue
    /// already holds. It takes no lock, wakes nobody and cannot be
    /// stolen: the item waits for this worker even if a peer is idle.
    pub fn push(&mut self, item: T) {
        self.queue.push_back(item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn lock_guards_mutation() {
        let m = Arc::new(Mutex::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn condvar_wait_sees_notification() {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let state = state.clone();
            std::thread::spawn(move || {
                let (m, cv) = &*state;
                let mut done = m.lock();
                while !*done {
                    cv.wait(&mut done);
                }
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        *state.0.lock() = true;
        state.1.notify_all();
        waiter.join().unwrap();
    }

    #[test]
    fn wait_timeout_expires_without_notification() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let start = Instant::now();
        assert!(cv.wait_timeout(&mut g, Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn counter_tickets_are_unique_across_threads() {
        let c = Arc::new(Counter::new(0));
        let mut seen: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = c.clone();
                    s.spawn(move || (0..1000).map(|_| c.next()).collect::<Vec<_>>())
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..4000).collect::<Vec<u64>>());
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn deques_serve_own_lanes_fifo_before_stealing() {
        let mut d = WorkDeques::new(2);
        // Round-robin floating pushes land on lanes 0, 1, 0.
        d.push("f0");
        d.push("f1");
        d.push("f2");
        d.push_to(0, "p0a");
        d.push_to(0, "p0b");
        assert_eq!(d.len(), 5);

        // Worker 0: pinned lane FIFO first, then its own floating lane.
        assert_eq!(d.pop(0), Some("p0a"));
        assert_eq!(d.pop(0), Some("p0b"));
        assert_eq!(d.pop(0), Some("f0"));
        assert_eq!(d.pop(0), Some("f2"));
        assert_eq!(d.steals(), 0);

        // Worker 0 steals worker 1's floating work once its lanes drain.
        assert_eq!(d.pop(0), Some("f1"));
        assert_eq!(d.steals(), 1);
        assert_eq!(d.pop(0), None);
        assert!(d.is_empty());
    }

    #[test]
    fn deques_never_steal_pinned_work() {
        let mut d = WorkDeques::new(2);
        d.push_to(1, "only-for-1");
        assert_eq!(d.pop(0), None);
        assert_eq!(d.pinned_len(1), 1);
        assert_eq!(d.pop(1), Some("only-for-1"));
        assert_eq!(d.steals(), 0);
    }

    #[test]
    fn steals_take_from_the_back() {
        let mut d = WorkDeques::new(2);
        d.push(1); // lane 0
        d.push(2); // lane 1
        d.push(3); // lane 0
        d.push(4); // lane 1
        // Worker 0 drains its own lane front-first...
        assert_eq!(d.pop(0), Some(1));
        assert_eq!(d.pop(0), Some(3));
        // ...then steals lane 1's *back* (classic deque discipline: the
        // owner keeps the cache-warm front, thieves take the cold tail).
        assert_eq!(d.pop(0), Some(4));
        assert_eq!(d.pop(0), Some(2));
        assert_eq!(d.steals(), 2);
    }

    #[test]
    fn pool_distributes_and_drains_across_threads() {
        let pool: WorkPool<u64> = WorkPool::new(3);
        let consumed = Arc::new(Counter::new(0));
        let total = Arc::new(Counter::new(0));
        std::thread::scope(|s| {
            for w in 0..3 {
                let pool = pool.clone();
                let consumed = consumed.clone();
                let total = total.clone();
                s.spawn(move || {
                    while let Some(v) = pool.recv(w) {
                        consumed.next();
                        total.fetch_add(v);
                    }
                });
            }
            for v in 0..100u64 {
                pool.push(v);
            }
            // Pinned items reach their worker too.
            pool.push_to(1, 1000);
            while !pool.is_empty() {
                std::thread::yield_now();
            }
            pool.close();
        });
        assert_eq!(consumed.get(), 101);
        assert_eq!(total.get(), (0..100).sum::<u64>() + 1000);
    }

    #[test]
    fn pool_stalled_worker_cannot_strand_floating_work() {
        // Worker 1 never polls (simulating a killed worker); worker 0 must
        // steal the floating work parked on lane 1.
        let pool: WorkPool<u32> = WorkPool::new(2);
        for v in 0..10 {
            pool.push(v);
        }
        let consumer = {
            let pool = pool.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = pool.recv(0) {
                    got.push(v);
                }
                got
            })
        };
        while !pool.is_empty() {
            std::thread::yield_now();
        }
        pool.close();
        let mut got = consumer.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<u32>>());
        assert!(pool.stats().steals >= 5, "lane-1 items must have been stolen");
    }

    /// Run `f` on its own thread and fail if it takes longer than
    /// `secs`: a lost wakeup or a missed idle hangs instead of failing.
    fn within<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(secs)).expect("the pool hung")
    }

    /// Spin until `worker` of `pool` is parked.
    fn until_parked<T>(pool: &WorkPool<T>, worker: usize) {
        while !pool.inner.state.lock().parked[worker] {
            std::thread::yield_now();
        }
    }

    #[test]
    fn idle_pool_returns_the_initial_states_at_once() {
        let states = within(5, || {
            let pool: WorkPool<u32> = WorkPool::new(3);
            pool.run_until_idle(|w| w * 10, |_, _, _| unreachable!("no work was pushed"))
        });
        assert_eq!(states, Ok(vec![0, 10, 20]));
    }

    #[test]
    fn pinned_work_for_a_parked_worker_is_not_stranded() {
        // Worker 0 pins item 1 to worker 1 once that worker is parked, and
        // finishes: worker 0 has nothing left to pop, yet the run is not
        // over. Item 1 pushes item 2 back, which a pool that closed early
        // would drop. Worker 0 usually looks for work again before the
        // woken worker 1 does; repeating the run makes that certain.
        let runs = within(30, || {
            (0..100)
                .map(|_| {
                    let pool: WorkPool<u32> = WorkPool::new(2);
                    pool.push_to(0, 0);
                    pool.run_until_idle(
                        |_| Vec::new(),
                        |seen: &mut Vec<u32>, _, item| {
                            seen.push(item);
                            match item {
                                0 => {
                                    until_parked(&pool, 1);
                                    pool.push_to(1, 1);
                                }
                                1 => pool.push_to(0, 2),
                                _ => {}
                            }
                        },
                    )
                })
                .collect::<Vec<_>>()
        });
        for states in runs {
            assert_eq!(states, Ok(vec![vec![0, 2], vec![1]]));
        }
    }

    #[test]
    fn chain_across_pinned_lanes_runs_every_item_once() {
        // Each item pins its successor to the other worker and returns
        // only once that worker has taken it, so every retire finds both
        // lanes empty and the peer mid-handler: a pool that did not count
        // the running handler would close there and drop the rest.
        const ITEMS: u32 = 10_000;
        let states = within(60, || {
            let pool: WorkPool<u32> = WorkPool::new(2);
            let taken = std::sync::atomic::AtomicU32::new(0);
            pool.push_to(0, 0);
            pool.run_until_idle(
                |_| Vec::new(),
                |seen: &mut Vec<u32>, local: &mut Local<u32>, item| {
                    seen.push(item);
                    taken.store(item, std::sync::atomic::Ordering::SeqCst);
                    if item + 1 < ITEMS {
                        pool.push_to(1 - local.worker(), item + 1);
                        while taken.load(std::sync::atomic::Ordering::SeqCst) == item {
                            std::thread::yield_now();
                        }
                    }
                },
            )
        })
        .expect("no handler panics");
        assert_eq!(states[0], (0..ITEMS).step_by(2).collect::<Vec<_>>());
        assert_eq!(states[1], (1..ITEMS).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn a_pinned_lane_is_drained_in_one_lock() {
        // One worker, N items pinned before the run: the first pop takes
        // them all, so from the first handler on the run costs only the
        // idle check and the reopen, whatever N is.
        for n in [1u64, 10, 1000] {
            let pool: WorkPool<u64> = WorkPool::new(1);
            for v in 0..n {
                pool.push_to(0, v);
            }
            let states = within(5, {
                let pool = pool.clone();
                move || {
                    pool.run_until_idle(
                        |_| None,
                        |first: &mut Option<PoolStats>, _, _| {
                            first.get_or_insert_with(|| pool.stats());
                        },
                    )
                }
            });
            let first = states.expect("no handler panics")[0].expect("a handler ran");
            assert_eq!(first.locks, n + 1, "n={n}: the pushes, then one drain");
            assert_eq!(pool.stats().locks - first.locks, 2, "n={n}: idle check and reopen");
            assert_eq!(pool.stats().parks, 0);
        }
    }

    #[test]
    fn a_batch_and_what_it_pins_back_run_in_fifo_order() {
        // Each generation is pinned back while the one before it runs as
        // a batch, so it waits for the next drain, behind the whole batch.
        let pool: WorkPool<u32> = WorkPool::new(1);
        for v in 0..5 {
            pool.push_to(0, v);
        }
        let states = within(5, {
            let pool = pool.clone();
            move || {
                pool.run_until_idle(
                    |_| Vec::new(),
                    |seen: &mut Vec<u32>, local: &mut Local<u32>, item| {
                        seen.push(item);
                        if item < 20 {
                            pool.push_to(local.worker(), item + 10);
                        }
                    },
                )
            }
        });
        let want: Vec<u32> = (0..5).chain(10..15).chain(20..25).collect();
        assert_eq!(states, Ok(vec![want]));
    }

    #[test]
    fn a_block_push_gives_each_worker_a_contiguous_run() {
        for n in [1usize, 2, 3, 4] {
            let pool: WorkPool<usize> = WorkPool::new(n);
            pool.push_all(0..2 * n);
            assert_eq!(pool.stats().locks, 1, "n={n}: one lock for the whole batch");
            // `recv` serves a worker's own floating lane first, so each
            // worker sees exactly its block, in order, without a steal.
            for w in 0..n {
                assert_eq!([pool.recv(w), pool.recv(w)], [Some(2 * w), Some(2 * w + 1)], "n={n}");
            }
            assert!(pool.is_empty());
            assert_eq!(pool.stats().steals, 0);
        }
    }

    #[test]
    fn a_block_push_wakes_a_parked_peer_to_steal() {
        // One item lands on lane 0, whose owner is not running: the parked
        // worker 1 must be woken, and steal it.
        let got = within(5, || {
            let pool: WorkPool<u32> = WorkPool::new(2);
            std::thread::scope(|s| {
                let thief = s.spawn(|| pool.recv(1));
                until_parked(&pool, 1);
                pool.push_all([7]);
                thief.join().unwrap()
            })
        });
        assert_eq!(got, Some(7));
    }

    #[test]
    fn self_pushes_run_after_the_batch_in_fifo_order_without_a_lock() {
        // Item 0 starts a chain of k self-pushed links while items 1 and 2
        // are still in its worker's batch: the chain runs after them, in
        // order, and the pool's lock count is the same for every k (the
        // batch push, the drain, the idle check and the reopen).
        for k in [1u32, 10, 1000] {
            let pool: WorkPool<u32> = WorkPool::new(1);
            pool.push_all_to((0..3).map(|v| (0, v)));
            let states = within(5, {
                let pool = pool.clone();
                move || {
                    pool.run_until_idle(
                        |_| Vec::new(),
                        |seen: &mut Vec<u32>, local: &mut Local<u32>, item| {
                            seen.push(item);
                            if item == 0 {
                                local.push(100);
                            } else if (100..99 + k).contains(&item) {
                                local.push(item + 1);
                            }
                        },
                    )
                }
            });
            let want: Vec<u32> = (0..3).chain(100..100 + k).collect();
            assert_eq!(states, Ok(vec![want]), "k={k}");
            assert_eq!(pool.stats().locks, 4, "k={k}");
        }
    }

    #[test]
    fn a_worker_holding_a_batch_keeps_the_run_open() {
        // Worker 0 drains all three items; its first handler returns only
        // once worker 1 has parked. Worker 1 found every lane empty then,
        // yet must not close the pool: worker 0 still holds items 1 and 2.
        let runs = within(30, || {
            (0..50)
                .map(|_| {
                    let pool: WorkPool<u32> = WorkPool::new(2);
                    for v in 0..3 {
                        pool.push_to(0, v);
                    }
                    pool.run_until_idle(
                        |_| Vec::new(),
                        |seen: &mut Vec<u32>, _, item| {
                            if item == 0 {
                                until_parked(&pool, 1);
                            }
                            seen.push(item);
                        },
                    )
                })
                .collect::<Vec<_>>()
        });
        for states in runs {
            assert_eq!(states, Ok(vec![vec![0, 1, 2], vec![]]));
        }
    }

    #[test]
    fn panicking_handler_ends_the_run_while_its_peer_is_parked() {
        crate::quiet_panic_hook();
        let result = within(5, || {
            let pool: WorkPool<u32> = WorkPool::new(2);
            pool.push_to(1, 0);
            pool.run_until_idle(
                |_| (),
                |_, _, _| {
                    until_parked(&pool, 0);
                    panic!("{}: handler fails", crate::PANIC_MARKER)
                },
            )
        });
        assert_eq!(result, Err(1));
    }
}
