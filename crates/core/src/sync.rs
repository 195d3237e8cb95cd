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

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Duration;

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a mutex protecting `value`.
    pub fn new(value: T) -> Self {
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
/// (message sequence numbers, delivery tallies): `fetch_add` under
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

/// Per-worker double-ended work queues with stealing.
///
/// Each worker owns two lanes: a *pinned* lane whose items only that
/// worker may pop (work with affinity — e.g. a chare bound to its PE),
/// and a *floating* lane that idle peers may steal from the back of.
/// [`WorkDeques::pop`] serves the worker's own lanes in FIFO order first
/// and steals round-robin from the other workers' floating lanes when
/// both are empty, so a stalled or killed worker cannot strand floating
/// work.
///
/// The structure itself is not synchronized — embed it in a
/// [`Mutex`]-guarded scheduler state (as the Legion runtime does) or use
/// the blocking [`WorkPool`] wrapper.
#[derive(Debug)]
pub struct WorkDeques<T> {
    pinned: Vec<std::collections::VecDeque<T>>,
    floating: Vec<std::collections::VecDeque<T>>,
    next: usize,
    len: usize,
    steals: u64,
}

impl<T> WorkDeques<T> {
    /// Create lanes for `workers` workers (at least one).
    pub fn new(workers: usize) -> Self {
        let n = workers.max(1);
        WorkDeques {
            pinned: (0..n).map(|_| std::collections::VecDeque::new()).collect(),
            floating: (0..n).map(|_| std::collections::VecDeque::new()).collect(),
            next: 0,
            len: 0,
            steals: 0,
        }
    }

    /// Number of workers the lanes were sized for.
    pub fn workers(&self) -> usize {
        self.floating.len()
    }

    /// Queued items across all lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Completed steals (pops that took another worker's floating work).
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// Enqueue stealable work, distributed round-robin over the floating
    /// lanes.
    pub fn push(&mut self, item: T) {
        let w = self.next;
        self.next = (self.next + 1) % self.floating.len();
        self.floating[w].push_back(item);
        self.len += 1;
    }

    /// Enqueue work pinned to `worker`; no other worker will pop it.
    pub fn push_to(&mut self, worker: usize, item: T) {
        let w = worker % self.pinned.len();
        self.pinned[w].push_back(item);
        self.len += 1;
    }

    /// Dequeue work for `worker`: its own pinned lane first, then its own
    /// floating lane (both FIFO), then steal from the back of the other
    /// workers' floating lanes.
    pub fn pop(&mut self, worker: usize) -> Option<T> {
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
    pub fn pinned_len(&self, worker: usize) -> usize {
        self.pinned[worker % self.pinned.len()].len()
    }
}

/// A blocking work-stealing pool: [`WorkDeques`] + [`Mutex`] +
/// [`Condvar`], shareable across threads by cloning the handle.
///
/// Replaces the "one shared channel, every worker clones the receiver"
/// pattern: consumers call [`WorkPool::recv`] with their worker index and
/// get their pinned work first, then floating work, then steal. `recv`
/// returns `None` once the pool is [`close`](WorkPool::close)d and
/// drained of anything the worker may take.
///
/// Each worker index parks on its own condvar and flags itself parked
/// under the lock; a push wakes only a parked worker that can take the
/// item (the pinned lane's owner, or any parked worker for floating
/// work) and clears its flag, so two pushes never spend both wakes on the
/// same sleeper. Nothing is notified when no worker is parked — `std`'s
/// futex condvar makes a syscall on every notify. One thread per worker
/// index.
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
    /// Which workers sleep in `recv` with no wake claimed for them.
    parked: Vec<bool>,
    closed: bool,
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
                }),
                wake: (0..n).map(|_| Condvar::new()).collect(),
            }),
        }
    }

    /// Enqueue stealable work, waking one parked worker if any. Items
    /// pushed after [`close`](Self::close) are dropped.
    pub fn push(&self, item: T) {
        let mut st = self.inner.state.lock();
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
        let mut st = self.inner.state.lock();
        if st.closed {
            return;
        }
        st.deques.push_to(worker, item);
        let w = worker % st.parked.len();
        let sleeper = st.parked[w].then_some(w);
        self.wake(st, sleeper);
    }

    /// Claim the wake of parked `worker` (if any) and notify it after
    /// releasing the lock.
    fn wake(&self, mut st: MutexGuard<'_, PoolState<T>>, worker: Option<usize>) {
        if let Some(w) = worker {
            st.parked[w] = false;
            drop(st);
            self.inner.wake[w].notify_one();
        }
    }

    /// Block until work is available for `worker` (own lanes or a steal),
    /// or the pool is closed. Returns `None` only when closed and nothing
    /// remains for this worker to take.
    pub fn recv(&self, worker: usize) -> Option<T> {
        let w = worker % self.inner.wake.len();
        let mut st = self.inner.state.lock();
        loop {
            if let Some(item) = st.deques.pop(worker) {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st.parked[w] = true;
            self.inner.wake[w].wait(&mut st);
            st.parked[w] = false;
        }
    }

    /// Close the pool: wake every blocked worker; `recv` drains what is
    /// left and then returns `None`.
    pub fn close(&self) {
        self.inner.state.lock().closed = true;
        for cv in &self.inner.wake {
            cv.notify_all();
        }
    }

    /// Completed steals so far.
    pub fn steals(&self) -> u64 {
        self.inner.state.lock().deques.steals()
    }

    /// Queued items across all lanes right now.
    pub fn len(&self) -> usize {
        self.inner.state.lock().deques.len()
    }

    /// Whether the pool currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        assert!(pool.steals() >= 5, "lane-1 items must have been stolen");
    }
}
