//! An in-repo unbounded channel.
//!
//! Part of the zero-dependency substrate: replaces the `crossbeam`
//! channels the runtimes were built on. Both endpoints are cloneable, so
//! one channel can feed a pool of worker threads (multi-consumer) and
//! collect from many producers (multi-producer). Delivery is FIFO per
//! channel; a receive on an empty channel whose senders are all gone
//! reports disconnection instead of blocking forever.
//!
//! Receivers that block count themselves under the lock, and a send
//! notifies the condvar only when more receivers are parked than have
//! already been signalled: `std`'s futex condvar makes a syscall on every
//! notify, and a receiver that was signalled but has not yet retaken the
//! lock still counts as parked, so without the second count every send in
//! that window would make another. A receiver that wakes for any reason
//! (a signal, its timeout, a spurious wake-up) retires one signal, so the
//! signalled count never exceeds the parked one and a send to a channel
//! whose parked receivers all hold an unconsumed signal skips the notify
//! safely: each of them will look at the queue before it parks again.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::sync::{Condvar, Mutex};

/// Error returned by [`Sender::send`] when every receiver is gone; gives
/// the message back.
#[derive(Clone, PartialEq, Eq)]
pub struct SendError<T>(pub T);

// Manual impl so `send(...).expect(...)` works for non-Debug messages.
impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and
/// every sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed with no message.
    Timeout,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message is currently queued.
    Empty,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

/// Channel state behind the shared mutex.
struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers blocked on the condvar right now.
    parked: usize,
    /// Notifies sent to parked receivers that no waking receiver has
    /// retired yet; at most `parked`.
    signalled: usize,
    /// Condvar notifies issued, for the wake-rule tests.
    #[cfg(test)]
    notifies: usize,
}

impl<T> State<T> {
    /// Count a receiver back from the condvar, whatever woke it.
    fn unpark(&mut self) {
        self.parked -= 1;
        self.signalled = self.signalled.saturating_sub(1);
    }

    /// Whether a send must notify: some parked receiver holds no signal.
    /// Counts the notify the caller then makes.
    fn signal_one(&mut self) -> bool {
        let notify = self.parked > self.signalled;
        if notify {
            self.signalled += 1;
            #[cfg(test)]
            {
                self.notifies += 1;
            }
        }
        notify
    }
}

struct Chan<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

/// The sending half of a channel; cloneable for multiple producers.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// The receiving half of a channel; cloneable for a consumer pool.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// Create an unbounded FIFO channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            parked: 0,
            signalled: 0,
            #[cfg(test)]
            notifies: 0,
        }),
        cv: Condvar::new(),
    });
    (Sender { chan: chan.clone() }, Receiver { chan })
}

impl<T> Sender<T> {
    /// Enqueue `value`; never blocks. Fails only when every receiver has
    /// been dropped, returning the value.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let notify = {
            let mut st = self.chan.state.lock();
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            st.signal_one()
        };
        if notify {
            self.chan.cv.notify_one();
        }
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().senders += 1;
        Sender { chan: self.chan.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let parked = {
            let mut st = self.chan.state.lock();
            st.senders -= 1;
            st.senders == 0 && st.parked > 0
        };
        // The last sender leaving turns blocked receives into
        // disconnections: wake everyone so they can observe it.
        if parked {
            self.chan.cv.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Block until a message arrives; `Err` when empty and disconnected.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.chan.state.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st.parked += 1;
            self.chan.cv.wait(&mut st);
            st.unpark();
        }
    }

    /// Block until a message arrives or `timeout` passes.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.chan.state.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            st.parked += 1;
            self.chan.cv.wait_timeout(&mut st, deadline - now);
            st.unpark();
        }
    }

    /// Dequeue a message if one is ready right now.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.chan.state.lock();
        match st.queue.pop_front() {
            Some(v) => Ok(v),
            None if st.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Messages currently queued (diagnostics only; immediately stale).
    pub fn len(&self) -> usize {
        self.chan.state.lock().queue.len()
    }

    /// Whether the queue is empty right now (diagnostics only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().receivers += 1;
        Receiver { chan: self.chan.clone() }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.chan.state.lock().receivers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_per_channel() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn recv_after_all_senders_drop_reports_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_after_all_receivers_drop_fails() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn cloned_receivers_share_the_queue() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx2.recv().unwrap(), 2);
    }

    #[test]
    fn worker_pool_drains_everything_exactly_once() {
        let n = 1000u64;
        let (tx, rx) = unbounded();
        let total: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let rx = rx.clone();
                    s.spawn(move || {
                        let mut sum = 0u64;
                        while let Ok(v) = rx.recv() {
                            sum += v;
                        }
                        sum
                    })
                })
                .collect();
            for i in 1..=n {
                tx.send(i).unwrap();
            }
            drop(tx);
            drop(rx);
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total, n * (n + 1) / 2);
    }

    #[test]
    fn sends_to_a_signalled_receiver_make_one_notify() {
        let (tx, rx) = unbounded::<u32>();
        std::thread::scope(|s| {
            let first = s.spawn(|| rx.recv().unwrap());
            while rx.chan.state.lock().parked == 0 {
                std::thread::yield_now();
            }
            // Whether the receiver retakes the lock during the burst or
            // after it, only the first send finds it unsignalled.
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            assert_eq!(first.join().unwrap(), 0);
        });
        let st = rx.chan.state.lock();
        assert_eq!(st.notifies, 1);
        assert_eq!((st.queue.len(), st.parked, st.signalled), (99, 0, 0));
    }

    #[test]
    fn mixed_receivers_lose_no_message_and_no_wake_up() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
        let (tx, rx) = unbounded::<u64>();
        let (sum, count, stop) = (AtomicU64::new(0), AtomicU64::new(0), AtomicBool::new(false));
        let (sum, count, stop) = (&sum, &count, &stop);
        // Wait, at most 10 s, until `n` messages were taken.
        let taken = |n: u64| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while count.load(SeqCst) < n {
                assert!(Instant::now() < deadline, "{} of {n} taken", count.load(SeqCst));
                std::thread::yield_now();
            }
        };
        std::thread::scope(|s| {
            let receivers: Vec<_> = (0..4u64)
                .map(|r| {
                    let rx = rx.clone();
                    s.spawn(move || loop {
                        // Two block, two time out after 20 or 60 µs: a
                        // timeout racing a signal must not lose it.
                        let got = if r % 2 == 0 {
                            rx.recv().ok()
                        } else {
                            match rx.recv_timeout(Duration::from_micros(20 * r)) {
                                Ok(v) => Some(v),
                                Err(RecvTimeoutError::Timeout) if stop.load(SeqCst) => return,
                                Err(RecvTimeoutError::Timeout) => continue,
                                Err(RecvTimeoutError::Disconnected) => None,
                            }
                        };
                        let Some(v) = got else { return };
                        sum.fetch_add(v, SeqCst);
                        count.fetch_add(1, SeqCst);
                    })
                })
                .collect();
            drop(rx);
            // Two senders in bursts of one to three.
            let burst_senders: Vec<_> = (0..2u64)
                .map(|t| {
                    let tx = tx.clone();
                    s.spawn(move || {
                        for i in 0..3000u64 {
                            tx.send(1).unwrap();
                            if (i + t) % 3 == 0 {
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            burst_senders.into_iter().for_each(|h| h.join().unwrap());
            taken(6000);
            // Only the blocking receivers are left: each send must wake
            // one of them, or the count stalls.
            stop.store(true, SeqCst);
            for (r, h) in receivers.into_iter().enumerate() {
                if r % 2 == 1 {
                    h.join().unwrap();
                }
            }
            for i in 1..=200 {
                tx.send(1).unwrap();
                taken(6000 + i);
            }
            drop(tx);
        });
        assert_eq!((sum.load(SeqCst), count.load(SeqCst)), (6200, 6200));
    }

    #[test]
    fn recv_timeout_expires() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvTimeoutError::Timeout));
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvTimeoutError::Disconnected));
    }
}
