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
//! notifies the condvar only when one is parked: `std`'s futex condvar
//! makes a syscall on every notify, parked waiter or not.

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
        state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1, parked: 0 }),
        cv: Condvar::new(),
    });
    (Sender { chan: chan.clone() }, Receiver { chan })
}

impl<T> Sender<T> {
    /// Enqueue `value`; never blocks. Fails only when every receiver has
    /// been dropped, returning the value.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let parked = {
            let mut st = self.chan.state.lock();
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            st.parked > 0
        };
        if parked {
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
            st.parked -= 1;
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
            st.parked -= 1;
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
    fn recv_timeout_expires() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvTimeoutError::Timeout));
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvTimeoutError::Disconnected));
    }
}
