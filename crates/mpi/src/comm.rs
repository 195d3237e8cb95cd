//! A minimal MPI-like point-to-point communication substrate.
//!
//! Rust has no production MPI binding, so per the reproduction's
//! substitution rule we build the transport the paper's MPI controller
//! needs: a fixed-size world of ranks exchanging tagged, ordered,
//! asynchronous point-to-point messages. Each rank is a thread; messages
//! are byte buffers moved through unbounded FIFO channels, preserving MPI's
//! per-(source, destination) ordering guarantee. Sends are eager and
//! buffered (they never block), receives block with an optional timeout.
//!
//! A [`FaultPlan`] can drop or duplicate selected messages, which the test
//! suite uses to verify that controllers detect stalled dataflows instead
//! of hanging.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use babelflow_core::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use babelflow_core::sync::Counter;
use babelflow_core::{Bytes, BytesMut};

pub use babelflow_core::fault::FaultPlan;

/// Tag reserved for batch envelopes: the body is a [`pack_batch`]-encoded
/// sequence of `(tag, body)` parts coalesced into one channel operation.
///
/// A batch is a *single* transport message: it consumes one fault sequence
/// number, so an injected drop/duplicate/delay hits the whole batch and the
/// reliable layer recovers every part together.
pub const TAG_BATCH: u32 = u32::MAX - 1;

/// Tag reserved for wakes: an empty control envelope put straight into a
/// rank's inbox. The last rank to [`mark_finished`](RankComm::mark_finished)
/// sends one to every peer, so a rank blocked at the shutdown barrier
/// leaves at once; [`RankComm::wake`] sends one to the rank itself. It
/// bypasses fault injection and is not counted as delivered.
pub const TAG_WAKE: u32 = u32::MAX - 2;

/// Encode `parts` into one batch body: `u32 count`, then per part
/// `u32 tag, u32 len, len bytes` (all little-endian).
///
/// `stage` is a caller-owned staging buffer reused across calls so the hot
/// send path performs no per-batch buffer allocation once the staging
/// capacity has grown to the working-set size.
pub fn pack_batch(parts: &[(u32, Bytes)], stage: &mut BytesMut) -> Bytes {
    stage.clear();
    let total = 4 + parts.iter().map(|(_, b)| 8 + b.len()).sum::<usize>();
    stage.reserve(total);
    stage.extend_from_slice(&(parts.len() as u32).to_le_bytes());
    for (tag, body) in parts {
        stage.extend_from_slice(&tag.to_le_bytes());
        stage.extend_from_slice(&(body.len() as u32).to_le_bytes());
        stage.extend_from_slice(body.as_ref());
    }
    stage.freeze_reuse()
}

/// Decode a [`pack_batch`] body back into its `(tag, body)` parts.
///
/// Part bodies are O(1) slices of the batch buffer — no copy. Returns
/// `None` on truncated or trailing garbage (a malformed batch is dropped
/// whole; the reliable layer's retransmit recovers it).
pub fn unpack_batch(body: &Bytes) -> Option<Vec<(u32, Bytes)>> {
    let raw = body.as_ref();
    if raw.len() < 4 {
        return None;
    }
    let count = u32::from_le_bytes(raw[..4].try_into().ok()?) as usize;
    let mut parts = Vec::with_capacity(count);
    let mut off = 4usize;
    for _ in 0..count {
        if raw.len() < off + 8 {
            return None;
        }
        let tag = u32::from_le_bytes(raw[off..off + 4].try_into().ok()?);
        let len = u32::from_le_bytes(raw[off + 4..off + 8].try_into().ok()?) as usize;
        off += 8;
        if raw.len() < off + len {
            return None;
        }
        parts.push((tag, body.slice(off..off + len)));
        off += len;
    }
    (off == raw.len()).then_some(parts)
}

/// A message in flight: source rank, tag, and opaque bytes.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// User tag (the dataflow controllers encode the destination task id
    /// here-in payload; the tag distinguishes message classes).
    pub tag: u32,
    /// Serialized message body.
    pub body: babelflow_core::Bytes,
}

struct Shared {
    inboxes: Vec<Sender<Envelope>>,
    faults: FaultPlan,
    /// Per directed pair (src*n+dst) message counter for fault matching.
    /// Lock-free ([`Counter`]) so concurrent senders never serialize on
    /// the sequence-number hot path.
    seq: Vec<Counter>,
    /// Total messages accepted for delivery (post-fault).
    delivered: Counter,
    /// Ranks that declared themselves finished (see
    /// [`RankComm::mark_finished`]); the shutdown barrier of the reliable
    /// protocol layered on top of this transport.
    finished: Counter,
}

/// A communication world of `n` ranks.
///
/// Create one, then hand each rank thread its [`RankComm`] endpoint.
pub struct World {
    shared: Arc<Shared>,
    endpoints: Vec<Option<RankComm>>,
}

impl World {
    /// Create a world with `n` ranks and no fault injection.
    pub fn new(n: usize) -> Self {
        Self::with_faults(n, FaultPlan::none())
    }

    /// Create a world with `n` ranks and the given fault plan.
    ///
    /// # Panics
    /// If `n` is zero.
    pub fn with_faults(n: usize, faults: FaultPlan) -> Self {
        assert!(n > 0, "world needs at least one rank");
        let mut inboxes = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            inboxes.push(tx);
            receivers.push(rx);
        }
        let shared = Arc::new(Shared {
            inboxes,
            faults,
            seq: (0..n * n).map(|_| Counter::new(0)).collect(),
            delivered: Counter::new(0),
            finished: Counter::new(0),
        });
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| {
                Some(RankComm {
                    rank,
                    n,
                    rx,
                    shared: shared.clone(),
                    finished_flag: Cell::new(false),
                })
            })
            .collect();
        World { shared, endpoints }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.endpoints.len()
    }

    /// Take the endpoint for `rank` (each may be taken once).
    ///
    /// # Panics
    /// If the endpoint was already taken or `rank` is out of range.
    pub fn endpoint(&mut self, rank: usize) -> RankComm {
        self.endpoints[rank].take().expect("endpoint already taken")
    }

    /// Take all endpoints, in rank order.
    pub fn endpoints(&mut self) -> Vec<RankComm> {
        (0..self.size()).map(|r| self.endpoint(r)).collect()
    }

    /// Messages delivered so far (after fault filtering).
    pub fn delivered(&self) -> u64 {
        self.shared.delivered.get()
    }
}

/// One rank's communication endpoint.
pub struct RankComm {
    rank: usize,
    n: usize,
    rx: Receiver<Envelope>,
    shared: Arc<Shared>,
    finished_flag: Cell<bool>,
}

impl RankComm {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Asynchronous eager send: enqueue `body` for `dst` and return
    /// immediately. Messages on the same (src, dst) pair are delivered in
    /// send order.
    ///
    /// # Panics
    /// If `dst` is out of range.
    pub fn isend(&self, dst: usize, tag: u32, body: babelflow_core::Bytes) {
        assert!(dst < self.n, "rank {dst} out of range");
        let pair = self.rank * self.n + dst;
        let seq = self.shared.seq[pair].next();
        let key = (self.rank, dst, seq);
        if self.shared.faults.drop.contains(&key) {
            return;
        }
        let env = Envelope { src: self.rank, tag, body };
        if let Some((_, _, _, hold)) = self
            .shared
            .faults
            .delay
            .iter()
            .find(|&&(s, d, q, _)| (s, d, q) == key)
        {
            // Hold the message on a detached thread; subsequent sends on
            // this pair overtake it, producing the reordering under test.
            let shared = self.shared.clone();
            let hold = *hold;
            std::thread::spawn(move || {
                std::thread::sleep(hold);
                // Count before the send lands so a receiver that observes
                // the message also observes the counter.
                shared.delivered.next();
                let _ = shared.inboxes[dst].send(env);
            });
            return;
        }
        let copies = if self.shared.faults.duplicate.contains(&key) { 2 } else { 1 };
        for _ in 0..copies {
            // A send to a rank whose endpoint (and so receiver) was dropped
            // is a no-op, like a send that is never matched by a receive.
            let _ = self.shared.inboxes[dst].send(env.clone());
            self.shared.delivered.next();
        }
    }

    /// Blocking receive of the next message from any source.
    pub fn recv(&self) -> Option<Envelope> {
        self.rx.recv().ok()
    }

    /// Receive with a timeout; `None` on timeout or if all senders hung up.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        match self.rx.recv_timeout(timeout) {
            Ok(e) => Some(e),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope> {
        self.rx.try_recv().ok()
    }

    /// The raw inbox receiver.
    pub fn inbox(&self) -> &Receiver<Envelope> {
        &self.rx
    }

    /// Put a [`TAG_WAKE`] envelope in this rank's own inbox, ending a
    /// blocked receive on it. A thread that changes the rank's state
    /// without a message (a worker that ran the rank's last task, or
    /// failed) wakes the rank's control thread this way.
    pub fn wake(&self) {
        self.wake_rank(self.rank);
    }

    fn wake_rank(&self, dst: usize) {
        let wake = Envelope { src: self.rank, tag: TAG_WAKE, body: Bytes::new() };
        let _ = self.shared.inboxes[dst].send(wake);
    }

    /// Declare this rank finished: it has no unacknowledged sends left.
    /// Idempotent. Part of the reliable layer's shutdown barrier — a rank
    /// keeps servicing (re-acking) incoming traffic until
    /// [`all_finished`](Self::all_finished), so peers never retransmit
    /// into a torn-down endpoint. The rank that completes the barrier
    /// sends every peer a [`TAG_WAKE`] envelope, so their blocking wait at
    /// the barrier ends at once. Dropping the endpoint (an error return or
    /// a panicking rank thread) marks it finished too.
    pub fn mark_finished(&self) {
        if self.finished_flag.replace(true) {
            return;
        }
        if self.shared.finished.next() + 1 == self.n as u64 {
            for dst in (0..self.n).filter(|&dst| dst != self.rank) {
                self.wake_rank(dst);
            }
        }
    }

    /// Whether every rank in the world has called
    /// [`mark_finished`](Self::mark_finished).
    pub fn all_finished(&self) -> bool {
        self.shared.finished.get() >= self.n as u64
    }
}

impl Drop for RankComm {
    /// A dropped endpoint can never ack again: release the peers waiting
    /// for it at the shutdown barrier.
    fn drop(&mut self) {
        self.mark_finished();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use babelflow_core::Bytes;

    #[test]
    fn point_to_point_ordering() {
        let mut w = World::new(2);
        let a = w.endpoint(0);
        let b = w.endpoint(1);
        for i in 0..10u8 {
            a.isend(1, 0, Bytes::from(vec![i]));
        }
        for i in 0..10u8 {
            let e = b.recv().unwrap();
            assert_eq!(e.src, 0);
            assert_eq!(e.body.as_ref(), &[i]);
        }
    }

    #[test]
    fn cross_thread_exchange() {
        let mut w = World::new(2);
        let eps = w.endpoints();
        std::thread::scope(|s| {
            for ep in eps {
                s.spawn(move || {
                    let peer = 1 - ep.rank();
                    ep.isend(peer, 7, Bytes::from(vec![ep.rank() as u8]));
                    let e = ep.recv().unwrap();
                    assert_eq!(e.src, peer);
                    assert_eq!(e.tag, 7);
                    assert_eq!(e.body.as_ref(), &[peer as u8]);
                });
            }
        });
        assert_eq!(w.delivered(), 2);
    }

    #[test]
    fn self_send_works() {
        let mut w = World::new(1);
        let a = w.endpoint(0);
        a.isend(0, 1, Bytes::from_static(b"x"));
        assert_eq!(a.recv().unwrap().body.as_ref(), b"x");
    }

    #[test]
    fn recv_timeout_expires() {
        let mut w = World::new(2);
        let a = w.endpoint(0);
        assert!(a.recv_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn dropped_message_never_arrives() {
        let faults = FaultPlan { drop: vec![(0, 1, 0)], ..FaultPlan::none() };
        let mut w = World::with_faults(2, faults);
        let a = w.endpoint(0);
        let b = w.endpoint(1);
        a.isend(1, 0, Bytes::from_static(b"lost"));
        a.isend(1, 0, Bytes::from_static(b"kept"));
        let e = b.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(e.body.as_ref(), b"kept");
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn duplicated_message_arrives_twice() {
        let faults = FaultPlan { duplicate: vec![(0, 1, 0)], ..FaultPlan::none() };
        let mut w = World::with_faults(2, faults);
        let a = w.endpoint(0);
        let b = w.endpoint(1);
        a.isend(1, 0, Bytes::from_static(b"twin"));
        assert_eq!(b.recv().unwrap().body.as_ref(), b"twin");
        assert_eq!(b.recv_timeout(Duration::from_millis(100)).unwrap().body.as_ref(), b"twin");
    }

    #[test]
    fn delayed_message_is_overtaken() {
        let faults = FaultPlan {
            delay: vec![(0, 1, 0, Duration::from_millis(50))],
            ..FaultPlan::none()
        };
        let mut w = World::with_faults(2, faults);
        let a = w.endpoint(0);
        let b = w.endpoint(1);
        a.isend(1, 0, Bytes::from_static(b"held"));
        a.isend(1, 0, Bytes::from_static(b"prompt"));
        // The second send overtakes the held first one: reordering.
        let first = b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(first.body.as_ref(), b"prompt");
        let second = b.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(second.body.as_ref(), b"held");
        assert_eq!(w.delivered(), 2);
    }

    #[test]
    fn finished_barrier_counts_each_rank_once() {
        let mut w = World::new(2);
        let a = w.endpoint(0);
        let b = w.endpoint(1);
        assert!(!a.all_finished());
        a.mark_finished();
        a.mark_finished(); // idempotent
        assert!(!b.all_finished());
        b.mark_finished();
        assert!(a.all_finished() && b.all_finished());
    }

    #[test]
    fn last_finisher_wakes_every_peer_outside_the_fault_plan() {
        // Rank 2's first message to each peer is dropped, yet its wakes
        // arrive: they take no fault sequence number and are not counted.
        let faults = FaultPlan { drop: vec![(2, 0, 0), (2, 1, 0)], ..FaultPlan::none() };
        let mut w = World::with_faults(3, faults);
        let eps = w.endpoints();
        eps[0].mark_finished();
        eps[1].mark_finished();
        assert!(eps.iter().all(|ep| ep.try_recv().is_none()), "no wake before the last finisher");
        eps[2].mark_finished();
        for ep in &eps[..2] {
            let wake = ep.try_recv().expect("woken");
            assert_eq!((wake.src, wake.tag, wake.body.len()), (2, TAG_WAKE, 0));
            assert!(ep.try_recv().is_none());
        }
        assert!(eps[2].try_recv().is_none(), "the last finisher does not wake itself");
        assert_eq!(w.delivered(), 0);
        eps[2].isend(0, 0, Bytes::from_static(b"lost"));
        eps[2].isend(0, 0, Bytes::from_static(b"kept"));
        assert_eq!(eps[0].try_recv().unwrap().body.as_ref(), b"kept");
        assert_eq!(w.delivered(), 1);
    }

    #[test]
    fn dropping_an_endpoint_marks_it_finished() {
        let mut w = World::new(2);
        let a = w.endpoint(0);
        drop(w.endpoint(1));
        assert!(!a.all_finished());
        a.mark_finished();
        assert!(a.all_finished());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_unknown_rank_panics() {
        let mut w = World::new(1);
        w.endpoint(0).isend(3, 0, Bytes::new());
    }

    #[test]
    fn batch_roundtrip_preserves_tags_and_bodies() {
        let parts = vec![
            (7u32, Bytes::from_static(b"alpha")),
            (TAG_BATCH - 1, Bytes::new()),
            (0, Bytes::from(vec![1u8, 2, 3])),
        ];
        let mut stage = BytesMut::new();
        let packed = pack_batch(&parts, &mut stage);
        assert!(stage.is_empty(), "stage is cleared for reuse");
        let unpacked = unpack_batch(&packed).unwrap();
        assert_eq!(unpacked, parts);
        // The staging buffer is reusable for the next batch.
        let again = pack_batch(&parts[..1], &mut stage);
        assert_eq!(unpack_batch(&again).unwrap(), &parts[..1]);
    }

    #[test]
    fn unpack_rejects_malformed_batches() {
        assert!(unpack_batch(&Bytes::from_static(b"ab")).is_none(), "short header");
        let mut stage = BytesMut::new();
        let packed = pack_batch(&[(1, Bytes::from_static(b"xyz"))], &mut stage);
        assert!(unpack_batch(&packed.slice(..packed.len() - 1)).is_none(), "truncated body");
        let mut trailing = packed.to_vec();
        trailing.push(0);
        assert!(unpack_batch(&Bytes::from(trailing)).is_none(), "trailing garbage");
    }

    #[test]
    fn batch_is_one_transport_message() {
        // One batch consumes one fault sequence number: dropping seq 0
        // loses the whole batch, and the next plain send still arrives.
        let faults = FaultPlan { drop: vec![(0, 1, 0)], ..FaultPlan::none() };
        let mut w = World::with_faults(2, faults);
        let a = w.endpoint(0);
        let b = w.endpoint(1);
        let mut stage = BytesMut::new();
        let packed = pack_batch(
            &[(3, Bytes::from_static(b"one")), (3, Bytes::from_static(b"two"))],
            &mut stage,
        );
        a.isend(1, TAG_BATCH, packed);
        a.isend(1, 9, Bytes::from_static(b"after"));
        let e = b.recv_timeout(Duration::from_millis(200)).unwrap();
        assert_eq!((e.tag, e.body.as_ref()), (9, &b"after"[..]));
        assert!(b.try_recv().is_none());
    }
}
