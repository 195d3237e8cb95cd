//! A minimal MPI-like point-to-point communication substrate.
//!
//! Rust has no production MPI binding, so per the reproduction's
//! substitution rule we build the transport the paper's MPI controller
//! needs: a fixed-size world of ranks exchanging tagged, ordered,
//! asynchronous point-to-point messages. Each rank is a thread; messages
//! are byte buffers moved through unbounded FIFO channels, preserving MPI's
//! per-(source, destination) ordering guarantee. Sends are eager and
//! buffered (they never block), receives block.
//!
//! A [`FaultPlan`] can drop, duplicate or delay selected messages; the
//! reliable layer above recovers them. The world decides from exact
//! events, never a clock, when a run is stuck ([`RankComm::hold`],
//! [`RankComm::failed`]).
//!
//! A send writes no memory another sender writes: the pair's sequence
//! number, which faults are matched against, lives in the sending
//! endpoint, and the delivery tally is kept per sender on a cache line of
//! its own.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use babelflow_core::channel::{unbounded, Receiver, Sender};
use babelflow_core::sync::Counter;
use babelflow_core::Bytes;

pub use babelflow_core::fault::FaultPlan;

/// Tag reserved for batch envelopes: the body is a [`pack_batch`]-encoded
/// sequence of `(tag, body)` parts coalesced into one channel operation.
///
/// A batch is a *single* transport message: it consumes one fault sequence
/// number, so an injected drop/duplicate/delay hits the whole batch and the
/// reliable layer recovers every part together.
pub const TAG_BATCH: u32 = u32::MAX - 1;

/// Tag reserved for wakes: an empty control envelope put straight into a
/// rank's inbox. The last rank to [`mark_finished`](RankComm::mark_finished),
/// the [`release`](RankComm::release) that leaves no work and an aborting
/// endpoint each send one to every rank that must look at the world
/// again; [`RankComm::wake`] sends one to the rank itself. It bypasses
/// fault injection and is not counted as delivered.
pub const TAG_WAKE: u32 = u32::MAX - 2;

/// Encode `parts` into one batch body: `u32 count`, then per part
/// `u32 tag, u32 len, len bytes` (all little-endian).
///
/// The body is one fresh allocation of its exact size, which becomes the
/// envelope's buffer: each part is copied once, into it.
pub fn pack_batch<B: AsRef<[u8]>>(parts: &[(u32, B)]) -> Bytes {
    let total = 4 + parts.iter().map(|(_, b)| 8 + b.as_ref().len()).sum::<usize>();
    let mut buf = Vec::with_capacity(total);
    buf.extend_from_slice(&(parts.len() as u32).to_le_bytes());
    for (tag, body) in parts {
        let body = body.as_ref();
        buf.extend_from_slice(&tag.to_le_bytes());
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(body);
    }
    Bytes::from(buf)
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
    /// User tag (the dataflow controllers encode the destination in the
    /// body; the tag distinguishes message classes).
    pub tag: u32,
    /// Serialized message body.
    pub body: babelflow_core::Bytes,
}

/// One sending rank's tally of messages accepted for delivery, alone on
/// its cache line (128 bytes, since adjacent-line prefetch pairs lines),
/// so ranks sending at once never write the same line.
#[repr(align(128))]
#[derive(Default)]
struct SenderTally(Counter);

struct Shared {
    inboxes: Vec<Sender<Envelope>>,
    faults: FaultPlan,
    /// Messages accepted for delivery (post-fault), per sending rank.
    delivered: Vec<SenderTally>,
    /// Ranks that declared themselves finished (see
    /// [`RankComm::mark_finished`]); the shutdown barrier of the reliable
    /// protocol layered on top of this transport.
    finished: Counter,
    /// Outstanding work (see [`RankComm::hold`]); each rank starts busy.
    work: AtomicU64,
    /// 1 + the first rank whose endpoint dropped unfinished; 0 if none.
    failed: AtomicUsize,
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
            delivered: (0..n).map(|_| SenderTally::default()).collect(),
            finished: Counter::new(0),
            work: AtomicU64::new(n as u64),
            failed: AtomicUsize::new(0),
        });
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| {
                Some(RankComm {
                    rank,
                    n,
                    rx,
                    next_seq: (0..n).map(|_| Cell::new(0)).collect(),
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

    /// Messages delivered so far (after fault filtering), summed over
    /// the senders.
    pub fn delivered(&self) -> u64 {
        self.shared.delivered.iter().map(|tally| tally.0.get()).sum()
    }

    /// The first rank whose endpoint dropped before it finished, if any:
    /// the rank that holds a failed run's root cause.
    pub fn first_failed(&self) -> Option<usize> {
        self.shared.failed.load(SeqCst).checked_sub(1)
    }
}

/// One rank's communication endpoint.
pub struct RankComm {
    rank: usize,
    n: usize,
    rx: Receiver<Envelope>,
    /// Next sequence number per destination, for fault matching: only
    /// this endpoint sends from its rank, so it numbers its pairs alone.
    next_seq: Box<[Cell<u64>]>,
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
        let (src, seq) = (self.rank, self.next_seq[dst].get());
        self.next_seq[dst].set(seq + 1);
        let (faults, key) = (&self.shared.faults, (src, dst, seq));
        if faults.drop.contains(&key) {
            return;
        }
        let env = Envelope { src, tag, body };
        if let Some(&(.., hold)) = faults.delay.iter().find(|&&(s, d, q, _)| (s, d, q) == key) {
            // Hold the message on a detached thread; subsequent sends on
            // this pair overtake it, producing the reordering under test.
            let shared = self.shared.clone();
            std::thread::spawn(move || {
                std::thread::sleep(hold);
                // Count before the send lands so a receiver that observes
                // the message also observes the counter.
                shared.delivered[src].0.next();
                let _ = shared.inboxes[dst].send(env);
            });
            return;
        }
        // A send to a rank whose endpoint (and so receiver) was dropped is
        // a no-op, like a send that is never matched by a receive.
        let (inbox, delivered) = (&self.shared.inboxes[dst], &self.shared.delivered[src].0);
        if faults.duplicate.contains(&key) {
            let _ = inbox.send(env.clone());
            delivered.next();
        }
        let _ = inbox.send(env);
        delivered.next();
    }

    /// Blocking receive of the next message from any source.
    pub fn recv(&self) -> Option<Envelope> {
        self.rx.recv().ok()
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

    /// Count `n` more units of outstanding work: one per busy rank and one
    /// per dataflow message in flight, counted before it is sent and
    /// retired once delivered. So the count is zero only when no rank is
    /// busy and no message is in flight, lost or held ones included.
    pub fn hold(&self, n: u64) {
        self.shared.work.fetch_add(n, SeqCst);
    }

    /// Retire `n` units of work. The release that leaves none wakes every
    /// rank: the world is [`quiescent`](Self::quiescent) for good, since
    /// only busy ranks send.
    pub fn release(&self, n: u64) {
        if n > 0 && self.shared.work.fetch_sub(n, SeqCst) == n {
            for dst in 0..self.n {
                self.wake_rank(dst);
            }
        }
    }

    /// Whether no rank is busy and no dataflow message is in flight.
    pub fn quiescent(&self) -> bool {
        self.shared.work.load(SeqCst) == 0
    }

    /// The first rank that left the world unfinished (an error return or
    /// a panic), if any; its peers stop waiting.
    pub fn failed(&self) -> Option<usize> {
        self.shared.failed.load(SeqCst).checked_sub(1)
    }

    /// Declare this rank finished: it has no unacknowledged sends left.
    /// Idempotent. Part of the reliable layer's shutdown barrier — a rank
    /// keeps servicing (re-acking) incoming traffic until
    /// [`all_finished`](Self::all_finished), so peers never retransmit
    /// into a torn-down endpoint. The rank that completes the barrier
    /// sends every peer a [`TAG_WAKE`] envelope, so their blocking wait at
    /// the barrier ends at once.
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
    /// An endpoint dropped before the whole world finished (an error
    /// return or a panicking rank thread) can never ack again: it aborts
    /// the world ([`failed`](Self::failed)) and wakes every peer, so none
    /// waits for it.
    fn drop(&mut self) {
        if !self.all_finished() {
            let _ = self.shared.failed.compare_exchange(0, self.rank + 1, SeqCst, SeqCst);
            for dst in (0..self.n).filter(|&dst| dst != self.rank) {
                self.wake_rank(dst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

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
    fn dropped_message_never_arrives() {
        let faults = FaultPlan { drop: vec![(0, 1, 0)], ..FaultPlan::none() };
        let mut w = World::with_faults(2, faults);
        let a = w.endpoint(0);
        let b = w.endpoint(1);
        a.isend(1, 0, Bytes::from_static(b"lost"));
        a.isend(1, 0, Bytes::from_static(b"kept"));
        let e = b.recv().unwrap();
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
        assert_eq!(b.recv().unwrap().body.as_ref(), b"twin");
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
        let first = b.recv().unwrap();
        assert_eq!(first.body.as_ref(), b"prompt");
        let second = b.recv().unwrap();
        assert_eq!(second.body.as_ref(), b"held");
        assert_eq!(w.delivered(), 2);
    }

    #[test]
    fn delivered_counts_every_copy_and_faults_match_per_pair_sequence_numbers() {
        // Each directed pair numbers its own messages from 0, however the
        // sends of the pairs interleave.
        let faults = FaultPlan {
            drop: vec![(0, 1, 1)],
            duplicate: vec![(0, 2, 0), (1, 2, 1)],
            delay: vec![(1, 0, 0, Duration::from_millis(50))],
            ..FaultPlan::none()
        };
        let mut w = World::with_faults(3, faults);
        let eps = w.endpoints();
        let send = |src: usize, dst: usize, b: &'static [u8]| {
            eps[src].isend(dst, 0, Bytes::from_static(b));
        };
        send(0, 1, b"a0"); // (0, 1, 0)
        send(0, 2, b"b0"); // (0, 2, 0): duplicated
        send(1, 2, b"c0"); // (1, 2, 0)
        send(0, 1, b"a1"); // (0, 1, 1): dropped
        send(1, 0, b"d0"); // (1, 0, 0): delayed
        send(1, 2, b"c1"); // (1, 2, 1): duplicated
        send(0, 1, b"a2"); // (0, 1, 2)
        send(1, 0, b"d1"); // (1, 0, 1)
        let bodies = |ep: &RankComm, n: usize| -> Vec<Vec<u8>> {
            (0..n).map(|_| ep.recv().unwrap().body.to_vec()).collect()
        };
        assert_eq!(bodies(&eps[1], 2), [b"a0".to_vec(), b"a2".to_vec()]);
        let to_2 = bodies(&eps[2], 5);
        for (body, copies) in [(&b"b0"[..], 2), (&b"c0"[..], 1), (&b"c1"[..], 2)] {
            assert_eq!(to_2.iter().filter(|b| b.as_slice() == body).count(), copies, "{body:?}");
        }
        // The delayed message is overtaken, and counted once it lands.
        assert_eq!(bodies(&eps[0], 2), [b"d1".to_vec(), b"d0".to_vec()]);
        assert_eq!(w.delivered(), 2 + 5 + 2);
        assert!(eps.iter().all(|ep| ep.try_recv().is_none()));
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
    fn dropping_an_unfinished_endpoint_fails_the_world() {
        let mut w = World::new(3);
        let eps = w.endpoints();
        assert_eq!((eps[0].failed(), w.first_failed()), (None, None));
        let mut eps = eps.into_iter();
        let (a, b, c) = (eps.next().unwrap(), eps.next().unwrap(), eps.next().unwrap());
        drop(b);
        drop(c);
        // The first to drop is the one named; each drop wakes every peer.
        assert_eq!((a.failed(), w.first_failed()), (Some(1), Some(1)));
        for _ in 0..2 {
            assert_eq!(a.try_recv().expect("woken").tag, TAG_WAKE);
        }
        a.mark_finished();
        assert!(!a.all_finished(), "a failed rank never finishes");
    }

    #[test]
    fn endpoints_dropped_after_the_barrier_fail_nothing() {
        let mut w = World::new(2);
        let eps = w.endpoints();
        eps.iter().for_each(RankComm::mark_finished);
        drop(eps);
        assert_eq!(w.first_failed(), None);
    }

    #[test]
    fn the_release_that_leaves_no_work_wakes_every_rank() {
        let mut w = World::new(2);
        let eps = w.endpoints();
        // Each rank starts busy; a message in flight is one more unit.
        eps[0].hold(1);
        eps[0].release(1);
        eps[1].release(1);
        assert!(!eps[0].quiescent());
        assert!(eps.iter().all(|ep| ep.try_recv().is_none()), "work is left");
        eps[1].release(0);
        assert!(eps.iter().all(|ep| ep.try_recv().is_none()), "releasing nothing wakes no one");
        eps[0].release(1);
        assert!(eps[1].quiescent());
        for ep in &eps {
            let wake = ep.try_recv().expect("woken");
            assert_eq!((wake.src, wake.tag), (0, TAG_WAKE));
        }
        assert_eq!(w.delivered(), 0);
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
        let packed = pack_batch(&parts);
        let unpacked = unpack_batch(&packed).unwrap();
        assert_eq!(unpacked, parts);
        // Parts come back as windows of the one batch buffer.
        let base = packed.as_ptr() as usize;
        for (_, body) in &unpacked {
            let at = body.as_ptr() as usize;
            assert!(at >= base && at + body.len() <= base + packed.len());
        }
        let again = pack_batch(&parts[..1]);
        assert_eq!(unpack_batch(&again).unwrap(), &parts[..1]);
        // Any byte-slice parts pack to the same bytes.
        let arrays = [(7u32, *b"alpha"), (0, *b"omega")];
        let as_bytes: Vec<(u32, Bytes)> =
            arrays.iter().map(|&(t, b)| (t, Bytes::copy_from_slice(&b))).collect();
        assert_eq!(pack_batch(&arrays), pack_batch(&as_bytes));
    }

    #[test]
    fn unpack_rejects_malformed_batches() {
        assert!(unpack_batch(&Bytes::from_static(b"ab")).is_none(), "short header");
        let packed = pack_batch(&[(1, Bytes::from_static(b"xyz"))]);
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
        let packed =
            pack_batch(&[(3, Bytes::from_static(b"one")), (3, Bytes::from_static(b"two"))]);
        a.isend(1, TAG_BATCH, packed);
        a.isend(1, 9, Bytes::from_static(b"after"));
        let e = b.recv().unwrap();
        assert_eq!((e.tag, e.body.as_ref()), (9, &b"after"[..]));
        assert!(b.try_recv().is_none());
    }
}
