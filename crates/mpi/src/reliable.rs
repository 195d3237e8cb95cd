//! Reliable delivery on top of the faultable transport: ack/retransmit
//! with exponential backoff, sequence numbering, in-order restore,
//! duplicate suppression, and batched (coalesced) channel operations.
//!
//! [`RankComm`] deliberately models a lossy network when a
//! [`FaultPlan`](crate::comm::FaultPlan) is armed: messages can be
//! dropped, duplicated, or delayed (reordered). [`ReliableEndpoint`]
//! wraps an endpoint with the classic positive-ack protocol so that
//! *drop, duplicate and reorder all converge to exactly-once, in-order
//! delivery*:
//!
//! * every data message is framed with a per-destination logical sequence
//!   number and retained until the receiver acknowledges it;
//! * sends are *staged* per destination and coalesced into one
//!   [`TAG_BATCH`] envelope per [`flush_sends`] (or when the
//!   [`batch_limit`](ReliableEndpoint::with_batch_limit) is reached), so a
//!   task fanning out many messages costs one channel operation per
//!   destination instead of one per message — a single-part flush skips
//!   the batch header entirely. A batch consumes *one* fault sequence
//!   number: an injected fault hits the whole batch and the protocol
//!   recovers every part together. Per-(src, dst) FIFO order is preserved
//!   because parts are packed in send order and unpacked in order;
//! * unacknowledged messages are retransmitted on [`tick`] with
//!   exponential backoff, re-batched per destination in sequence order.
//!   Retransmit deadlines live in a min-heap with lazy deletion, so a
//!   tick examines only the entries that are due (plus stale entries for
//!   messages acked or retransmitted since), never the whole unacked set;
//! * the receiver acks every accepted arrival (even duplicates — the
//!   original ack may itself have been lost), batching all acks triggered
//!   by one incoming envelope into one reply envelope, delivers in
//!   sequence order via a *bounded* reorder buffer, and counts suppressed
//!   duplicates. Arrivals beyond the
//!   [`reorder window`](ReliableEndpoint::with_reorder_window) are dropped
//!   *without* an ack — the sender retransmits once the window has
//!   advanced — so duplicate-suppression and reordering state stay
//!   bounded per source no matter how far a runaway sender races ahead;
//! * acks travel over the same faultable transport and consume fault
//!   sequence numbers too, so an injected fault may hit data, ack, or
//!   retransmit — the protocol converges regardless.
//!
//! Shutdown is the subtle part: a rank that finished its own tasks must
//! keep servicing acks until *every* rank is done, otherwise a peer's
//! retransmit would land in a torn-down inbox forever. [`flush`] runs the
//! two-phase barrier: transmit anything still staged, drain until all own
//! sends are acked, declare finished ([`RankComm::mark_finished`]), then
//! linger — re-acking whatever still arrives — until the whole world is
//! finished. Both phases block on the inbox, never on a fixed poll: the
//! drain reads every queued envelope (the acks that piled up while the
//! rank was busy) before it looks for overdue messages, then sleeps until
//! the next envelope or retransmit deadline; the linger wakes on the
//! control envelope the last rank to finish puts in every peer's inbox.
//!
//! [`tick`]: ReliableEndpoint::tick
//! [`flush`]: ReliableEndpoint::flush
//! [`flush_sends`]: ReliableEndpoint::flush_sends

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use babelflow_core::channel::Receiver;
use babelflow_core::{Bytes, BytesMut, RecoveryStats};

use crate::comm::{pack_batch, unpack_batch, Envelope, RankComm, TAG_BATCH, TAG_WAKE};

/// Tag reserved for acknowledgements (controllers use small tags; the
/// dataflow tag is 0).
pub const TAG_ACK: u32 = u32::MAX;

/// Initial retransmit timeout; doubles per attempt (capped) so a
/// persistently lossy link backs off instead of flooding.
pub const BASE_RTO: Duration = Duration::from_millis(20);

/// Default cap on parts staged per destination before an automatic
/// [`flush_sends`](ReliableEndpoint::flush_sends) of that destination.
pub const DEFAULT_BATCH_LIMIT: usize = 64;

/// Default reorder window: out-of-order arrivals this far (or further)
/// ahead of the next expected sequence number are dropped unacked, keeping
/// per-source reorder/dedup memory bounded at `window - 1` entries.
pub const DEFAULT_REORDER_WINDOW: u64 = 1024;

/// A sent-but-unacknowledged message retained for retransmission.
struct Pending {
    tag: u32,
    framed: Bytes,
    /// Transmissions so far beyond the first; also the generation of the
    /// message's live [`Deadline`].
    attempts: u32,
}

/// Retransmit timeout after `attempts` retransmissions.
fn rto(attempts: u32) -> Duration {
    BASE_RTO * 2u32.saturating_pow(attempts.min(6))
}

/// A retransmit deadline: (due, dst, seq, attempts). Wrapped in
/// [`Reverse`] it orders a [`BinaryHeap`] earliest-first. An entry is
/// stale once its message is acked or retransmitted again (its `attempts`
/// no longer matches); stale entries are dropped when popped.
type Deadline = Reverse<(Instant, usize, u64, u32)>;

/// A [`RankComm`] wrapped with the ack/retransmit protocol.
///
/// All sends and receives of *data* must go through this wrapper once any
/// rank uses it — the framing adds a sequence-number header the raw
/// endpoint knows nothing about.
pub struct ReliableEndpoint {
    ep: RankComm,
    /// Next sequence number per destination rank.
    next_seq: Vec<u64>,
    /// Sent and not yet acked, keyed (dst, seq).
    unacked: HashMap<(usize, u64), Pending>,
    /// One deadline per transmission of an `unacked` message, earliest
    /// first; lazily deleted (see [`Deadline`]).
    deadlines: BinaryHeap<Deadline>,
    /// Staged, not-yet-transmitted sends per destination: (seq, tag).
    /// The framed bytes live in `unacked`; staging holds only the key.
    outbox: Vec<Vec<(u64, u32)>>,
    /// Ack sequence numbers staged per source, flushed as one envelope
    /// after each incoming envelope is fully processed.
    ack_stage: Vec<Vec<u64>>,
    /// Auto-flush threshold for `outbox` entries.
    batch_limit: usize,
    /// Next expected sequence number per source rank.
    next_expected: Vec<u64>,
    /// Out-of-order arrivals per source, waiting for the gap to fill.
    /// Bounded: only seqs in `(expected, expected + reorder_window)` are
    /// ever stored.
    reorder: Vec<BTreeMap<u64, (u32, Bytes)>>,
    /// Acceptance horizon for out-of-order arrivals.
    reorder_window: u64,
    /// In-order messages ready for the application: (src, tag, body).
    ready: VecDeque<(usize, u32, Bytes)>,
    /// Reusable staging buffer for batch encoding (capacity persists
    /// across batches; see [`BytesMut::freeze_reuse`]).
    stage: BytesMut,
    /// Protocol counters, merged into the run's `RunStats`.
    pub stats: RecoveryStats,
    /// Channel operations issued by this endpoint (data, acks, batches,
    /// retransmits — every `isend`).
    pub envelopes_sent: u64,
    /// How many of those envelopes were multi-part [`TAG_BATCH`] frames.
    pub batches_sent: u64,
    /// Retransmit deadlines [`tick`](Self::tick) examined: every entry it
    /// popped (overdue or stale) plus the not-yet-due entry it stopped at.
    pub rto_scanned: u64,
}

fn frame(seq: u64, body: &Bytes) -> Bytes {
    let mut v = Vec::with_capacity(8 + body.len());
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(body.as_ref());
    Bytes::from(v)
}

fn unframe(body: &Bytes) -> Option<(u64, Bytes)> {
    let b = body.as_ref();
    if b.len() < 8 {
        return None;
    }
    let seq = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
    Some((seq, body.slice(8..)))
}

fn ack_body(seq: u64) -> Bytes {
    Bytes::from(seq.to_le_bytes().to_vec())
}

impl ReliableEndpoint {
    /// Wrap a raw endpoint.
    pub fn new(ep: RankComm) -> Self {
        let n = ep.size();
        ReliableEndpoint {
            ep,
            next_seq: vec![0; n],
            unacked: HashMap::new(),
            deadlines: BinaryHeap::new(),
            outbox: vec![Vec::new(); n],
            ack_stage: vec![Vec::new(); n],
            batch_limit: DEFAULT_BATCH_LIMIT,
            next_expected: vec![0; n],
            reorder: (0..n).map(|_| BTreeMap::new()).collect(),
            reorder_window: DEFAULT_REORDER_WINDOW,
            ready: VecDeque::new(),
            stage: BytesMut::new(),
            stats: RecoveryStats::default(),
            envelopes_sent: 0,
            batches_sent: 0,
            rto_scanned: 0,
        }
    }

    /// Set the per-destination staging cap (minimum 1). Mostly a test
    /// knob; the default is [`DEFAULT_BATCH_LIMIT`].
    pub fn with_batch_limit(mut self, limit: usize) -> Self {
        self.batch_limit = limit.max(1);
        self
    }

    /// Set the reorder window (minimum 1). Mostly a test knob; the
    /// default is [`DEFAULT_REORDER_WINDOW`].
    pub fn with_reorder_window(mut self, window: u64) -> Self {
        self.reorder_window = window.max(1);
        self
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.ep.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.ep.size()
    }

    /// The raw inbox receiver. Every envelope taken from it must be fed
    /// to [`handle`](Self::handle).
    pub fn inbox(&self) -> &Receiver<Envelope> {
        self.ep.inbox()
    }

    /// Put a [`TAG_WAKE`] envelope in this rank's own inbox (see
    /// [`RankComm::wake`]).
    pub fn wake(&self) {
        self.ep.wake();
    }

    /// Send `body` to `dst` reliably: frame it with the next sequence
    /// number, retain it for retransmission, and stage it. Nothing hits
    /// the wire until [`flush_sends`](Self::flush_sends) (called by
    /// [`tick`](Self::tick) and [`flush`](Self::flush)) or the batch
    /// limit forces a flush of this destination.
    pub fn send(&mut self, dst: usize, tag: u32, body: Bytes) {
        let seq = self.next_seq[dst];
        self.next_seq[dst] += 1;
        let framed = frame(seq, &body);
        self.unacked.insert((dst, seq), Pending { tag, framed, attempts: 0 });
        self.outbox[dst].push((seq, tag));
        if self.outbox[dst].len() >= self.batch_limit {
            self.flush_dst(dst);
        }
    }

    /// Transmit everything staged, one envelope per destination with
    /// pending parts. Call after producing a burst of sends (e.g. routing
    /// one task's outputs) to coalesce them.
    pub fn flush_sends(&mut self) {
        for dst in 0..self.outbox.len() {
            self.flush_dst(dst);
        }
    }

    fn flush_dst(&mut self, dst: usize) {
        if self.outbox[dst].is_empty() {
            return;
        }
        let staged = std::mem::take(&mut self.outbox[dst]);
        // The RTO clock starts at actual transmission, not at staging time.
        let due = Instant::now() + rto(0);
        let mut parts = Vec::with_capacity(staged.len());
        for (seq, tag) in staged {
            if let Some(pending) = self.unacked.get(&(dst, seq)) {
                self.deadlines.push(Reverse((due, dst, seq, 0)));
                parts.push((tag, pending.framed.clone()));
            }
        }
        self.transmit(dst, parts);
    }

    /// Issue one channel operation carrying `parts` to `dst`: a plain
    /// envelope for a single part, a [`TAG_BATCH`] envelope otherwise.
    fn transmit(&mut self, dst: usize, mut parts: Vec<(u32, Bytes)>) {
        match parts.len() {
            0 => {}
            1 => {
                let (tag, framed) = parts.pop().expect("one part");
                self.ep.isend(dst, tag, framed);
                self.envelopes_sent += 1;
            }
            _ => {
                let packed = pack_batch(&parts, &mut self.stage);
                self.ep.isend(dst, TAG_BATCH, packed);
                self.envelopes_sent += 1;
                self.batches_sent += 1;
            }
        }
    }

    /// Process one raw envelope: consume acks, ack + order + dedup data.
    /// In-order data becomes available via [`pop_ready`](Self::pop_ready).
    /// All acks the envelope triggers go out as one reply envelope.
    /// [`TAG_WAKE`] control envelopes carry nothing and are ignored.
    pub fn handle(&mut self, env: Envelope) {
        let src = env.src;
        if env.tag == TAG_WAKE {
            return;
        }
        if env.tag == TAG_BATCH {
            if let Some(parts) = unpack_batch(&env.body) {
                for (tag, body) in parts {
                    self.handle_part(src, tag, body);
                }
            }
            // else: malformed batch — drop whole; retransmit recovers.
        } else {
            self.handle_part(src, env.tag, env.body);
        }
        self.flush_acks(src);
    }

    fn handle_part(&mut self, src: usize, tag: u32, body: Bytes) {
        if tag == TAG_ACK {
            if let Some((seq, _)) = unframe(&body) {
                if self.unacked.remove(&(src, seq)).is_none() {
                    // An ack for something no longer pending is itself a
                    // duplicate (re-ack of a retransmit, or a transport
                    // duplicate of the ack) — count it as suppressed.
                    self.stats.duplicates_suppressed += 1;
                }
            }
            return;
        }
        let Some((seq, body)) = unframe(&body) else {
            return; // unframeable garbage: drop (a retransmit will follow)
        };
        let expected = self.next_expected[src];
        if seq < expected {
            // Ack even duplicates — the previous ack may have been the
            // casualty of the fault plan.
            self.ack_stage[src].push(seq);
            self.stats.duplicates_suppressed += 1;
            return;
        }
        if seq >= expected + self.reorder_window {
            // Beyond the reorder window: drop *without* acking, so the
            // sender retransmits once the window has advanced. This bounds
            // reorder-buffer memory at `window - 1` entries per source.
            return;
        }
        self.ack_stage[src].push(seq);
        if seq > expected {
            if self.reorder[src].insert(seq, (tag, body)).is_some() {
                self.stats.duplicates_suppressed += 1;
            }
            return;
        }
        self.ready.push_back((src, tag, body));
        self.next_expected[src] += 1;
        // Drain any buffered successors the gap was holding back.
        while let Some((tag, body)) = self.reorder[src].remove(&self.next_expected[src]) {
            self.ready.push_back((src, tag, body));
            self.next_expected[src] += 1;
        }
    }

    fn flush_acks(&mut self, src: usize) {
        if self.ack_stage[src].is_empty() {
            return;
        }
        let seqs = std::mem::take(&mut self.ack_stage[src]);
        let parts: Vec<(u32, Bytes)> = seqs.iter().map(|&s| (TAG_ACK, ack_body(s))).collect();
        self.transmit(src, parts);
    }

    /// Handle every envelope already queued in the inbox, without
    /// blocking.
    pub fn drain_inbox(&mut self) {
        while let Some(env) = self.ep.try_recv() {
            self.handle(env);
        }
    }

    /// Next in-order message, if any: `(src_rank, tag, body)`.
    pub fn pop_ready(&mut self) -> Option<(usize, u32, Bytes)> {
        self.ready.pop_front()
    }

    /// Transmit staged sends, then retransmit every overdue
    /// unacknowledged message (exponential backoff per message),
    /// re-batched per destination in sequence order. Call periodically
    /// from the progress loop. Costs O(overdue + stale) heap pops, not
    /// O(unacked): see [`rto_scanned`](Self::rto_scanned).
    pub fn tick(&mut self) {
        self.flush_sends();
        let now = Instant::now();
        let mut overdue: Vec<(usize, u64)> = Vec::new();
        while let Some(&Reverse((due, dst, seq, attempts))) = self.deadlines.peek() {
            self.rto_scanned += 1;
            if due > now {
                break;
            }
            self.deadlines.pop();
            if self.unacked.get(&(dst, seq)).is_some_and(|p| p.attempts == attempts) {
                overdue.push((dst, seq));
            }
        }
        if overdue.is_empty() {
            return;
        }
        // Group per destination, ascending seq, so retransmit batches
        // preserve per-(src, dst) FIFO order too.
        overdue.sort_unstable();
        let mut i = 0;
        while i < overdue.len() {
            let dst = overdue[i].0;
            let mut parts = Vec::new();
            while i < overdue.len() && overdue[i].0 == dst {
                let (_, seq) = overdue[i];
                let pending = self.unacked.get_mut(&(dst, seq)).expect("still pending");
                pending.attempts += 1;
                let attempts = pending.attempts;
                self.deadlines.push(Reverse((now + rto(attempts), dst, seq, attempts)));
                self.stats.retransmits += 1;
                parts.push((pending.tag, pending.framed.clone()));
                i += 1;
            }
            self.transmit(dst, parts);
        }
    }

    /// Whether every send has been transmitted and acknowledged.
    pub fn all_acked(&self) -> bool {
        self.unacked.is_empty()
    }

    /// Two-phase shutdown, bounded by `stall`: (1) transmit staged sends
    /// and drain until all own sends are acked, (2) mark this rank
    /// finished and linger — re-acking retransmits — until every rank is
    /// finished. Neither phase polls: each blocks on the inbox until the
    /// next envelope (acks, retransmits, the finish wake) or the next
    /// retransmit deadline. Returns false if the deadline expired first
    /// (a peer died without marking itself finished); the caller's own
    /// results are complete either way. Dropping the endpoint without
    /// flushing (error paths) still marks the rank finished.
    pub fn flush(&mut self, stall: Duration) -> bool {
        self.flush_sends();
        let deadline = Instant::now() + stall;
        loop {
            // Acks that piled up while the rank was busy come first: only
            // what is still unacked after them can be overdue.
            self.drain_inbox();
            if self.all_acked() {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                self.ep.mark_finished();
                return false;
            }
            self.tick();
            let next_rto = self.deadlines.peek().map(|&Reverse((due, ..))| due);
            let wake = next_rto.map_or(deadline, |due| due.min(deadline));
            if let Some(env) = self.ep.recv_timeout(wake.saturating_duration_since(now)) {
                self.handle(env);
            }
        }
        self.ep.mark_finished();
        while !self.ep.all_finished() {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            // The last rank to finish wakes this wait (see
            // `RankComm::mark_finished`).
            if let Some(env) = self.ep.recv_timeout(deadline - now) {
                self.handle(env);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{FaultPlan, World};

    fn exchange(faults: FaultPlan, messages: u64) -> (RecoveryStats, RecoveryStats) {
        let mut w = World::with_faults(2, faults);
        // batch_limit 1 keeps one envelope per message so the fault plans
        // below line up with individual sends; coalescing has its own
        // tests.
        let mut eps: Vec<ReliableEndpoint> = w
            .endpoints()
            .into_iter()
            .map(|ep| ReliableEndpoint::new(ep).with_batch_limit(1))
            .collect();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let stats = std::thread::scope(|s| {
            let ha = s.spawn(move || {
                let mut a = a;
                for i in 0..messages {
                    a.send(1, 7, Bytes::from(i.to_le_bytes().to_vec()));
                }
                assert!(a.flush(Duration::from_secs(5)), "rank 0 flush timed out");
                a.stats
            });
            let hb = s.spawn(move || {
                let mut b = b;
                let mut got = Vec::new();
                let deadline = Instant::now() + Duration::from_secs(5);
                while (got.len() as u64) < messages {
                    assert!(Instant::now() < deadline, "receiver stalled at {got:?}");
                    if let Some(env) = b.ep.recv_timeout(Duration::from_millis(2)) {
                        b.handle(env);
                    }
                    while let Some((src, tag, body)) = b.pop_ready() {
                        assert_eq!((src, tag), (0, 7));
                        got.push(u64::from_le_bytes(body.as_ref().try_into().unwrap()));
                    }
                }
                // Exactly-once, in order, despite the fault plan.
                assert_eq!(got, (0..messages).collect::<Vec<_>>());
                assert!(b.flush(Duration::from_secs(5)), "rank 1 flush timed out");
                b.stats
            });
            (ha.join().unwrap(), hb.join().unwrap())
        });
        stats
    }

    #[test]
    fn clean_link_needs_no_recovery() {
        let (a, b) = exchange(FaultPlan::none(), 8);
        assert!(a.is_clean(), "{a:?}");
        assert!(b.is_clean(), "{b:?}");
    }

    #[test]
    fn dropped_data_is_retransmitted() {
        let faults = FaultPlan { drop: vec![(0, 1, 0)], ..FaultPlan::none() };
        let (a, _b) = exchange(faults, 4);
        assert!(a.retransmits > 0, "{a:?}");
    }

    #[test]
    fn duplicated_data_is_suppressed() {
        let faults = FaultPlan { duplicate: vec![(0, 1, 1)], ..FaultPlan::none() };
        let (_a, b) = exchange(faults, 4);
        assert!(b.duplicates_suppressed > 0, "{b:?}");
    }

    #[test]
    fn dropped_ack_causes_retransmit_and_suppression() {
        // Rank 1's first send is its ack envelope for rank 0's first
        // flush: dropping it forces a data retransmit (rank 0) and a
        // duplicate suppression (rank 1).
        let faults = FaultPlan { drop: vec![(1, 0, 0)], ..FaultPlan::none() };
        let (a, b) = exchange(faults, 4);
        assert!(a.retransmits > 0, "{a:?}");
        assert!(b.duplicates_suppressed > 0, "{b:?}");
    }

    #[test]
    fn delayed_data_is_reordered_back() {
        let faults = FaultPlan {
            delay: vec![(0, 1, 0, Duration::from_millis(30))],
            ..FaultPlan::none()
        };
        // exchange() already asserts strict delivery order.
        let (_a, b) = exchange(faults, 4);
        // The held message either arrives late (buffered successors drain)
        // or is beaten by its own retransmit (suppressed); both are fine —
        // the order assertion inside exchange() is the real check.
        let _ = b;
    }

    #[test]
    fn storm_of_faults_converges() {
        let faults = FaultPlan {
            drop: vec![(0, 1, 1), (1, 0, 2)],
            duplicate: vec![(0, 1, 3), (1, 0, 0)],
            delay: vec![(0, 1, 5, Duration::from_millis(10))],
            ..FaultPlan::none()
        };
        let (a, b) = exchange(faults, 12);
        assert!(a.retransmits + b.retransmits > 0);
    }

    #[test]
    fn staged_sends_coalesce_into_one_envelope() {
        let mut w = World::new(2);
        let mut eps: Vec<ReliableEndpoint> =
            w.endpoints().into_iter().map(ReliableEndpoint::new).collect();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for i in 0..5u8 {
            a.send(1, 7, Bytes::from(vec![i]));
        }
        assert_eq!(w.delivered(), 0, "staged sends are not yet on the wire");
        a.flush_sends();
        assert_eq!(w.delivered(), 1, "five sends coalesce into one envelope");
        assert_eq!((a.envelopes_sent, a.batches_sent), (1, 1));
        let env = b.ep.recv_timeout(Duration::from_millis(200)).unwrap();
        assert_eq!(env.tag, TAG_BATCH);
        b.handle(env);
        for i in 0..5u8 {
            let (src, tag, body) = b.pop_ready().unwrap();
            assert_eq!((src, tag, body.as_ref()), (0, 7, &[i][..]));
        }
        // The receiver's five acks coalesced into one reply envelope too.
        assert_eq!((b.envelopes_sent, b.batches_sent), (1, 1));
        let acks = a.ep.recv_timeout(Duration::from_millis(200)).unwrap();
        a.handle(acks);
        assert!(a.all_acked());
    }

    #[test]
    fn batch_limit_forces_early_flush() {
        let mut w = World::new(2);
        let mut eps = w.endpoints();
        let _b = eps.pop().unwrap();
        let mut a = ReliableEndpoint::new(eps.pop().unwrap()).with_batch_limit(2);
        a.send(1, 7, Bytes::from_static(b"x"));
        assert_eq!(w.delivered(), 0);
        a.send(1, 7, Bytes::from_static(b"y"));
        assert_eq!(w.delivered(), 1, "hitting the limit flushes the pair");
        a.send(1, 7, Bytes::from_static(b"z"));
        a.flush_sends();
        assert_eq!(w.delivered(), 2, "single leftover goes out unbatched");
        assert_eq!((a.envelopes_sent, a.batches_sent), (2, 1));
    }

    #[test]
    fn out_of_window_arrivals_are_dropped_unacked() {
        let mut w = World::new(2);
        let mut eps = w.endpoints();
        let mut b = ReliableEndpoint::new(eps.pop().unwrap()).with_reorder_window(2);
        let _a = eps.pop().unwrap();
        let part = |seq: u64| Envelope {
            src: 0,
            tag: 7,
            body: frame(seq, &Bytes::from_static(b"p")),
        };
        // seq 3 is >= expected(0) + window(2): dropped, no ack, no state.
        b.handle(part(3));
        assert!(b.reorder[0].is_empty());
        assert_eq!(b.envelopes_sent, 0, "no ack for an out-of-window arrival");
        // seq 1 is in-window: buffered and acked.
        b.handle(part(1));
        assert_eq!(b.reorder[0].len(), 1);
        assert_eq!(b.envelopes_sent, 1);
        // seq 0 fills the gap: both deliver, window advances.
        b.handle(part(0));
        assert_eq!(b.pop_ready().map(|(_, _, body)| body.len()), Some(1));
        assert!(b.pop_ready().is_some());
        assert!(b.reorder[0].is_empty());
        // seq 3 is now in-window (expected 2, window 2) and is accepted.
        b.handle(part(3));
        assert_eq!(b.reorder[0].len(), 1);
    }

    /// Hand every envelope queued for `ep` to it; returns how many.
    fn drain(ep: &mut ReliableEndpoint) -> usize {
        let mut n = 0;
        while let Some(env) = ep.ep.try_recv() {
            ep.handle(env);
            n += 1;
        }
        n
    }

    #[test]
    fn queued_acks_are_read_before_anything_is_retransmitted() {
        let mut w = World::new(2);
        let mut eps: Vec<ReliableEndpoint> =
            w.endpoints().into_iter().map(ReliableEndpoint::new).collect();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for i in 0..500u64 {
            a.send(1, 7, Bytes::from(i.to_le_bytes().to_vec()));
        }
        a.flush_sends();
        assert!(drain(&mut b) > 0);
        b.ep.mark_finished();
        // Every ack now sits unread in a's inbox, long past its RTO.
        std::thread::sleep(2 * BASE_RTO);
        assert!(a.flush(Duration::from_secs(1)));
        assert_eq!(a.stats.retransmits, 0, "{:?}", a.stats);
    }

    #[test]
    fn tick_examines_only_due_deadlines() {
        let mut w = World::new(2);
        let mut eps = w.endpoints();
        let _b = eps.pop().unwrap();
        // Everything stays staged until the tick transmits it, so no
        // deadline can be due when the tick scans.
        let mut a = ReliableEndpoint::new(eps.pop().unwrap()).with_batch_limit(usize::MAX);
        for i in 0..1000u64 {
            a.send(1, 7, Bytes::from(i.to_le_bytes().to_vec()));
        }
        a.tick();
        assert_eq!(a.rto_scanned, 1, "1000 outstanding, none due: one peek");
        assert_eq!(a.stats.retransmits, 0);
    }

    #[test]
    fn tick_pops_exactly_the_overdue_and_stale_deadlines() {
        // Rank 0's envelope #3 is lost; batch_limit 1 gives one deadline
        // per message.
        let faults = FaultPlan { drop: vec![(0, 1, 3)], ..FaultPlan::none() };
        let mut w = World::with_faults(2, faults);
        let mut eps: Vec<ReliableEndpoint> = w
            .endpoints()
            .into_iter()
            .map(|ep| ReliableEndpoint::new(ep).with_batch_limit(1))
            .collect();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let sent = 10u64;
        for i in 0..sent {
            a.send(1, 7, Bytes::from(i.to_le_bytes().to_vec()));
        }
        assert_eq!(drain(&mut b), sent as usize - 1);
        assert_eq!(drain(&mut a), sent as usize - 1, "one ack envelope per arrival");
        std::thread::sleep(BASE_RTO + Duration::from_millis(5));
        a.tick();
        // Every deadline is due: 1 overdue (seq 3) + 9 stale (acked).
        assert_eq!((a.rto_scanned, a.stats.retransmits), (sent, 1));
        // The retransmit's own deadline is the only entry left, not due.
        a.tick();
        assert_eq!(a.rto_scanned, sent + 1);
        drain(&mut b);
        drain(&mut a);
        assert!(a.all_acked());
        let ready: Vec<u64> = std::iter::from_fn(|| b.pop_ready())
            .map(|(_, _, body)| u64::from_le_bytes(body.as_ref().try_into().unwrap()))
            .collect();
        assert_eq!(ready, (0..sent).collect::<Vec<_>>());
    }

    #[test]
    fn wake_envelopes_are_ignored() {
        let mut w = World::new(2);
        let mut eps = w.endpoints();
        let mut b = ReliableEndpoint::new(eps.pop().unwrap());
        let a = eps.pop().unwrap();
        b.ep.mark_finished();
        a.mark_finished();
        let wake = b.ep.try_recv().expect("the last finisher wakes its peer");
        assert_eq!(wake.tag, TAG_WAKE);
        b.handle(wake);
        assert!(b.pop_ready().is_none());
        assert_eq!(b.envelopes_sent, 0, "no ack for a wake");
        assert_eq!(b.stats, RecoveryStats::default());
    }

    #[test]
    fn random_fault_plans_preserve_fifo_exactly_once() {
        // The per-(src, dst) FIFO property test from the issue: both
        // directions at once, under randomized drop/duplicate/delay
        // plans, with batching in the path (the sender flushes every few
        // sends so batches of varying width hit the wire).
        for seed in 0..12u64 {
            let faults = FaultPlan::random(seed, 2, &[]).message_faults();
            let mut w = World::with_faults(2, faults);
            let eps: Vec<ReliableEndpoint> =
                w.endpoints().into_iter().map(ReliableEndpoint::new).collect();
            std::thread::scope(|s| {
                for ep in eps {
                    s.spawn(move || {
                        let mut ep = ep;
                        let me = ep.rank();
                        let peer = 1 - me;
                        let messages = 10u64;
                        let mut got = Vec::new();
                        let mut sent = 0u64;
                        let deadline = Instant::now() + Duration::from_secs(10);
                        while (got.len() as u64) < messages {
                            assert!(
                                Instant::now() < deadline,
                                "rank {me} stalled at {got:?} (seed {seed})"
                            );
                            // Send in bursts of three so batches form.
                            for _ in 0..3 {
                                if sent < messages {
                                    ep.send(peer, 7, Bytes::from(sent.to_le_bytes().to_vec()));
                                    sent += 1;
                                }
                            }
                            ep.tick();
                            if let Some(env) = ep.ep.recv_timeout(Duration::from_millis(2)) {
                                ep.handle(env);
                            }
                            while let Some((src, tag, body)) = ep.pop_ready() {
                                assert_eq!((src, tag), (peer, 7));
                                got.push(u64::from_le_bytes(
                                    body.as_ref().try_into().unwrap(),
                                ));
                            }
                        }
                        assert_eq!(
                            got,
                            (0..messages).collect::<Vec<_>>(),
                            "rank {me} FIFO violated (seed {seed})"
                        );
                        assert!(ep.flush(Duration::from_secs(10)), "rank {me} flush (seed {seed})");
                    });
                }
            });
        }
    }
}
