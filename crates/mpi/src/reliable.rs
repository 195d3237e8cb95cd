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
//! * every data message carries a per-destination logical sequence
//!   number, written in place into the [`SEQ_ROOM`] bytes its sender
//!   reserved at the front of the message's buffer, and that buffer is
//!   retained (not copied) until the receiver acknowledges it; the
//!   receiver strips the number with an O(1) slice;
//! * sends are *staged* per destination and coalesced into one
//!   [`TAG_BATCH`] envelope per [`flush_sends`] (or when the
//!   [`batch_limit`](ReliableEndpoint::with_batch_limit) is reached), so a
//!   task fanning out many messages costs one channel operation per
//!   destination instead of one per message — a single-part flush skips
//!   the batch header entirely. A batch consumes *one* fault sequence
//!   number: an injected fault hits the whole batch and the protocol
//!   recovers every part together. Per-(src, dst) FIFO order is preserved
//!   because parts are packed in send order and unpacked in order;
//! * unacknowledged messages wait in one FIFO per destination, in
//!   sequence order: sequence numbers are dense per destination, so an
//!   ack finds its message by one subtraction from the FIFO's base, with
//!   no hashing. They are retransmitted on [`tick`] with
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
//! Every wait of the MPI backends is [`wait`]: block on the inbox until
//! the next envelope or the next live retransmit deadline. The RTO is the
//! backends' only timer; a stuck run is decided from exact events
//! ([`RankComm::hold`], [`RankComm::failed`]) that wake every rank.
//!
//! Shutdown is the subtle part: a rank that finished its own tasks must
//! keep servicing acks until *every* rank is done, otherwise a peer's
//! retransmit would land in a torn-down inbox forever. [`flush`] runs the
//! two-phase barrier: transmit anything still staged, wait until all own
//! sends are acked, declare finished ([`RankComm::mark_finished`]), then
//! linger — re-acking whatever still arrives — until the whole world is
//! finished. The drain reads every queued envelope (the acks that piled
//! up while the rank was busy) before it looks for overdue messages; the
//! linger wakes on the control envelope the last rank to finish puts in
//! every peer's inbox.
//!
//! [`tick`]: ReliableEndpoint::tick
//! [`flush`]: ReliableEndpoint::flush
//! [`flush_sends`]: ReliableEndpoint::flush_sends
//! [`wait`]: ReliableEndpoint::wait

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::time::{Duration, Instant};

use babelflow_core::channel::Receiver;
use babelflow_core::{Bytes, BytesMut, RecoveryStats};

use crate::comm::{pack_batch, unpack_batch, Envelope, RankComm, TAG_BATCH, TAG_WAKE};

/// Bytes at the front of every frame handed to
/// [`ReliableEndpoint::send`], reserved for its sequence number.
pub const SEQ_ROOM: usize = 8;

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

/// One destination's sent and unacknowledged messages, in sequence
/// order: entry `i` of `fifo` is sequence number `acked_below + i`, `None`
/// once it was acked ahead of an older one. Acks retire the front, so the
/// front entry is always unacked and an empty FIFO means all are acked.
#[derive(Default)]
struct Unacked {
    /// Every sequence number below this one is acked.
    acked_below: u64,
    fifo: VecDeque<Option<Pending>>,
}

impl Unacked {
    /// The sequence number the next send to this destination takes.
    fn next_seq(&self) -> u64 {
        self.acked_below + self.fifo.len() as u64
    }

    /// The entry of the message with sequence number `seq`, if it was
    /// sent and is not below the acked front.
    fn entry(&mut self, seq: u64) -> Option<&mut Option<Pending>> {
        let i = usize::try_from(seq.checked_sub(self.acked_below)?).ok()?;
        self.fifo.get_mut(i)
    }

    /// The message with sequence number `seq`, if it is unacked.
    fn get_mut(&mut self, seq: u64) -> Option<&mut Pending> {
        self.entry(seq)?.as_mut()
    }

    /// Retire `seq`; `false` if it is not unacked (acked before, or never
    /// sent).
    fn ack(&mut self, seq: u64) -> bool {
        if self.entry(seq).and_then(Option::take).is_none() {
            return false;
        }
        while let Some(None) = self.fifo.front() {
            self.fifo.pop_front();
            self.acked_below += 1;
        }
        true
    }
}

/// Retransmit timeout after `attempts` retransmissions.
fn rto(attempts: u32) -> Duration {
    BASE_RTO * 2u32.saturating_pow(attempts.min(6))
}

/// A retransmit deadline: (due, dst, seq, attempts). Wrapped in
/// [`Reverse`] it orders a [`BinaryHeap`] earliest-first. An entry is
/// stale once its message is acked or retransmitted again (its `attempts`
/// no longer matches); stale entries are dropped when they reach the
/// head.
type Deadline = Reverse<(Instant, usize, u64, u32)>;

/// A [`RankComm`] wrapped with the ack/retransmit protocol.
///
/// All sends and receives of *data* must go through this wrapper once any
/// rank uses it — the framing adds a sequence-number header the raw
/// endpoint knows nothing about.
pub struct ReliableEndpoint {
    ep: RankComm,
    /// Sent and not yet acked, per destination rank.
    unacked: Vec<Unacked>,
    /// One deadline per transmission of an `unacked` message, earliest
    /// first; lazily deleted (see [`Deadline`]).
    deadlines: BinaryHeap<Deadline>,
    /// Staged, not-yet-transmitted sends per destination: (seq, tag).
    /// The framed bytes live in `unacked`; staging holds only the key.
    outbox: Vec<Vec<(u64, u32)>>,
    /// Acks staged per source, as `(TAG_ACK, seq)` parts, flushed as one
    /// envelope after each incoming envelope is fully processed.
    ack_stage: Vec<Vec<(u32, [u8; SEQ_ROOM])>>,
    /// The parts of the envelope being transmitted; kept, like
    /// `outbox` and `ack_stage`, so a flush allocates no list.
    frames: Vec<(u32, Bytes)>,
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
    /// While a thread blocks in a [`Sleep`]: the deadline it wakes at on
    /// its own (`None`: only an envelope wakes it).
    sleeping: Option<Option<Instant>>,
}

/// A rank's wait for its next event (see [`ReliableEndpoint::sleep`]).
pub struct Sleep {
    until: Option<Instant>,
}

impl Sleep {
    /// Block on `inbox`, the rank's own (a clone of
    /// [`RankComm::inbox`], taken once per rank), until the next envelope
    /// arrives (`Some`) or the deadline passes (`None`).
    pub fn until_event(self, inbox: &Receiver<Envelope>) -> Option<Envelope> {
        match self.until {
            Some(due) => inbox.recv_timeout(due.saturating_duration_since(Instant::now())).ok(),
            None => inbox.recv().ok(),
        }
    }
}

/// Split a frame (or an ack body) into its sequence number and the
/// message after it, an O(1) slice.
fn unframe(body: &Bytes) -> Option<(u64, Bytes)> {
    let seq = u64::from_le_bytes(body.get(..SEQ_ROOM)?.try_into().expect("8 bytes"));
    Some((seq, body.slice(SEQ_ROOM..)))
}

impl ReliableEndpoint {
    /// Wrap a raw endpoint.
    pub fn new(ep: RankComm) -> Self {
        let n = ep.size();
        ReliableEndpoint {
            ep,
            unacked: (0..n).map(|_| Unacked::default()).collect(),
            deadlines: BinaryHeap::new(),
            outbox: vec![Vec::new(); n],
            ack_stage: vec![Vec::new(); n],
            frames: Vec::new(),
            batch_limit: DEFAULT_BATCH_LIMIT,
            next_expected: vec![0; n],
            reorder: (0..n).map(|_| BTreeMap::new()).collect(),
            reorder_window: DEFAULT_REORDER_WINDOW,
            ready: VecDeque::new(),
            stats: RecoveryStats::default(),
            envelopes_sent: 0,
            batches_sent: 0,
            rto_scanned: 0,
            sleeping: None,
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

    /// The raw endpoint, for the world's work count and failure flag.
    pub fn comm(&self) -> &RankComm {
        &self.ep
    }

    /// Put a [`TAG_WAKE`] envelope in this rank's own inbox (see
    /// [`RankComm::wake`]).
    pub fn wake(&self) {
        self.ep.wake();
    }

    /// Send `frame` to `dst` reliably: write the next sequence number
    /// into its first [`SEQ_ROOM`] bytes, retain it (frozen in place, not
    /// copied) for retransmission, and stage it. The receiver gets the
    /// bytes after the room. Nothing hits the wire until
    /// [`flush_sends`](Self::flush_sends) (called by [`tick`](Self::tick)
    /// and [`flush`](Self::flush)) or the batch limit forces a flush of
    /// this destination.
    ///
    /// # Panics
    /// If `frame` is shorter than [`SEQ_ROOM`].
    pub fn send(&mut self, dst: usize, tag: u32, mut frame: BytesMut) {
        let unacked = &mut self.unacked[dst];
        let seq = unacked.next_seq();
        frame[..SEQ_ROOM].copy_from_slice(&seq.to_le_bytes());
        unacked.fifo.push_back(Some(Pending { tag, framed: frame.freeze(), attempts: 0 }));
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
        // The RTO clock starts at actual transmission, not at staging time.
        let due = Instant::now() + rto(0);
        // A thread sleeping past this deadline (another thread sends while
        // it sleeps) must wake up to keep it.
        if self.sleeping.is_some_and(|until| until.is_none_or(|t| due < t)) {
            self.sleeping = None;
            self.ep.wake();
        }
        let mut frames = std::mem::take(&mut self.frames);
        for (seq, tag) in self.outbox[dst].drain(..) {
            if let Some(pending) = self.unacked[dst].get_mut(seq) {
                self.deadlines.push(Reverse((due, dst, seq, 0)));
                frames.push((tag, pending.framed.clone()));
            }
        }
        self.transmit(dst, &mut frames);
        self.frames = frames;
    }

    /// Issue one channel operation carrying `parts` to `dst`, leaving
    /// `parts` empty: a plain envelope for a single part (a retained frame
    /// goes as is), a [`TAG_BATCH`] envelope otherwise.
    fn transmit<B: AsRef<[u8]> + Into<Bytes>>(&mut self, dst: usize, parts: &mut Vec<(u32, B)>) {
        match parts.len() {
            0 => {}
            1 => {
                let (tag, body) = parts.pop().expect("one part");
                self.ep.isend(dst, tag, body.into());
                self.envelopes_sent += 1;
            }
            _ => {
                let packed = pack_batch(parts);
                parts.clear();
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
                if !self.unacked[src].ack(seq) {
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
            self.ack_stage[src].push((TAG_ACK, seq.to_le_bytes()));
            self.stats.duplicates_suppressed += 1;
            return;
        }
        if seq >= expected + self.reorder_window {
            // Beyond the reorder window: drop *without* acking, so the
            // sender retransmits once the window has advanced. This bounds
            // reorder-buffer memory at `window - 1` entries per source.
            return;
        }
        self.ack_stage[src].push((TAG_ACK, seq.to_le_bytes()));
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
        let mut acks = std::mem::take(&mut self.ack_stage[src]);
        self.transmit(src, &mut acks);
        self.ack_stage[src] = acks;
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
    /// re-batched per destination in sequence order, and drop the stale
    /// deadlines in front of the first live one, so the heap's head is
    /// the next retransmit. [`wait`](Self::wait) calls it. Costs
    /// O(overdue + stale) heap pops, not O(unacked): see
    /// [`rto_scanned`](Self::rto_scanned).
    pub fn tick(&mut self) {
        self.flush_sends();
        let now = Instant::now();
        let mut overdue: Vec<(usize, u64)> = Vec::new();
        while let Some(&Reverse((due, dst, seq, attempts))) = self.deadlines.peek() {
            self.rto_scanned += 1;
            let live = self.unacked[dst].get_mut(seq).is_some_and(|p| p.attempts == attempts);
            if live && due > now {
                break;
            }
            self.deadlines.pop();
            if live {
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
            let mut parts = std::mem::take(&mut self.frames);
            while i < overdue.len() && overdue[i].0 == dst {
                let (_, seq) = overdue[i];
                let pending = self.unacked[dst].get_mut(seq).expect("still pending");
                pending.attempts += 1;
                let attempts = pending.attempts;
                self.deadlines.push(Reverse((now + rto(attempts), dst, seq, attempts)));
                self.stats.retransmits += 1;
                parts.push((pending.tag, pending.framed.clone()));
                i += 1;
            }
            self.transmit(dst, &mut parts);
            self.frames = parts;
        }
    }

    /// Whether every send has been transmitted and acknowledged.
    pub fn all_acked(&self) -> bool {
        self.unacked.iter().all(|u| u.fifo.is_empty())
    }

    /// Wait for the next event: transmit staged sends, retransmit what is
    /// overdue, block until the next envelope or live retransmit deadline
    /// (with nothing unacked, until the next envelope), and handle every
    /// envelope queued by then.
    pub fn wait(&mut self) {
        let env = self.sleep().until_event(self.ep.inbox());
        self.woke(env);
    }

    /// The first half of [`wait`](Self::wait), for a rank whose endpoint
    /// sits behind a lock: the sleeper blocks with the lock released, and
    /// until [`woke`](Self::woke) a send that sets an earlier deadline
    /// wakes it.
    pub fn sleep(&mut self) -> Sleep {
        self.tick();
        let until = self.deadlines.peek().map(|&Reverse((due, ..))| due);
        self.sleeping = Some(until);
        Sleep { until }
    }

    /// The second half of [`wait`](Self::wait): handle what the
    /// [`Sleep`] returned and everything queued behind it.
    pub fn woke(&mut self, env: Option<Envelope>) {
        self.sleeping = None;
        if let Some(env) = env {
            self.handle(env);
        }
        self.drain_inbox();
    }

    /// Two-phase shutdown: (1) wait until all own sends are acked, (2)
    /// mark this rank finished and linger — re-acking retransmits — until
    /// every rank is finished. Both end early if a peer
    /// [`failed`](RankComm::failed) or data arrives for this finished rank
    /// ([`pop_ready`](Self::pop_ready) has it). Returns whether the whole
    /// world finished.
    pub fn flush(&mut self) -> bool {
        // Acks that piled up while the rank was busy come first: only
        // what is still unacked after them can be overdue.
        self.drain_inbox();
        let stop = |rel: &Self| rel.ep.failed().is_some() || !rel.ready.is_empty();
        while !self.all_acked() && !stop(self) {
            self.wait();
        }
        if stop(self) {
            return false;
        }
        self.ep.mark_finished();
        // The last rank to finish wakes this wait (see
        // `RankComm::mark_finished`).
        while !self.ep.all_finished() && !stop(self) {
            self.wait();
        }
        self.ep.all_finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{FaultPlan, World};
    use crate::wire::{DataflowMsg, TAG_DATAFLOW};
    use babelflow_core::{Blob, Payload, TaskId};

    /// A frame carrying `data`, with room for the sequence number.
    fn with_room(data: &[u8]) -> BytesMut {
        let mut f = BytesMut::from(vec![0; SEQ_ROOM]);
        f.extend_from_slice(data);
        f
    }

    /// Whether `inner`'s bytes lie inside `outer`'s.
    fn within(inner: &[u8], outer: (*const u8, usize)) -> bool {
        let (base, at) = (outer.0 as usize, inner.as_ptr() as usize);
        at >= base && at + inner.len() <= base + outer.1
    }

    #[test]
    fn a_remote_payload_is_read_in_the_buffer_it_was_serialized_into() {
        let mut w = World::new(2);
        let mut eps: Vec<ReliableEndpoint> =
            w.endpoints().into_iter().map(ReliableEndpoint::new).collect();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let payload = Payload::wrap(Blob((0..=255).collect()));
        let sent = DataflowMsg::encode_frame((3, 1), TaskId(4), &payload);
        let allocation = (sent.as_ptr(), sent.len());
        a.send(1, TAG_DATAFLOW, sent);
        a.flush_sends();
        b.handle(b.ep.try_recv().expect("one envelope"));
        let (_, tag, body) = b.pop_ready().expect("delivered");
        let msg = DataflowMsg::decode(&body).expect("well formed");
        assert_eq!((tag, msg.dst, msg.src_task), (TAG_DATAFLOW, (3, 1), TaskId(4)));
        assert_eq!(msg.payload, payload.to_buffer());
        assert!(within(&msg.payload, allocation), "the payload was copied on its way");
    }

    #[test]
    fn a_batch_copies_each_part_once() {
        let mut w = World::new(2);
        let mut eps: Vec<ReliableEndpoint> =
            w.endpoints().into_iter().map(ReliableEndpoint::new).collect();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let parts: Vec<Vec<u8>> = (1..=3u8).map(|i| vec![i; 100 * i as usize]).collect();
        for p in &parts {
            a.send(1, 7, with_room(p));
        }
        a.flush_sends();
        let env = b.ep.try_recv().expect("one envelope");
        assert_eq!(env.tag, TAG_BATCH);
        // The batch is exactly its header plus one copy of each frame.
        let framed: usize = parts.iter().map(|p| SEQ_ROOM + p.len()).sum();
        assert_eq!(env.body.len(), 4 + 8 * parts.len() + framed);
        let batch = (env.body.as_ptr(), env.body.len());
        b.handle(env);
        for p in &parts {
            let (_, _, body) = b.pop_ready().expect("delivered");
            assert_eq!(body.as_ref(), p.as_slice());
            assert!(within(&body, batch), "a part was copied out of the batch");
        }
        // The sender still holds its own frames for retransmission.
        assert_eq!(a.unacked[1].fifo.len(), parts.len());
    }

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
                    a.send(1, 7, with_room(&i.to_le_bytes()));
                }
                assert!(a.flush(), "rank 0 flush failed");
                a.stats
            });
            let hb = s.spawn(move || {
                let mut b = b;
                let mut got = Vec::new();
                let deadline = Instant::now() + Duration::from_secs(5);
                while (got.len() as u64) < messages {
                    assert!(Instant::now() < deadline, "receiver stalled at {got:?}");
                    if let Ok(env) = b.ep.inbox().recv_timeout(Duration::from_millis(2)) {
                        b.handle(env);
                    }
                    while let Some((src, tag, body)) = b.pop_ready() {
                        assert_eq!((src, tag), (0, 7));
                        got.push(u64::from_le_bytes(body.as_ref().try_into().unwrap()));
                    }
                }
                // Exactly-once, in order, despite the fault plan.
                assert_eq!(got, (0..messages).collect::<Vec<_>>());
                assert!(b.flush(), "rank 1 flush failed");
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
            a.send(1, 7, with_room(&[i]));
        }
        assert_eq!(w.delivered(), 0, "staged sends are not yet on the wire");
        a.flush_sends();
        assert_eq!(w.delivered(), 1, "five sends coalesce into one envelope");
        assert_eq!((a.envelopes_sent, a.batches_sent), (1, 1));
        let env = b.ep.recv().unwrap();
        assert_eq!(env.tag, TAG_BATCH);
        b.handle(env);
        for i in 0..5u8 {
            let (src, tag, body) = b.pop_ready().unwrap();
            assert_eq!((src, tag, body.as_ref()), (0, 7, &[i][..]));
        }
        // The receiver's five acks coalesced into one reply envelope too.
        assert_eq!((b.envelopes_sent, b.batches_sent), (1, 1));
        let acks = a.ep.recv().unwrap();
        a.handle(acks);
        assert!(a.all_acked());
    }

    #[test]
    fn batch_limit_forces_early_flush() {
        let mut w = World::new(2);
        let mut eps = w.endpoints();
        let _b = eps.pop().unwrap();
        let mut a = ReliableEndpoint::new(eps.pop().unwrap()).with_batch_limit(2);
        a.send(1, 7, with_room(b"x"));
        assert_eq!(w.delivered(), 0);
        a.send(1, 7, with_room(b"y"));
        assert_eq!(w.delivered(), 1, "hitting the limit flushes the pair");
        a.send(1, 7, with_room(b"z"));
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
        let part = |seq: u64| {
            let mut body = with_room(b"p");
            body[..SEQ_ROOM].copy_from_slice(&seq.to_le_bytes());
            Envelope { src: 0, tag: 7, body: body.freeze() }
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
            a.send(1, 7, with_room(&i.to_le_bytes()));
        }
        a.flush_sends();
        assert!(drain(&mut b) > 0);
        b.ep.mark_finished();
        // Every ack now sits unread in a's inbox, long past its RTO.
        std::thread::sleep(2 * BASE_RTO);
        assert!(a.flush());
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
            a.send(1, 7, with_room(&i.to_le_bytes()));
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
            a.send(1, 7, with_room(&i.to_le_bytes()));
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
    fn acks_in_any_order_retire_the_unacked_fifo_from_its_front() {
        let mut w = World::new(2);
        let mut eps = w.endpoints();
        let b = eps.pop().unwrap();
        let mut a = ReliableEndpoint::new(eps.pop().unwrap());
        for i in 0..5u8 {
            a.send(1, 7, with_room(&[i]));
        }
        a.flush_sends();
        assert_eq!(b.try_recv().expect("one batch").tag, TAG_BATCH);
        let ack = |seq: u64| Envelope {
            src: 1,
            tag: TAG_ACK,
            body: Bytes::copy_from_slice(&seq.to_le_bytes()),
        };
        let state = |a: &ReliableEndpoint| (a.unacked[1].acked_below, a.unacked[1].fifo.len());
        // Acks ahead of the front leave holes; the front stays.
        a.handle(ack(2));
        a.handle(ack(4));
        assert_eq!(state(&a), (0, 5));
        // Acking the front retires it and nothing behind it still unacked.
        a.handle(ack(0));
        assert_eq!(state(&a), (1, 4));
        assert!(!a.all_acked());
        // A second ack of 2, an ack below the base and one for a message
        // never sent are duplicates.
        a.handle(ack(2));
        a.handle(ack(0));
        a.handle(ack(9));
        assert_eq!(a.stats.duplicates_suppressed, 3);
        // Past the RTO, exactly the two unacked messages go again, in one
        // batch, in sequence order.
        std::thread::sleep(BASE_RTO + Duration::from_millis(5));
        a.tick();
        assert_eq!(a.stats.retransmits, 2);
        let resent = b.try_recv().expect("one retransmit batch");
        let seqs: Vec<u64> = unpack_batch(&resent.body)
            .expect("a batch")
            .iter()
            .map(|(_, framed)| unframe(framed).expect("framed").0)
            .collect();
        assert_eq!(seqs, [1, 3]);
        assert!(b.try_recv().is_none());
        a.handle(ack(3));
        assert_eq!(state(&a), (1, 4));
        a.handle(ack(1));
        assert_eq!(state(&a), (5, 0));
        assert!(a.all_acked());
        // The next send takes the next sequence number.
        a.send(1, 7, with_room(b"z"));
        a.flush_sends();
        let next = b.try_recv().expect("sent");
        assert_eq!(unframe(&next.body).expect("framed").0, 5);
        assert!(!a.all_acked());
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
                                    ep.send(peer, 7, with_room(&sent.to_le_bytes()));
                                    sent += 1;
                                }
                            }
                            ep.tick();
                            if let Ok(env) = ep.ep.inbox().recv_timeout(Duration::from_millis(2)) {
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
                        assert!(ep.flush(), "rank {me} flush (seed {seed})");
                    });
                }
            });
        }
    }
}
