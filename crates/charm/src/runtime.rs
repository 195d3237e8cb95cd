//! A Charm++-like chare-array runtime.
//!
//! Charm++ programs are collections of *chares* — "migratable objects that
//! represent the basic unit of parallel computation" — addressed by array
//! index, executing entry methods in response to messages, scheduled
//! message-driven on processing elements (PEs). Rust has no Charm++
//! binding, so this module builds that execution model from threads and
//! channels:
//!
//! * a **chare array** indexed by `u64`, placed statically: chare `idx`
//!   lives on PE `idx % pes` for the whole run;
//! * **PEs** (threads) running a message-driven scheduler loop;
//! * **remote method invocation**: `ctx.send(idx, …)` routes a message to
//!   the chare's PE;
//! * **quiescence detection by counting**: a message is in flight from its
//!   send until its entry method returns, so the run ends the moment that
//!   count reaches zero — complete if every chare retired, stalled (with
//!   the exact set of unretired chares) otherwise.
//!
//! Charm++'s periodic measurement-based load balancer (the paper's
//! experiments "use periodic load balance") does not run on these threads:
//! a wall-clock balancer would make placement, and with it every message
//! counter, depend on timing. `babelflow-sim` models it deterministically
//! (`LbModel`) for the load-balancing figure.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use babelflow_core::sync::{Condvar, Mutex, WorkPool};
use babelflow_core::trace::{noop_sink, now_ns, SpanKind, TraceEvent, TraceSink, HOST_RANK};
use babelflow_core::{Payload, TaskId};

/// A message-driven parallel object hosted by the runtime.
pub trait Chare: Send {
    /// Handle one message. Returns `true` when the chare has completed all
    /// its work and should retire (one-shot dataflow tasks retire after
    /// executing).
    fn on_message(&mut self, src: TaskId, payload: Payload, ctx: &mut ChareCtx<'_>) -> bool;
}

/// An entry-method invocation queued on the PE hosting chare `idx`.
struct Delivery {
    idx: u64,
    src: TaskId,
    payload: Payload,
    /// [`now_ns`] at send time (0 when tracing is off); the receiving
    /// PE turns the gap until execution into a queue-wait span.
    sent_ns: u64,
}

/// Counters the runtime reports after a run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CharmStats {
    /// Entry-method messages delivered on the sending PE.
    pub local_messages: u64,
    /// Entry-method messages that crossed PEs.
    pub cross_pe_messages: u64,
    /// Chares retired (tasks executed).
    pub retired: u64,
    /// Messages dropped because their target chare had already retired.
    pub late_messages: u64,
}

/// External outputs of a run, per producing task.
type Outputs = BTreeMap<TaskId, Vec<Payload>>;

struct Shared {
    pes: usize,
    /// PE scheduler queues. Every delivery rides its target PE's *pinned*
    /// lane, which stealing never touches, so a chare only runs on its PE.
    pool: WorkPool<Delivery>,
    /// External outputs collected across PEs.
    outputs: Mutex<Outputs>,
    /// Messages sent whose entry method has not yet returned. A send
    /// counts before it pushes and a PE uncounts after the handler, whose
    /// own sends were counted first, so zero means quiescence: nothing
    /// queued and nothing running.
    in_flight: AtomicU64,
    /// Set when a PE thread panicked; also the lock that the coordinator's
    /// wait on `quiescent` and its notifiers share.
    pe_panicked: Mutex<bool>,
    quiescent: Condvar,
    /// Retired-chare count.
    retired: AtomicU64,
    /// Message counters.
    local_msgs: AtomicU64,
    cross_msgs: AtomicU64,
    /// Messages addressed to already-retired chares (protocol violations).
    late_msgs: AtomicU64,
    /// Trace consumer shared by every PE (the no-op sink by default).
    sink: Arc<dyn TraceSink>,
    /// Cached `sink.enabled()` so hot paths pay one load, not a vcall.
    tracing: bool,
}

impl Shared {
    /// The PE that hosts chare `idx`.
    fn pe_of(&self, idx: u64) -> usize {
        (idx % self.pes as u64) as usize
    }

    /// Route a message to a chare's PE.
    fn send(&self, from_pe: usize, idx: u64, src: TaskId, payload: Payload) {
        let pe = self.pe_of(idx);
        if pe == from_pe {
            self.local_msgs.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cross_msgs.fetch_add(1, Ordering::Relaxed);
        }
        let sent_ns = if self.tracing { now_ns() } else { 0 };
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        self.pool.push_to(pe, Delivery { idx, src, payload, sent_ns });
        if self.tracing {
            let rank = if from_pe == usize::MAX { HOST_RANK } else { from_pe as u32 };
            // Payloads move by shared reference between PEs: bytes = 0.
            self.sink.record(
                TraceEvent::span(SpanKind::MsgSend, sent_ns, sent_ns, rank, 0)
                    .with_task(src, babelflow_core::CallbackId(u32::MAX))
                    .with_message(TaskId(idx), 0),
            );
        }
    }

    /// Uncount one handled delivery; the last one wakes the coordinator.
    fn delivered(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _lock = self.pe_panicked.lock();
            self.quiescent.notify_all();
        }
    }

    /// Block until no message is in flight, or until a PE thread panicked.
    fn wait_quiescent(&self) {
        let mut pe_panicked = self.pe_panicked.lock();
        while self.in_flight.load(Ordering::SeqCst) != 0 && !*pe_panicked {
            self.quiescent.wait(&mut pe_panicked);
        }
    }
}

/// Wakes the coordinator when its PE thread unwinds: a dead PE never
/// drains its lane, so the in-flight count could never reach zero.
struct PanicAlarm<'a>(&'a Shared);

impl Drop for PanicAlarm<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            *self.0.pe_panicked.lock() = true;
            self.0.quiescent.notify_all();
        }
    }
}

/// Context handed to a chare's entry method: lets it invoke other chares
/// and emit external results.
pub struct ChareCtx<'a> {
    shared: &'a Shared,
    pe: usize,
    /// The index of the chare currently executing.
    pub self_idx: u64,
}

impl ChareCtx<'_> {
    /// Asynchronously invoke chare `idx` with a payload (remote procedure
    /// call in the paper's terms).
    pub fn send(&self, idx: u64, src: TaskId, payload: Payload) {
        self.shared.send(self.pe, idx, src, payload);
    }

    /// Emit a result to the host application.
    pub fn emit_external(&self, task: TaskId, payload: Payload) {
        self.shared.outputs.lock().entry(task).or_default().push(payload);
    }

    /// The PE this entry method runs on (informational).
    pub fn pe(&self) -> usize {
        self.pe
    }

    /// The runtime's trace sink, so chares can emit spans (e.g. the
    /// dataflow controller's exactly-once task-execution span) on the same
    /// timeline as the runtime's message events.
    pub fn trace_sink(&self) -> &dyn TraceSink {
        &*self.shared.sink
    }

    /// Whether tracing is live (callers skip clock reads when not).
    pub fn tracing(&self) -> bool {
        self.shared.tracing
    }
}

/// The chare-array runtime.
pub struct CharmRuntime {
    /// Number of processing elements (worker threads).
    pub pes: usize,
    /// Trace consumer (no-op by default).
    pub sink: Arc<dyn TraceSink>,
}

impl CharmRuntime {
    /// Runtime with `pes` processing elements.
    pub fn new(pes: usize) -> Self {
        assert!(pes > 0, "need at least one PE");
        CharmRuntime { pes, sink: noop_sink() }
    }

    /// Record trace events into `sink`.
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Execute a chare array until no message is in flight.
    ///
    /// `indices` enumerates the chare array (chare `idx` is placed on PE
    /// `idx % pes`); `factory` constructs each chare; `initial` is the set
    /// of bootstrap messages (from the main chare in Charm++ terms).
    ///
    /// Returns the external outputs and run statistics, or the sorted
    /// indices of unretired chares if the run quiesces before every chare
    /// retired.
    pub fn run<F>(
        &self,
        indices: &[u64],
        factory: F,
        initial: Vec<(u64, TaskId, Payload)>,
    ) -> Result<(Outputs, CharmStats), Vec<u64>>
    where
        F: Fn(u64) -> Box<dyn Chare> + Send + Sync,
    {
        let shared = Shared {
            pes: self.pes,
            pool: WorkPool::new(self.pes),
            outputs: Mutex::new(BTreeMap::new()),
            in_flight: AtomicU64::new(0),
            pe_panicked: Mutex::new(false),
            quiescent: Condvar::new(),
            retired: AtomicU64::new(0),
            local_msgs: AtomicU64::new(0),
            cross_msgs: AtomicU64::new(0),
            late_msgs: AtomicU64::new(0),
            sink: self.sink.clone(),
            tracing: self.sink.enabled(),
        };

        // Bootstrap messages, routed like any remote invocation.
        for (idx, src, payload) in initial {
            shared.send(usize::MAX, idx, src, payload);
        }

        let (shared_ref, factory) = (&shared, &factory);
        let mut pending: Vec<u64> = std::thread::scope(|s| {
            let pes: Vec<_> = (0..self.pes)
                .map(|pe| s.spawn(move || pe_main(pe, shared_ref, indices, factory)))
                .collect();
            shared_ref.wait_quiescent();
            // Nothing is queued at quiescence, so closing the pool just
            // lets each PE return its unretired chares.
            shared_ref.pool.close();
            pes.into_iter()
                .flat_map(|pe| pe.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        });
        if !pending.is_empty() {
            pending.sort_unstable();
            return Err(pending);
        }

        let outputs = shared.outputs.into_inner();
        let stats = CharmStats {
            local_messages: shared.local_msgs.into_inner(),
            cross_pe_messages: shared.cross_msgs.into_inner(),
            retired: shared.retired.into_inner(),
            late_messages: shared.late_msgs.into_inner(),
        };
        Ok((outputs, stats))
    }
}

/// PE scheduler loop: message-driven execution of the chares placed on
/// `pe`. Returns the indices of the chares that never retired.
fn pe_main<F>(pe: usize, shared: &Shared, indices: &[u64], factory: &F) -> Vec<u64>
where
    F: Fn(u64) -> Box<dyn Chare> + Send + Sync,
{
    let _alarm = PanicAlarm(shared);
    // Eagerly construct the chares placed here (Charm++ constructs array
    // elements at insertion).
    let mut chares: HashMap<u64, Box<dyn Chare>> = indices
        .iter()
        .filter(|&&idx| shared.pe_of(idx) == pe)
        .map(|&idx| (idx, factory(idx)))
        .collect();

    // `recv` blocks on the pinned lane; `None` means the run is over.
    while let Some(Delivery { idx, src, payload, sent_ns }) = shared.pool.recv(pe) {
        match chares.get_mut(&idx) {
            Some(chare) => {
                if shared.tracing {
                    // The in-flight + inbox time of this message, charged
                    // to the receiving chare (its task id is its array
                    // index by convention).
                    shared.sink.record(
                        TraceEvent::span(SpanKind::QueueWait, sent_ns, now_ns(), pe as u32, 0)
                            .with_task(TaskId(idx), babelflow_core::CallbackId(u32::MAX))
                            .with_message(src, 0),
                    );
                }
                let mut ctx = ChareCtx { shared, pe, self_idx: idx };
                if chare.on_message(src, payload, &mut ctx) {
                    chares.remove(&idx);
                    shared.retired.fetch_add(1, Ordering::Relaxed);
                }
            }
            // Chare already retired: dataflow chares retire only after all
            // their inputs, so this is a protocol violation. Drop and count
            // it; any resulting stall surfaces at quiescence.
            None => {
                shared.late_msgs.fetch_add(1, Ordering::Relaxed);
            }
        }
        shared.delivered();
    }
    chares.into_keys().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use babelflow_core::Blob;

    /// A chare that accumulates `n` values and emits their sum.
    struct Accum {
        need: usize,
        got: Vec<u64>,
        forward_to: Option<u64>,
        id: TaskId,
    }

    fn val(p: &Payload) -> u64 {
        u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
    }

    fn pay(v: u64) -> Payload {
        Payload::wrap(Blob(v.to_le_bytes().to_vec()))
    }

    impl Chare for Accum {
        fn on_message(&mut self, _src: TaskId, payload: Payload, ctx: &mut ChareCtx<'_>) -> bool {
            self.got.push(val(&payload));
            if self.got.len() == self.need {
                let sum: u64 = self.got.iter().sum();
                match self.forward_to {
                    Some(next) => ctx.send(next, self.id, pay(sum)),
                    None => ctx.emit_external(self.id, pay(sum)),
                }
                true
            } else {
                false
            }
        }
    }

    /// Chain of accumulators: 0 and 1 each get two bootstrap values, both
    /// forward to 2, which emits.
    fn chain_factory(idx: u64) -> Box<dyn Chare> {
        Box::new(Accum {
            need: 2,
            got: Vec::new(),
            forward_to: (idx < 2).then_some(2),
            id: TaskId(idx),
        })
    }

    #[test]
    fn message_driven_sum_tree() {
        for pes in [1, 2, 4] {
            let rt = CharmRuntime::new(pes);
            let initial = vec![
                (0, TaskId::EXTERNAL, pay(1)),
                (0, TaskId::EXTERNAL, pay(2)),
                (1, TaskId::EXTERNAL, pay(3)),
                (1, TaskId::EXTERNAL, pay(4)),
            ];
            let (outputs, stats) =
                rt.run(&[0, 1, 2], chain_factory, initial).unwrap();
            assert_eq!(val(&outputs[&TaskId(2)][0]), 10, "pes={pes}");
            assert_eq!(stats.retired, 3);
        }
    }

    #[test]
    fn stalled_run_reports_pending_chares() {
        let rt = CharmRuntime::new(2);
        // Chare 1 never gets its second value; 2 never fires.
        let initial = vec![
            (0, TaskId::EXTERNAL, pay(1)),
            (0, TaskId::EXTERNAL, pay(2)),
            (1, TaskId::EXTERNAL, pay(3)),
        ];
        let pending = rt.run(&[0, 1, 2], chain_factory, initial).unwrap_err();
        assert_eq!(pending, vec![1, 2]);
    }

    #[test]
    fn cross_pe_and_local_messages_counted() {
        let rt = CharmRuntime::new(2);
        let initial = vec![
            (0, TaskId::EXTERNAL, pay(1)),
            (0, TaskId::EXTERNAL, pay(2)),
            (1, TaskId::EXTERNAL, pay(3)),
            (1, TaskId::EXTERNAL, pay(4)),
        ];
        let (_, stats) = rt.run(&[0, 1, 2], chain_factory, initial).unwrap();
        // Bootstraps (4, sent from "outside" = cross) + 2 forwards: 0 -> 2
        // stays on PE 0, 1 -> 2 crosses from PE 1.
        assert_eq!((stats.local_messages, stats.cross_pe_messages), (1, 5));
    }

    #[test]
    #[should_panic(expected = "chare exploded")]
    fn panicking_chare_propagates_instead_of_hanging() {
        struct Bomb;
        impl Chare for Bomb {
            fn on_message(&mut self, _: TaskId, _: Payload, _: &mut ChareCtx<'_>) -> bool {
                panic!("chare exploded")
            }
        }
        let rt = CharmRuntime::new(2);
        let factory = |_| -> Box<dyn Chare> { Box::new(Bomb) };
        let _ = rt.run(&[0, 1], factory, vec![(1, TaskId::EXTERNAL, pay(0))]);
    }
}
