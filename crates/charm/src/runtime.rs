//! A Charm++-like chare-array runtime.
//!
//! Charm++ programs are collections of *chares* — "migratable objects that
//! represent the basic unit of parallel computation" — addressed by array
//! index, executing entry methods in response to messages, scheduled
//! message-driven on processing elements (PEs). Rust has no Charm++
//! binding, so this module builds that execution model from threads and
//! channels:
//!
//! * a **chare array** whose chares are addressed by their dense index
//!   `0..n` and each carry a `u64` id, placed statically: chare `idx`
//!   lives on PE `id % pes` for the whole run, in a `Vec` slot of that
//!   PE, so a delivery finds its chare without hashing;
//! * **PEs** (threads) running a message-driven scheduler loop;
//! * **remote method invocation**: `ctx.send(idx, …)` routes a message to
//!   the chare's PE, or queues it on the sending PE itself when the chare
//!   lives there;
//! * **quiescence detection**: the PEs run on a
//!   [`WorkPool`], whose run ends the moment no message is queued and no
//!   entry method runs — complete if every chare retired, stalled (with
//!   the exact set of unretired chares) otherwise. A PE thread that
//!   panics ends the run with an error instead.
//!
//! A message's path writes only memory its PEs own, besides the pool's
//! one lock: each PE keeps its own counters ([`CharmStats`], summed once
//! the run is over) and takes its whole inbox in one acquisition of that
//! lock. A message to a chare on the sending PE skips the pool: it joins
//! the PE's own queue, behind the inbox batch it is running, with no lock
//! and no wake. The host's bootstrap messages enter the pool as one batch.
//!
//! Charm++'s periodic measurement-based load balancer (the paper's
//! experiments "use periodic load balance") does not run on these threads:
//! a wall-clock balancer would make placement, and with it every message
//! counter, depend on timing. `babelflow-sim` models it deterministically
//! (`LbModel`) for the load-balancing figure.

use std::collections::BTreeMap;
use std::sync::Arc;

use babelflow_core::sync::{Local, Mutex, PoolStats, WorkPool};
use babelflow_core::trace::{noop_sink, now_ns, SpanKind, TraceEvent, TraceSink, HOST_RANK};
use babelflow_core::{ControllerError, Payload, TaskId};

/// A message-driven parallel object hosted by the runtime.
pub trait Chare: Send {
    /// Handle one message. Returns `true` when the chare has completed all
    /// its work and should retire (one-shot dataflow tasks retire after
    /// executing).
    fn on_message(&mut self, src: TaskId, payload: Payload, ctx: &mut ChareCtx<'_>) -> bool;
}

/// An entry-method invocation queued on the PE hosting chare `idx`.
struct Delivery {
    idx: u32,
    src: TaskId,
    payload: Payload,
    /// [`now_ns`] at send time (0 when tracing is off); the receiving
    /// PE turns the gap until execution into a queue-wait span.
    sent_ns: u64,
}

/// Counters the runtime reports after a run. Each PE counts its own and
/// the run adds them up at quiescence.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CharmStats {
    /// Entry-method messages delivered on the sending PE.
    pub local_messages: u64,
    /// Entry-method messages that crossed PEs (bootstrap messages from the
    /// host included).
    pub cross_pe_messages: u64,
    /// Chares retired (tasks executed).
    pub retired: u64,
    /// Messages dropped because their target chare had already retired.
    pub late_messages: u64,
    /// Payload handle clones chares reported through [`ChareCtx::count`].
    pub payload_clones: u64,
    /// Entry-method re-executions chares reported through
    /// [`ChareCtx::count`].
    pub retries: u64,
    /// The PEs' work pool over the run (timing-dependent).
    pub pool: PoolStats,
}

impl CharmStats {
    /// Fold a PE's counters into this one. A PE counts no pool statistics;
    /// the pool is the run's.
    fn merge(&mut self, pe: &CharmStats) {
        self.local_messages += pe.local_messages;
        self.cross_pe_messages += pe.cross_pe_messages;
        self.retired += pe.retired;
        self.late_messages += pe.late_messages;
        self.payload_clones += pe.payload_clones;
        self.retries += pe.retries;
    }
}

/// External outputs of a run, per producing task.
type Outputs = BTreeMap<TaskId, Vec<Payload>>;

/// One PE's state: the chares placed on it, by their slot on it
/// (`None` once retired), and the counters only it writes.
struct Pe<'a> {
    chares: Vec<Option<Box<dyn Chare + 'a>>>,
    stats: CharmStats,
}

struct Shared<'i> {
    /// Per chare index: the chare's id.
    ids: &'i [u64],
    /// Per chare index: the PE hosting the chare and its slot there.
    homes: Vec<(u32, u32)>,
    /// PE scheduler queues. A delivery from the host or another PE rides
    /// its target PE's *pinned* lane, which stealing never touches, and
    /// one from the same PE that PE's own queue, so a chare only runs on
    /// its PE.
    pool: WorkPool<Delivery>,
    /// External outputs collected across PEs.
    outputs: Mutex<Outputs>,
    /// Trace consumer shared by every PE (the no-op sink by default).
    sink: Arc<dyn TraceSink>,
    /// Cached `sink.enabled()` so hot paths pay one load, not a vcall.
    tracing: bool,
}

impl Shared<'_> {
    /// Address a message to chare `idx`, counting it in the sending PE's
    /// `stats` (`from_pe` is `usize::MAX` for the host's bootstrap), and
    /// return it with the PE that hosts the chare.
    fn message(
        &self,
        from_pe: usize,
        stats: &mut CharmStats,
        idx: u32,
        src: TaskId,
        payload: Payload,
    ) -> (usize, Delivery) {
        let pe = self.homes[idx as usize].0 as usize;
        if pe == from_pe {
            stats.local_messages += 1;
        } else {
            stats.cross_pe_messages += 1;
        }
        let sent_ns = if self.tracing { now_ns() } else { 0 };
        if self.tracing {
            let rank = if from_pe == usize::MAX { HOST_RANK } else { from_pe as u32 };
            // Payloads move by shared reference between PEs: bytes = 0.
            self.sink.record(
                TraceEvent::span(SpanKind::MsgSend, sent_ns, sent_ns, rank, 0)
                    .with_task(src, babelflow_core::CallbackId(u32::MAX))
                    .with_message(TaskId(self.ids[idx as usize]), 0),
            );
        }
        (pe, Delivery { idx, src, payload, sent_ns })
    }

    /// Run the entry method a delivery invokes on one of the chares
    /// placed on the PE that owns `local`, retiring the chare if it is
    /// done.
    fn deliver(&self, state: &mut Pe<'_>, local: &mut Local<Delivery>, d: Delivery) {
        let Delivery { idx, src, payload, sent_ns } = d;
        let slot = self.homes[idx as usize].1 as usize;
        let Some(chare) = state.chares[slot].as_mut() else {
            // Chare already retired: dataflow chares retire only after all
            // their inputs, so this is a protocol violation. Drop and count
            // it; any resulting stall surfaces at quiescence.
            state.stats.late_messages += 1;
            return;
        };
        if self.tracing {
            // The in-flight + inbox time of this message, charged to the
            // receiving chare (its task id is its chare id by convention).
            self.sink.record(
                TraceEvent::span(SpanKind::QueueWait, sent_ns, now_ns(), local.worker() as u32, 0)
                    .with_task(TaskId(self.ids[idx as usize]), babelflow_core::CallbackId(u32::MAX))
                    .with_message(src, 0),
            );
        }
        let mut ctx = ChareCtx { shared: self, local, stats: &mut state.stats, self_idx: idx };
        if chare.on_message(src, payload, &mut ctx) {
            state.chares[slot] = None;
            state.stats.retired += 1;
        }
    }
}

/// Context handed to a chare's entry method: lets it invoke other chares
/// and emit external results.
pub struct ChareCtx<'a> {
    shared: &'a Shared<'a>,
    /// The queue of the PE running this entry method.
    local: &'a mut Local<Delivery>,
    /// The counters of the PE running this entry method.
    stats: &'a mut CharmStats,
    /// The index of the chare currently executing.
    pub self_idx: u32,
}

impl<'a> ChareCtx<'a> {
    /// Asynchronously invoke chare `idx` with a payload (remote procedure
    /// call in the paper's terms). A chare on this PE gets it through the
    /// PE's own queue, after what that queue already holds.
    pub fn send(&mut self, idx: u32, src: TaskId, payload: Payload) {
        let here = self.local.worker();
        match self.shared.message(here, self.stats, idx, src, payload) {
            (pe, d) if pe == here => self.local.push(d),
            (pe, d) => self.shared.pool.push_to(pe, d),
        }
    }

    /// Emit a result to the host application.
    pub fn emit_external(&self, task: TaskId, payload: Payload) {
        self.shared.outputs.lock().entry(task).or_default().push(payload);
    }

    /// Add what an entry method cost to this PE's counters: payload
    /// handle clones and re-executions.
    pub fn count(&mut self, payload_clones: u64, retries: u64) {
        self.stats.payload_clones += payload_clones;
        self.stats.retries += retries;
    }

    /// The PE this entry method runs on (informational).
    pub fn pe(&self) -> usize {
        self.local.worker()
    }

    /// The runtime's trace sink, so chares can emit spans (e.g. the
    /// dataflow controller's exactly-once task-execution span) on the same
    /// timeline as the runtime's message events. It outlives this
    /// context's borrow, so a chare may hold it while it sends.
    pub fn trace_sink(&self) -> &'a dyn TraceSink {
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
    /// `ids` enumerates the chare array: chare `idx` carries id
    /// `ids[idx]` and is placed on PE `ids[idx] % pes`. `factory`
    /// constructs each chare from its index, and may borrow from the
    /// caller for `'a`; `initial` is the set of bootstrap messages (from
    /// the main chare in Charm++ terms), by chare index, sent from PE 0's
    /// thread.
    ///
    /// Returns the external outputs and run statistics.
    ///
    /// # Errors
    /// [`ControllerError::Deadlock`] with the sorted ids of unretired
    /// chares (as task ids) if the run quiesces before every chare
    /// retired; [`ControllerError::Runtime`] if a PE thread panicked.
    pub fn run<'a, F>(
        &self,
        ids: &[u64],
        factory: F,
        initial: Vec<(u32, TaskId, Payload)>,
    ) -> Result<(Outputs, CharmStats), ControllerError>
    where
        F: Fn(u32) -> Box<dyn Chare + 'a> + Sync,
    {
        let mut placed_on = vec![0u32; self.pes];
        let homes = ids
            .iter()
            .map(|&id| {
                let pe = (id % self.pes as u64) as usize;
                placed_on[pe] += 1;
                (pe as u32, placed_on[pe] - 1)
            })
            .collect();
        let shared = Shared {
            ids,
            homes,
            pool: WorkPool::new(self.pes),
            outputs: Mutex::new(BTreeMap::new()),
            sink: self.sink.clone(),
            tracing: self.sink.enabled(),
        };

        // Each PE's state is the chares placed on it, constructed eagerly
        // (Charm++ constructs array elements at insertion); what is left
        // of it at quiescence never retired. PE 0, where Charm++ runs the
        // main chare, first sends the host's bootstrap messages, as one
        // batch, so a failure while sending them is a PE failure like any
        // other.
        let bootstrap = Mutex::new(initial);
        let placed = |pe: usize| -> Pe<'a> {
            let mut stats = CharmStats::default();
            if pe == 0 {
                let batch: Vec<_> = std::mem::take(&mut *bootstrap.lock())
                    .into_iter()
                    .map(|(idx, src, payload)| {
                        shared.message(usize::MAX, &mut stats, idx, src, payload)
                    })
                    .collect();
                shared.pool.push_all_to(batch);
            }
            let chares = (0..ids.len() as u32)
                .filter(|&idx| shared.homes[idx as usize].0 as usize == pe)
                .map(|idx| Some(factory(idx)))
                .collect();
            Pe { chares, stats }
        };
        let pes = shared
            .pool
            .run_until_idle(placed, |state, local, d| shared.deliver(state, local, d))
            .map_err(|pe| ControllerError::Runtime(format!("charm PE {pe} panicked")))?;
        let mut stats = CharmStats { pool: shared.pool.stats(), ..CharmStats::default() };
        for pe in &pes {
            stats.merge(&pe.stats);
        }
        let mut pending: Vec<TaskId> = (ids.iter().zip(&shared.homes))
            .filter(|(_, &(pe, slot))| pes[pe as usize].chares[slot as usize].is_some())
            .map(|(&id, _)| TaskId(id))
            .collect();
        if !pending.is_empty() {
            pending.sort_unstable();
            return Err(ControllerError::Deadlock { pending });
        }
        Ok((shared.outputs.into_inner(), stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use babelflow_core::Blob;

    /// A chare that accumulates `n` values and emits their sum.
    struct Accum {
        need: usize,
        got: Vec<u64>,
        forward_to: Option<u32>,
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
    fn chain_factory(idx: u32) -> Box<dyn Chare> {
        Box::new(Accum {
            need: 2,
            got: Vec::new(),
            forward_to: (idx < 2).then_some(2),
            id: TaskId(idx.into()),
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
        let err = rt.run(&[0, 1, 2], chain_factory, initial).unwrap_err();
        let stalled = [TaskId(1), TaskId(2)];
        assert!(matches!(&err, ControllerError::Deadlock { pending } if pending == &stalled));
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
    fn a_message_to_a_retired_chare_is_counted_late() {
        // Chare 0 retires on its first message, so the second bootstrap
        // message finds it gone.
        struct Once;
        impl Chare for Once {
            fn on_message(&mut self, _: TaskId, _: Payload, _: &mut ChareCtx<'_>) -> bool {
                true
            }
        }
        for pes in [1, 2] {
            let rt = CharmRuntime::new(pes);
            let factory = |_| -> Box<dyn Chare> { Box::new(Once) };
            let initial = vec![(0, TaskId::EXTERNAL, pay(1)), (0, TaskId::EXTERNAL, pay(2))];
            let (_, stats) = rt.run(&[0], factory, initial).unwrap();
            assert_eq!((stats.retired, stats.late_messages), (1, 1), "pes={pes}");
            assert_eq!(stats.cross_pe_messages, 2, "pes={pes}: bootstraps come from the host");
        }
    }

    #[test]
    fn panicking_chare_is_an_error_not_a_hang() {
        babelflow_core::quiet_panic_hook();
        struct Bomb;
        impl Chare for Bomb {
            fn on_message(&mut self, _: TaskId, _: Payload, _: &mut ChareCtx<'_>) -> bool {
                panic!("{}: chare exploded", babelflow_core::PANIC_MARKER)
            }
        }
        let rt = CharmRuntime::new(2);
        let factory = |_| -> Box<dyn Chare> { Box::new(Bomb) };
        let started = std::time::Instant::now();
        let err = rt.run(&[0, 1], factory, vec![(1, TaskId::EXTERNAL, pay(0))]).unwrap_err();
        assert!(matches!(&err, ControllerError::Runtime(m) if m == "charm PE 1 panicked"), "{err}");
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
    }
}
