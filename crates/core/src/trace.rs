//! Runtime observability: the event schema every controller emits.
//!
//! The paper pitches BabelFlow as "a flexible test bed to experiment with
//! different strategies to use various runtimes" — which requires seeing
//! *when* every task actually ran on every backend, not just aggregate
//! counters. This module defines the common trace vocabulary: a
//! [`TraceEvent`] span schema (task execution, callback invocation,
//! message send/receive, queue wait), the [`TraceSink`] consumer trait the
//! controllers thread through [`Controller::run_traced`], and the
//! zero-cost [`NoopSink`] default that keeps untraced runs at full speed.
//!
//! The recording, export, and analysis machinery (in-memory recorder,
//! Chrome `trace_event` JSON, latency histograms, critical-path
//! extraction, predicted-vs-observed replay) lives in the `babelflow-trace`
//! crate; only the schema lives here so `babelflow-core` stays leaf-free.
//!
//! [`Controller::run_traced`]: crate::controller::Controller::run_traced
//!
//! # Overhead budget
//!
//! Instrumented code paths guard every measurement behind
//! [`TraceSink::enabled`]; the no-op sink answers `false` through one
//! devirtualizable call and controllers skip clock reads entirely, so an
//! untraced run pays one predictable branch per would-be event (< 2% on
//! the controller benchmarks). When recording, each event costs two
//! monotonic clock reads plus one append into a per-worker buffer.

use std::sync::Arc;
use std::time::Instant;

use crate::ids::{CallbackId, TaskId};

/// What a [`TraceEvent`] span measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// One attempt at a dataflow task on a worker: the user callback and,
    /// for the successful attempt, output routing (see
    /// [`exec`](crate::exec::exec)). A fault-free run has **exactly one**
    /// `TaskExec` span per task — the invariant the coverage and
    /// critical-path analyses rely on; each retried attempt adds one.
    TaskExec,
    /// The user callback invocation alone, nested inside its task's
    /// [`SpanKind::TaskExec`] span on the same thread.
    Callback,
    /// Serializing and handing a dataflow message to the transport
    /// (`bytes` = wire size; 0 for in-memory moves that skip
    /// serialization).
    MsgSend,
    /// Receiving and delivering a dataflow message into an input slot.
    MsgRecv,
    /// Time a ready task (or in-flight message) waited before a worker
    /// picked it up.
    QueueWait,
}

impl SpanKind {
    /// Stable lowercase name (used as the Chrome trace category).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::TaskExec => "task",
            SpanKind::Callback => "callback",
            SpanKind::MsgSend => "send",
            SpanKind::MsgRecv => "recv",
            SpanKind::QueueWait => "queue_wait",
        }
    }
}

/// Sentinel thread index for a backend's controller/scheduler thread (as
/// opposed to a numbered worker).
pub const CONTROL_THREAD: u32 = u32::MAX;

/// Sentinel rank for events not attributable to a shard (e.g. the host).
pub const HOST_RANK: u32 = u32::MAX;

/// One recorded span, on the common schema shared by all backends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// What was measured.
    pub kind: SpanKind,
    /// Monotonic start timestamp from [`now_ns`].
    pub start_ns: u64,
    /// Monotonic end timestamp (`>= start_ns`).
    pub end_ns: u64,
    /// Executing rank / PE / shard ([`HOST_RANK`] when not applicable).
    pub rank: u32,
    /// Worker index within the rank ([`CONTROL_THREAD`] for the
    /// scheduler thread).
    pub thread: u32,
    /// The task this span belongs to. For message events this is the
    /// *producing* task on send and the *receiving* task on recv;
    /// [`TaskId::EXTERNAL`] when unknown.
    pub task: TaskId,
    /// The task's callback ([`CallbackId`]`(u32::MAX)` when unknown).
    pub callback: CallbackId,
    /// The other endpoint of a message event (destination task on send,
    /// source task on recv); [`TaskId::EXTERNAL`] otherwise.
    pub peer: TaskId,
    /// Serialized payload bytes for message events; 0 for in-memory moves
    /// and non-message spans.
    pub bytes: u64,
}

impl TraceEvent {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// A span with every optional field defaulted.
    pub fn span(kind: SpanKind, start_ns: u64, end_ns: u64, rank: u32, thread: u32) -> Self {
        TraceEvent {
            kind,
            start_ns,
            end_ns,
            rank,
            thread,
            task: TaskId::EXTERNAL,
            callback: CallbackId(u32::MAX),
            peer: TaskId::EXTERNAL,
            bytes: 0,
        }
    }

    /// Attach the owning task (and its callback).
    pub fn with_task(mut self, task: TaskId, callback: CallbackId) -> Self {
        self.task = task;
        self.callback = callback;
        self
    }

    /// Attach a message counterpart and wire size.
    pub fn with_message(mut self, peer: TaskId, bytes: u64) -> Self {
        self.peer = peer;
        self.bytes = bytes;
        self
    }
}

/// A consumer of trace events. Implementations must be cheap and
/// thread-safe: controllers call [`record`](Self::record) from every
/// worker thread on hot paths.
pub trait TraceSink: Send + Sync {
    /// Whether events are being kept. Controllers skip clock reads and
    /// event construction entirely when this answers `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event. Must not block for long (the in-repo recorder
    /// appends to a per-worker buffer).
    fn record(&self, event: TraceEvent);
}

/// The zero-cost default sink: discards everything and reports itself
/// disabled so instrumented code skips measurement.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: TraceEvent) {}
}

/// A shared no-op sink, for [`Controller::run`]'s untraced default.
///
/// [`Controller::run`]: crate::controller::Controller::run
pub fn noop_sink() -> Arc<dyn TraceSink> {
    Arc::new(NoopSink)
}

/// Monotonic nanoseconds since the first call in this process. All
/// backends stamp events with this one clock, so spans from different
/// controllers/threads share a timeline.
pub fn now_ns() -> u64 {
    use std::sync::OnceLock;
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    let anchor = *ANCHOR.get_or_init(Instant::now);
    anchor.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_reports_disabled() {
        let sink = NoopSink;
        assert!(!sink.enabled());
        sink.record(TraceEvent::span(SpanKind::TaskExec, 0, 1, 0, 0)); // no-op
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn builders_fill_fields() {
        let ev = TraceEvent::span(SpanKind::MsgSend, 10, 25, 3, CONTROL_THREAD)
            .with_task(TaskId(7), CallbackId(1))
            .with_message(TaskId(9), 128);
        assert_eq!(ev.duration_ns(), 15);
        assert_eq!(ev.rank, 3);
        assert_eq!(ev.task, TaskId(7));
        assert_eq!(ev.peer, TaskId(9));
        assert_eq!(ev.bytes, 128);
        assert_eq!(ev.kind.name(), "send");
    }

    #[test]
    fn duration_saturates_on_clock_skew() {
        let ev = TraceEvent::span(SpanKind::QueueWait, 100, 40, 0, 0);
        assert_eq!(ev.duration_ns(), 0);
    }
}
