//! Trace analysis passes: summaries, invariants, and the observed
//! critical path.
//!
//! Three families:
//!
//! * [`TraceSummary`] — aggregate metrics: per-callback latency
//!   histograms (log2 buckets) and bytes, plus per-rank utilization.
//! * Invariant checks — [`check_coverage`] (every graph task has exactly
//!   one `TaskExec` span) and [`check_well_nested`] (any backend, retries
//!   included: callback spans sit inside their attempt's task span, task
//!   spans on one thread never overlap).
//! * [`observed_critical_path`] — the chain of task executions that
//!   actually gated the run, recovered by walking back from the last
//!   finisher through each task's last-finishing parent. On a balanced
//!   graph its length equals the structural
//!   [`graph_stats`](babelflow_core::graph_stats) depth; a shorter chain
//!   means the run was bounded by placement or scheduling, not structure.

use std::collections::HashMap;
use std::fmt;

use babelflow_core::{CallbackId, SpanKind, TaskGraph, TaskId, TraceEvent};

use crate::recorder::Trace;

/// Number of log2 latency buckets (covers the full `u64` ns range).
pub const HIST_BUCKETS: usize = 64;

/// Latency histogram over log2 buckets: bucket `i` counts durations in
/// `[2^i, 2^(i+1))` ns (bucket 0 also holds zero-length spans).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram { buckets: vec![0; HIST_BUCKETS] }
    }

    /// Bucket index of a duration.
    pub fn bucket_of(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        }
    }

    /// Count one duration.
    pub fn add(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
    }

    /// Count in bucket `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Occupied buckets as `(lower_bound_ns, count)`, low to high.
    pub fn occupied(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (1u64 << i, c))
            .collect()
    }
}

/// Per-callback latency and traffic, from `Callback` and `MsgSend` spans.
#[derive(Clone, Debug)]
pub struct CallbackStats {
    /// The callback.
    pub callback: CallbackId,
    /// Callback invocations.
    pub count: u64,
    /// Total callback time.
    pub total_ns: u64,
    /// Shortest invocation.
    pub min_ns: u64,
    /// Longest invocation.
    pub max_ns: u64,
    /// Latency distribution (log2 buckets).
    pub hist: Histogram,
    /// Wire bytes sent by tasks bound to this callback.
    pub bytes_sent: u64,
}

/// Per-rank execution totals.
#[derive(Clone, Debug)]
pub struct RankStats {
    /// The rank / PE / shard.
    pub rank: u32,
    /// Tasks this rank executed.
    pub tasks: u64,
    /// Time inside `TaskExec` spans.
    pub busy_ns: u64,
    /// Time inside `QueueWait` spans.
    pub wait_ns: u64,
    /// `busy_ns` over the trace makespan (0 on an empty trace).
    pub utilization: f64,
}

/// Aggregate view of a trace.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Total events.
    pub events: usize,
    /// `TaskExec` spans (tasks observed).
    pub tasks: u64,
    /// Wall-clock from first start to last end.
    pub makespan_ns: u64,
    /// Per-callback stats, sorted by callback id.
    pub callbacks: Vec<CallbackStats>,
    /// Per-rank stats, sorted by rank.
    pub ranks: Vec<RankStats>,
}

impl TraceSummary {
    /// Summarize a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let makespan_ns = trace.makespan_ns();
        let mut callbacks: HashMap<CallbackId, CallbackStats> = HashMap::new();
        let mut ranks: HashMap<u32, RankStats> = HashMap::new();

        for e in trace.events() {
            match e.kind {
                SpanKind::Callback => {
                    let d = e.duration_ns();
                    let s = callbacks.entry(e.callback).or_insert_with(|| CallbackStats {
                        callback: e.callback,
                        count: 0,
                        total_ns: 0,
                        min_ns: u64::MAX,
                        max_ns: 0,
                        hist: Histogram::new(),
                        bytes_sent: 0,
                    });
                    s.count += 1;
                    s.total_ns += d;
                    s.min_ns = s.min_ns.min(d);
                    s.max_ns = s.max_ns.max(d);
                    s.hist.add(d);
                }
                SpanKind::MsgSend if e.callback.0 != u32::MAX => {
                    let s = callbacks.entry(e.callback).or_insert_with(|| CallbackStats {
                        callback: e.callback,
                        count: 0,
                        total_ns: 0,
                        min_ns: u64::MAX,
                        max_ns: 0,
                        hist: Histogram::new(),
                        bytes_sent: 0,
                    });
                    s.bytes_sent += e.bytes;
                }
                _ => {}
            }
            let r = ranks.entry(e.rank).or_insert_with(|| RankStats {
                rank: e.rank,
                tasks: 0,
                busy_ns: 0,
                wait_ns: 0,
                utilization: 0.0,
            });
            match e.kind {
                SpanKind::TaskExec => {
                    r.tasks += 1;
                    r.busy_ns += e.duration_ns();
                }
                SpanKind::QueueWait => r.wait_ns += e.duration_ns(),
                _ => {}
            }
        }

        let tasks = ranks.values().map(|r| r.tasks).sum();
        let mut callbacks: Vec<CallbackStats> = callbacks.into_values().collect();
        callbacks.sort_by_key(|s| s.callback);
        let mut ranks: Vec<RankStats> = ranks.into_values().collect();
        ranks.sort_by_key(|r| r.rank);
        for r in &mut ranks {
            r.utilization =
                if makespan_ns == 0 { 0.0 } else { r.busy_ns as f64 / makespan_ns as f64 };
        }

        TraceSummary { events: trace.len(), tasks, makespan_ns, callbacks, ranks }
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} events, {} tasks, makespan {:.3} ms",
            self.events,
            self.tasks,
            self.makespan_ns as f64 / 1e6
        )?;
        for c in &self.callbacks {
            if c.count > 0 {
                writeln!(
                    f,
                    "  cb{}: {} calls, {:.1} us avg ({}..{} ns), {} bytes sent",
                    c.callback.0,
                    c.count,
                    c.total_ns as f64 / c.count as f64 / 1e3,
                    c.min_ns,
                    c.max_ns,
                    c.bytes_sent
                )?;
            } else {
                writeln!(f, "  cb{}: {} bytes sent", c.callback.0, c.bytes_sent)?;
            }
        }
        for r in &self.ranks {
            writeln!(
                f,
                "  rank {}: {} tasks, busy {:.1} us, wait {:.1} us, util {:.0}%",
                rank_label(r.rank),
                r.tasks,
                r.busy_ns as f64 / 1e3,
                r.wait_ns as f64 / 1e3,
                r.utilization * 100.0
            )?;
        }
        Ok(())
    }
}

fn rank_label(rank: u32) -> String {
    if rank == u32::MAX {
        "host".to_string()
    } else {
        rank.to_string()
    }
}

/// A coverage violation found by [`check_coverage`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoverageError {
    /// A graph task has no `TaskExec` span.
    Missing(TaskId),
    /// A task has more than one `TaskExec` span.
    Duplicated(TaskId, usize),
    /// A `TaskExec` span names a task not in the graph.
    Unknown(TaskId),
}

impl fmt::Display for CoverageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverageError::Missing(t) => write!(f, "{t} has no TaskExec span"),
            CoverageError::Duplicated(t, n) => write!(f, "{t} has {n} TaskExec spans"),
            CoverageError::Unknown(t) => write!(f, "TaskExec span for unknown {t}"),
        }
    }
}

/// Check the exactly-once invariant: every task in `graph` has exactly
/// one `TaskExec` span, and no span names a foreign task.
pub fn check_coverage(trace: &Trace, graph: &dyn TaskGraph) -> Result<(), CoverageError> {
    let mut seen: HashMap<TaskId, usize> = HashMap::new();
    for e in trace.of_kind(SpanKind::TaskExec) {
        *seen.entry(e.task).or_default() += 1;
    }
    for id in graph.ids() {
        match seen.remove(&id) {
            Some(1) => {}
            Some(n) => return Err(CoverageError::Duplicated(id, n)),
            None => return Err(CoverageError::Missing(id)),
        }
    }
    if let Some((&id, _)) = seen.iter().next() {
        return Err(CoverageError::Unknown(id));
    }
    Ok(())
}

/// Check the *effective* exactly-once invariant for fault-tolerant runs:
/// every task in `graph` has **at least** one `TaskExec` span (retried
/// attempts each record their own span), and no span names a foreign
/// task. Never returns [`CoverageError::Duplicated`] — under fault
/// injection, extra attempts are the recovery protocol working, not a
/// violation; what must still hold is that each task's *effect* was
/// produced once, which the byte-level output oracle verifies separately.
pub fn check_coverage_effective(
    trace: &Trace,
    graph: &dyn TaskGraph,
) -> Result<(), CoverageError> {
    let mut seen: HashMap<TaskId, usize> = HashMap::new();
    for e in trace.of_kind(SpanKind::TaskExec) {
        *seen.entry(e.task).or_default() += 1;
    }
    for id in graph.ids() {
        if seen.remove(&id).is_none() {
            return Err(CoverageError::Missing(id));
        }
    }
    if let Some((&id, _)) = seen.iter().next() {
        return Err(CoverageError::Unknown(id));
    }
    Ok(())
}

/// Check span nesting: on each `(rank, thread)` row, `TaskExec` spans
/// must not overlap each other, and every `Callback` span must lie
/// inside a `TaskExec` span of the same task on the same row. A retried
/// task has one `TaskExec` span per attempt, so each callback is matched
/// to the one that contains it. Holds for every backend, whose workers
/// each have their own row.
pub fn check_well_nested(trace: &Trace) -> Result<(), String> {
    let mut execs_of: HashMap<TaskId, Vec<&TraceEvent>> = HashMap::new();
    let mut rows: HashMap<(u32, u32), Vec<&TraceEvent>> = HashMap::new();
    for e in trace.of_kind(SpanKind::TaskExec) {
        execs_of.entry(e.task).or_default().push(e);
        rows.entry((e.rank, e.thread)).or_default().push(e);
    }
    for ((rank, thread), spans) in &rows {
        // Trace events are start-sorted; adjacent overlap check suffices.
        for w in spans.windows(2) {
            if w[1].start_ns < w[0].end_ns {
                return Err(format!(
                    "task spans overlap on rank {rank} thread {thread}: \
                     {} [{}, {}) and {} [{}, {})",
                    w[0].task, w[0].start_ns, w[0].end_ns, w[1].task, w[1].start_ns,
                    w[1].end_ns
                ));
            }
        }
    }
    for cb in trace.of_kind(SpanKind::Callback) {
        let Some(execs) = execs_of.get(&cb.task) else {
            return Err(format!("callback span for {} has no task span", cb.task));
        };
        let contains = |e: &&&TraceEvent| e.start_ns <= cb.start_ns && cb.end_ns <= e.end_ns;
        let same_row = |e: &&&TraceEvent| (e.rank, e.thread) == (cb.rank, cb.thread);
        if execs.iter().any(|e| contains(&e) && same_row(&e)) {
            continue;
        }
        let Some(exec) = execs.iter().find(contains) else {
            let exec = execs.iter().find(same_row).unwrap_or(&execs[0]);
            return Err(format!(
                "callback span [{}, {}) of {} escapes its task span [{}, {})",
                cb.start_ns, cb.end_ns, cb.task, exec.start_ns, exec.end_ns
            ));
        };
        return Err(format!(
            "callback of {} ran on rank {} thread {} but its task span is on \
             rank {} thread {}",
            cb.task, cb.rank, cb.thread, exec.rank, exec.thread
        ));
    }
    Ok(())
}

/// Recover the observed critical path: start from the *output* task
/// whose `TaskExec` span finished last, and repeatedly step to the
/// parent (internal input) whose span finished last — the input that
/// actually gated each execution. Returns the chain in execution order
/// (source first).
///
/// The walk is anchored at the graph's output tasks (falling back to the
/// globally last-ending span if none recorded one) because a producer
/// may release its downstream work before its own span lands in the
/// recorder, so the globally last-ending span can belong to a mid-graph
/// task. On faulted runs with several spans per task, the last attempt
/// wins — it is the one whose outputs the dataflow consumed.
///
/// Compare its length against [`graph_stats`] `.depth`: equality means
/// the run was limited by graph structure; less means a scheduling or
/// placement artifact dominated.
///
/// [`graph_stats`]: babelflow_core::graph_stats
pub fn observed_critical_path(trace: &Trace, graph: &dyn TaskGraph) -> Vec<TaskId> {
    let mut exec_of: HashMap<TaskId, &TraceEvent> = HashMap::new();
    for e in trace.of_kind(SpanKind::TaskExec) {
        let slot = exec_of.entry(e.task).or_insert(e);
        if (e.end_ns, e.task) > (slot.end_ns, slot.task) {
            *slot = e;
        }
    }
    let anchor = graph
        .output_tasks()
        .into_iter()
        .filter_map(|id| exec_of.get(&id))
        .max_by_key(|e| (e.end_ns, e.task))
        .copied();
    let Some(last) =
        anchor.or_else(|| exec_of.values().max_by_key(|e| (e.end_ns, e.task)).copied())
    else {
        return Vec::new();
    };

    let mut path = vec![last.task];
    let mut cur = last.task;
    while let Some(task) = graph.task(cur) {
        let gate = task
            .incoming
            .iter()
            .filter(|s| !s.is_external())
            .filter_map(|s| exec_of.get(s))
            .max_by_key(|e| (e.end_ns, e.task));
        match gate {
            Some(parent) => {
                path.push(parent.task);
                cur = parent.task;
            }
            None => break,
        }
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use babelflow_core::{ExplicitGraph, Task};

    fn exec(task: u64, start: u64, end: u64, rank: u32, thread: u32) -> TraceEvent {
        TraceEvent::span(SpanKind::TaskExec, start, end, rank, thread)
            .with_task(TaskId(task), CallbackId(0))
    }

    fn chain3() -> ExplicitGraph {
        // 0 -> 1 -> 2
        let mut t0 = Task::new(TaskId(0), CallbackId(0));
        t0.incoming = vec![TaskId::EXTERNAL];
        t0.outgoing = vec![vec![TaskId(1)]];
        let mut t1 = Task::new(TaskId(1), CallbackId(0));
        t1.incoming = vec![TaskId(0)];
        t1.outgoing = vec![vec![TaskId(2)]];
        let mut t2 = Task::new(TaskId(2), CallbackId(0));
        t2.incoming = vec![TaskId(1)];
        t2.outgoing = vec![vec![TaskId::EXTERNAL]];
        ExplicitGraph::new(vec![t0, t1, t2], vec![CallbackId(0)])
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
        let mut h = Histogram::new();
        h.add(100);
        h.add(120);
        h.add(5000);
        assert_eq!(h.total(), 3);
        assert_eq!(h.occupied(), vec![(64, 2), (4096, 1)]);
    }

    #[test]
    fn coverage_detects_missing_duplicate_unknown() {
        let g = chain3();
        let full = Trace::from_events(vec![
            exec(0, 0, 1, 0, 0),
            exec(1, 1, 2, 0, 0),
            exec(2, 2, 3, 0, 0),
        ]);
        assert_eq!(check_coverage(&full, &g), Ok(()));

        let missing = Trace::from_events(vec![exec(0, 0, 1, 0, 0), exec(2, 2, 3, 0, 0)]);
        assert_eq!(check_coverage(&missing, &g), Err(CoverageError::Missing(TaskId(1))));

        let dup = Trace::from_events(vec![
            exec(0, 0, 1, 0, 0),
            exec(0, 1, 2, 0, 0),
            exec(1, 2, 3, 0, 0),
            exec(2, 3, 4, 0, 0),
        ]);
        assert_eq!(check_coverage(&dup, &g), Err(CoverageError::Duplicated(TaskId(0), 2)));

        let unknown = Trace::from_events(vec![
            exec(0, 0, 1, 0, 0),
            exec(1, 1, 2, 0, 0),
            exec(2, 2, 3, 0, 0),
            exec(9, 3, 4, 0, 0),
        ]);
        assert_eq!(check_coverage(&unknown, &g), Err(CoverageError::Unknown(TaskId(9))));
    }

    #[test]
    fn effective_coverage_tolerates_retries_but_not_gaps() {
        let g = chain3();
        // Task 0 executed twice (a retry after a captured fault): the
        // strict check rejects, the effective check accepts.
        let retried = Trace::from_events(vec![
            exec(0, 0, 1, 0, 0),
            exec(0, 1, 2, 0, 0),
            exec(1, 2, 3, 0, 0),
            exec(2, 3, 4, 0, 0),
        ]);
        assert_eq!(check_coverage(&retried, &g), Err(CoverageError::Duplicated(TaskId(0), 2)));
        assert_eq!(check_coverage_effective(&retried, &g), Ok(()));

        let missing = Trace::from_events(vec![exec(0, 0, 1, 0, 0), exec(2, 2, 3, 0, 0)]);
        assert_eq!(
            check_coverage_effective(&missing, &g),
            Err(CoverageError::Missing(TaskId(1)))
        );

        let unknown = Trace::from_events(vec![
            exec(0, 0, 1, 0, 0),
            exec(1, 1, 2, 0, 0),
            exec(2, 2, 3, 0, 0),
            exec(9, 3, 4, 0, 0),
        ]);
        assert_eq!(
            check_coverage_effective(&unknown, &g),
            Err(CoverageError::Unknown(TaskId(9)))
        );
    }

    #[test]
    fn well_nested_accepts_serial_shape_and_rejects_overlap() {
        let cb = |task: u64, s: u64, e: u64| {
            TraceEvent::span(SpanKind::Callback, s, e, 0, 0)
                .with_task(TaskId(task), CallbackId(0))
        };
        let good = Trace::from_events(vec![
            exec(0, 0, 10, 0, 0),
            cb(0, 2, 8),
            exec(1, 10, 20, 0, 0),
            cb(1, 11, 19),
        ]);
        assert_eq!(check_well_nested(&good), Ok(()));

        let overlapping =
            Trace::from_events(vec![exec(0, 0, 10, 0, 0), exec(1, 5, 20, 0, 0)]);
        assert!(check_well_nested(&overlapping).unwrap_err().contains("overlap"));

        let escaping = Trace::from_events(vec![exec(0, 5, 10, 0, 0), cb(0, 2, 8)]);
        assert!(check_well_nested(&escaping).unwrap_err().contains("escapes"));

        // Overlap on *different* threads is fine (parallel workers).
        let parallel =
            Trace::from_events(vec![exec(0, 0, 10, 0, 0), exec(1, 5, 20, 0, 1)]);
        assert_eq!(check_well_nested(&parallel), Ok(()));
    }

    #[test]
    fn well_nested_matches_each_retry_to_its_own_attempt() {
        let cb = |task: u64, s: u64, e: u64, thread: u32| {
            TraceEvent::span(SpanKind::Callback, s, e, 0, thread)
                .with_task(TaskId(task), CallbackId(0))
        };
        // A failed attempt's task span equals its callback span; the
        // successful attempt's runs on past its callback into routing.
        let retried = Trace::from_events(vec![
            exec(0, 0, 5, 0, 0),
            cb(0, 0, 5, 0),
            exec(0, 6, 20, 0, 0),
            cb(0, 6, 10, 0),
        ]);
        assert_eq!(check_well_nested(&retried), Ok(()));

        // The second callback must still sit inside some attempt.
        let escaping = Trace::from_events(vec![
            exec(0, 0, 5, 0, 0),
            cb(0, 0, 5, 0),
            exec(0, 6, 20, 0, 0),
            cb(0, 6, 25, 0),
        ]);
        assert!(check_well_nested(&escaping).unwrap_err().contains("escapes"));

        // Containment on another row does not count.
        let elsewhere = Trace::from_events(vec![exec(0, 0, 10, 0, 0), cb(0, 2, 8, 1)]);
        assert!(check_well_nested(&elsewhere).unwrap_err().contains("thread 1"));
    }

    #[test]
    fn critical_path_follows_last_arriving_parent() {
        let g = chain3();
        let trace = Trace::from_events(vec![
            exec(0, 0, 10, 0, 0),
            exec(1, 10, 30, 0, 0),
            exec(2, 30, 35, 0, 0),
        ]);
        assert_eq!(
            observed_critical_path(&trace, &g),
            vec![TaskId(0), TaskId(1), TaskId(2)]
        );
        assert_eq!(
            observed_critical_path(&trace, &g).len(),
            babelflow_core::graph_stats(&g).depth
        );
    }

    #[test]
    fn summary_aggregates_by_callback_and_rank() {
        let cb = |task: u64, cb_id: u32, s: u64, e: u64, rank: u32| {
            TraceEvent::span(SpanKind::Callback, s, e, rank, 0)
                .with_task(TaskId(task), CallbackId(cb_id))
        };
        let trace = Trace::from_events(vec![
            exec(0, 0, 100, 0, 0),
            cb(0, 1, 10, 90, 0),
            exec(1, 0, 50, 1, 0),
            cb(1, 1, 5, 45, 1),
            TraceEvent::span(SpanKind::MsgSend, 90, 95, 0, 0)
                .with_task(TaskId(0), CallbackId(1))
                .with_message(TaskId(2), 256),
        ]);
        let s = TraceSummary::from_trace(&trace);
        assert_eq!(s.tasks, 2);
        assert_eq!(s.makespan_ns, 100);
        assert_eq!(s.callbacks.len(), 1);
        assert_eq!(s.callbacks[0].count, 2);
        assert_eq!(s.callbacks[0].bytes_sent, 256);
        assert_eq!(s.callbacks[0].min_ns, 40);
        assert_eq!(s.callbacks[0].max_ns, 80);
        assert_eq!(s.ranks.len(), 2);
        assert_eq!(s.ranks[0].busy_ns, 100);
        assert!((s.ranks[0].utilization - 1.0).abs() < 1e-9);
        assert!((s.ranks[1].utilization - 0.5).abs() < 1e-9);
        let text = s.to_string();
        assert!(text.contains("2 tasks"));
        assert!(text.contains("cb1"));
        assert!(text.contains("rank 0"));
    }
}
