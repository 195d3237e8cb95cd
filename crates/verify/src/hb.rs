//! Vector-clock happens-before verification of recorded traces.
//!
//! A correct run must order every task execution after the executions
//! that produced its inputs. [`check_happens_before`] proves that order
//! from a [`Trace`] alone, for any backend, by reconstructing the
//! send/recv/exec partial order with vector clocks:
//!
//! * **Processes** are `(rank, thread)` pairs; events on one process are
//!   program-ordered by their position in the time-sorted trace.
//! * **Task-identity edges** connect the first `TaskExec` of a task to
//!   every `MsgSend` carrying that task as producer — backends emit the
//!   send span wherever their transport lives (a control thread, a
//!   different rank), so the span's process alone does not order it
//!   after the execution.
//! * **Channel edges** connect the k-th `MsgSend` on a `(producer,
//!   consumer)` channel to the k-th `MsgRecv` — transports guarantee
//!   per-channel FIFO. Channels with no recv spans at all (in-memory
//!   delivery) use the sends themselves as delivery points.
//! * **Delivery edges** connect each delivery on a channel into the
//!   consumer's first `TaskExec`.
//!
//! An input edge of the plan is then *causally proven* when the
//! producer's clock is componentwise ≤ the consumer's. Edges the clocks
//! cannot order (a backend that emits no message spans for some path)
//! fall back to the monotonic timestamps — `end_ns ≤ start_ns` is still
//! a sound witness because all spans share one clock — and are counted
//! separately as *clock-proven*. Only an edge provable neither way is a
//! violation.
//!
//! Retries and speculative re-execution are handled by anchoring every
//! edge at the *first* `TaskExec` span per task: any later attempt only
//! executes after the first became possible, so the first is the
//! earliest (hardest) witness.

use std::collections::HashMap;

use babelflow_core::ids::TaskId;
use babelflow_core::plan::ShardPlan;
use babelflow_core::trace::{SpanKind, TraceEvent};
use babelflow_trace::Trace;

/// One ordering defect found in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HbViolation {
    /// A task's first execution is not provably after the first
    /// execution of one of its producers.
    ExecBeforeInput {
        /// The consumer that ran too early.
        task: TaskId,
        /// The producer it failed to wait for.
        producer: TaskId,
    },
    /// More `MsgRecv` spans than `MsgSend` spans on a channel: a message
    /// arrived that nobody provably sent.
    UnmatchedRecv {
        /// Receiving task.
        task: TaskId,
        /// Claimed producer.
        peer: TaskId,
        /// How many receives had no matching send.
        count: usize,
    },
    /// Two deliveries on the same `(producer, consumer)` channel are
    /// neither causally nor temporally ordered — concurrent writes
    /// toward the same plan slots (a lost-update race).
    ConcurrentDelivery {
        /// Producing task of the racing channel.
        producer: TaskId,
        /// Consuming task of the racing channel.
        consumer: TaskId,
    },
    /// A task the plan expects to run has no `TaskExec` span at all.
    MissingExec {
        /// The absent task.
        task: TaskId,
    },
}

impl std::fmt::Display for HbViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HbViolation::ExecBeforeInput { task, producer } => write!(
                f,
                "task {task} executed without happening-after its producer {producer}"
            ),
            HbViolation::UnmatchedRecv { task, peer, count } => write!(
                f,
                "task {task} received {count} message(s) from {peer} with no matching send"
            ),
            HbViolation::ConcurrentDelivery { producer, consumer } => write!(
                f,
                "unordered concurrent deliveries on channel {producer} -> {consumer}"
            ),
            HbViolation::MissingExec { task } => {
                write!(f, "plan task {task} never executed in the trace")
            }
        }
    }
}

/// Outcome of a happens-before check, with proof statistics.
#[derive(Clone, Debug, Default)]
pub struct HbReport {
    violations: Vec<HbViolation>,
    /// Distinct tasks with at least one `TaskExec` span.
    pub execs: usize,
    /// `MsgSend` spans inspected.
    pub sends: usize,
    /// `MsgRecv` spans inspected.
    pub recvs: usize,
    /// Input edges proven by vector-clock order.
    pub causal_edges: usize,
    /// Input edges proven only by the shared monotonic clock.
    pub clock_edges: usize,
}

impl HbReport {
    /// Whether no violations were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations, in detection order.
    pub fn violations(&self) -> &[HbViolation] {
        &self.violations
    }
}

impl std::fmt::Display for HbReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} execs, {} sends, {} recvs; {} causal + {} clock-proven edges",
            self.execs, self.sends, self.recvs, self.causal_edges, self.clock_edges
        )?;
        if self.violations.is_empty() {
            return write!(f, "; no violations");
        }
        for v in &self.violations {
            write!(f, "\n  - {v}")?;
        }
        Ok(())
    }
}

type Clock = Vec<u64>;

fn leq(a: &Clock, b: &Clock) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

fn join(into: &mut Clock, other: &Clock) {
    for (x, y) in into.iter_mut().zip(other) {
        *x = (*x).max(*y);
    }
}

/// Check a recorded trace against the plan it executed.
///
/// The trace must come from a completed run of `plan` (every plan task
/// executed); traces of failed runs report [`HbViolation::MissingExec`]
/// for the tasks that never started.
pub fn check_happens_before(trace: &Trace, plan: &ShardPlan) -> HbReport {
    let events = trace.events();
    let mut rep = HbReport::default();

    // Dense process ids for (rank, thread) pairs.
    let mut procs: HashMap<(u32, u32), usize> = HashMap::new();
    for e in events {
        let n = procs.len();
        procs.entry((e.rank, e.thread)).or_insert(n);
    }
    let np = procs.len().max(1);

    // First TaskExec per task (the canonical execution witness) and the
    // per-channel send lists, in trace order.
    let mut first_exec: HashMap<TaskId, usize> = HashMap::new();
    let mut sends: HashMap<(TaskId, TaskId), Vec<usize>> = HashMap::new();
    let mut recv_count: HashMap<(TaskId, TaskId), usize> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        match e.kind {
            SpanKind::TaskExec => {
                first_exec.entry(e.task).or_insert(i);
            }
            SpanKind::MsgSend if !e.peer.is_external() => {
                sends.entry((e.task, e.peer)).or_default().push(i);
                rep.sends += 1;
            }
            SpanKind::MsgRecv if !e.peer.is_external() => {
                *recv_count.entry((e.peer, e.task)).or_default() += 1;
                rep.recvs += 1;
            }
            _ => {}
        }
    }
    rep.execs = first_exec.len();

    // The sweep: per-process clocks, stored event clocks for the events
    // other edges join on, and per-consumer delivery inboxes.
    let mut proc_vc: Vec<Clock> = vec![vec![0; np]; np];
    let mut event_vc: HashMap<usize, Clock> = HashMap::new();
    let mut inbox: HashMap<TaskId, Vec<(usize, Clock)>> = HashMap::new();
    let mut matched: HashMap<(TaskId, TaskId), usize> = HashMap::new();
    let mut unmatched: HashMap<(TaskId, TaskId), usize> = HashMap::new();

    for (i, e) in events.iter().enumerate() {
        let relevant = matches!(e.kind, SpanKind::TaskExec | SpanKind::MsgSend | SpanKind::MsgRecv);
        if !relevant {
            continue;
        }
        let pid = procs[&(e.rank, e.thread)];
        let mut vc = proc_vc[pid].clone();

        match e.kind {
            SpanKind::TaskExec if first_exec.get(&e.task) == Some(&i) => {
                // Delivery edges: every delivery already swept joins in.
                if let Some(arrivals) = inbox.get(&e.task) {
                    for (_, c) in arrivals {
                        join(&mut vc, c);
                    }
                }
            }
            SpanKind::MsgSend if !e.peer.is_external() => {
                // Task-identity edge from the producer's execution.
                if let Some(c) = first_exec.get(&e.task).and_then(|x| event_vc.get(x)) {
                    join(&mut vc, c);
                }
            }
            SpanKind::MsgRecv if !e.peer.is_external() => {
                // Channel edge from the matching (FIFO-ordered) send. A
                // recv beyond the send count matches the last send —
                // fault-injected duplicates re-deliver a real message —
                // but a recv on a channel nobody ever sent on is a
                // phantom.
                let ch = (e.peer, e.task);
                let k = matched.entry(ch).or_default();
                match sends.get(&ch) {
                    Some(s) => {
                        let send_ix = s[(*k).min(s.len() - 1)];
                        if let Some(c) = event_vc.get(&send_ix) {
                            join(&mut vc, c);
                        }
                    }
                    None => *unmatched.entry(ch).or_default() += 1,
                }
                *k += 1;
            }
            _ => {}
        }

        vc[pid] += 1;
        proc_vc[pid] = vc.clone();

        // Record clocks other edges join on, and delivery points. A
        // channel with recv spans delivers at the recv; one without (an
        // in-memory transport) delivers at the send itself.
        match e.kind {
            SpanKind::TaskExec if first_exec.get(&e.task) == Some(&i) => {
                event_vc.insert(i, vc);
            }
            SpanKind::MsgSend if !e.peer.is_external() => {
                if recv_count.get(&(e.task, e.peer)).copied().unwrap_or(0) == 0 {
                    inbox.entry(e.peer).or_default().push((i, vc.clone()));
                }
                event_vc.insert(i, vc);
            }
            SpanKind::MsgRecv if !e.peer.is_external() => {
                inbox.entry(e.task).or_default().push((i, vc));
            }
            _ => {}
        }
    }

    for ((src, dst), count) in unmatched {
        rep.violations.push(HbViolation::UnmatchedRecv { task: dst, peer: src, count });
    }

    // Verify every internal input edge of the plan.
    let mut tasks: Vec<_> = plan.tasks().iter().collect();
    tasks.sort_by_key(|pt| pt.id());
    for pt in tasks {
        let Some(&exec_t) = first_exec.get(&pt.id()) else {
            rep.violations.push(HbViolation::MissingExec { task: pt.id() });
            continue;
        };
        for (src, _) in pt.producers() {
            let Some(&exec_p) = first_exec.get(&src) else {
                continue; // flagged as MissingExec at the producer
            };
            let proven = match (event_vc.get(&exec_p), event_vc.get(&exec_t)) {
                (Some(cp), Some(ct)) if leq(cp, ct) => {
                    rep.causal_edges += 1;
                    true
                }
                _ => false,
            };
            if proven {
                continue;
            }
            if events[exec_p].end_ns <= events[exec_t].start_ns {
                rep.clock_edges += 1;
            } else {
                rep.violations.push(HbViolation::ExecBeforeInput {
                    task: pt.id(),
                    producer: src,
                });
            }
        }
    }

    // Lost-update races: two deliveries on one channel ordered neither
    // causally nor by the shared clock.
    let mut by_channel: HashMap<(TaskId, TaskId), Vec<(usize, Clock)>> = HashMap::new();
    for (dst, arrivals) in &inbox {
        for (ix, c) in arrivals {
            by_channel
                .entry((events[*ix].task_endpoint_src(), *dst))
                .or_default()
                .push((*ix, c.clone()));
        }
    }
    let mut racy: Vec<(TaskId, TaskId)> = Vec::new();
    for (&(src, dst), arrivals) in &by_channel {
        'outer: for (a, (ia, ca)) in arrivals.iter().enumerate() {
            for (ib, cb) in arrivals.iter().skip(a + 1) {
                if leq(ca, cb) || leq(cb, ca) {
                    continue;
                }
                let (ea, eb) = (&events[*ia], &events[*ib]);
                if ea.end_ns <= eb.start_ns || eb.end_ns <= ea.start_ns {
                    continue;
                }
                racy.push((src, dst));
                break 'outer;
            }
        }
    }
    racy.sort_unstable();
    for (src, dst) in racy {
        rep.violations.push(HbViolation::ConcurrentDelivery { producer: src, consumer: dst });
    }

    rep
}

/// The producing task of a message span, regardless of direction: sends
/// carry it as `task`, recvs as `peer`.
trait MessageSrc {
    fn task_endpoint_src(&self) -> TaskId;
}

impl MessageSrc for TraceEvent {
    fn task_endpoint_src(&self) -> TaskId {
        match self.kind {
            SpanKind::MsgRecv => self.peer,
            _ => self.task,
        }
    }
}
