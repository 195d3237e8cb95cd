//! The per-task execution core every controller shares.
//!
//! The paper's controllers differ in how they schedule tasks and move
//! data, not in what running one task means. [`exec`] is that common
//! part: it runs a ready task's callback under the retry budget, checks
//! the output arity, hands the outputs to the backend's `route` closure
//! (a local delivery, a chare send, a region write, an encoded network
//! send, or a handoff to a control thread), and emits the task's spans.
//!
//! Span schema, identical on every backend, on the caller's `(rank,
//! thread)` row:
//!
//! * every attempt gets one [`SpanKind::Callback`] span around the user
//!   callback;
//! * a failed attempt also gets a [`SpanKind::TaskExec`] span with the
//!   same bounds;
//! * the successful attempt's `TaskExec` span runs from that attempt's
//!   start until `route` returns.
//!
//! So a fault-free task has exactly one `TaskExec` span, a retried task
//! one per attempt, and every `Callback` lies inside the same-row
//! `TaskExec` span of its own attempt.

use std::panic::{self, AssertUnwindSafe};

use crate::controller::{ControllerError, Result, RunStats};
use crate::fault::MAX_TASK_RETRIES;
use crate::ids::TaskId;
use crate::payload::Payload;
use crate::plan::{PlanTask, Route, ShardPlan};
use crate::registry::Callback;
use crate::trace::{now_ns, SpanKind, TraceEvent, TraceSink};

/// Execute one ready task.
///
/// Every attempt invokes `cb` on the caller's `inputs`, by reference: a
/// callback cannot move or change them, so a retry sees the same inputs
/// and no attempt copies them. A panicking attempt is retried in place —
/// tasks are idempotent — and counted in `stats.recovery.retries`; after
/// [`MAX_TASK_RETRIES`] retries the last panic surfaces as
/// [`ControllerError::TaskError`]. Outputs of the wrong arity are
/// [`ControllerError::BadOutputArity`]. Otherwise `route` receives the
/// outputs in slot order, with `stats` for its own counters, and its
/// result is returned.
///
/// `row` is the `(rank, thread)` the spans are recorded on.
pub fn exec<R>(
    pt: &PlanTask,
    cb: &Callback,
    inputs: &[Payload],
    row: (u32, u32),
    sink: &dyn TraceSink,
    stats: &mut RunStats,
    route: impl FnOnce(Vec<Payload>, &mut RunStats) -> Result<R>,
) -> Result<R> {
    let tracing = sink.enabled();
    let (id, callback) = (pt.id(), pt.callback());
    let span = |kind, start, end| {
        sink.record(TraceEvent::span(kind, start, end, row.0, row.1).with_task(id, callback));
    };
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let start = if tracing { now_ns() } else { 0 };
        let attempt = catch_invoke(cb, inputs, id);
        let cb_end = if tracing { now_ns() } else { 0 };
        if tracing {
            span(SpanKind::Callback, start, cb_end);
        }
        match attempt {
            Ok(outputs) => {
                let routed = if outputs.len() == pt.fan_out() {
                    route(outputs, stats)
                } else {
                    Err(ControllerError::BadOutputArity {
                        task: id,
                        expected: pt.fan_out(),
                        got: outputs.len(),
                    })
                };
                if tracing {
                    span(SpanKind::TaskExec, start, now_ns());
                }
                return routed;
            }
            Err(reason) => {
                if tracing {
                    span(SpanKind::TaskExec, start, cb_end);
                }
                if attempts > MAX_TASK_RETRIES {
                    return Err(ControllerError::TaskError { task: id, attempts, reason });
                }
                stats.recovery.retries += 1;
            }
        }
    }
}

/// The routing loop of every `route` closure: `deliver` (one route's body)
/// gets each output once per route, in slot and route order, as a clone for
/// every route of a slot but the last, which takes the output itself
/// (`payload_clones` += `routes − 1`). A route that fills no consumer slot
/// fails the task first ([`ShardPlan::unroutable`]), so in `deliver` a
/// `None` [`input`](Route::input) means the host. The first error is returned.
pub fn route_outputs(
    plan: &ShardPlan,
    pt: &PlanTask,
    outs: Vec<Payload>,
    stats: &mut RunStats,
    mut deliver: impl FnMut(&Route, Payload, &mut RunStats) -> Result<()>,
) -> Result<()> {
    if let Some(r) = pt.routes.iter().flatten().find(|r| r.input.is_none() && !r.is_external()) {
        return Err(plan.unroutable(pt.id(), r.dst));
    }
    for (payload, routes) in outs.into_iter().zip(&pt.routes) {
        let Some((last, rest)) = routes.split_last() else { continue };
        stats.perf.payload_clones += rest.len() as u64;
        for route in rest {
            deliver(route, payload.clone(), stats)?;
        }
        deliver(last, payload, stats)?;
    }
    Ok(())
}

/// One guarded callback attempt: invoke `cb` and convert an unwind into
/// `Err(message)`, so a poisoned task becomes a retried task instead of a
/// crashed worker thread.
fn catch_invoke(
    cb: &Callback,
    inputs: &[Payload],
    id: TaskId,
) -> std::result::Result<Vec<Payload>, String> {
    match panic::catch_unwind(AssertUnwindSafe(|| cb(inputs, id))) {
        Ok(outputs) => Ok(outputs),
        Err(e) => Err(e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "callback panicked".to_string())),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::fault::{inject_panics, quiet_panic_hook, FaultPlan, PANIC_MARKER};
    use crate::graph::ExplicitGraph;
    use crate::ids::CallbackId;
    use crate::payload::Blob;
    use crate::registry::Registry;
    use crate::sync::Mutex;
    use crate::task::Task;
    use crate::taskmap::ModuloMap;
    use crate::trace::NoopSink;

    /// A one-task plan: two external inputs, two external outputs.
    fn plan() -> ShardPlan {
        let mut t = Task::new(TaskId(0), CallbackId(0));
        t.incoming = vec![TaskId::EXTERNAL, TaskId::EXTERNAL];
        t.outgoing = vec![vec![TaskId::EXTERNAL], vec![TaskId::EXTERNAL]];
        let g = ExplicitGraph::new(vec![t], vec![CallbackId(0)]);
        ShardPlan::build(&g, &ModuloMap::new(1, 1))
    }

    fn inputs() -> Vec<Payload> {
        vec![Payload::wrap(Blob(vec![1])), Payload::wrap(Blob(vec![2]))]
    }

    fn registry(
        cb: impl Fn(&[Payload], TaskId) -> Vec<Payload> + Send + Sync + 'static,
    ) -> Registry {
        let mut r = Registry::new();
        r.register(CallbackId(0), cb);
        r
    }

    #[derive(Default)]
    struct Spans(Mutex<Vec<TraceEvent>>);

    impl TraceSink for Spans {
        fn record(&self, event: TraceEvent) {
            self.0.lock().push(event);
        }
    }

    #[test]
    fn retry_exhaustion_is_a_task_error_after_four_attempts() {
        quiet_panic_hook();
        let reg = registry(|_, _| panic!("{PANIC_MARKER}: always"));
        let plan = plan();
        let mut stats = RunStats::default();
        let err = exec(
            plan.task(0),
            reg.get(CallbackId(0)).unwrap(),
            &inputs(),
            (0, 0),
            &NoopSink,
            &mut stats,
            |_, _| -> Result<()> { panic!("a failed task is never routed") },
        )
        .unwrap_err();
        assert!(
            matches!(&err, ControllerError::TaskError { task: TaskId(0), attempts: 4, reason }
                if reason.contains("always")),
            "got {err}"
        );
        assert_eq!(stats.recovery.retries, MAX_TASK_RETRIES as u64);
    }

    #[test]
    fn wrong_arity_is_reported_and_not_routed() {
        let reg = registry(|inputs, _| inputs[..1].to_vec());
        let plan = plan();
        let err = exec(
            plan.task(0),
            reg.get(CallbackId(0)).unwrap(),
            &inputs(),
            (0, 0),
            &NoopSink,
            &mut RunStats::default(),
            |_, _| -> Result<()> { panic!("bad arity is never routed") },
        )
        .unwrap_err();
        assert!(
            matches!(err, ControllerError::BadOutputArity { task: TaskId(0), expected: 2, got: 1 }),
            "got {err}"
        );
    }

    fn bytes(payloads: &[Payload]) -> Vec<Vec<u8>> {
        payloads.iter().map(|p| p.extract::<Blob>().unwrap().0.clone()).collect()
    }

    #[test]
    fn a_retry_sees_the_same_inputs_and_clones_none() {
        quiet_panic_hook();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let reg = {
            let seen = seen.clone();
            registry(move |inputs, _| {
                let attempt = {
                    let mut seen = seen.lock();
                    seen.push(bytes(inputs));
                    seen.len()
                };
                if attempt == 1 {
                    panic!("{PANIC_MARKER}: first attempt");
                }
                inputs.to_vec()
            })
        };
        let plan = plan();
        let mut stats = RunStats::default();
        let routed = exec(
            plan.task(0),
            reg.get(CallbackId(0)).unwrap(),
            &inputs(),
            (0, 0),
            &NoopSink,
            &mut stats,
            |outputs, stats| {
                stats.local_messages += 1;
                Ok(outputs.len())
            },
        )
        .unwrap();
        assert_eq!(routed, 2);
        assert_eq!(*seen.lock(), [bytes(&inputs()), bytes(&inputs())]);
        // Two attempts and no clone; `route` sees the same `stats`.
        assert_eq!(stats.perf.payload_clones, 0);
        assert_eq!(stats.recovery.retries, 1);
        assert_eq!(stats.local_messages, 1);
    }

    /// One task whose first output slot goes to the host three times and
    /// whose second goes once.
    fn fan_plan() -> ShardPlan {
        let mut t = Task::new(TaskId(0), CallbackId(0));
        t.incoming = vec![TaskId::EXTERNAL];
        t.outgoing = vec![vec![TaskId::EXTERNAL; 3], vec![TaskId::EXTERNAL]];
        let g = ExplicitGraph::new(vec![t], vec![CallbackId(0)]);
        ShardPlan::build(&g, &ModuloMap::new(1, 1))
    }

    #[test]
    fn routing_clones_every_route_of_a_slot_but_the_last() {
        let plan = fan_plan();
        let mut stats = RunStats::default();
        let mut got = Vec::new();
        route_outputs(&plan, plan.task(0), inputs(), &mut stats, |route, payload, _| {
            assert!(route.is_external());
            got.push(payload);
            Ok(())
        })
        .unwrap();
        assert_eq!(bytes(&got), [[1], [1], [1], [2]]);
        assert_eq!(stats.perf.payload_clones, 2);
    }

    #[test]
    fn routing_stops_at_the_first_error() {
        let plan = fan_plan();
        let mut stats = RunStats::default();
        let mut calls = 0;
        let err = route_outputs(&plan, plan.task(0), inputs(), &mut stats, |_, _, _| {
            calls += 1;
            Err(ControllerError::Runtime("refused".into()))
        })
        .unwrap_err();
        assert!(matches!(err, ControllerError::Runtime(m) if m == "refused"));
        assert_eq!(calls, 1);
    }

    #[test]
    fn routing_fails_a_route_that_fills_no_slot_before_any_output_moves() {
        // Task 0 sends its one output to the host, to the missing task 76,
        // then to the host again.
        let mut t = Task::new(TaskId(0), CallbackId(0));
        t.outgoing = vec![vec![TaskId::EXTERNAL, TaskId(76), TaskId::EXTERNAL]];
        let g = ExplicitGraph::new(vec![t], vec![CallbackId(0)]);
        let plan = ShardPlan::build(&g, &ModuloMap::new(1, 1)).lenient();
        let mut delivered = Vec::new();
        let outs = inputs()[..1].to_vec();
        let err = route_outputs(&plan, plan.task(0), outs, &mut RunStats::default(), |r, _, _| {
            delivered.push(r.dst);
            Ok(())
        })
        .unwrap_err();
        assert_eq!(err.to_string(), plan.unroutable(TaskId(0), TaskId(76)).to_string());
        assert!(delivered.is_empty(), "delivered {delivered:?}");
    }

    #[test]
    fn a_retried_task_records_one_span_pair_per_attempt() {
        let reg = registry(|inputs, _| inputs.to_vec());
        let poisoned =
            inject_panics(&reg, &FaultPlan { panic_once: vec![TaskId(0)], ..FaultPlan::none() });
        let plan = plan();
        let sink = Arc::new(Spans::default());
        exec(
            plan.task(0),
            poisoned.get(CallbackId(0)).unwrap(),
            &inputs(),
            (3, 7),
            &*sink,
            &mut RunStats::default(),
            |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                Ok(())
            },
        )
        .unwrap();
        let spans = sink.0.lock().clone();
        let kinds: Vec<SpanKind> = spans.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [SpanKind::Callback, SpanKind::TaskExec, SpanKind::Callback, SpanKind::TaskExec]
        );
        for e in &spans {
            assert_eq!((e.rank, e.thread, e.task), (3, 7, TaskId(0)));
        }
        let [cb1, ex1, cb2, ex2] = [&spans[0], &spans[1], &spans[2], &spans[3]];
        // The failed attempt's task span is exactly its callback span.
        assert_eq!((ex1.start_ns, ex1.end_ns), (cb1.start_ns, cb1.end_ns));
        // The successful one starts with its callback and ends after
        // routing, without overlapping the failed attempt.
        assert_eq!(ex2.start_ns, cb2.start_ns);
        assert!(ex2.end_ns >= cb2.end_ns + 1_000_000);
        assert!(ex2.start_ns >= ex1.end_ns);
    }
}
