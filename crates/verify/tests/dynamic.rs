//! Dynamic-half tests: the happens-before checker on real and
//! hand-corrupted traces, and the schedule-permutation determinism
//! harness on order-clean and deliberately order-sensitive callbacks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use babelflow_core::controller::InitialInputs;
use babelflow_core::ids::{CallbackId, TaskId};
use babelflow_core::plan::ShardPlan;
use babelflow_core::trace::{SpanKind, TraceEvent};
use babelflow_core::{Blob, Controller, ModuloMap, Payload, Registry, SerialController, TaskGraph};
use babelflow_graphs::Reduction;
use babelflow_trace::{Trace, TraceRecorder};
use babelflow_verify::{check_determinism, check_happens_before, HbViolation};

fn pay(v: u64) -> Payload {
    Payload::wrap(Blob(v.to_le_bytes().to_vec()))
}

fn val(p: &Payload) -> u64 {
    u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
}

fn sum_registry() -> Registry {
    let mut r = Registry::new();
    r.register(CallbackId(0), |inputs, _| vec![inputs[0].clone()]);
    r.register(CallbackId(1), |inputs, _| vec![pay(inputs.iter().map(val).sum())]);
    r.register(CallbackId(2), |inputs, _| vec![pay(inputs.iter().map(val).sum())]);
    r
}

fn leaf_inputs(g: &Reduction) -> InitialInputs {
    g.leaf_ids().into_iter().enumerate().map(|(i, id)| (id, vec![pay(i as u64)])).collect()
}

#[test]
fn serial_trace_is_hb_clean() {
    let g = Reduction::new(8, 2);
    let map = ModuloMap::new(1, g.size() as u64);
    let rec = TraceRecorder::shared();
    SerialController::new()
        .run_traced(&g, &map, &sum_registry(), leaf_inputs(&g), rec.clone())
        .unwrap();
    let trace = rec.take();
    let plan = ShardPlan::build(&g, &map);
    let rep = check_happens_before(&trace, &plan);
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(rep.execs, g.size());
    // Serial emits sends for every internal edge; all edges causal.
    assert!(rep.causal_edges > 0, "{rep}");
    assert_eq!(rep.clock_edges, 0, "{rep}");
}

#[test]
fn overlapping_unordered_execs_are_flagged() {
    // Hand-built trace for a chain t0 -> t1 where t1's execution overlaps
    // its producer's on another rank, with no message spans to order them.
    let mut t0 = babelflow_core::Task::new(TaskId(0), CallbackId(0));
    t0.incoming = vec![TaskId::EXTERNAL];
    t0.outgoing = vec![vec![TaskId(1)]];
    let mut t1 = babelflow_core::Task::new(TaskId(1), CallbackId(0));
    t1.incoming = vec![TaskId(0)];
    t1.outgoing = vec![vec![TaskId::EXTERNAL]];
    let g = babelflow_core::ExplicitGraph::new(vec![t0, t1], vec![CallbackId(0)]);
    let plan = ShardPlan::build(&g, &ModuloMap::new(2, 2));

    let trace = Trace::from_events(vec![
        TraceEvent::span(SpanKind::TaskExec, 0, 100, 0, 0).with_task(TaskId(1), CallbackId(0)),
        TraceEvent::span(SpanKind::TaskExec, 50, 150, 1, 0).with_task(TaskId(0), CallbackId(0)),
    ]);
    let rep = check_happens_before(&trace, &plan);
    assert_eq!(
        rep.violations(),
        &[HbViolation::ExecBeforeInput { task: TaskId(1), producer: TaskId(0) }],
        "{rep}"
    );

    // The same shape with the producer finishing first is clock-proven
    // even without message spans.
    let trace = Trace::from_events(vec![
        TraceEvent::span(SpanKind::TaskExec, 0, 100, 1, 0).with_task(TaskId(0), CallbackId(0)),
        TraceEvent::span(SpanKind::TaskExec, 100, 200, 0, 0).with_task(TaskId(1), CallbackId(0)),
    ]);
    let rep = check_happens_before(&trace, &plan);
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(rep.clock_edges, 1, "{rep}");
}

#[test]
fn recv_without_send_is_flagged() {
    let g = Reduction::new(4, 2);
    let map = ModuloMap::new(1, g.size() as u64);
    let rec = TraceRecorder::shared();
    SerialController::new()
        .run_traced(&g, &map, &sum_registry(), leaf_inputs(&g), rec.clone())
        .unwrap();
    let mut events: Vec<TraceEvent> = rec.take().events().to_vec();
    let end = events.iter().map(|e| e.end_ns).max().unwrap();
    // A message from a task that never sent one.
    events.push(
        TraceEvent::span(SpanKind::MsgRecv, end + 1, end + 2, 0, 0)
            .with_task(TaskId(0), CallbackId(0))
            .with_message(TaskId(5), 64),
    );
    let rep = check_happens_before(&Trace::from_events(events), &ShardPlan::build(&g, &map));
    assert!(
        rep.violations()
            .iter()
            .any(|v| matches!(v, HbViolation::UnmatchedRecv { task, peer, count: 1 }
                if *task == TaskId(0) && *peer == TaskId(5))),
        "{rep}"
    );
}

#[test]
fn incomplete_trace_reports_missing_exec() {
    let g = Reduction::new(4, 2);
    let map = ModuloMap::new(1, g.size() as u64);
    let rec = TraceRecorder::shared();
    SerialController::new()
        .run_traced(&g, &map, &sum_registry(), leaf_inputs(&g), rec.clone())
        .unwrap();
    let events: Vec<TraceEvent> = rec
        .take()
        .events()
        .iter()
        .filter(|e| !(e.kind == SpanKind::TaskExec && e.task == TaskId(0)))
        .cloned()
        .collect();
    let rep = check_happens_before(&Trace::from_events(events), &ShardPlan::build(&g, &map));
    assert!(
        rep.violations().contains(&HbViolation::MissingExec { task: TaskId(0) }),
        "{rep}"
    );
}

#[test]
fn pure_callbacks_are_schedule_deterministic() {
    let g = Reduction::new(8, 2);
    let map = ModuloMap::new(2, g.size() as u64);
    let rep =
        check_determinism(&g, &map, &sum_registry(), &leaf_inputs(&g), 16, 42).unwrap();
    assert_eq!(rep.schedules, 16);
    assert!(rep.is_deterministic(), "{rep}");
}

#[test]
fn order_sensitive_callback_is_caught() {
    // A leaf callback that observes global execution order: each
    // invocation stamps its output with a shared counter. The reduction
    // root concatenates in slot order, so which leaf drew which stamp is
    // visible in the bytes.
    let g = Reduction::new(4, 2);
    let map = ModuloMap::new(2, g.size() as u64);
    let counter = Arc::new(AtomicU64::new(0));
    let mut reg = Registry::new();
    {
        let counter = counter.clone();
        reg.register(CallbackId(0), move |_, _| {
            vec![pay(counter.fetch_add(1, Ordering::SeqCst))]
        });
    }
    let concat = |inputs: &[Payload], _| {
        let bytes: Vec<u8> =
            inputs.iter().flat_map(|p| p.extract::<Blob>().unwrap().0.clone()).collect();
        vec![Payload::wrap(Blob(bytes))]
    };
    reg.register(CallbackId(1), concat);
    reg.register(CallbackId(2), concat);

    let initial: InitialInputs =
        g.leaf_ids().into_iter().map(|id| (id, vec![pay(0)])).collect();
    let rep = check_determinism(&g, &map, &reg, &initial, 16, 7).unwrap();
    assert!(!rep.is_deterministic(), "order sensitivity went undetected: {rep}");
}

#[test]
fn determinism_harness_rejects_unlintable_graphs() {
    // The harness runs preflight, so a corrupt graph fails fast instead
    // of deadlocking the replay loop.
    let mut g = babelflow_core::ExplicitGraph::from_graph(&Reduction::new(4, 2));
    g.task_mut(TaskId(0)).unwrap().incoming.push(TaskId(999));
    let map = ModuloMap::new(1, g.size() as u64);
    let initial: InitialInputs = Reduction::new(4, 2)
        .leaf_ids()
        .into_iter()
        .map(|id| (id, vec![pay(1)]))
        .collect();
    let err = check_determinism(&g, &map, &sum_registry(), &initial, 2, 0).unwrap_err();
    assert!(err.to_string().contains("BF002"), "got: {err}");
}

#[test]
fn hb_checker_consumes_task_spans_iterator() {
    // `Trace::task_spans` exposes retried executions; the checker's
    // first-span anchoring matches its first element.
    let g = Reduction::new(4, 2);
    let map = ModuloMap::new(1, g.size() as u64);
    let rec = TraceRecorder::shared();
    SerialController::new()
        .run_traced(&g, &map, &sum_registry(), leaf_inputs(&g), rec.clone())
        .unwrap();
    let trace = rec.take();
    for id in (0..g.size() as u64).map(TaskId) {
        let all: Vec<_> = trace.task_spans(id).collect();
        assert_eq!(all.first().copied(), trace.task_span(id));
        assert_eq!(all.len(), 1, "serial executes each task once");
    }
}
