//! Property tests for the tracing invariants the analyses rely on:
//! serial traces are well-nested and cover every task exactly once, the
//! Chrome export always round-trips through the in-repo JSON parser,
//! and the observed critical path of a reduction always spans its depth.

use std::collections::HashMap;
use std::sync::Arc;

use babelflow_core::proptest_lite::prelude::*;
use babelflow_core::{
    graph_stats, Blob, CallbackId, Controller, ModuloMap, Payload, Registry, SerialController,
    SpanKind, TaskGraph, TaskId,
};
use babelflow_graphs::Reduction;
use babelflow_trace::{
    check_coverage, check_well_nested, observed_critical_path, parse_json, to_chrome_json,
    Trace, TraceRecorder,
};

fn pay(v: u64) -> Payload {
    Payload::wrap(Blob(v.to_le_bytes().to_vec()))
}

fn sum_registry() -> Registry {
    let val = |p: &Payload| {
        u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
    };
    let mut reg = Registry::new();
    reg.register(CallbackId(0), |inputs, _| inputs.to_vec());
    reg.register(CallbackId(1), move |inputs, _| {
        vec![pay(inputs.iter().map(val).sum())]
    });
    reg.register(CallbackId(2), move |inputs, _| {
        vec![pay(inputs.iter().map(val).sum())]
    });
    reg
}

/// Trace a serial run of a `valence^depth`-leaf reduction.
fn serial_trace(valence: u64, depth: u32) -> (Reduction, Trace) {
    let graph = Reduction::new(valence.pow(depth), valence);
    let initial: HashMap<TaskId, Vec<Payload>> = graph
        .input_tasks()
        .into_iter()
        .enumerate()
        .map(|(i, id)| (id, vec![pay(i as u64)]))
        .collect();
    let map = ModuloMap::new(1, graph.size() as u64);
    let recorder = Arc::new(TraceRecorder::new());
    SerialController::new()
        .run_traced(&graph, &map, &sum_registry(), initial, recorder.clone())
        .expect("serial run succeeds");
    (graph, recorder.take())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn serial_traces_are_well_nested_and_cover_every_task_once(
        valence in 2u64..5,
        depth in 1u32..4,
    ) {
        let (graph, trace) = serial_trace(valence, depth);

        // Exactly-once coverage of the whole graph.
        if let Err(e) = check_coverage(&trace, &graph) {
            return Err(CaseError::Fail(format!("coverage: {e}")));
        }
        // Well-nested: callbacks inside their task spans, no overlap.
        if let Err(e) = check_well_nested(&trace) {
            return Err(CaseError::Fail(format!("nesting: {e}")));
        }
        // Serial means one thread: every span on rank 0, thread 0.
        for e in trace.events() {
            prop_assert_eq!(e.rank, 0, "serial spans run on rank 0");
            prop_assert_eq!(e.thread, 0, "serial spans run on thread 0");
        }
        // One callback per task, monotone timestamps.
        let tasks = graph_stats(&graph).tasks;
        prop_assert_eq!(trace.of_kind(SpanKind::Callback).count(), tasks);
        for e in trace.events() {
            prop_assert!(e.end_ns >= e.start_ns);
        }
    }

    #[test]
    fn chrome_export_always_round_trips(valence in 2u64..4, depth in 1u32..3) {
        let (_, trace) = serial_trace(valence, depth);
        let doc = match parse_json(&to_chrome_json(&trace)) {
            Ok(doc) => doc,
            Err(e) => return Err(CaseError::Fail(format!("parse: {e}"))),
        };
        let events = doc.get("traceEvents").and_then(|v| v.as_arr());
        prop_assert!(events.is_some());
        prop_assert_eq!(events.unwrap().len(), trace.len());
    }

    #[test]
    fn critical_path_always_spans_reduction_depth(
        valence in 2u64..5,
        depth in 1u32..4,
    ) {
        let (graph, trace) = serial_trace(valence, depth);
        let path = observed_critical_path(&trace, &graph);
        prop_assert_eq!(path.len(), graph_stats(&graph).depth);
        prop_assert_eq!(*path.last().unwrap(), TaskId(0));
    }
}
