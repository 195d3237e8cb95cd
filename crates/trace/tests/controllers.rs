//! Cross-backend tracing integration: every controller runs the same
//! k-way reduction through the same [`TraceRecorder`], and the recorded
//! traces satisfy the same invariants — valid Chrome JSON, exactly-once
//! task coverage, and an observed critical path as long as the graph's
//! structural depth.

use std::collections::HashMap;

use babelflow_core::{
    graph_stats, Blob, CallbackId, Controller, FnMap, Payload, Registry, ShardId, SpanKind,
    TaskGraph, TaskId,
};
use babelflow_graphs::Reduction;
use babelflow_trace::{
    check_coverage, check_well_nested, observed_critical_path, parse_json, replay,
    to_chrome_json, TraceRecorder, TraceSummary,
};

fn val(p: &Payload) -> u64 {
    u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
}

fn pay(v: u64) -> Payload {
    Payload::wrap(Blob(v.to_le_bytes().to_vec()))
}

/// Sum-reduction registry: leaves forward, interior and root sum.
fn registry() -> Registry {
    let mut reg = Registry::new();
    reg.register(CallbackId(0), |inputs, _| inputs.to_vec()); // leaf
    reg.register(CallbackId(1), |inputs, _| vec![pay(inputs.iter().map(val).sum())]);
    reg.register(CallbackId(2), |inputs, _| vec![pay(inputs.iter().map(val).sum())]);
    reg
}

fn inputs(graph: &dyn TaskGraph) -> HashMap<TaskId, Vec<Payload>> {
    graph
        .input_tasks()
        .into_iter()
        .enumerate()
        .map(|(i, id)| (id, vec![pay(i as u64 + 1)]))
        .collect()
}

/// Run a 16-leaf 4-way reduction on `ctrl`, returning its trace.
fn record(ctrl: &mut dyn Controller) -> (Reduction, babelflow_trace::Trace) {
    let graph = Reduction::new(16, 4);
    let map = FnMap::new(3, graph.ids(), |t| ShardId((t.0 % 3) as u32));
    let reg = registry();
    let recorder = TraceRecorder::shared();
    let report = ctrl
        .run_traced(&graph, &map, &reg, inputs(&graph), recorder.clone())
        .unwrap_or_else(|e| panic!("{} failed: {e:?}", ctrl.name()));
    // Sum of 1..=16, regardless of backend.
    assert_eq!(val(&report.outputs[&TaskId(0)][0]), 136, "{}", ctrl.name());
    (graph, recorder.take())
}

fn all_controllers() -> Vec<Box<dyn Controller>> {
    vec![
        Box::new(babelflow_core::SerialController::new()),
        Box::new(babelflow_mpi::MpiController::new()),
        Box::new(babelflow_mpi::BlockingMpiController::new()),
        Box::new(babelflow_charm::CharmController::new(3)),
        Box::new(babelflow_legion::LegionSpmdController::new(3)),
        Box::new(babelflow_legion::LegionIndexLaunchController::new(3)),
    ]
}

#[test]
fn every_controller_emits_exactly_once_task_spans() {
    for mut ctrl in all_controllers() {
        let (graph, trace) = record(ctrl.as_mut());
        assert!(!trace.is_empty(), "{} recorded nothing", ctrl.name());
        check_coverage(&trace, &graph)
            .unwrap_or_else(|e| panic!("{} coverage: {e}", ctrl.name()));
    }
}

#[test]
fn every_controller_exports_valid_chrome_json() {
    for mut ctrl in all_controllers() {
        let (graph, trace) = record(ctrl.as_mut());
        let doc = parse_json(&to_chrome_json(&trace))
            .unwrap_or_else(|e| panic!("{} export: {e}", ctrl.name()));
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), trace.len(), "{}", ctrl.name());
        assert!(
            events.len() >= graph_stats(&graph).tasks,
            "{}: fewer events than tasks",
            ctrl.name()
        );
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("ts").unwrap().as_num().unwrap() >= 0.0);
            assert!(e.get("dur").unwrap().as_num().unwrap() >= 0.0);
        }
    }
}

#[test]
fn observed_critical_path_matches_structural_depth() {
    for mut ctrl in all_controllers() {
        let (graph, trace) = record(ctrl.as_mut());
        let path = observed_critical_path(&trace, &graph);
        let depth = graph_stats(&graph).depth;
        assert_eq!(
            path.len(),
            depth,
            "{}: observed critical path {path:?} vs structural depth {depth}",
            ctrl.name()
        );
        // The path is a real dependency chain ending at the root.
        assert_eq!(*path.last().unwrap(), TaskId(0), "{}", ctrl.name());
        for pair in path.windows(2) {
            let parent = graph.task(pair[1]).unwrap();
            assert!(
                parent.incoming.contains(&pair[0]),
                "{}: {} does not feed {}",
                ctrl.name(),
                pair[0],
                pair[1]
            );
        }
    }
}

#[test]
fn every_trace_is_well_nested_with_matched_callbacks() {
    for mut ctrl in all_controllers() {
        let (graph, trace) = record(ctrl.as_mut());
        check_well_nested(&trace).unwrap_or_else(|e| panic!("{}: {e}", ctrl.name()));
        // One callback span per task, nested in its exec span.
        assert_eq!(
            trace.of_kind(SpanKind::Callback).count(),
            graph_stats(&graph).tasks,
            "{}",
            ctrl.name()
        );
    }
    // Serial also queues every task exactly once.
    let (graph, trace) = record(&mut babelflow_core::SerialController::new());
    assert_eq!(
        trace.of_kind(SpanKind::QueueWait).count(),
        graph_stats(&graph).tasks
    );
}

#[test]
fn summary_counts_match_graph_shape() {
    let (_, trace) = record(&mut babelflow_mpi::MpiController::new());
    let summary = TraceSummary::from_trace(&trace);
    assert_eq!(summary.tasks, 21, "16 leaves + 4 interior + root");
    // Callback stats carry each of the three reduction callbacks.
    let counts: Vec<(u32, u64)> =
        summary.callbacks.iter().map(|c| (c.callback.0, c.count)).collect();
    assert!(counts.contains(&(0, 16)), "leaf callbacks: {counts:?}");
    assert!(counts.contains(&(1, 4)), "reduce callbacks: {counts:?}");
    assert!(counts.contains(&(2, 1)), "root callback: {counts:?}");
    // Three ranks executed everything between them.
    let per_rank: u64 = summary.ranks.iter().map(|r| r.tasks).sum();
    assert_eq!(per_rank, 21);
    for r in &summary.ranks {
        assert!(r.utilization <= 1.0 + 1e-9, "utilization {}", r.utilization);
    }
}

#[test]
fn mpi_trace_records_wire_traffic() {
    let (_, trace) = record(&mut babelflow_mpi::MpiController::new());
    let sent: u64 = trace.of_kind(SpanKind::MsgSend).map(|e| e.bytes).sum();
    let recvd: u64 = trace.of_kind(SpanKind::MsgRecv).map(|e| e.bytes).sum();
    assert!(sent > 0, "cross-rank reduction must serialize messages");
    assert_eq!(sent, recvd, "every wire byte sent is received");
}

#[test]
fn replay_agrees_with_observed_schedule_on_makespan_scale() {
    let (graph, trace) = record(&mut babelflow_mpi::MpiController::new());
    let report = replay(&trace, &graph, &babelflow_sim::RuntimeCosts::mpi_async());
    assert_eq!(report.tasks, 21);
    assert_eq!(report.cores, 3);
    assert!(report.predicted_makespan_ns > 0);
    assert!(report.observed_makespan_ns > 0);
    assert!(report.ordering_agreement() >= 0.0);
    // The report prints the comparison in humane units.
    let text = report.to_string();
    assert!(text.contains("21 tasks on 3 cores"), "{text}");
}
