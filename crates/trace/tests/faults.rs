//! Tracing under fault injection: a run that drops messages and panics a
//! callback still byte-matches the fault-free serial run, and its trace
//! tells the recovery story — retried attempts appear as *extra*
//! `TaskExec` spans, while effective coverage (at-least-once execution,
//! exactly-once effect) and span nesting still hold.

use std::collections::HashMap;

use babelflow_core::{
    canonical_outputs, inject_panics, run_serial, Blob, CallbackId, Controller, FaultPlan, FnMap,
    Payload, Registry, ShardId, SpanKind, TaskGraph, TaskId,
};
use babelflow_graphs::Reduction;
use babelflow_trace::{
    check_coverage, check_coverage_effective, check_well_nested, CoverageError, TraceRecorder,
};

fn val(p: &Payload) -> u64 {
    u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
}

fn pay(v: u64) -> Payload {
    Payload::wrap(Blob(v.to_le_bytes().to_vec()))
}

fn registry() -> Registry {
    let mut reg = Registry::new();
    reg.register(CallbackId(0), |inputs, _| inputs);
    reg.register(CallbackId(1), |inputs, _| vec![pay(inputs.iter().map(val).sum())]);
    reg.register(CallbackId(2), |inputs, _| {
        vec![pay(inputs.iter().map(val).sum::<u64>() + 9)]
    });
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

#[test]
fn faulted_run_traces_retries_as_extra_task_spans() {
    let graph = Reduction::new(16, 4);
    let map = FnMap::new(2, graph.ids(), |t| ShardId((t.0 % 2) as u32));
    let reg = registry();
    let serial = run_serial(&graph, &reg, inputs(&graph)).unwrap();

    // Message faults on the transport plus one poisoned callback: the
    // root task panics on its first attempt.
    let faults = FaultPlan {
        drop: vec![(0, 1, 0), (1, 0, 1)],
        duplicate: vec![(0, 1, 2), (1, 0, 0)],
        panic_once: vec![graph.root_id()],
        ..FaultPlan::none()
    };
    let poisoned = inject_panics(&reg, &faults);

    let recorder = TraceRecorder::shared();
    let report = babelflow_mpi::MpiController::new()
        .with_workers(2)
        .with_faults(faults)
        .run_traced(&graph, &map, &poisoned, inputs(&graph), recorder.clone())
        .expect("faulted run must still complete");
    let trace = recorder.take();

    // Exactly-once *effect*: outputs byte-match the fault-free serial run.
    assert_eq!(canonical_outputs(&report), canonical_outputs(&serial));
    assert!(report.stats.recovery.retries >= 1, "stats: {}", report.stats);

    // The retry is visible in the trace: more TaskExec spans than tasks,
    // and specifically a duplicated span for the retried root.
    let execs = trace.of_kind(SpanKind::TaskExec).count();
    assert!(
        execs > graph.size(),
        "expected retry attempts as extra TaskExec spans, got {execs} for {} tasks",
        graph.size()
    );
    match check_coverage(&trace, &graph) {
        Err(CoverageError::Duplicated(_, n)) => assert!(n >= 2),
        other => panic!("expected a Duplicated coverage error, got {other:?}"),
    }

    // ... but effective coverage holds: every task ran at least once and
    // no span names a foreign task.
    check_coverage_effective(&trace, &graph).expect("effective coverage");
}

#[test]
fn clean_traces_satisfy_both_coverage_checks() {
    let graph = Reduction::new(8, 2);
    let map = FnMap::new(2, graph.ids(), |t| ShardId((t.0 % 2) as u32));
    let reg = registry();
    let recorder = TraceRecorder::shared();
    let report = babelflow_mpi::MpiController::new()
        .with_workers(2)
        .run_traced(&graph, &map, &reg, inputs(&graph), recorder.clone())
        .unwrap();
    let trace = recorder.take();
    assert!(report.stats.recovery.is_clean(), "stats: {}", report.stats);
    check_coverage(&trace, &graph).expect("strict coverage on a clean run");
    check_coverage_effective(&trace, &graph).expect("effective coverage on a clean run");
}

#[test]
fn retried_traces_stay_well_nested_on_every_backend() {
    let graph = Reduction::new(16, 4);
    let map = FnMap::new(2, graph.ids(), |t| ShardId((t.0 % 2) as u32));
    let reg = registry();
    let serial = run_serial(&graph, &reg, inputs(&graph)).unwrap();
    let faults = FaultPlan { panic_once: vec![graph.root_id()], ..FaultPlan::none() };
    let controllers: Vec<Box<dyn Controller>> = vec![
        Box::new(babelflow_core::SerialController::new()),
        Box::new(babelflow_mpi::MpiController::new()),
        Box::new(babelflow_mpi::BlockingMpiController::new()),
        Box::new(babelflow_charm::CharmController::new(2)),
        Box::new(babelflow_legion::LegionSpmdController::new(2)),
        Box::new(babelflow_legion::LegionIndexLaunchController::new(2)),
    ];
    for mut ctrl in controllers {
        // `panic_once` is spent by the first run, so arm it per backend.
        let poisoned = inject_panics(&reg, &faults);
        let recorder = TraceRecorder::shared();
        let report = ctrl
            .run_traced(&graph, &map, &poisoned, inputs(&graph), recorder.clone())
            .unwrap_or_else(|e| panic!("{}: {e}", ctrl.name()));
        let trace = recorder.take();
        let name = ctrl.name();
        assert_eq!(canonical_outputs(&report), canonical_outputs(&serial), "{name}");
        assert_eq!(report.stats.recovery.retries, 1, "{name}");
        check_well_nested(&trace).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            check_coverage(&trace, &graph),
            Err(CoverageError::Duplicated(graph.root_id(), 2)),
            "{name}"
        );
        check_coverage_effective(&trace, &graph).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
