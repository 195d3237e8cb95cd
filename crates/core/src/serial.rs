//! A serial reference controller.
//!
//! "Any backend can execute task graphs of arbitrary size, on a single node
//! or even serially, while guaranteeing a correct order of execution." This
//! controller is that guarantee's reference point: deterministic, single
//! threaded, no serialization. The cross-runtime equivalence tests compare
//! every parallel backend's output against this one.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use crate::controller::{Controller, ControllerError, InitialInputs, Result, RunReport, RunStats};
use crate::exec::exec;
use crate::graph::TaskGraph;
use crate::ids::TaskId;
use crate::payload::Payload;
use crate::plan::{PlanBuffer, ShardPlan};
use crate::registry::Registry;
use crate::trace::{now_ns, SpanKind, TraceEvent, TraceSink};

/// Single-threaded, deterministic task-graph executor.
///
/// Tasks become ready when all input slots are filled and execute in FIFO
/// order of readiness (ties broken by task id at start-up), which yields a
/// valid topological order of the dataflow.
#[derive(Debug, Default, Clone)]
pub struct SerialController;

impl SerialController {
    /// Create a serial controller.
    pub fn new() -> Self {
        SerialController
    }
}

impl Controller for SerialController {
    fn execute(
        &mut self,
        plan: &Arc<ShardPlan>,
        registry: &Registry,
        initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        let mut stats = RunStats::default();
        let tracing = sink.enabled();

        let mut ids: Vec<TaskId> = plan.tasks().iter().map(|pt| pt.id()).collect();
        ids.sort();

        let mut states: HashMap<TaskId, PlanBuffer> = ids
            .iter()
            .map(|&id| {
                let ix = plan.index_of(id).expect("plan indexes its own ids");
                (id, PlanBuffer::new(plan, ix))
            })
            .collect();

        // Deliver external inputs, then seed the ready queue in id order so
        // execution order is reproducible.
        for (&id, payloads) in &initial {
            let st = states.get_mut(&id).ok_or_else(|| {
                ControllerError::Runtime(format!("initial input for unknown task {id}"))
            })?;
            let pt = plan.task(st.ix());
            for p in payloads {
                stats.perf.payload_clones += 1;
                if !st.deliver(pt, TaskId::EXTERNAL, p.clone()) {
                    return Err(ControllerError::Runtime(format!(
                        "too many initial inputs for task {id}"
                    )));
                }
            }
        }

        let mut queue: VecDeque<TaskId> =
            ids.iter().copied().filter(|id| states[id].ready()).collect();
        // When a task entered the ready queue, for queue-wait spans.
        let mut ready_at: HashMap<TaskId, u64> = HashMap::new();
        if tracing {
            let t = now_ns();
            ready_at.extend(queue.iter().map(|&id| (id, t)));
        }

        let mut report = RunReport::default();

        while let Some(id) = queue.pop_front() {
            let st = states.remove(&id).expect("queued task has state");
            let pt = plan.task(st.ix());
            if tracing {
                let now = now_ns();
                let ready = ready_at.remove(&id).unwrap_or(now);
                sink.record(
                    TraceEvent::span(SpanKind::QueueWait, ready, now, 0, 0)
                        .with_task(id, pt.callback()),
                );
            }
            let inputs: Vec<Payload> = st.take();
            let cb = registry.get(pt.callback()).expect("preflight checked bindings");
            let outputs = &mut report.outputs;
            exec(pt, cb, &inputs, (0, 0), &*sink, &mut stats, |outs, stats| {
                stats.tasks_executed += 1;
                for (slot, payload) in outs.into_iter().enumerate() {
                    for route in &pt.routes[slot] {
                        let dst = route.dst;
                        stats.perf.payload_clones += 1;
                        if dst.is_external() {
                            outputs.entry(id).or_default().push(payload.clone());
                            continue;
                        }
                        let send_start = if tracing { now_ns() } else { 0 };
                        let dst_state = states.get_mut(&dst).ok_or_else(|| {
                            ControllerError::Runtime(format!(
                                "task {id} sent to unknown or already-executed task {dst}"
                            ))
                        })?;
                        if !dst_state.deliver(plan.task(dst_state.ix()), id, payload.clone()) {
                            return Err(ControllerError::Runtime(format!(
                                "task {dst} has no free input slot for producer {id}"
                            )));
                        }
                        stats.local_messages += 1;
                        if tracing {
                            // In-memory move: no serialization, bytes = 0.
                            sink.record(
                                TraceEvent::span(SpanKind::MsgSend, send_start, now_ns(), 0, 0)
                                    .with_task(id, pt.callback())
                                    .with_message(dst, 0),
                            );
                        }
                        if dst_state.ready() {
                            if tracing {
                                ready_at.insert(dst, now_ns());
                            }
                            queue.push_back(dst);
                        }
                    }
                }
                Ok(())
            })?;
        }

        if !states.is_empty() {
            let mut pending: Vec<TaskId> = states.keys().copied().collect();
            pending.sort();
            return Err(ControllerError::Deadlock { pending });
        }

        report.stats = stats;
        Ok(report)
    }

    fn name(&self) -> &'static str {
        "serial"
    }
}

/// Convenience: run a graph serially with a trivial single-shard map.
pub fn run_serial(
    graph: &dyn TaskGraph,
    registry: &Registry,
    initial: InitialInputs,
) -> Result<RunReport> {
    let map = crate::taskmap::ModuloMap::new(1, graph.size() as u64);
    SerialController::new().run(graph, &map, registry, initial)
}

/// Canonical byte form of a run's external outputs: every payload
/// serialized, in deterministic `(task, slot)` order. Two runs are
/// equivalent iff their canonical outputs match — this is the oracle for
/// the cross-runtime tests.
pub fn canonical_outputs(report: &RunReport) -> BTreeMap<TaskId, Vec<crate::buffer::Bytes>> {
    report
        .outputs
        .iter()
        .map(|(&id, ps)| (id, ps.iter().map(Payload::to_buffer).collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ExplicitGraph;
    use crate::ids::CallbackId;
    use crate::payload::Blob;
    use crate::task::Task;

    /// Diamond: 0 -> {1, 2} -> 3, external in at 0, external out at 3.
    fn diamond() -> ExplicitGraph {
        let mut t0 = Task::new(TaskId(0), CallbackId(0));
        t0.incoming = vec![TaskId::EXTERNAL];
        t0.outgoing = vec![vec![TaskId(1)], vec![TaskId(2)]];
        let mut t1 = Task::new(TaskId(1), CallbackId(1));
        t1.incoming = vec![TaskId(0)];
        t1.outgoing = vec![vec![TaskId(3)]];
        let mut t2 = Task::new(TaskId(2), CallbackId(1));
        t2.incoming = vec![TaskId(0)];
        t2.outgoing = vec![vec![TaskId(3)]];
        let mut t3 = Task::new(TaskId(3), CallbackId(2));
        t3.incoming = vec![TaskId(1), TaskId(2)];
        t3.outgoing = vec![vec![TaskId::EXTERNAL]];
        ExplicitGraph::new(
            vec![t0, t1, t2, t3],
            vec![CallbackId(0), CallbackId(1), CallbackId(2)],
        )
    }

    fn diamond_registry() -> Registry {
        let mut r = Registry::new();
        // t0 copies its input to both outputs.
        r.register(CallbackId(0), |inputs, _| vec![inputs[0].clone(), inputs[0].clone()]);
        // t1/t2 append their task id byte.
        r.register(CallbackId(1), |inputs, id| {
            let b = inputs[0].extract::<Blob>().unwrap();
            let mut v = b.0.clone();
            v.push(id.0 as u8);
            vec![Payload::wrap(Blob(v))]
        });
        // t3 concatenates, ordered by slot.
        r.register(CallbackId(2), |inputs, _| {
            let mut v = Vec::new();
            for p in &inputs {
                v.extend_from_slice(&p.extract::<Blob>().unwrap().0);
            }
            vec![Payload::wrap(Blob(v))]
        });
        r
    }

    #[test]
    fn diamond_executes_in_dependency_order() {
        let g = diamond();
        let mut init = HashMap::new();
        init.insert(TaskId(0), vec![Payload::wrap(Blob(vec![9]))]);
        let report = run_serial(&g, &diamond_registry(), init).unwrap();
        let out = report.outputs[&TaskId(3)][0].extract::<Blob>().unwrap();
        // Slot 0 of t3 comes from t1, slot 1 from t2.
        assert_eq!(out.0, vec![9, 1, 9, 2]);
        assert_eq!(report.stats.tasks_executed, 4);
        assert_eq!(report.stats.local_messages, 4);
        assert_eq!(report.stats.remote_messages, 0);
    }

    #[test]
    fn missing_input_deadlocks() {
        // Remove the external input but keep the graph shape: t0 never runs.
        let mut g = diamond();
        g.task_mut(TaskId(0)).unwrap().incoming = vec![TaskId(42)];
        let map = crate::taskmap::ModuloMap::new(1, g.size() as u64);
        // The strict preflight lint now rejects the dangling edge outright…
        let err = run_serial(&g, &diamond_registry(), HashMap::new()).unwrap_err();
        assert!(matches!(err, ControllerError::LintRejected(_)), "got {err}");
        // …but a lenient plan still lets the run proceed to the runtime
        // deadlock, for callers who want the old behavior.
        let plan = Arc::new(ShardPlan::build(&g, &map).lenient());
        let err = SerialController::new()
            .with_plan(plan)
            .run(&g, &map, &diamond_registry(), HashMap::new())
            .unwrap_err();
        assert!(matches!(err, ControllerError::Deadlock { pending } if pending.len() == 4));
    }

    #[test]
    fn bad_arity_is_reported() {
        let g = diamond();
        let mut r = diamond_registry();
        r.rebind(CallbackId(0), |_, _| vec![]); // should produce 2 outputs
        let mut init = HashMap::new();
        init.insert(TaskId(0), vec![Payload::wrap(Blob(vec![]))]);
        let err = run_serial(&g, &r, init).unwrap_err();
        assert!(matches!(err, ControllerError::BadOutputArity { expected: 2, got: 0, .. }));
    }

    #[test]
    fn injected_panic_is_retried_not_unwound() {
        let g = diamond();
        let reg = diamond_registry();
        let plan =
            crate::fault::FaultPlan { panic_once: vec![TaskId(1)], ..Default::default() };
        let poisoned = crate::fault::inject_panics(&reg, &plan);
        let mut init = HashMap::new();
        init.insert(TaskId(0), vec![Payload::wrap(Blob(vec![9]))]);
        let clean = run_serial(&g, &reg, init.clone()).unwrap();
        let report = run_serial(&g, &poisoned, init).unwrap();
        assert_eq!(canonical_outputs(&report), canonical_outputs(&clean));
        assert_eq!(report.stats.recovery.retries, 1);
        assert_eq!(report.stats.tasks_executed, 4);
    }

    #[test]
    fn persistent_panic_surfaces_as_task_error() {
        let g = diamond();
        let mut r = diamond_registry();
        crate::fault::quiet_panic_hook();
        r.rebind(CallbackId(1), |_, _| -> Vec<Payload> {
            panic!("{}: always fails", crate::fault::PANIC_MARKER)
        });
        let mut init = HashMap::new();
        init.insert(TaskId(0), vec![Payload::wrap(Blob(vec![9]))]);
        let err = run_serial(&g, &r, init).unwrap_err();
        assert!(
            matches!(err, ControllerError::TaskError { attempts: 4, .. }),
            "got {err}"
        );
    }

    #[test]
    fn canonical_outputs_are_bytes() {
        let g = diamond();
        let mut init = HashMap::new();
        init.insert(TaskId(0), vec![Payload::wrap(Blob(vec![7]))]);
        let report = run_serial(&g, &diamond_registry(), init).unwrap();
        let canon = canonical_outputs(&report);
        assert_eq!(canon.len(), 1);
        assert_eq!(canon[&TaskId(3)][0].as_ref(), &[7, 1, 7, 2]);
    }
}
