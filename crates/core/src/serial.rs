//! A serial reference controller.
//!
//! "Any backend can execute task graphs of arbitrary size, on a single node
//! or even serially, while guaranteeing a correct order of execution." This
//! controller is that guarantee's reference point: deterministic, single
//! threaded, no serialization. The cross-runtime equivalence tests compare
//! every parallel backend's output against this one.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use crate::controller::{Controller, InitialInputs, Result, RunReport, RunStats};
use crate::exec::{exec, route_outputs};
use crate::graph::TaskGraph;
use crate::ids::TaskId;
use crate::payload::Payload;
use crate::plan::{Pending, ShardPlan};
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
        mut initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        let mut stats = RunStats::default();
        let tracing = sink.enabled();

        let mut pending = Pending::all(plan);
        // Move the payloads but keep the emptied lists until `initial`
        // drops after the run: freeing `dispatch`'s 4,096 one-payload
        // lists here made its runs ~14% slower (likely because the run's
        // own small allocations then reuse scattered blocks).
        for (&id, payloads) in &mut initial {
            let ix = plan.index_of(id).expect("preflight checked initial inputs");
            pending.deliver_initial(ix, payloads.drain(..))?;
        }
        // Seed the ready queue in id order so execution order is
        // reproducible.
        let mut queue = VecDeque::from(pending.ready());
        // Per plan index: when the task entered the ready queue, for
        // queue-wait spans.
        let mut ready_at: Vec<u64> = if tracing { vec![now_ns(); plan.len()] } else { Vec::new() };

        let mut report = RunReport::default();

        while let Some(ix) = queue.pop_front() {
            let inputs = pending.take(ix).expect("queued task is pending");
            let pt = plan.task(ix);
            let id = pt.id();
            if tracing {
                sink.record(
                    TraceEvent::span(SpanKind::QueueWait, ready_at[ix as usize], now_ns(), 0, 0)
                        .with_task(id, pt.callback()),
                );
            }
            let cb = registry.get(pt.callback()).expect("preflight checked bindings");
            exec(pt, cb, &inputs, (0, 0), &*sink, &mut stats, |outs, stats| {
                stats.tasks_executed += 1;
                route_outputs(plan, pt, outs, stats, |route, payload, stats| {
                    let Some(input @ (c, _)) = route.input else {
                        report.outputs.entry(id).or_default().push(payload);
                        return Ok(());
                    };
                    let send_start = if tracing { now_ns() } else { 0 };
                    let ready = pending.deliver(input, payload)?;
                    stats.local_messages += 1;
                    if tracing {
                        // In-memory move: no serialization, bytes = 0.
                        sink.record(
                            TraceEvent::span(SpanKind::MsgSend, send_start, now_ns(), 0, 0)
                                .with_task(id, pt.callback())
                                .with_message(route.dst, 0),
                        );
                    }
                    if ready {
                        if tracing {
                            ready_at[c as usize] = now_ns();
                        }
                        queue.push_back(c);
                    }
                    Ok(())
                })
            })?;
        }
        pending.drained()?;

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
    use std::collections::HashMap;

    use super::*;
    use crate::controller::ControllerError;
    use crate::graph::ExplicitGraph;
    use crate::ids::CallbackId;
    use crate::payload::Blob;
    use crate::sync::Mutex;
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
            for p in inputs {
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

    /// A sink keeping every event, in record order.
    #[derive(Default)]
    struct Spans(Mutex<Vec<TraceEvent>>);

    impl TraceSink for Spans {
        fn record(&self, event: TraceEvent) {
            self.0.lock().push(event);
        }
    }

    /// Leaves 9, 4, 6 and 1 (listed by `ids()` in that order, so plan
    /// index and id disagree) each take one external input and feed task
    /// 3, which `ids()` lists between them. With `stall`, one more slot of
    /// task 3, and the one input of a trailing task 0, wait on the missing
    /// task 42.
    fn shuffled(stall: bool) -> ExplicitGraph {
        let leaves = [9, 4, 6, 1].map(TaskId);
        let leaf = |id| {
            let mut t = Task::new(id, CallbackId(0));
            t.incoming = vec![TaskId::EXTERNAL];
            t.outgoing = vec![vec![TaskId(3)]];
            t
        };
        let mut sink = Task::new(TaskId(3), CallbackId(0));
        sink.incoming = leaves.to_vec();
        if stall {
            sink.incoming.push(TaskId(42));
        }
        sink.outgoing = vec![vec![TaskId::EXTERNAL]];
        let mut tasks: Vec<Task> = leaves.into_iter().map(leaf).collect();
        tasks.insert(2, sink);
        if stall {
            let mut orphan = Task::new(TaskId(0), CallbackId(0));
            orphan.incoming = vec![TaskId(42)];
            orphan.outgoing = vec![vec![TaskId::EXTERNAL]];
            tasks.push(orphan);
        }
        ExplicitGraph::new(tasks, vec![CallbackId(0)])
    }

    fn first_input_registry() -> Registry {
        let mut r = Registry::new();
        r.register(CallbackId(0), |inputs, _| vec![inputs[0].clone()]);
        r
    }

    fn leaf_inputs() -> InitialInputs {
        [9, 4, 6, 1].map(|id| (TaskId(id), vec![Payload::wrap(Blob(vec![id as u8]))])).into()
    }

    #[test]
    fn initial_ready_tasks_run_in_id_order_not_plan_order() {
        let g = shuffled(false);
        let map = crate::taskmap::ModuloMap::new(1, 10);
        let plan = ShardPlan::build(&g, &map);
        let plan_order: Vec<u64> = plan.tasks().iter().map(|pt| pt.id().0).collect();
        assert_eq!(plan_order, [9, 4, 3, 6, 1]);
        let spans = Arc::new(Spans::default());
        let report = SerialController::new()
            .run_traced(&g, &map, &first_input_registry(), leaf_inputs(), spans.clone())
            .unwrap();
        let ran: Vec<u64> = spans
            .0
            .lock()
            .iter()
            .filter(|e| e.kind == SpanKind::TaskExec)
            .map(|e| e.task.0)
            .collect();
        assert_eq!(ran, [1, 4, 6, 9, 3]);
        // Task 3's first slot is wired to task 9.
        assert_eq!(report.outputs[&TaskId(3)][0].extract::<Blob>().unwrap().0, vec![9]);
    }

    #[test]
    fn a_lenient_stall_reports_pending_tasks_in_id_order() {
        let g = shuffled(true);
        let map = crate::taskmap::ModuloMap::new(1, 43);
        let plan = Arc::new(ShardPlan::build(&g, &map).lenient());
        let err = SerialController::new()
            .with_plan(plan)
            .run(&g, &map, &first_input_registry(), leaf_inputs())
            .unwrap_err();
        let ControllerError::Deadlock { pending } = &err else { panic!("got {err}") };
        assert_eq!(pending, &[TaskId(0), TaskId(3)]);
    }
}
