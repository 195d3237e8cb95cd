//! # babelflow-legion
//!
//! Legion-like backend for BabelFlow-RS: a data-centric runtime substrate
//! ([`runtime`]: dense logical regions, read requirements, single/index/
//! must-epoch launchers, phase barriers, join-counted scheduling) and the
//! paper's two controllers — [`LegionSpmdController`] (§IV-C, the variant
//! used for all large-scale experiments) and [`LegionIndexLaunchController`]
//! (the comparison variant of Figs. 2 and 3). Both map each consumer input
//! slot of the [`ShardPlan`](babelflow_core::ShardPlan) to one region.

#![warn(missing_docs)]

pub mod index_launch;
pub mod runtime;
pub mod spmd;

pub use index_launch::{crawl_rounds, LegionIndexLaunchController};
pub use runtime::{
    LegionRuntime, LegionStats, PhaseBarrier, TaskBody, TaskCtx, TaskLauncher, WaitOutcome,
};
pub use spmd::LegionSpmdController;

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use babelflow_core::{
        canonical_outputs, run_serial, Blob, BlockMap, CallbackId, Controller, ControllerError,
        ExplicitGraph, InitialInputs, ModuloMap, Payload, Registry, SerialController, ShardPlan,
        Task, TaskGraph, TaskId,
    };
    use babelflow_graphs::{BinarySwap, Broadcast, KWayMerge, NeighborGraph, Reduction};

    use super::*;

    fn val(p: &Payload) -> u64 {
        u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
    }

    fn pay(v: u64) -> Payload {
        Payload::wrap(Blob(v.to_le_bytes().to_vec()))
    }

    fn sum_registry() -> Registry {
        let mut r = Registry::new();
        r.register(CallbackId(0), |inputs, _| vec![inputs[0].clone()]);
        r.register(CallbackId(1), |inputs, _| vec![pay(inputs.iter().map(val).sum())]);
        r.register(CallbackId(2), |inputs, _| {
            vec![pay(inputs.iter().map(val).sum::<u64>() + 1000)]
        });
        r
    }

    fn reduction_inputs(g: &Reduction) -> HashMap<TaskId, Vec<Payload>> {
        g.leaf_ids()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, vec![pay(i as u64)]))
            .collect()
    }

    #[test]
    fn spmd_matches_serial_on_reduction() {
        let g = Reduction::new(16, 2);
        let reg = sum_registry();
        let serial = run_serial(&g, &reg, reduction_inputs(&g)).unwrap();
        for shards in [1u32, 2, 4] {
            let map = ModuloMap::new(shards, g.size() as u64);
            let mut c = LegionSpmdController::new(2);
            let report = c.run(&g, &map, &reg, reduction_inputs(&g)).unwrap();
            assert_eq!(canonical_outputs(&report), canonical_outputs(&serial), "shards={shards}");
            assert_eq!(report.stats.tasks_executed, g.size() as u64);
        }
    }

    #[test]
    fn index_launch_matches_serial_on_reduction() {
        let g = Reduction::new(16, 4);
        let reg = sum_registry();
        let serial = run_serial(&g, &reg, reduction_inputs(&g)).unwrap();
        let map = ModuloMap::new(4, g.size() as u64); // ignored
        let mut c = LegionIndexLaunchController::new(2);
        let report = c.run(&g, &map, &reg, reduction_inputs(&g)).unwrap();
        assert_eq!(canonical_outputs(&report), canonical_outputs(&serial));
    }

    #[test]
    fn crawl_rounds_levelizes_reduction() {
        let g = Reduction::new(8, 2);
        let plan = ShardPlan::build(&g, &ModuloMap::new(1, g.size() as u64));
        let rounds: Vec<Vec<TaskId>> = crawl_rounds(&plan)
            .iter()
            .map(|round| round.iter().map(|&ix| plan.task(ix).id()).collect())
            .collect();
        // 8 leaves, then 4+2 reduces, then the root: longest-path levels.
        assert_eq!(rounds.len(), 4);
        assert_eq!(rounds[0].len(), 8);
        assert_eq!(rounds[1].len(), 4);
        assert_eq!(rounds[2].len(), 2);
        assert_eq!(rounds[3], vec![TaskId(0)]);
        // No intra-round dependencies.
        for round in &rounds {
            let set: std::collections::HashSet<_> = round.iter().copied().collect();
            for &id in round {
                let t = g.task(id).unwrap();
                for dsts in &t.outgoing {
                    for dst in dsts {
                        assert!(!set.contains(dst), "intra-round edge {id}->{dst}");
                    }
                }
            }
        }
    }

    #[test]
    fn both_controllers_agree_on_binary_swap() {
        let g = BinarySwap::new(8);
        let mut reg = Registry::new();
        reg.register(CallbackId(0), |inputs, _| {
            let v = val(&inputs[0]);
            vec![pay(v), pay(v + 1)]
        });
        reg.register(CallbackId(1), |inputs, _| {
            let (a, b) = (val(&inputs[0]), val(&inputs[1]));
            vec![pay(a ^ b), pay(a.wrapping_add(b))]
        });
        reg.register(CallbackId(2), |inputs, _| {
            vec![pay(val(&inputs[0]).wrapping_sub(val(&inputs[1])))]
        });
        let inputs: HashMap<TaskId, Vec<Payload>> = g
            .leaf_ids()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, vec![pay(i as u64 * 11)]))
            .collect();
        let serial = run_serial(&g, &reg, inputs.clone()).unwrap();
        let map = ModuloMap::new(3, g.size() as u64);

        let spmd = LegionSpmdController::new(2).run(&g, &map, &reg, inputs.clone()).unwrap();
        let il = LegionIndexLaunchController::new(2).run(&g, &map, &reg, inputs).unwrap();
        assert_eq!(canonical_outputs(&spmd), canonical_outputs(&serial));
        assert_eq!(canonical_outputs(&il), canonical_outputs(&serial));
    }

    #[test]
    fn injected_panic_is_retried_on_both_controllers() {
        let g = Reduction::new(8, 2);
        let reg = sum_registry();
        let serial = run_serial(&g, &reg, reduction_inputs(&g)).unwrap();
        let faults = babelflow_core::FaultPlan {
            panic_once: vec![g.root_id()],
            ..babelflow_core::FaultPlan::none()
        };
        let map = ModuloMap::new(2, g.size() as u64);

        let poisoned = babelflow_core::inject_panics(&reg, &faults);
        let spmd =
            LegionSpmdController::new(2).run(&g, &map, &poisoned, reduction_inputs(&g)).unwrap();
        assert_eq!(canonical_outputs(&spmd), canonical_outputs(&serial));
        assert_eq!(spmd.stats.recovery.retries, 1);

        let poisoned = babelflow_core::inject_panics(&reg, &faults);
        let il = LegionIndexLaunchController::new(2)
            .run(&g, &map, &poisoned, reduction_inputs(&g))
            .unwrap();
        assert_eq!(canonical_outputs(&il), canonical_outputs(&serial));
        assert_eq!(il.stats.recovery.retries, 1);
    }

    #[test]
    fn persistent_panic_surfaces_as_task_error() {
        let g = Reduction::new(4, 2);
        let mut reg = sum_registry();
        reg.rebind(CallbackId(2), |_, _| -> Vec<Payload> {
            panic!("{}", babelflow_core::PANIC_MARKER)
        });
        babelflow_core::quiet_panic_hook();
        let map = ModuloMap::new(2, g.size() as u64);
        let inputs: HashMap<TaskId, Vec<Payload>> =
            g.leaf_ids().into_iter().map(|id| (id, vec![pay(1)])).collect();
        let err = LegionSpmdController::new(2).run(&g, &map, &reg, inputs).unwrap_err();
        assert!(
            matches!(err, babelflow_core::ControllerError::TaskError { attempts: 4, .. }),
            "got {err}"
        );
    }

    #[test]
    fn spmd_handles_merge_dataflow_with_relays() {
        let g = KWayMerge::new(8, 2);
        let root_join = g.join_id(3, 0);
        let mut reg = Registry::new();
        reg.register(CallbackId(0), |inputs, _| {
            let v = val(&inputs[0]);
            vec![pay(v), pay(v * 2)]
        });
        reg.register(CallbackId(1), move |inputs, id| {
            let s: u64 = inputs.iter().map(val).sum();
            if id == root_join {
                vec![pay(s)]
            } else {
                vec![pay(s), pay(s + 1)]
            }
        });
        reg.register(CallbackId(2), |inputs, _| {
            vec![pay(val(&inputs[0]) + val(&inputs[1]))]
        });
        reg.register(CallbackId(3), |inputs, _| vec![pay(val(&inputs[0]) * 10)]);
        reg.register(CallbackId(4), |inputs, _| vec![inputs[0].clone()]);

        let inputs: HashMap<TaskId, Vec<Payload>> = g
            .leaf_ids()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, vec![pay(i as u64 + 1)]))
            .collect();
        let serial = run_serial(&g, &reg, inputs.clone()).unwrap();
        let map = babelflow_graphs::MergeTreeMap::new(g.clone(), 3);
        let report = LegionSpmdController::new(3).run(&g, &map, &reg, inputs).unwrap();
        assert_eq!(canonical_outputs(&report), canonical_outputs(&serial));
    }

    /// Both Legion controllers with default settings, as boxed backends.
    fn legion_backends() -> Vec<Box<dyn Controller>> {
        vec![Box::new(LegionSpmdController::new(2)), Box::new(LegionIndexLaunchController::new(2))]
    }

    /// A diamond 0 -> {1, 2} -> 3 whose root input is external.
    fn diamond() -> ExplicitGraph {
        let mut t0 = Task::new(TaskId(0), CallbackId(0));
        t0.incoming = vec![TaskId::EXTERNAL];
        t0.outgoing = vec![vec![TaskId(1), TaskId(2)]];
        let mut t1 = Task::new(TaskId(1), CallbackId(0));
        t1.incoming = vec![TaskId(0)];
        t1.outgoing = vec![vec![TaskId(3)]];
        let mut t2 = Task::new(TaskId(2), CallbackId(0));
        t2.incoming = vec![TaskId(0)];
        t2.outgoing = vec![vec![TaskId(3)]];
        let mut t3 = Task::new(TaskId(3), CallbackId(1));
        t3.incoming = vec![TaskId(1), TaskId(2)];
        t3.outgoing = vec![vec![TaskId::EXTERNAL]];
        ExplicitGraph::new(vec![t0, t1, t2, t3], vec![CallbackId(0), CallbackId(1)])
    }

    /// Run `g` on a lenient plan: serial first, then each Legion backend.
    fn run_lenient(
        g: &ExplicitGraph,
        reg: &Registry,
        inputs: &InitialInputs,
    ) -> (ControllerError, Vec<(Duration, ControllerError)>) {
        let map = ModuloMap::new(2, g.size() as u64);
        let plan = Arc::new(ShardPlan::build(g, &map).lenient());
        let serial = SerialController::new()
            .with_plan(plan.clone())
            .run(g, &map, reg, inputs.clone())
            .unwrap_err();
        let timed = |mut c: Box<dyn Controller>| {
            let started = Instant::now();
            let err = c.run(g, &map, reg, inputs.clone()).unwrap_err();
            (started.elapsed(), err)
        };
        let legion = vec![
            timed(Box::new(LegionSpmdController::new(2).with_plan(plan.clone()))),
            timed(Box::new(LegionIndexLaunchController::new(2).with_plan(plan))),
        ];
        (serial, legion)
    }

    #[test]
    fn dangling_input_deadlocks_at_once_with_serials_pending_set() {
        // The root's input comes from task 42, which is not in the graph:
        // no task can ever run.
        let mut g = diamond();
        g.task_mut(TaskId(0)).unwrap().incoming = vec![TaskId(42)];
        let (serial, legion) = run_lenient(&g, &sum_registry(), &InitialInputs::new());
        let ControllerError::Deadlock { pending } = &serial else { panic!("serial: {serial}") };
        assert_eq!(pending.len(), 4);
        for (elapsed, err) in legion {
            assert!(matches!(&err, ControllerError::Deadlock { pending: p } if p == pending));
            assert!(elapsed < Duration::from_millis(100), "{elapsed:?}");
        }
    }

    #[test]
    fn route_to_a_missing_task_is_a_runtime_error() {
        let mut g = diamond();
        g.task_mut(TaskId(2)).unwrap().outgoing[0].push(TaskId(77));
        let inputs = InitialInputs::from([(TaskId(0), vec![pay(5)])]);
        let (serial, legion) = run_lenient(&g, &sum_registry(), &inputs);
        assert!(serial.to_string().contains("task 2 sent to unknown or already-executed task 77"));
        for (_, err) in legion {
            assert!(matches!(err, ControllerError::Runtime(_)), "got {err}");
            assert_eq!(err.to_string(), serial.to_string());
        }
    }

    /// Panics on the first `MsgSend` it is handed, from whichever worker
    /// records it.
    struct PanicOnFirstSend(std::sync::atomic::AtomicBool);

    impl babelflow_core::TraceSink for PanicOnFirstSend {
        fn record(&self, event: babelflow_core::TraceEvent) {
            if event.kind == babelflow_core::SpanKind::MsgSend
                && !self.0.swap(true, std::sync::atomic::Ordering::SeqCst)
            {
                panic!("{}: trace sink fails", babelflow_core::PANIC_MARKER);
            }
        }
    }

    #[test]
    fn panicking_worker_thread_is_an_error_not_a_hang() {
        babelflow_core::quiet_panic_hook();
        let g = Reduction::new(8, 2);
        let map = ModuloMap::new(2, g.size() as u64);
        for mut c in legion_backends() {
            let sink = Arc::new(PanicOnFirstSend(Default::default()));
            let started = Instant::now();
            let err = c.run_traced(&g, &map, &sum_registry(), reduction_inputs(&g), sink);
            let err = err.unwrap_err();
            assert!(matches!(err, ControllerError::Runtime(_)), "{}: {err}", c.name());
            assert!(started.elapsed() < Duration::from_secs(2), "{}", c.name());
        }
    }

    /// Every callback of `g` sums its inputs and emits the right fan-out.
    fn mixing_registry(g: &dyn TaskGraph) -> Registry {
        let tasks: Vec<Task> = g.ids().into_iter().filter_map(|id| g.task(id)).collect();
        let fan_outs: Arc<HashMap<TaskId, usize>> =
            Arc::new(tasks.iter().map(|t| (t.id, t.fan_out())).collect());
        let mut cbs: Vec<CallbackId> = tasks.iter().map(|t| t.callback).collect();
        cbs.sort_unstable();
        cbs.dedup();
        let mut reg = Registry::new();
        for cb in cbs {
            let fan_outs = fan_outs.clone();
            reg.register(cb, move |inputs, id| {
                let s = inputs.iter().map(val).fold(id.0, u64::wrapping_add);
                (0..fan_outs[&id] as u64).map(|k| pay(s ^ k)).collect()
            });
        }
        reg
    }

    #[test]
    fn local_messages_count_internal_region_writes_like_serial() {
        let families: Vec<Box<dyn TaskGraph>> = vec![
            Box::new(Reduction::new(64, 4)),
            Box::new(Broadcast::new(16, 2)),
            Box::new(BinarySwap::new(8)),
            Box::new(KWayMerge::new(9, 3)),
            Box::new(NeighborGraph::new(3, 2, 2)),
        ];
        for g in &families {
            let g = &**g;
            let reg = mixing_registry(g);
            let inputs: InitialInputs = g
                .input_tasks()
                .into_iter()
                .map(|id| {
                    let task = g.task(id).unwrap();
                    let n = task.incoming.iter().filter(|s| s.is_external()).count();
                    (id, (0..n as u64).map(|k| pay(id.0 + k)).collect())
                })
                .collect();
            let serial = run_serial(g, &reg, inputs.clone()).unwrap();
            let map = BlockMap::new(3, g.size() as u64);
            for mut c in legion_backends() {
                let report = c.run(g, &map, &reg, inputs.clone()).unwrap();
                assert_eq!(canonical_outputs(&report), canonical_outputs(&serial));
                let name = c.name();
                assert_eq!(report.stats.local_messages, serial.stats.local_messages, "{name}");
                assert_eq!(report.stats.remote_messages, 0);
            }
        }
    }
}
