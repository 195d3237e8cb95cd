//! # babelflow-charm
//!
//! Charm++-like backend for BabelFlow-RS: a chare-array runtime substrate
//! ([`runtime`]) and the task-graph controller built on it
//! ([`CharmController`], §IV-B of the paper). Tasks become chares placed
//! statically over processing elements and scheduled message-driven — no
//! task map required. A run ends at quiescence: the PEs' work pool is
//! idle, with no message queued and no entry method running.

#![warn(missing_docs)]

pub mod controller;
pub mod runtime;

pub use controller::CharmController;
pub use runtime::{Chare, ChareCtx, CharmRuntime, CharmStats};

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::Duration;

    use babelflow_core::{
        canonical_outputs, run_serial, Blob, CallbackId, Controller, ModuloMap, Payload,
        Registry, ShardPlan, TaskGraph, TaskId,
    };
    use babelflow_graphs::{BinarySwap, KWayMerge, Reduction};

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

    #[test]
    fn charm_matches_serial_on_reduction() {
        let g = Reduction::new(16, 4);
        let reg = sum_registry();
        let inputs: HashMap<TaskId, Vec<Payload>> = g
            .leaf_ids()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, vec![pay(i as u64)]))
            .collect();
        let serial = run_serial(&g, &reg, inputs.clone()).unwrap();
        let map = ModuloMap::new(1, g.size() as u64); // ignored by charm
        for pes in [1, 2, 4] {
            let mut c = CharmController::new(pes);
            let report = c.run(&g, &map, &reg, inputs.clone()).unwrap();
            assert_eq!(canonical_outputs(&report), canonical_outputs(&serial), "pes={pes}");
            assert_eq!(report.stats.tasks_executed, g.size() as u64);
        }
    }

    #[test]
    fn reused_controller_repeats_its_stats_on_long_runs() {
        // Every callback sleeps, so each run lasts well over 100 ms; with
        // static placement the counters still depend on the graph alone.
        let g = Reduction::new(16, 4);
        let mut reg = Registry::new();
        for cb in 0..3 {
            reg.register(CallbackId(cb), |inputs, _| {
                std::thread::sleep(Duration::from_millis(10));
                vec![pay(inputs.iter().map(val).sum())]
            });
        }
        let inputs: HashMap<TaskId, Vec<Payload>> = g
            .leaf_ids()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, vec![pay(i as u64)]))
            .collect();
        let map = ModuloMap::new(1, g.size() as u64);
        let mut c = CharmController::new(2).with_plan(Arc::new(ShardPlan::build(&g, &map)));
        let runs: Vec<_> =
            (0..3).map(|_| c.run(&g, &map, &reg, inputs.clone()).unwrap()).collect();
        // Every counter but the pool's, which moves with thread timing.
        let exact = |s: &babelflow_core::RunStats| {
            let mut s = s.clone();
            (s.perf.parks, s.perf.wakes, s.perf.pool_locks) = (0, 0, 0);
            s
        };
        for run in &runs[1..] {
            assert_eq!(exact(&run.stats), exact(&runs[0].stats));
            assert_eq!(canonical_outputs(run), canonical_outputs(&runs[0]));
        }
        // Task `id`'s chare sits on PE `id % 2`: an edge crosses PEs when its
        // ends differ in parity, and every bootstrap comes from the host.
        let edges: Vec<(u64, u64)> = g
            .ids()
            .into_iter()
            .flat_map(|id| g.task(id).unwrap().outgoing.concat().into_iter().map(move |d| (id, d)))
            .filter(|(_, dst)| !dst.is_external())
            .map(|(src, dst)| (src.0, dst.0))
            .collect();
        let cross = edges.iter().filter(|(s, d)| s % 2 != d % 2).count() as u64;
        assert_eq!(runs[0].stats.remote_messages, cross + inputs.len() as u64);
        assert_eq!(runs[0].stats.local_messages, edges.len() as u64 - cross);
    }

    #[test]
    fn charm_matches_serial_on_merge_dataflow() {
        // The merge dataflow exercises fan-out broadcasts and multi-slot
        // inputs.
        let g = KWayMerge::new(4, 2);
        let mut reg = Registry::new();
        let root_join = g.join_id(2, 0);
        // local: boundary = v, local tree = v * 2
        reg.register(CallbackId(0), |inputs, _| {
            let v = val(&inputs[0]);
            vec![pay(v), pay(v * 2)]
        });
        // join: merged boundary up + augmented broadcast; root broadcasts only.
        reg.register(CallbackId(1), move |inputs, id| {
            let s: u64 = inputs.iter().map(val).sum();
            if id == root_join {
                vec![pay(s)]
            } else {
                vec![pay(s), pay(s + 1)]
            }
        });
        // correction: local' = local + augmented
        reg.register(CallbackId(2), |inputs, _| {
            vec![pay(val(&inputs[0]) + val(&inputs[1]))]
        });
        // segmentation: final
        reg.register(CallbackId(3), |inputs, _| vec![pay(val(&inputs[0]) * 10)]);
        // relay: forward
        reg.register(CallbackId(4), |inputs, _| vec![inputs[0].clone()]);

        let inputs: HashMap<TaskId, Vec<Payload>> = g
            .leaf_ids()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, vec![pay(i as u64 + 1)]))
            .collect();

        let serial = run_serial(&g, &reg, inputs.clone()).unwrap();
        let map = ModuloMap::new(1, g.size() as u64);
        let mut c = CharmController::new(3);
        let report = c.run(&g, &map, &reg, inputs).unwrap();
        assert_eq!(canonical_outputs(&report), canonical_outputs(&serial));
    }

    #[test]
    fn injected_panic_is_retried_in_place() {
        let g = Reduction::new(8, 2);
        let reg = sum_registry();
        let inputs: HashMap<TaskId, Vec<Payload>> = g
            .leaf_ids()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, vec![pay(i as u64 + 7)]))
            .collect();
        let serial = run_serial(&g, &reg, inputs.clone()).unwrap();
        let faults = babelflow_core::FaultPlan {
            panic_once: vec![g.root_id()],
            ..babelflow_core::FaultPlan::none()
        };
        let map = ModuloMap::new(1, g.size() as u64);
        for pes in 1..=4 {
            // The injected panic fires once per registry.
            let poisoned = babelflow_core::inject_panics(&reg, &faults);
            let mut c = CharmController::new(pes);
            let report = c.run(&g, &map, &poisoned, inputs.clone()).unwrap();
            assert_eq!(canonical_outputs(&report), canonical_outputs(&serial), "pes={pes}");
            assert_eq!(report.stats.recovery.retries, 1, "pes={pes}");
        }
    }

    /// Bind every callback of `g` to a sum with the task's fan-out.
    fn fan_out_registry(g: &dyn TaskGraph) -> Registry {
        let fan_outs: Arc<HashMap<TaskId, usize>> =
            Arc::new(g.ids().into_iter().map(|id| (id, g.task(id).unwrap().fan_out())).collect());
        let mut cbs: Vec<CallbackId> =
            g.ids().into_iter().map(|id| g.task(id).unwrap().callback).collect();
        cbs.sort_unstable();
        cbs.dedup();
        let mut reg = Registry::new();
        for cb in cbs {
            let fan_outs = fan_outs.clone();
            reg.register(cb, move |inputs, id| {
                let sum: u64 = inputs.iter().map(val).sum();
                (0..fan_outs[&id] as u64).map(|s| pay(sum + s)).collect()
            });
        }
        reg
    }

    #[test]
    fn per_pe_counters_add_up_on_every_pe_count() {
        let graphs: [(&str, Box<dyn TaskGraph>); 2] = [
            ("reduction", Box::new(Reduction::new(16, 4))),
            ("binary-swap", Box::new(BinarySwap::new(8))),
        ];
        for (name, g) in graphs {
            let g = &*g;
            let reg = fan_out_registry(g);
            let inputs: HashMap<TaskId, Vec<Payload>> = g
                .input_tasks()
                .into_iter()
                .map(|id| {
                    let task = g.task(id).unwrap();
                    let externals = task.incoming.iter().filter(|s| s.is_external());
                    (id, externals.map(|_| pay(id.0)).collect())
                })
                .collect();
            // One message per internal edge, plus one per bootstrap payload.
            let edges: usize = g
                .ids()
                .into_iter()
                .flat_map(|id| g.task(id).unwrap().outgoing.concat())
                .filter(|dst| !dst.is_external())
                .count();
            let sent = (edges + inputs.values().map(Vec::len).sum::<usize>()) as u64;
            let map = ModuloMap::new(1, g.size() as u64);
            let mut clones = Vec::new();
            for pes in 1..=4 {
                let report = CharmController::new(pes).run(g, &map, &reg, inputs.clone()).unwrap();
                let s = &report.stats;
                assert_eq!(s.tasks_executed, g.size() as u64, "{name} pes={pes}");
                assert_eq!(s.local_messages + s.remote_messages, sent, "{name} pes={pes}");
                assert_eq!(s.recovery.retries, 0, "{name} pes={pes}");
                clones.push(s.perf.payload_clones);
            }
            assert!(clones.iter().all(|&c| c == clones[0]), "{name}: clones {clones:?}");
        }
    }

    fn leaf_inputs(g: &Reduction) -> HashMap<TaskId, Vec<Payload>> {
        g.leaf_ids().into_iter().enumerate().map(|(i, id)| (id, vec![pay(i as u64)])).collect()
    }

    #[test]
    fn one_pe_takes_a_fixed_number_of_pool_locks_whatever_the_task_count() {
        // On one PE every chare-to-chare message is a self-push, and the
        // bootstrap is one batch: the pool is locked for that batch, the
        // drain, the idle check and the reopen, on any graph size.
        let reg = sum_registry();
        for leaves in [16, 64, 256] {
            let g = Reduction::new(leaves, 4);
            let map = ModuloMap::new(1, g.size() as u64);
            let report = CharmController::new(1).run(&g, &map, &reg, leaf_inputs(&g)).unwrap();
            assert_eq!(report.stats.tasks_executed, g.size() as u64);
            assert_eq!(report.stats.perf.pool_locks, 4, "Reduction({leaves}, 4)");
            assert_eq!(report.stats.perf.parks, 0);
        }
    }

    #[test]
    fn a_traced_run_sends_each_bootstrap_message_once_in_causal_order() {
        // The bootstrap enters the pool as one batch, yet each of its
        // messages still has its own send span, and the trace of the run,
        // same-PE self-pushes included, passes the happens-before checker.
        let g = Reduction::new(64, 4);
        let map = ModuloMap::new(1, g.size() as u64);
        for pes in [1, 2, 3] {
            let rec = babelflow_trace::TraceRecorder::shared();
            CharmController::new(pes)
                .run_traced(&g, &map, &sum_registry(), leaf_inputs(&g), rec.clone())
                .unwrap();
            let trace = rec.take();
            let bootstrap_sends = trace
                .events()
                .iter()
                .filter(|e| e.kind == babelflow_core::trace::SpanKind::MsgSend)
                .filter(|e| e.task.is_external())
                .count();
            assert_eq!(bootstrap_sends, 64, "pes={pes}");
            let plan = ShardPlan::build(&g, &map);
            let hb = babelflow_verify::check_happens_before(&trace, &plan);
            assert!(hb.is_clean(), "pes={pes}: {hb}");
            assert_eq!(hb.execs, g.size(), "pes={pes}");
        }
    }

    #[test]
    fn persistent_panic_surfaces_as_task_error() {
        let g = Reduction::new(4, 2);
        let mut reg = sum_registry();
        reg.rebind(CallbackId(2), |_, _| -> Vec<Payload> {
            panic!("{}", babelflow_core::PANIC_MARKER)
        });
        babelflow_core::quiet_panic_hook();
        let inputs: HashMap<TaskId, Vec<Payload>> = g
            .leaf_ids()
            .into_iter()
            .map(|id| (id, vec![pay(1)]))
            .collect();
        let map = ModuloMap::new(1, g.size() as u64);
        let mut c = CharmController::new(2);
        let err = c.run(&g, &map, &reg, inputs).unwrap_err();
        assert!(
            matches!(err, babelflow_core::ControllerError::TaskError { attempts: 4, .. }),
            "got {err}"
        );
    }

    #[test]
    fn missing_input_is_rejected_or_stalls() {
        let g = Reduction::new(4, 2);
        let reg = sum_registry();
        let map = ModuloMap::new(1, g.size() as u64);
        // One leaf gets an empty payload list: preflight rejects.
        let mut inputs: HashMap<TaskId, Vec<Payload>> = HashMap::new();
        let leaves = g.leaf_ids();
        for (i, id) in leaves.iter().enumerate().skip(1) {
            inputs.insert(*id, vec![pay(i as u64)]);
        }
        inputs.insert(leaves[0], vec![]);
        let mut c = CharmController::new(2);
        assert!(c.run(&g, &map, &reg, inputs).is_err());
    }
}
