//! # babelflow-charm
//!
//! Charm++-like backend for BabelFlow-RS: a chare-array runtime substrate
//! ([`runtime`]) and the task-graph controller built on it
//! ([`CharmController`], §IV-B of the paper). Tasks become chares placed
//! statically over processing elements and scheduled message-driven — no
//! task map required. A run ends at quiescence, detected by counting
//! in-flight messages.

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
    use babelflow_graphs::{KWayMerge, Reduction};

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
        for run in &runs[1..] {
            assert_eq!(run.stats, runs[0].stats);
            assert_eq!(canonical_outputs(run), canonical_outputs(&runs[0]));
        }
        // Chare `idx` sits on PE `idx % 2`: an edge crosses PEs when its
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
        let poisoned = babelflow_core::inject_panics(&reg, &faults);
        let map = ModuloMap::new(1, g.size() as u64);
        let mut c = CharmController::new(2);
        let report = c.run(&g, &map, &poisoned, inputs).unwrap();
        assert_eq!(canonical_outputs(&report), canonical_outputs(&serial));
        assert_eq!(report.stats.recovery.retries, 1);
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
