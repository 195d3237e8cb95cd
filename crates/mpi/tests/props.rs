//! Property-based tests of the MPI backend: arbitrary reduction shapes and
//! rank counts must produce outputs byte-identical to the serial
//! controller, under both the asynchronous and the blocking schedulers.

use std::collections::HashMap;

use babelflow_core::{
    canonical_outputs, run_serial, Blob, CallbackId, Controller, ModuloMap, Payload, Registry,
    TaskGraph, TaskId,
};
use babelflow_graphs::Reduction;
use babelflow_mpi::{BlockingMpiController, MpiController};
use babelflow_core::proptest_lite::prelude::*;

fn val(p: &Payload) -> u64 {
    u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
}

fn pay(v: u64) -> Payload {
    Payload::wrap(Blob(v.to_le_bytes().to_vec()))
}

fn sum_registry() -> Registry {
    let mut r = Registry::new();
    r.register(CallbackId(0), |inputs, id| vec![pay(val(&inputs[0]).wrapping_add(id.0))]);
    r.register(CallbackId(1), |inputs, _| {
        vec![pay(inputs.iter().map(val).fold(0u64, u64::wrapping_add))]
    });
    r.register(CallbackId(2), |inputs, _| {
        vec![pay(inputs.iter().map(val).fold(1u64, u64::wrapping_add))]
    });
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn async_matches_serial_for_any_shape(
        k in 2u64..5,
        d in 1u32..4,
        ranks in 1u32..9,
        seed in any::<u64>(),
    ) {
        let g = Reduction::new(k.pow(d), k);
        let reg = sum_registry();
        let inputs: HashMap<TaskId, Vec<Payload>> = g
            .leaf_ids()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, vec![pay(seed.wrapping_add(i as u64))]))
            .collect();
        let serial = run_serial(&g, &reg, inputs.clone()).unwrap();
        let map = ModuloMap::new(ranks, g.size() as u64);
        let r = MpiController::new().run(&g, &map, &reg, inputs).unwrap();
        prop_assert_eq!(canonical_outputs(&r), canonical_outputs(&serial));
        prop_assert_eq!(r.stats.tasks_executed as usize, g.size());
    }

    /// The event loop's two-way select must lose no wakeups regardless of
    /// how many workers feed the completion channel: any worker-pool width
    /// must drain the whole graph and match the serial oracle.
    #[test]
    fn async_is_correct_for_any_worker_pool_width(
        workers in 1usize..6,
        ranks in 1u32..5,
        seed in any::<u64>(),
    ) {
        let g = Reduction::new(27, 3);
        let reg = sum_registry();
        let inputs: HashMap<TaskId, Vec<Payload>> = g
            .leaf_ids()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, vec![pay(seed.rotate_left(i as u32))]))
            .collect();
        let serial = run_serial(&g, &reg, inputs.clone()).unwrap();
        let map = ModuloMap::new(ranks, g.size() as u64);
        let r = MpiController::new()
            .with_workers(workers)
            .run(&g, &map, &reg, inputs)
            .unwrap();
        prop_assert_eq!(canonical_outputs(&r), canonical_outputs(&serial));
        prop_assert_eq!(r.stats.tasks_executed as usize, g.size());
    }

    #[test]
    fn blocking_matches_serial_for_any_shape(
        k in 2u64..4,
        d in 1u32..3,
        ranks in 1u32..6,
        seed in any::<u64>(),
    ) {
        let g = Reduction::new(k.pow(d), k);
        let reg = sum_registry();
        let inputs: HashMap<TaskId, Vec<Payload>> = g
            .leaf_ids()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, vec![pay(seed ^ i as u64)]))
            .collect();
        let serial = run_serial(&g, &reg, inputs.clone()).unwrap();
        let map = ModuloMap::new(ranks, g.size() as u64);
        let r = BlockingMpiController::new().run(&g, &map, &reg, inputs).unwrap();
        prop_assert_eq!(canonical_outputs(&r), canonical_outputs(&serial));
    }
}
