//! Property-based tests for the core EDSL: codec round-trips, task-map
//! consistency, and serial execution of random DAGs.

use std::collections::HashMap;

use babelflow_core::{
    canonical_outputs, lint_graph, run_serial, Blob, BlockMap, CallbackId, Decoder, Encoder,
    ExplicitGraph, ModuloMap, Payload, Registry, Task, TaskGraph, TaskId,
};
use babelflow_core::proptest_lite as proptest;
use babelflow_core::proptest_lite::prelude::*;

proptest! {
    #[test]
    fn codec_roundtrips_arbitrary_sequences(
        u8s in proptest::collection::vec(any::<u8>(), 0..64),
        u64s in proptest::collection::vec(any::<u64>(), 0..32),
        f32s in proptest::collection::vec(any::<f32>(), 0..32),
        s in "\\PC*",
    ) {
        let mut e = Encoder::new();
        e.put_bytes(&u8s);
        e.put_u64_slice(&u64s);
        e.put_f32_slice(&f32s);
        e.put_str(&s);
        let buf = e.finish();

        let mut d = Decoder::new(&buf);
        prop_assert_eq!(d.get_bytes().unwrap(), u8s.as_slice());
        prop_assert_eq!(d.get_u64_vec().unwrap(), u64s);
        let back = d.get_f32_vec().unwrap();
        prop_assert_eq!(back.len(), f32s.len());
        for (a, b) in back.iter().zip(&f32s) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(d.get_str().unwrap(), s.as_str());
        prop_assert!(d.is_done());
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut d = Decoder::new(&bytes);
        // Whatever the content, decoding is total: Ok or Err, no panic.
        let _ = d.get_u64();
        let _ = d.get_bytes();
        let _ = d.get_str();
        let _ = d.get_f32_vec();
    }

    #[test]
    fn modulo_and_block_maps_are_consistent(
        shards in 1u32..20,
        tasks in 0u64..200,
    ) {
        // Edgeless tasks: the lint can only object to the map.
        let edgeless = ExplicitGraph::new(
            (0..tasks).map(|id| Task::new(TaskId(id), CallbackId(0))).collect(),
            vec![CallbackId(0)],
        );
        let rep = lint_graph(&edgeless, &ModuloMap::new(shards, tasks));
        prop_assert!(rep.is_empty(), "{}", rep);
        let rep = lint_graph(&edgeless, &BlockMap::new(shards, tasks));
        prop_assert!(rep.is_empty(), "{}", rep);
    }

    /// Random layered DAGs execute serially, visit every task exactly
    /// once, and produce deterministic outputs.
    #[test]
    fn serial_executes_random_layered_dags(
        layers in proptest::collection::vec(1usize..5, 1..5),
        seed in any::<u64>(),
    ) {
        let graph = layered_dag(&layers, seed);
        let rep = lint_graph(&graph, &ModuloMap::new(1, graph.size() as u64));
        prop_assert!(rep.is_empty(), "{}", rep);

        let mut reg = Registry::new();
        reg.register(CallbackId(0), |inputs, id| {
            // Concatenate + stamp: deterministic, order-sensitive.
            let mut v = vec![id.0 as u8];
            for p in inputs {
                v.extend_from_slice(&p.extract::<Blob>().unwrap().0);
            }
            v.truncate(32);
            let t = inputs.len().max(1); // one output per slot below
            let _ = t;
            vec![Payload::wrap(Blob(v))]
        });

        let initial: HashMap<TaskId, Vec<Payload>> = graph
            .input_tasks()
            .into_iter()
            .map(|id| (id, vec![Payload::wrap(Blob(vec![id.0 as u8]))]))
            .collect();

        let a = run_serial(&graph, &reg, initial.clone()).unwrap();
        let b = run_serial(&graph, &reg, initial).unwrap();
        prop_assert_eq!(a.stats.tasks_executed as usize, graph.size());
        prop_assert_eq!(canonical_outputs(&a), canonical_outputs(&b));
    }
}

/// Build a layered DAG: `layers[i]` tasks in layer `i`; every task has one
/// input from a pseudo-random task of the previous layer (or EXTERNAL for
/// layer 0) and one output slot; last layer exits EXTERNAL.
fn layered_dag(layers: &[usize], seed: u64) -> ExplicitGraph {
    let mut tasks: Vec<Task> = Vec::new();
    let mut base = 0u64;
    let mut prev: Vec<u64> = Vec::new();
    for (li, &n) in layers.iter().enumerate() {
        let mut cur = Vec::new();
        for i in 0..n {
            let id = TaskId(base + i as u64);
            let mut t = Task::new(id, CallbackId(0));
            if li == 0 {
                t.incoming = vec![TaskId::EXTERNAL];
            } else {
                let h = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(id.0)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let src = prev[(h % prev.len() as u64) as usize];
                t.incoming = vec![TaskId(src)];
            }
            t.outgoing = vec![Vec::new()];
            cur.push(id.0);
            tasks.push(t);
        }
        // Wire previous layer's outputs to the consumers chosen above.
        if li > 0 {
            for t in &tasks {
                if cur.contains(&t.id.0) {
                    let src = t.incoming[0];
                    let src_task = tasks.iter().position(|x| x.id == src).unwrap();
                    let _ = src_task;
                }
            }
            // Second pass below fixes outgoing lists.
        }
        prev = cur;
        base += n as u64;
    }
    // Build outgoing from incoming.
    let incoming: Vec<(TaskId, Vec<TaskId>)> =
        tasks.iter().map(|t| (t.id, t.incoming.clone())).collect();
    for (dst, srcs) in incoming {
        for src in srcs {
            if src.is_external() {
                continue;
            }
            let s = tasks.iter_mut().find(|t| t.id == src).unwrap();
            s.outgoing[0].push(dst);
        }
    }
    // Tasks with no consumers exit externally.
    for t in &mut tasks {
        if t.outgoing[0].is_empty() {
            t.outgoing[0].push(TaskId::EXTERNAL);
        }
    }
    ExplicitGraph::new(tasks, vec![CallbackId(0)])
}
