//! ShardPlan ≡ procedural graph: the fast-path execution plan must be a
//! faithful, lossless interning of `Graph::task()` + `TaskMap` over every
//! graph family the library ships. Controllers execute from the plan and
//! never re-query the graph in steady state, so any divergence here is a
//! silent wrong-answer bug on all six backends.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use babelflow::core::{
    canonical_outputs, run_serial, Blob, CallbackId, Controller, FnMap, ModuloMap, Payload,
    Registry, SerialController, ShardId, ShardPlan, TaskGraph, TaskId, TaskMap,
};
use babelflow::graphs::{BinarySwap, Broadcast, KWayMerge, NeighborGraph, Reduction};

fn pay(v: u64) -> Payload {
    Payload::wrap(Blob(v.to_le_bytes().to_vec()))
}

fn val(p: &Payload) -> u64 {
    u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
}

/// The five library families plus a degenerate single-task reduction.
fn families() -> Vec<(&'static str, Arc<dyn TaskGraph>)> {
    vec![
        ("reduction", Arc::new(Reduction::new(27, 3))),
        ("broadcast", Arc::new(Broadcast::new(16, 2))),
        ("binary-swap", Arc::new(BinarySwap::new(8))),
        ("kway-merge", Arc::new(KWayMerge::new(9, 3))),
        ("neighbor", Arc::new(NeighborGraph::new(3, 2, 2))),
        ("reduction-min", Arc::new(Reduction::new(2, 2))),
    ]
}

/// Field-by-field comparison of a built plan against fresh procedural
/// queries: tasks, placement, slot sources, routes, shard-local lists, and
/// the input/output/callback summaries.
fn assert_plan_matches(name: &str, graph: &dyn TaskGraph, map: &dyn TaskMap) {
    let plan = ShardPlan::build(graph, map);

    let ids = graph.ids();
    assert_eq!(plan.len(), ids.len(), "{name}: task count");
    assert_eq!(plan.num_shards(), map.num_shards(), "{name}: shard count");

    for &id in &ids {
        let task = graph.task(id).expect("ids() yields tasks");
        let pt = plan.task_by_id(id).unwrap_or_else(|| panic!("{name}: {id} missing from plan"));

        // The interned task is the procedural task, verbatim.
        assert_eq!(pt.task, task, "{name}: {id} interned task");
        assert_eq!(pt.shard, map.shard(id), "{name}: {id} placement");

        // External input count matches the EXTERNAL markers in slot order.
        let externals = task.incoming.iter().filter(|s| s.is_external()).count();
        assert_eq!(pt.external_inputs, externals, "{name}: {id} external inputs");

        // Slot sources: reassembling (producer -> slots) must reproduce the
        // incoming vector exactly, slot indices in slot order per producer.
        let mut rebuilt: Vec<Option<TaskId>> = vec![None; task.incoming.len()];
        for (src, slots) in &pt.sources {
            let mut last = None;
            for &slot in slots {
                assert!(rebuilt[slot as usize].replace(*src).is_none(), "{name}: {id} slot reuse");
                assert!(last < Some(slot) || last.is_none(), "{name}: {id} slots out of order");
                last = Some(slot);
            }
        }
        // Every slot — external ones included, since hosts deliver initial
        // inputs under the EXTERNAL producer — maps back to `incoming`.
        let expected: Vec<Option<TaskId>> = task.incoming.iter().map(|s| Some(*s)).collect();
        assert_eq!(rebuilt, expected, "{name}: {id} slot map");

        // Routes: one per outgoing consumer, in slot order, each carrying
        // the destination's shard (or the external marker).
        assert_eq!(pt.routes.len(), task.outgoing.len(), "{name}: {id} fan-out");
        for (slot, dsts) in task.outgoing.iter().enumerate() {
            let routed: Vec<TaskId> = pt.routes[slot].iter().map(|r| r.dst).collect();
            assert_eq!(&routed, dsts, "{name}: {id} slot {slot} destinations");
            for route in &pt.routes[slot] {
                if route.dst.is_external() {
                    assert!(route.is_external(), "{name}: {id} external route not marked");
                } else {
                    assert_eq!(
                        route.shard,
                        map.shard(route.dst),
                        "{name}: {id} -> {} shard",
                        route.dst
                    );
                }
            }
        }
    }

    // Shard-local task lists match local_graph() per shard, as sets (the
    // plan orders by interning index, the procedural walk by id).
    for shard in 0..map.num_shards() {
        let from_plan: BTreeSet<TaskId> =
            plan.local(ShardId(shard)).iter().map(|&ix| plan.task(ix).id()).collect();
        let procedural: BTreeSet<TaskId> =
            graph.local_graph(ShardId(shard), map).iter().map(|t| t.id).collect();
        assert_eq!(from_plan, procedural, "{name}: shard {shard} locals");
    }

    // Graph-level summaries.
    let sorted = |mut v: Vec<TaskId>| {
        v.sort();
        v
    };
    let resolve = |ixs: &[u32]| ixs.iter().map(|&ix| plan.task(ix).id()).collect::<Vec<_>>();
    assert_eq!(
        sorted(resolve(plan.input_tasks())),
        sorted(graph.input_tasks()),
        "{name}: input tasks"
    );
    assert_eq!(
        sorted(resolve(plan.output_tasks())),
        sorted(graph.output_tasks()),
        "{name}: output tasks"
    );
    let cb_set = |v: &[CallbackId]| v.iter().copied().collect::<BTreeSet<_>>();
    assert!(
        cb_set(&graph.callback_ids()).is_subset(&cb_set(plan.callback_ids())),
        "{name}: callback ids"
    );
}

#[test]
fn plans_intern_every_family_losslessly() {
    for (name, graph) in families() {
        for shards in [1u32, 2, 3, 5] {
            let modulo = ModuloMap::new(shards, graph.size() as u64);
            assert_plan_matches(&format!("{name}/mod{shards}"), &*graph, &modulo);
            let ids = graph.ids();
            let scattered =
                FnMap::new(shards, ids, move |t| ShardId((t.0.wrapping_mul(7) % shards as u64) as u32));
            assert_plan_matches(&format!("{name}/scatter{shards}"), &*graph, &scattered);
        }
    }
}

/// Registry where every callback hashes its inputs with the task id, so a
/// wrong route, slot, or placement changes the output bytes.
fn mix_registry(graph: &dyn TaskGraph) -> Registry {
    let mut cbs: Vec<CallbackId> = graph.callback_ids();
    cbs.extend(graph.ids().iter().filter_map(|&id| graph.task(id)).map(|t| t.callback));
    cbs.sort_unstable();
    cbs.dedup();
    let fan_outs: Arc<HashMap<TaskId, usize>> = Arc::new(
        graph.ids().iter().filter_map(|&id| graph.task(id).map(|t| (id, t.fan_out()))).collect(),
    );
    let mut reg = Registry::new();
    for cb in cbs {
        let fan_outs = fan_outs.clone();
        reg.register(cb, move |inputs, id| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for (i, p) in inputs.iter().enumerate() {
                h = (h ^ val(p)).wrapping_mul(0x100_0000_01b3).rotate_left(i as u32 + 1);
            }
            h ^= id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (0..fan_outs.get(&id).copied().unwrap_or(1)).map(|s| pay(h ^ s as u64)).collect()
        });
    }
    reg
}

fn seeded_inputs(graph: &dyn TaskGraph) -> HashMap<TaskId, Vec<Payload>> {
    graph
        .input_tasks()
        .into_iter()
        .map(|id| {
            let task = graph.task(id).expect("input task exists");
            let externals = task.incoming.iter().filter(|s| s.is_external()).count();
            (id, (0..externals as u64).map(|s| pay(id.0.rotate_left(13) ^ s)).collect())
        })
        .collect()
}

#[test]
fn plan_driven_runs_match_procedural_runs() {
    // Same graph, same inputs: the plan-driven serial controller must
    // byte-match the procedural reference run on every family.
    for (name, graph) in families() {
        let reg = mix_registry(&*graph);
        let inputs = seeded_inputs(&*graph);
        let golden = run_serial(&*graph, &reg, inputs.clone()).unwrap();

        let map = ModuloMap::new(2, graph.size() as u64);
        let plan = Arc::new(ShardPlan::build(&*graph, &map));
        let report = SerialController::new()
            .with_plan(plan)
            .run(&*graph, &map, &reg, inputs)
            .unwrap();
        assert_eq!(canonical_outputs(&report), canonical_outputs(&golden), "{name}");
        assert_eq!(report.stats.tasks_executed as usize, graph.size(), "{name}");
        // A prebuilt plan means the run itself queried the graph zero times.
        assert_eq!(report.stats.perf.task_queries, 0, "{name}: steady-state queries");

        // Without one, every backend builds the plan and is charged exactly
        // that build's queries.
        let build_queries = ShardPlan::build(&*graph, &map).build_queries();
        for mut ctrl in all_controllers() {
            let backend = ctrl.name();
            let report = ctrl
                .run(&*graph, &map, &reg, seeded_inputs(&*graph))
                .unwrap_or_else(|e| panic!("{name} on {backend}: {e}"));
            assert_eq!(
                canonical_outputs(&report),
                canonical_outputs(&golden),
                "{name} on {backend}"
            );
            assert_eq!(report.stats.perf.task_queries, build_queries, "{name} on {backend}");
        }
    }
}

fn all_controllers() -> Vec<Box<dyn Controller>> {
    vec![
        Box::new(SerialController::new()),
        Box::new(babelflow::mpi::MpiController::new()),
        Box::new(babelflow::mpi::BlockingMpiController::new()),
        Box::new(babelflow::charm::CharmController::new(2)),
        Box::new(babelflow::legion::LegionSpmdController::new(2)),
        Box::new(babelflow::legion::LegionIndexLaunchController::new(2)),
    ]
}

#[test]
fn outputs_map_is_deterministic_across_rebuilds() {
    // Building the plan twice from the same graph+map yields identical
    // structure (BTreeMap-backed summaries make this byte-stable).
    let graph = KWayMerge::new(9, 3);
    let map = ModuloMap::new(3, graph.size() as u64);
    let a = ShardPlan::build(&graph, &map);
    let b = ShardPlan::build(&graph, &map);
    assert_eq!(a.len(), b.len());
    let dump = |p: &ShardPlan| -> BTreeMap<TaskId, String> {
        p.tasks().iter().map(|pt| (pt.id(), format!("{pt:?}"))).collect()
    };
    assert_eq!(dump(&a), dump(&b));
}
