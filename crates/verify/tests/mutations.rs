//! Mutation-based validation of the lint passes: every seeded corruption
//! of a valid graph family must fire its exact diagnostic code, and the
//! pristine families must lint clean (zero false positives).

use babelflow_core::ids::{CallbackId, ShardId, TaskId};
use babelflow_core::plan::ShardPlan;
use babelflow_core::{BlockMap, ExplicitGraph, ModuloMap, Registry, Task, TaskGraph, TaskMap};
use babelflow_graphs::{BinarySwap, Broadcast, KWayMerge, NeighborGraph, Reduction};
use babelflow_verify::{lint_graph, lint_run, DiagnosticCode, Severity};

/// The five families at small-but-nontrivial sizes, materialized so
/// tests can perform edge surgery on them.
fn families() -> Vec<(&'static str, ExplicitGraph)> {
    vec![
        ("reduction", ExplicitGraph::from_graph(&Reduction::new(8, 2))),
        ("broadcast", ExplicitGraph::from_graph(&Broadcast::new(9, 3))),
        ("binary_swap", ExplicitGraph::from_graph(&BinarySwap::new(8))),
        ("kway_merge", ExplicitGraph::from_graph(&KWayMerge::new(8, 2))),
        ("neighbor", ExplicitGraph::from_graph(&NeighborGraph::new(2, 2, 2))),
    ]
}

/// A task with at least one internal (non-external) producer and one
/// internal consumer — safe anchor for edge surgery.
fn internal_edge(g: &ExplicitGraph) -> (TaskId, TaskId) {
    for id in g.ids() {
        let t = g.task(id).unwrap();
        for &src in &t.incoming {
            if !src.is_external() {
                return (src, id);
            }
        }
    }
    panic!("family has no internal edge");
}

#[test]
fn pristine_families_lint_clean() {
    for (name, g) in families() {
        let n = g.size() as u64;
        for shards in [1u32, 2, 4] {
            let mods = ModuloMap::new(shards, n);
            let blocks = BlockMap::new(shards, n);
            for (map_name, map) in [("modulo", &mods as &dyn TaskMap), ("block", &blocks)] {
                let rep = lint_graph(&g, map);
                assert!(
                    rep.is_empty(),
                    "{name} x {map_name} x {shards} shards not clean:\n{rep}"
                );
            }
        }
    }
}

#[test]
fn dangling_output_edge_fires_bf002() {
    for (name, mut g) in families() {
        let (src, _) = internal_edge(&g);
        g.task_mut(src).unwrap().outgoing.push(vec![TaskId(999_999)]);
        let rep = lint_graph(&g, &ModuloMap::new(2, g.size() as u64));
        assert!(
            rep.count(DiagnosticCode::DanglingEdge) > 0,
            "{name}: expected BF002, got:\n{rep}"
        );
    }
}

#[test]
fn dangling_input_slot_fires_bf002() {
    for (name, mut g) in families() {
        let (_, dst) = internal_edge(&g);
        g.task_mut(dst).unwrap().incoming.push(TaskId(999_999));
        let rep = lint_graph(&g, &ModuloMap::new(2, g.size() as u64));
        assert!(
            rep.count(DiagnosticCode::DanglingEdge) > 0,
            "{name}: expected BF002, got:\n{rep}"
        );
    }
}

#[test]
fn dropped_producer_edge_fires_bf003() {
    for (name, mut g) in families() {
        let (src, dst) = internal_edge(&g);
        // Drop every outgoing reference src -> dst: dst's slot never fills.
        for slot in &mut g.task_mut(src).unwrap().outgoing {
            slot.retain(|&d| d != dst);
        }
        let rep = lint_graph(&g, &ModuloMap::new(2, g.size() as u64));
        assert!(
            rep.count(DiagnosticCode::EdgeAsymmetry) > 0,
            "{name}: expected BF003, got:\n{rep}"
        );
        // The starved consumer (and everything fed by it) can never run.
        assert!(
            rep.count(DiagnosticCode::UnreachableTask) > 0,
            "{name}: expected BF006 downstream of the starved task, got:\n{rep}"
        );
    }
}

#[test]
fn unbound_callback_fires_bf004() {
    for (name, g) in families() {
        let mut reg = Registry::new();
        // Bind every callback the family advertises except the last.
        let mut cbs = g.callback_ids();
        cbs.sort_unstable();
        cbs.dedup();
        let unbound = cbs.pop().unwrap();
        for cb in cbs {
            reg.register(cb, |i, _| i.to_vec());
        }
        let rep = lint_run(&g, &ModuloMap::new(2, g.size() as u64), &reg);
        let hits: Vec<_> = rep.of_code(DiagnosticCode::UnregisteredCallback).collect();
        assert!(
            !hits.is_empty() && hits[0].message.contains(&unbound.to_string()),
            "{name}: expected BF004 for {unbound}, got:\n{rep}"
        );
    }
}

#[test]
fn declared_arity_mismatch_fires_bf004() {
    let g = ExplicitGraph::from_graph(&Reduction::new(4, 2));
    let mut reg = Registry::new();
    for cb in g.callback_ids() {
        reg.register(cb, |i, _| i.to_vec());
    }
    // The reduce callback takes the valence (2) inputs; declare 3.
    reg.declare_arity(CallbackId(1), Some(3), None);
    let rep = lint_run(&g, &ModuloMap::new(2, g.size() as u64), &reg);
    assert!(
        rep.count(DiagnosticCode::UnregisteredCallback) > 0,
        "expected BF004 arity mismatch, got:\n{rep}"
    );
}

#[test]
fn out_of_range_shard_fires_bf005() {
    /// Delegates to an inner map but exiles one task to a shard no rank
    /// hosts.
    struct ExileMap<M> {
        inner: M,
        victim: TaskId,
    }
    impl<M: TaskMap> TaskMap for ExileMap<M> {
        fn shard(&self, task: TaskId) -> ShardId {
            if task == self.victim {
                ShardId(self.inner.num_shards() + 7)
            } else {
                self.inner.shard(task)
            }
        }
        fn tasks(&self, shard: ShardId) -> Vec<TaskId> {
            self.inner.tasks(shard)
        }
        fn num_shards(&self) -> u32 {
            self.inner.num_shards()
        }
    }

    for (name, g) in families() {
        let (_, victim) = internal_edge(&g);
        let map = ExileMap { inner: ModuloMap::new(2, g.size() as u64), victim };
        let rep = lint_graph(&g, &map);
        let hits: Vec<_> = rep.of_code(DiagnosticCode::UnmappedTask).collect();
        assert!(
            hits.iter().any(|d| d.task == Some(victim)),
            "{name}: expected BF005 at {victim}, got:\n{rep}"
        );
    }
}

#[test]
fn back_edge_cycle_fires_bf001() {
    for (name, mut g) in families() {
        let (src, dst) = internal_edge(&g);
        // Close the loop dst -> src symmetrically (both views agree, so
        // only the cycle itself is wrong).
        g.task_mut(dst).unwrap().outgoing.push(vec![src]);
        g.task_mut(src).unwrap().incoming.push(dst);
        let rep = lint_graph(&g, &ModuloMap::new(2, g.size() as u64));
        assert!(
            rep.count(DiagnosticCode::CycleDetected) > 0,
            "{name}: expected BF001, got:\n{rep}"
        );
    }
}

#[test]
fn extra_delivery_fires_bf007() {
    for (name, mut g) in families() {
        let (src, dst) = internal_edge(&g);
        // src sends one more message than dst has slots wired to it.
        g.task_mut(src).unwrap().outgoing.push(vec![dst]);
        let rep = lint_graph(&g, &ModuloMap::new(2, g.size() as u64));
        assert!(
            rep.count(DiagnosticCode::FanInSlotCollision) > 0,
            "{name}: expected BF007, got:\n{rep}"
        );
    }
}

/// A family whose `ids()` and `size()` lie: `extra` is listed after the
/// real ids, and `size()` reports `size_delta` more than `ids()` lists.
struct Lying {
    inner: ExplicitGraph,
    extra: Option<TaskId>,
    size_delta: usize,
}

impl TaskGraph for Lying {
    fn size(&self) -> usize {
        self.ids().len() + self.size_delta
    }
    fn task(&self, id: TaskId) -> Option<Task> {
        self.inner.task(id)
    }
    fn callback_ids(&self) -> Vec<CallbackId> {
        self.inner.callback_ids()
    }
    fn ids(&self) -> Vec<TaskId> {
        let mut ids = self.inner.ids();
        ids.extend(self.extra);
        ids
    }
}

/// Lint `g` and assert `code` fires as an Error anchored at `at`.
fn assert_fires(name: &str, g: &dyn TaskGraph, code: DiagnosticCode, at: Option<TaskId>) {
    let rep = lint_graph(g, &ModuloMap::new(2, g.size() as u64));
    assert!(
        rep.of_code(code).any(|d| d.task == at && d.severity == Severity::Error),
        "{name}: expected {code} at {at:?}, got:\n{rep}"
    );
}

#[test]
fn repeated_id_fires_bf008() {
    for (name, g) in families() {
        let (_, victim) = internal_edge(&g);
        let g = Lying { inner: g, extra: Some(victim), size_delta: 0 };
        assert_fires(name, &g, DiagnosticCode::DuplicateTaskId, Some(victim));
        // The plan keeps one task per id, so nothing else is wrong.
        let rep = lint_graph(&g, &ModuloMap::new(2, g.size() as u64));
        assert_eq!(rep.len(), 1, "{name}: {rep}");
    }
}

#[test]
fn overstated_size_fires_bf009() {
    for (name, g) in families() {
        let g = Lying { inner: g, extra: None, size_delta: 1 };
        assert_fires(name, &g, DiagnosticCode::SizeMismatch, None);
    }
}

#[test]
fn listed_id_without_a_task_fires_bf010() {
    for (name, g) in families() {
        let g = Lying { inner: g, extra: Some(TaskId(999_999)), size_delta: 0 };
        assert_fires(name, &g, DiagnosticCode::MissingTask, Some(TaskId(999_999)));
    }
}

#[test]
fn renamed_task_fires_bf011() {
    for (name, mut g) in families() {
        let (_, victim) = internal_edge(&g);
        g.task_mut(victim).unwrap().id = TaskId(999_999);
        assert_fires(name, &g, DiagnosticCode::TaskIdMismatch, Some(victim));
    }
}

#[test]
fn preflight_rejects_and_lenient_overrides() {
    let family = Reduction::new(4, 2);
    let mut g = ExplicitGraph::from_graph(&family);
    let (src, dst) = internal_edge(&g);
    g.task_mut(src).unwrap().outgoing.push(vec![dst]);
    let map = ModuloMap::new(1, g.size() as u64);
    let mut reg = Registry::new();
    for cb in g.callback_ids() {
        reg.register(cb, |i, _| i.to_vec());
    }
    let initial: babelflow_core::controller::InitialInputs = family
        .leaf_ids()
        .into_iter()
        .map(|id| (id, vec![babelflow_core::Payload::wrap(babelflow_core::Blob(vec![1]))]))
        .collect();

    let strict = ShardPlan::build(&g, &map);
    assert!(strict.enforces_lint());
    let err = strict.preflight(&reg, initial.clone()).unwrap_err();
    assert!(err.to_string().contains("BF007"), "got: {err}");

    let lenient = ShardPlan::build(&g, &map).lenient();
    assert!(!lenient.enforces_lint());
    lenient.preflight(&reg, initial).unwrap();
}
