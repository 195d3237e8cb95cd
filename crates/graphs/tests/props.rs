//! Property-based structural tests for every prototypical graph family:
//! arbitrary legal parameters must yield well-formed DAGs with the right
//! interface tasks.

use babelflow_core::{lint_graph, ModuloMap, TaskGraph};
use babelflow_graphs::{BinarySwap, Broadcast, KWayMerge, NeighborGraph, Reduction};
use babelflow_core::proptest_lite::prelude::*;

/// Whether `g` lints clean with every task on one shard.
fn lints_clean(g: &dyn TaskGraph) -> bool {
    lint_graph(g, &ModuloMap::new(1, g.size() as u64)).is_empty()
}

/// Check edge symmetry: for every internal edge, `task(a).outgoing`
/// mentions `b` exactly as many times as `task(b).incoming` mentions `a`
/// — in both directions, counting parallel edges.
fn edge_symmetry(g: &dyn TaskGraph) -> Result<(), String> {
    for a in g.ids() {
        let ta = g.task(a).ok_or_else(|| format!("ids() lists {a} but task() is None"))?;
        for &b in ta.outgoing.iter().flatten() {
            if b.is_external() {
                continue;
            }
            let tb = g.task(b).ok_or_else(|| format!("edge {a} -> {b} targets a non-task"))?;
            let fwd = ta.outgoing.iter().flatten().filter(|&&d| d == b).count();
            let rev = tb.incoming.iter().filter(|&&s| s == a).count();
            if fwd != rev {
                return Err(format!(
                    "{a} lists {b} as output {fwd} times but {b} lists {a} as input {rev} times"
                ));
            }
        }
        for &s in &ta.incoming {
            if s.is_external() {
                continue;
            }
            let ts = g.task(s).ok_or_else(|| format!("edge {s} -> {a} comes from a non-task"))?;
            let rev = ta.incoming.iter().filter(|&&x| x == s).count();
            let fwd = ts.outgoing.iter().flatten().filter(|&&d| d == a).count();
            if fwd != rev {
                return Err(format!(
                    "{a} lists {s} as input {rev} times but {s} lists {a} as output {fwd} times"
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reduction_valid_for_any_k_d(k in 2u64..6, d in 1u32..4) {
        let g = Reduction::new(k.pow(d), k);
        prop_assert!(lints_clean(&g));
        prop_assert_eq!(g.leaf_ids().len() as u64, k.pow(d));
        prop_assert_eq!(g.input_tasks().len() as u64, k.pow(d));
        prop_assert_eq!(g.output_tasks(), vec![g.root_id()]);
    }

    #[test]
    fn broadcast_valid_for_any_k_d(k in 2u64..6, d in 1u32..4) {
        let g = Broadcast::new(k.pow(d), k);
        prop_assert!(lints_clean(&g));
        prop_assert_eq!(g.output_tasks().len() as u64, k.pow(d));
        prop_assert_eq!(g.input_tasks(), vec![g.root_id()]);
    }

    #[test]
    fn binary_swap_valid_for_any_power(r in 1u32..7) {
        let g = BinarySwap::new(1 << r);
        prop_assert!(lints_clean(&g));
        prop_assert_eq!(g.rounds(), r);
        // Tiles = leaves; every write task has two inputs.
        for id in g.write_ids() {
            prop_assert_eq!(g.task(id).unwrap().fan_in(), 2);
        }
    }

    #[test]
    fn kway_merge_valid_for_any_k_d(k in 2u64..5, d in 1u32..4) {
        let g = KWayMerge::new(k.pow(d), k);
        prop_assert!(lints_clean(&g));
        // One segmentation output per leaf.
        prop_assert_eq!(g.output_tasks().len() as u64, k.pow(d));
        // Every id decodes to a role that encodes back to itself.
        for id in g.ids() {
            let role = g.role(id).unwrap();
            let back = match role {
                babelflow_graphs::MergeRole::Local { leaf } => g.leaf_id(leaf),
                babelflow_graphs::MergeRole::Join { level, j } => g.join_id(level, j),
                babelflow_graphs::MergeRole::Correction { level, leaf } => {
                    g.correction_id(level, leaf)
                }
                babelflow_graphs::MergeRole::Segmentation { leaf } => g.seg_id(leaf),
                babelflow_graphs::MergeRole::Relay { level, j, x } => g.relay_id(level, j, x),
            };
            prop_assert_eq!(back, id);
        }
    }

    #[test]
    fn neighbor_valid_for_any_grid(gx in 1u64..5, gy in 1u64..5, slabs in 1u64..5) {
        prop_assume!(gx * gy >= 2);
        let g = NeighborGraph::new(gx, gy, slabs);
        prop_assert!(lints_clean(&g));
        prop_assert_eq!(g.input_tasks().len() as u64, gx * gy * slabs);
        prop_assert_eq!(g.output_tasks(), vec![g.solve_id()]);
        // Every edge is incident to exactly two volumes, and edges_of is
        // its inverse.
        for e in 0..g.edges() {
            let edge = g.edge(e);
            prop_assert!(g.edges_of(edge.a).contains(&e));
            prop_assert!(g.edges_of(edge.b).contains(&e));
        }
    }

    #[test]
    fn edges_are_symmetric_across_all_families(
        k in 2u64..4,
        d in 1u32..4,
        r in 1u32..5,
        gx in 2u64..4,
        gy in 2u64..4,
        slabs in 1u64..3,
    ) {
        let graphs: Vec<Box<dyn TaskGraph>> = vec![
            Box::new(Reduction::new(k.pow(d), k)),
            Box::new(Broadcast::new(k.pow(d), k)),
            Box::new(BinarySwap::new(1 << r)),
            Box::new(KWayMerge::new(k.pow(d), k)),
            Box::new(NeighborGraph::new(gx, gy, slabs)),
        ];
        for g in &graphs {
            let res = edge_symmetry(&**g);
            prop_assert!(res.is_ok(), "{}", res.unwrap_err());
        }
    }

    #[test]
    fn merge_tree_map_consistent_for_any_shards(
        k in 2u64..4,
        d in 1u32..3,
        shards in 1u32..9,
    ) {
        let g = KWayMerge::new(k.pow(d), k);
        let m = babelflow_graphs::MergeTreeMap::new(g.clone(), shards);
        let rep = lint_graph(&g, &m);
        prop_assert!(rep.is_empty(), "{}", rep);
    }
}
