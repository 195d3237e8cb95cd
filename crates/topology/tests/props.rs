//! Property-based tests of the merge-tree algorithms: structural
//! invariants on random fields, restriction correctness, end-to-end
//! distributed-equals-oracle segmentation, and `build`/`join` against
//! their straightforward comparator and `HashMap` forms.

use std::collections::HashMap;

use babelflow_core::run_serial;
use babelflow_data::{Grid3, Idx3};
use babelflow_topology::{
    canonical_partition, higher, merge_segmentations, MergeTree, MergeTreeConfig, UnionFind,
    NO_PARENT,
};
use babelflow_core::proptest_lite as proptest;
use babelflow_core::proptest_lite::prelude::*;

/// Random 1D field as a path graph.
fn path_tree(values: &[f32]) -> MergeTree {
    let nodes: Vec<(u64, f32, bool)> =
        values.iter().enumerate().map(|(i, &v)| (i as u64, v, false)).collect();
    let edges: Vec<(u32, u32)> =
        (1..values.len()).map(|i| ((i - 1) as u32, i as u32)).collect();
    MergeTree::build(nodes, &edges)
}

/// `MergeTree::build` with its sweep order from a comparator sort on
/// [`higher`]: the reference the key sort must reproduce exactly.
fn reference_build(nodes: Vec<(u64, f32, bool)>, edges: &[(u32, u32)]) -> MergeTree {
    let n = nodes.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a as usize].push(b as usize);
        adj[b as usize].push(a as usize);
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| {
        if higher(nodes[a].1, nodes[a].0, nodes[b].1, nodes[b].0) {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    });
    let mut uf = UnionFind::new(n);
    let mut lowest: Vec<usize> = (0..n).collect();
    let mut processed = vec![false; n];
    let mut parent = vec![NO_PARENT; n];
    for &i in &order {
        processed[i] = true;
        lowest[uf.find(i)] = i;
        // Forward-star adjacency visits neighbors newest edge first.
        for &j in adj[i].iter().rev() {
            if !processed[j] {
                continue;
            }
            let (ri, rj) = (uf.find(i), uf.find(j));
            if ri != rj {
                parent[lowest[rj]] = i as u32;
                let r = uf.union(ri, rj);
                lowest[r] = i;
            }
        }
    }
    MergeTree {
        verts: nodes.iter().map(|n| n.0).collect(),
        values: nodes.iter().map(|n| n.1).collect(),
        parent,
        flags: nodes.iter().map(|n| n.2).collect(),
    }
}

/// `MergeTree::join` through a SipHash `HashMap`, with one lookup per
/// edge endpoint, into [`reference_build`].
fn reference_join(trees: &[&MergeTree]) -> MergeTree {
    let mut index: HashMap<u64, u32> = HashMap::new();
    let mut nodes: Vec<(u64, f32, bool)> = Vec::new();
    for t in trees {
        for i in 0..t.len() {
            let k = *index.entry(t.verts[i]).or_insert_with(|| {
                nodes.push((t.verts[i], t.values[i], false));
                nodes.len() as u32 - 1
            });
            nodes[k as usize].2 |= t.flags[i];
        }
    }
    let mut edges = Vec::new();
    for t in trees {
        for i in 0..t.len() {
            let p = t.parent[i];
            if p != NO_PARENT {
                edges.push((index[&t.verts[i]], index[&t.verts[p as usize]]));
            }
        }
    }
    reference_build(nodes, &edges)
}

/// Equal node for node, values compared by bit pattern.
fn assert_same_tree(got: &MergeTree, want: &MergeTree) -> CaseResult {
    prop_assert_eq!(&got.verts, &want.verts);
    let bits = |t: &MergeTree| t.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(got), bits(want));
    prop_assert_eq!(&got.parent, &want.parent);
    prop_assert_eq!(&got.flags, &want.flags);
    Ok(())
}

/// A field value from `(small, bits, kind)`: mostly small integers (many
/// ties), some signed zeros, some arbitrary non-NaN floats.
fn field_value((small, bits, kind): (i32, u32, u8)) -> f32 {
    match kind {
        0 if bits & 1 == 1 => -0.0,
        0 => 0.0,
        1 if !f32::from_bits(bits).is_nan() => f32::from_bits(bits),
        _ => small as f32,
    }
}

/// Distinct vertex ids, not in index order, spread over all 64 bits.
fn vertex_id(i: usize, salt: u64) -> u64 {
    (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn build_matches_comparator_sort(
        cells in proptest::collection::vec((-3i32..4, any::<u32>(), 0u8..4), 1..48),
        raw_edges in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..96),
        flags in proptest::collection::vec(any::<bool>(), 48),
        salt in any::<u64>(),
    ) {
        let n = cells.len();
        let nodes: Vec<(u64, f32, bool)> = cells
            .iter()
            .enumerate()
            .map(|(i, &c)| (vertex_id(i, salt), field_value(c), flags[i]))
            .collect();
        let edges: Vec<(u32, u32)> =
            raw_edges.iter().map(|&(a, b)| (a % n as u32, b % n as u32)).collect();
        assert_same_tree(&MergeTree::build(nodes.clone(), &edges), &reference_build(nodes, &edges))?;
    }

    #[test]
    fn join_matches_hashmap_join(
        cells in proptest::collection::vec((-3i32..4, any::<u32>(), 0u8..4), 2..40),
        members in proptest::collection::vec(0u8..8, 40),
        raw_edges in proptest::collection::vec((0u8..3, any::<u32>(), any::<u32>()), 0..120),
        flags in proptest::collection::vec(any::<bool>(), 120),
        salt in any::<u64>(),
    ) {
        // Three trees over overlapping vertex subsets (bit t of
        // `members[v]` puts v in tree t), each with its own flags.
        let values: Vec<f32> = cells.iter().map(|&c| field_value(c)).collect();
        let trees: Vec<MergeTree> = (0..3)
            .map(|t| {
                let verts: Vec<usize> =
                    (0..values.len()).filter(|&v| members[v] >> t & 1 == 1).collect();
                let nodes: Vec<(u64, f32, bool)> = verts
                    .iter()
                    .map(|&v| (vertex_id(v, salt), values[v], flags[40 * t + v]))
                    .collect();
                let m = verts.len() as u32;
                let edges: Vec<(u32, u32)> = if m == 0 {
                    Vec::new()
                } else {
                    raw_edges
                        .iter()
                        .filter(|e| e.0 == t as u8)
                        .map(|&(_, a, b)| (a % m, b % m))
                        .collect()
                };
                MergeTree::build(nodes, &edges)
            })
            .collect();
        let refs: Vec<&MergeTree> = trees.iter().collect();
        assert_same_tree(&MergeTree::join(&refs), &reference_join(&refs))?;
        assert_same_tree(&MergeTree::join(&refs[1..]), &reference_join(&refs[1..]))?;
    }

    #[test]
    fn merge_tree_is_monotone_forest(values in proptest::collection::vec(-100i32..100, 2..64)) {
        let vals: Vec<f32> = values.iter().map(|&v| v as f32).collect();
        let t = path_tree(&vals);
        prop_assert!(t.monotonicity_violations().is_empty());
        // A connected path always yields exactly one root.
        prop_assert_eq!(t.roots().len(), 1);
        // Leaf count equals the number of local maxima under the
        // tie-broken order.
        let higher = |i: usize, j: usize| {
            babelflow_topology::higher(vals[i], i as u64, vals[j], j as u64)
        };
        let maxima = (0..vals.len())
            .filter(|&i| {
                (i == 0 || higher(i, i - 1)) && (i + 1 == vals.len() || higher(i, i + 1))
            })
            .count();
        prop_assert_eq!(t.leaves().len(), maxima);
    }

    #[test]
    fn restriction_preserves_pairwise_merge_heights(
        values in proptest::collection::vec(-50i32..50, 4..48),
        keep_mask in proptest::collection::vec(any::<bool>(), 4..48),
    ) {
        let vals: Vec<f32> = values.iter().map(|&v| v as f32).collect();
        let full = path_tree(&vals);
        let keep: Vec<u64> = (0..vals.len() as u64)
            .filter(|&i| *keep_mask.get(i as usize).unwrap_or(&false))
            .collect();
        prop_assume!(keep.len() >= 2);
        let r = full.restrict(|v| keep.contains(&v));
        prop_assert!(r.monotonicity_violations().is_empty());
        for &a in &keep {
            for &b in &keep {
                prop_assert_eq!(
                    r.merge_height(a, b),
                    full.merge_height(a, b),
                    "pair ({}, {})", a, b
                );
            }
        }
    }

    #[test]
    fn join_commutes_with_direct_construction(
        values in proptest::collection::vec(-50i32..50, 6..40),
        cut_frac in 0.2f64..0.8,
    ) {
        let vals: Vec<f32> = values.iter().map(|&v| v as f32).collect();
        let cut = ((vals.len() as f64 * cut_frac) as usize).clamp(1, vals.len() - 2);
        let full = path_tree(&vals);
        let mk = |range: std::ops::Range<usize>| {
            let nodes: Vec<(u64, f32, bool)> =
                range.clone().map(|i| (i as u64, vals[i], false)).collect();
            let edges: Vec<(u32, u32)> =
                (1..range.len()).map(|i| ((i - 1) as u32, i as u32)).collect();
            MergeTree::build(nodes, &edges)
        };
        let joined = MergeTree::join(&[&mk(0..cut + 1), &mk(cut..vals.len())]);
        for a in 0..vals.len() as u64 {
            for b in 0..vals.len() as u64 {
                prop_assert_eq!(joined.merge_height(a, b), full.merge_height(a, b));
            }
        }
    }

    /// The big one: distributed segmentation equals the global oracle on
    /// random 3D fields, for random thresholds and decompositions.
    #[test]
    fn distributed_segmentation_matches_oracle_on_random_fields(
        seed in any::<u64>(),
        threshold in -20i32..20,
        blocks in prop_oneof![Just((2usize, 1usize, 1usize)), Just((2, 2, 1)), Just((2, 2, 2))],
    ) {
        let n = 8;
        // Integer-valued random field: plenty of ties (worst case for the
        // tie-breaking rules).
        let grid = Grid3::from_fn((n, n, n), |x, y, z| {
            let h = (seed ^ ((x * 73 + y * 149 + z * 283) as u64))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 59) as i64 - 16) as f32
        });
        let cfg = MergeTreeConfig {
            dims: Idx3::new(n, n, n),
            blocks: Idx3::new(blocks.0, blocks.1, blocks.2),
            threshold: threshold as f32,
            valence: 2,
        };
        let graph = cfg.graph();
        let report = run_serial(&graph, &cfg.registry(), cfg.initial_inputs(&grid)).unwrap();
        let distributed = merge_segmentations(&cfg.collect_segmentations(&report));
        let oracle = cfg.oracle_partition(&grid);
        prop_assert_eq!(canonical_partition(&distributed), canonical_partition(&oracle));
    }
}
