//! Superlevel-set segmentation from merge trees.
//!
//! Given a threshold τ, the features of Fig. 4 are the connected
//! components of `{v : f(v) ≥ τ}`. In a merge tree each such component is
//! a maximal subtree above τ; its root is the lowest node still above the
//! threshold. Every vertex in the component is labeled with a component id
//! that all blocks agree on: the smallest *shared-structure* vertex of the
//! component if one exists (spanning features are visible to every
//! involved block through the joined boundary trees), falling back to the
//! component root for block-interior features.

use std::collections::HashMap;

use babelflow_core::{codec::DecodeError, Decoder, Encoder, PayloadData};

use crate::mergetree::{MergeTree, NO_PARENT};

/// Per-vertex feature labels produced by a segmentation task.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Segmentation {
    /// `(vertex, label)` pairs for every owned vertex above the threshold.
    pub labels: Vec<(u64, u64)>,
}

impl PayloadData for Segmentation {
    fn encode_into(&self, e: &mut Encoder) {
        e.reserve(8 + self.labels.len() * 16);
        e.put_usize(self.labels.len());
        for &(v, l) in &self.labels {
            e.put_u64(v);
            e.put_u64(l);
        }
    }

    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(buf);
        let n = d.get_usize()?;
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            labels.push((d.get_u64()?, d.get_u64()?));
        }
        Ok(Segmentation { labels })
    }
}

/// Segment a merge tree at threshold `tau`, emitting labels for the nodes
/// selected by `include` (typically: vertices the executing block owns).
pub fn segment_tree(tree: &MergeTree, tau: f32, include: impl Fn(u64) -> bool) -> Segmentation {
    let n = tree.len();
    let above = |i: usize| tree.values[i] >= tau;

    // Component root above tau, memoized; u32::MAX = below threshold.
    let mut root = vec![u32::MAX; n];
    let mut stack = Vec::new();
    for start in 0..n {
        if !above(start) || root[start] != u32::MAX {
            continue;
        }
        let mut cur = start;
        loop {
            let p = tree.parent[cur];
            if p != NO_PARENT && above(p as usize) {
                if root[p as usize] != u32::MAX {
                    // Known suffix: unwind.
                    let r = root[p as usize];
                    root[cur] = r;
                    break;
                }
                stack.push(cur);
                cur = p as usize;
            } else {
                root[cur] = cur as u32;
                break;
            }
        }
        let r = root[cur];
        while let Some(i) = stack.pop() {
            root[i] = r;
        }
    }

    // Per component: the label every participant agrees on.
    let mut label_of: HashMap<u32, u64> = HashMap::new();
    // `i` indexes three parallel arrays (`root`, `tree.flags`, `tree.verts`).
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        if root[i] == u32::MAX {
            continue;
        }
        let r = root[i];
        if tree.flags[i] {
            label_of
                .entry(r)
                .and_modify(|l| *l = (*l).min(tree.verts[i]))
                .or_insert(tree.verts[i]);
        }
    }

    let mut labels = Vec::new();
    // `i` indexes two parallel arrays (`root`, `tree.verts`).
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        let r = root[i];
        if r == u32::MAX || !include(tree.verts[i]) {
            continue;
        }
        let label = label_of.get(&r).copied().unwrap_or(tree.verts[r as usize]);
        labels.push((tree.verts[i], label));
    }
    labels.sort_unstable();
    Segmentation { labels }
}

/// Merge per-block segmentations into a global partition: label →
/// sorted member vertices.
pub fn merge_segmentations(segs: &[Segmentation]) -> HashMap<u64, Vec<u64>> {
    let mut out: HashMap<u64, Vec<u64>> = HashMap::new();
    for s in segs {
        for &(v, l) in &s.labels {
            out.entry(l).or_default().push(v);
        }
    }
    for members in out.values_mut() {
        members.sort_unstable();
        members.dedup();
    }
    out
}

/// Number of distinct features across segmentations.
pub fn feature_count(segs: &[Segmentation]) -> usize {
    merge_segmentations(segs).len()
}

/// Canonical partition form for comparing two segmentations that may use
/// different label ids: the sorted list of sorted member sets.
pub fn canonical_partition(groups: &HashMap<u64, Vec<u64>>) -> Vec<Vec<u64>> {
    let mut parts: Vec<Vec<u64>> = groups.values().cloned().collect();
    parts.sort();
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_tree(values: &[f32]) -> MergeTree {
        let nodes: Vec<(u64, f32, bool)> =
            values.iter().enumerate().map(|(i, &v)| (i as u64, v, false)).collect();
        let edges: Vec<(u32, u32)> =
            (1..values.len()).map(|i| ((i - 1) as u32, i as u32)).collect();
        MergeTree::build(nodes, &edges)
    }

    #[test]
    fn two_features_above_threshold() {
        //         0    1    2    3    4
        let t = path_tree(&[1.0, 5.0, 0.5, 4.0, 1.0]);
        let s = segment_tree(&t, 2.0, |_| true);
        // Vertices 1 and 3 are above; they are separate features.
        assert_eq!(s.labels.len(), 2);
        assert_ne!(s.labels[0].1, s.labels[1].1);
        assert_eq!(feature_count(&[s]), 2);
    }

    #[test]
    fn one_feature_when_saddle_above_threshold() {
        let t = path_tree(&[1.0, 5.0, 3.0, 4.0, 1.0]);
        let s = segment_tree(&t, 2.0, |_| true);
        assert_eq!(s.labels.len(), 3);
        let l = s.labels[0].1;
        assert!(s.labels.iter().all(|&(_, x)| x == l));
    }

    #[test]
    fn flagged_min_wins_as_label() {
        let mut t = path_tree(&[5.0, 4.0, 3.0]);
        // Flag vertex 1: the component above tau=2.5 must be labeled 1,
        // not its root 2.
        t.flags[1] = true;
        let s = segment_tree(&t, 2.5, |_| true);
        assert!(s.labels.iter().all(|&(_, l)| l == 1));
    }

    #[test]
    fn include_filter_limits_output_but_not_labels() {
        let t = path_tree(&[5.0, 4.0, 3.0]);
        let s = segment_tree(&t, 2.5, |v| v == 0);
        assert_eq!(s.labels, vec![(0, 2)]); // labeled by component root 2
    }

    #[test]
    fn empty_above_threshold() {
        let t = path_tree(&[1.0, 1.5]);
        let s = segment_tree(&t, 10.0, |_| true);
        assert!(s.labels.is_empty());
        assert_eq!(feature_count(&[s]), 0);
    }

    #[test]
    fn payload_roundtrip() {
        let s = Segmentation { labels: vec![(3, 1), (4, 1), (9, 7)] };
        assert_eq!(Segmentation::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn canonical_partition_ignores_label_identity() {
        let mut a = HashMap::new();
        a.insert(1u64, vec![10u64, 11]);
        a.insert(2, vec![20]);
        let mut b = HashMap::new();
        b.insert(7u64, vec![10u64, 11]);
        b.insert(9, vec![20]);
        assert_eq!(canonical_partition(&a), canonical_partition(&b));
    }
}
