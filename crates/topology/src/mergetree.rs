//! Augmented merge (join) trees.
//!
//! A *join tree* of a scalar field tracks how superlevel sets
//! `{v : f(v) ≥ t}` merge as `t` sweeps downward. In the augmented form
//! used here every vertex is a node whose `parent` is the next vertex down
//! its arc; maxima are leaves, merge saddles have several children, and
//! each connected component of the domain contributes one root (its global
//! minimum).
//!
//! Ties are broken by vertex id ("simulation of simplicity"): vertex `a`
//! is *higher* than `b` iff `f(a) > f(b)`, or `f(a) == f(b)` and `a > b`.
//! Every construction in this crate uses the same order, so trees computed
//! from different decompositions of the same field agree exactly.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use babelflow_core::{codec::DecodeError, Decoder, Encoder, PayloadData};

use crate::unionfind::UnionFind;

/// Sentinel for "no parent" in [`MergeTree::parent`].
pub const NO_PARENT: u32 = u32::MAX;

/// An augmented merge tree over a set of (globally identified) vertices.
///
/// `flags[i]` marks nodes that belong to the globally shared boundary
/// structure (boundary trees and everything joined from them); the
/// segmentation stage uses them to pick labels every block agrees on.
#[derive(Clone, Debug, PartialEq)]
pub struct MergeTree {
    /// Global vertex ids.
    pub verts: Vec<u64>,
    /// Scalar value per node.
    pub values: Vec<f32>,
    /// Index of the next node down the arc (`NO_PARENT` for roots).
    pub parent: Vec<u32>,
    /// Whether the node is part of the shared boundary structure.
    pub flags: Vec<bool>,
}

/// `(value, id)` tie-broken comparison: is a higher than b?
#[inline]
pub fn higher(av: f32, ai: u64, bv: f32, bi: u64) -> bool {
    av > bv || (av == bv && ai > bi)
}

/// A `u32` whose unsigned order is the numeric order of `v`: the sign bit
/// flipped for non-negative values, every bit flipped for negative ones.
/// `v + 0.0` folds −0.0 onto 0.0, which [`higher`] treats as equal, so
/// `(order_key(v), id)` compares exactly as [`higher`] does on non-NaN
/// values.
#[inline]
fn order_key(v: f32) -> u32 {
    let b = (v + 0.0).to_bits();
    if b >> 31 == 1 {
        !b
    } else {
        b | 1 << 31
    }
}

/// Multiply–xorshift hasher for vertex ids: one multiply and one shift
/// per `u64`, where the default SipHash costs tens of cycles. Vertex ids
/// are not attacker-controlled, so no flooding resistance is needed.
#[derive(Default)]
struct VertexHasher(u64);

impl Hasher for VertexHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    /// Folds arbitrary bytes as little-endian `u64` words, the last one
    /// zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Vertex id → node index, hashed with [`VertexHasher`].
type VertexIndex = HashMap<u64, u32, BuildHasherDefault<VertexHasher>>;

impl MergeTree {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Whether the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Indices of root nodes (one per connected component).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.parent[i] == NO_PARENT).collect()
    }

    /// Indices of leaf nodes (the maxima).
    pub fn leaves(&self) -> Vec<usize> {
        let mut has_child = vec![false; self.len()];
        for &p in &self.parent {
            if p != NO_PARENT {
                has_child[p as usize] = true;
            }
        }
        (0..self.len()).filter(|&i| !has_child[i]).collect()
    }

    /// Node index of a vertex id, if present.
    pub fn node_of(&self, vert: u64) -> Option<usize> {
        // Trees are small enough that a scan is fine for tests; hot paths
        // build their own maps.
        self.verts.iter().position(|&v| v == vert)
    }

    /// Check the defining invariant: every parent is lower (tie-broken)
    /// than its child. Returns offending node indices.
    pub fn monotonicity_violations(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| {
                let p = self.parent[i];
                p != NO_PARENT
                    && !higher(
                        self.values[i],
                        self.verts[i],
                        self.values[p as usize],
                        self.verts[p as usize],
                    )
            })
            .collect()
    }

    /// Build the augmented join tree over `nodes` connected by `edges`
    /// (indices into `nodes`).
    ///
    /// Works for grid blocks (nodes = samples, edges = 6-connectivity) and
    /// for joining trees (nodes = union of tree nodes, edges = parent
    /// links) alike — joining merge trees *is* computing the join tree of
    /// their 1-skeletons.
    pub fn build(nodes: Vec<(u64, f32, bool)>, edges: &[(u32, u32)]) -> MergeTree {
        let n = nodes.len();
        let mut adj_head = vec![u32::MAX; n];
        // Forward-star adjacency, both directions.
        let mut adj_next = Vec::with_capacity(edges.len() * 2);
        let mut adj_to = Vec::with_capacity(edges.len() * 2);
        let mut push = |head: &mut Vec<u32>, from: usize, to: u32| {
            adj_to.push(to);
            adj_next.push(head[from]);
            head[from] = (adj_to.len() - 1) as u32;
        };
        for &(a, b) in edges {
            push(&mut adj_head, a as usize, b);
            push(&mut adj_head, b as usize, a);
        }

        // Highest first: sorting the keys descending is the `higher`
        // order, and compares no `nodes` entries.
        let mut order: Vec<(u32, u64, u32)> =
            nodes.iter().enumerate().map(|(i, &(id, v, _))| (order_key(v), id, i as u32)).collect();
        order.sort_unstable_by(|a, b| b.cmp(a));

        let mut uf = UnionFind::new(n);
        let mut lowest: Vec<u32> = (0..n as u32).collect();
        let mut processed = vec![false; n];
        let mut parent = vec![NO_PARENT; n];

        for &(_, _, i) in &order {
            let i = i as usize;
            processed[i] = true;
            lowest[uf.find(i)] = i as u32;
            let mut e = adj_head[i];
            while e != u32::MAX {
                let j = adj_to[e as usize] as usize;
                e = adj_next[e as usize];
                if !processed[j] {
                    continue;
                }
                let (ri, rj) = (uf.find(i), uf.find(j));
                if ri != rj {
                    // The neighboring component's current lowest node hangs
                    // onto i: i extends that component downward.
                    parent[lowest[rj] as usize] = i as u32;
                    let r = uf.union(ri, rj);
                    lowest[r] = i as u32;
                }
            }
        }

        let (verts, rest): (Vec<u64>, Vec<(f32, bool)>) =
            nodes.into_iter().map(|(v, f, s)| (v, (f, s))).unzip();
        let (values, flags) = rest.into_iter().unzip();
        MergeTree { verts, values, parent, flags }
    }

    /// Join several merge trees: the merge tree of the union of their
    /// 1-skeletons, gluing nodes with equal vertex ids. Flags are OR-ed.
    pub fn join(trees: &[&MergeTree]) -> MergeTree {
        let total: usize = trees.iter().map(|t| t.len()).sum();
        let mut index = VertexIndex::with_capacity_and_hasher(total, Default::default());
        let mut nodes: Vec<(u64, f32, bool)> = Vec::with_capacity(total);
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(total);
        // Joined index of each node of the current tree, so its parent
        // links need no second lookup.
        let mut local: Vec<u32> = Vec::new();

        for t in trees {
            local.clear();
            for i in 0..t.len() {
                let k = match index.entry(t.verts[i]) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        nodes.push((t.verts[i], t.values[i], t.flags[i]));
                        *e.insert(nodes.len() as u32 - 1)
                    }
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let k = *e.get();
                        debug_assert_eq!(
                            nodes[k as usize].1, t.values[i],
                            "vertex {} has inconsistent values across trees",
                            t.verts[i]
                        );
                        nodes[k as usize].2 |= t.flags[i];
                        k
                    }
                };
                local.push(k);
            }
            edges.extend(
                t.parent
                    .iter()
                    .zip(&local)
                    .filter(|&(&p, _)| p != NO_PARENT)
                    .map(|(&p, &k)| (k, local[p as usize])),
            );
        }
        MergeTree::build(nodes, &edges)
    }

    /// Restrict the tree to `keep` vertices plus the branch nodes needed to
    /// preserve their merge structure (the *boundary tree* operation).
    ///
    /// The result is the correct merge tree of the kept vertex set: any two
    /// kept vertices merge at exactly the same (tie-broken) height as in
    /// the full tree. All nodes of the restriction are flagged as shared
    /// structure.
    pub fn restrict(&self, keep: impl Fn(u64) -> bool) -> MergeTree {
        let n = self.len();
        let kept: Vec<bool> = (0..n).map(|i| keep(self.verts[i])).collect();

        // Mark the union of root-paths from kept nodes.
        let mut visited = vec![false; n];
        for i in 0..n {
            if !kept[i] {
                continue;
            }
            let mut cur = i;
            while !visited[cur] {
                visited[cur] = true;
                let p = self.parent[cur];
                if p == NO_PARENT {
                    break;
                }
                cur = p as usize;
            }
        }

        // Count visited children to find branch nodes.
        let mut child_count = vec![0u32; n];
        for i in 0..n {
            if visited[i] && self.parent[i] != NO_PARENT {
                let p = self.parent[i] as usize;
                if visited[p] {
                    child_count[p] += 1;
                }
            }
        }

        let essential: Vec<bool> =
            (0..n).map(|i| visited[i] && (kept[i] || child_count[i] >= 2)).collect();

        // Map essential nodes to new indices.
        let mut new_index = vec![u32::MAX; n];
        let mut verts = Vec::new();
        let mut values = Vec::new();
        for i in 0..n {
            if essential[i] {
                new_index[i] = verts.len() as u32;
                verts.push(self.verts[i]);
                values.push(self.values[i]);
            }
        }

        // New parent: nearest essential strict descendant along the chain.
        let mut parent = vec![NO_PARENT; verts.len()];
        for i in 0..n {
            if !essential[i] {
                continue;
            }
            let mut w = self.parent[i];
            while w != NO_PARENT && !essential[w as usize] {
                w = self.parent[w as usize];
            }
            if w != NO_PARENT {
                parent[new_index[i] as usize] = new_index[w as usize];
            }
        }

        let flags = vec![true; verts.len()];
        MergeTree { verts, values, parent, flags }
    }

    /// Height (tie-broken) at which vertices `a` and `b` first belong to
    /// the same superlevel component, or `None` if they never merge.
    /// Quadratic; a test oracle, not a production query.
    pub fn merge_height(&self, a: u64, b: u64) -> Option<(f32, u64)> {
        let (ia, ib) = (self.node_of(a)?, self.node_of(b)?);
        // Collect a's root path, then walk b's chain until it hits it.
        let mut seen = std::collections::HashSet::new();
        let mut cur = ia;
        loop {
            seen.insert(cur);
            match self.parent[cur] {
                NO_PARENT => break,
                p => cur = p as usize,
            }
        }
        let mut cur = ib;
        loop {
            if seen.contains(&cur) {
                return Some((self.values[cur], self.verts[cur]));
            }
            match self.parent[cur] {
                NO_PARENT => return None,
                p => cur = p as usize,
            }
        }
    }
}

impl PayloadData for MergeTree {
    fn encode_into(&self, e: &mut Encoder) {
        e.reserve(32 + self.len() * 17);
        e.put_u64_slice(&self.verts);
        e.put_f32_slice(&self.values);
        e.put_u32_slice(&self.parent);
        e.put_usize(self.flags.len());
        for &f in &self.flags {
            e.put_bool(f);
        }
    }

    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(buf);
        let verts = d.get_u64_vec()?;
        let values = d.get_f32_vec()?;
        let parent = d.get_u32_vec()?;
        // One byte per flag, as `put_bool` wrote them.
        let flags: Vec<bool> = d.get_bytes()?.iter().map(|&b| b != 0).collect();
        if verts.len() != values.len() || verts.len() != parent.len() || verts.len() != flags.len()
        {
            return Err(DecodeError { what: "merge tree length mismatch" });
        }
        if !d.is_done() {
            return Err(DecodeError { what: "trailing bytes after merge tree" });
        }
        Ok(MergeTree { verts, values, parent, flags })
    }
}

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;

    #[test]
    fn vertex_hasher_folds_byte_keys() {
        // `write` is reached by any key that is not a bare integer; it
        // must fold every byte, the tail of a partial word included.
        let build = BuildHasherDefault::<VertexHasher>::default();
        let keys: Vec<Vec<u8>> = (0..20u8).map(|n| (0..n).collect()).collect();
        let hashes: std::collections::HashSet<u64> =
            keys.iter().map(|k| build.hash_one(k.as_slice())).collect();
        assert_eq!(hashes.len(), keys.len());
        assert_ne!(build.hash_one("vertex"), build.hash_one("vertey"));
        let mut map: HashMap<String, usize, BuildHasherDefault<VertexHasher>> = HashMap::default();
        for (i, k) in ["a", "b", "a longer key than one word"].iter().enumerate() {
            map.insert(k.to_string(), i);
        }
        assert_eq!(map["a longer key than one word"], 2);
    }

    #[test]
    fn order_key_sorts_like_higher() {
        let vals = [f32::NEG_INFINITY, -3.5, -1e-40, -0.0, 0.0, 1e-40, 2.0, f32::INFINITY];
        for &a in &vals {
            for &b in &vals {
                for (ai, bi) in [(1u64, 2u64), (2, 1), (u64::MAX, 0)] {
                    let keyed = (order_key(a), ai) > (order_key(b), bi);
                    assert_eq!(keyed, higher(a, ai, b, bi), "{a} #{ai} vs {b} #{bi}");
                }
            }
        }
    }

    /// 1D field as a path graph: values[i] at vertex i.
    fn path_tree(values: &[f32]) -> MergeTree {
        let nodes: Vec<(u64, f32, bool)> =
            values.iter().enumerate().map(|(i, &v)| (i as u64, v, false)).collect();
        let edges: Vec<(u32, u32)> =
            (1..values.len()).map(|i| ((i - 1) as u32, i as u32)).collect();
        MergeTree::build(nodes, &edges)
    }

    #[test]
    fn two_peaks_merge_at_the_saddle() {
        //  values: 1 5 2 4 1  -> maxima at 1 and 3, saddle at 2.
        let t = path_tree(&[1.0, 5.0, 2.0, 4.0, 1.0]);
        assert!(t.monotonicity_violations().is_empty());
        assert_eq!(t.leaves().len(), 2);
        let (h, v) = t.merge_height(1, 3).unwrap();
        assert_eq!((h, v), (2.0, 2));
        // Single root: the global minimum side.
        assert_eq!(t.roots().len(), 1);
    }

    #[test]
    fn monotone_field_is_a_single_arc() {
        let t = path_tree(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(t.leaves(), vec![0]);
        assert_eq!(t.roots(), vec![4]);
        for i in 0..4usize {
            assert_eq!(t.parent[i], (i + 1) as u32);
        }
    }

    #[test]
    fn ties_break_by_vertex_id() {
        // All equal values: order is by id descending, so the tree is the
        // path from the highest id down to vertex 0.
        let t = path_tree(&[1.0, 1.0, 1.0]);
        assert!(t.monotonicity_violations().is_empty());
        assert_eq!(t.roots(), vec![0]);
    }

    #[test]
    fn disconnected_graph_gives_forest() {
        let nodes = vec![(0u64, 1.0f32, false), (1, 2.0, false), (2, 3.0, false)];
        let edges = [(0u32, 1u32)]; // vertex 2 isolated
        let t = MergeTree::build(nodes, &edges);
        assert_eq!(t.roots().len(), 2);
        assert!(t.merge_height(0, 2).is_none());
    }

    #[test]
    fn join_equals_direct_construction() {
        // Split a 1D field into two halves sharing vertex 3, build each
        // half's tree, join, and compare merge heights with the full tree.
        let values = [1.0, 6.0, 2.0, 3.0, 1.5, 5.0, 0.5];
        let full = path_tree(&values);

        let mk = |range: std::ops::Range<usize>| {
            let nodes: Vec<(u64, f32, bool)> =
                range.clone().map(|i| (i as u64, values[i], false)).collect();
            let edges: Vec<(u32, u32)> =
                (1..range.len()).map(|i| ((i - 1) as u32, i as u32)).collect();
            MergeTree::build(nodes, &edges)
        };
        let left = mk(0..4);
        let right = mk(3..7);
        let joined = MergeTree::join(&[&left, &right]);
        assert!(joined.monotonicity_violations().is_empty());
        assert_eq!(joined.len(), 7);
        for a in 0..7u64 {
            for b in 0..7u64 {
                assert_eq!(
                    joined.merge_height(a, b),
                    full.merge_height(a, b),
                    "merge height of {a},{b}"
                );
            }
        }
    }

    #[test]
    fn restrict_preserves_merge_structure_of_kept() {
        let values = [1.0, 6.0, 2.0, 3.0, 1.5, 5.0, 0.5, 4.0, 0.2];
        let full = path_tree(&values);
        // Keep the two endpoints and one middle vertex.
        let keep = [0u64, 5, 8];
        let r = full.restrict(|v| keep.contains(&v));
        assert!(r.monotonicity_violations().is_empty());
        assert!(r.flags.iter().all(|&f| f));
        for &a in &keep {
            for &b in &keep {
                assert_eq!(r.merge_height(a, b), full.merge_height(a, b), "{a},{b}");
            }
        }
        // The restriction is genuinely smaller than the full tree.
        assert!(r.len() < full.len());
    }

    #[test]
    fn restrict_then_join_matches_full_boundary_semantics() {
        // Two halves; boundary = the shared vertex + each half's outer end.
        let values = [3.0, 7.0, 1.0, 5.0, 2.0, 6.0, 0.5];
        let full = path_tree(&values);
        let mk = |range: std::ops::Range<usize>| {
            let nodes: Vec<(u64, f32, bool)> =
                range.clone().map(|i| (i as u64, values[i], false)).collect();
            let edges: Vec<(u32, u32)> =
                (1..range.len()).map(|i| ((i - 1) as u32, i as u32)).collect();
            MergeTree::build(nodes, &edges)
        };
        let left = mk(0..4).restrict(|v| v == 0 || v == 3);
        let right = mk(3..7).restrict(|v| v == 3 || v == 6);
        let joined = MergeTree::join(&[&left, &right]);
        for &a in &[0u64, 3, 6] {
            for &b in &[0u64, 3, 6] {
                assert_eq!(joined.merge_height(a, b), full.merge_height(a, b), "{a},{b}");
            }
        }
    }

    #[test]
    fn payload_roundtrip() {
        let t = path_tree(&[1.0, 5.0, 2.0, 4.0, 1.0]);
        let back = MergeTree::decode(&t.encode()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn corrupt_payload_rejected() {
        let t = path_tree(&[1.0, 2.0]);
        let bytes = t.encode();
        assert!(MergeTree::decode(&bytes[..bytes.len() - 1]).is_err());
    }
}
