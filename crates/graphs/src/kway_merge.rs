//! The k-way merge dataflow — the segmented merge-tree task graph of Fig. 5.
//!
//! "The task graph of the algorithm is a combination of a global reduction
//! tree and a set of broadcast-like patterns with substantial computation in
//! the reduction as well as at the leaves of the broadcast."
//!
//! Four task types plus relays:
//!
//! * **local computation** at the `N = k^d` leaves: consumes a data block,
//!   produces a *boundary tree* (to its join) and a *local tree* (to its
//!   first correction);
//! * **join** tasks forming a k-way reduction over boundary trees: all but
//!   the root send the merged boundary tree up and broadcast an *augmented
//!   boundary tree* to every leaf of their subtree;
//! * **relay** tasks forming the per-join overlay broadcast tree ("to avoid
//!   sending too many messages from a single join task, the dataflow
//!   implements its own overlay tree to perform the broadcast");
//! * **correction** tasks, one chain of `d` per leaf, each merging the
//!   incoming augmented tree into the leaf's local tree;
//! * **segmentation** tasks, one per leaf, emitting the final labeling.
//!
//! Ids are assigned in prefixed sections, demonstrating the paper's
//! phase-prefix technique: `[leaves | joins | corrections | segmentations |
//! relays]`, each section ordered level-major.

use babelflow_core::{CallbackId, ShardId, Task, TaskGraph, TaskId, TaskMap};

use crate::error::GraphError;
use crate::reduction::exact_log;

/// Callback slot index of leaf local-computation tasks.
pub const LOCAL_CB: usize = 0;
/// Callback slot index of join tasks.
pub const JOIN_CB: usize = 1;
/// Callback slot index of correction tasks.
pub const CORRECTION_CB: usize = 2;
/// Callback slot index of segmentation tasks.
pub const SEG_CB: usize = 3;
/// Callback slot index of relay tasks.
pub const RELAY_CB: usize = 4;

/// Which section of the dataflow a task belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeRole {
    /// Leaf local computation over block `i`.
    Local {
        /// Block/leaf index.
        leaf: u64,
    },
    /// Join at `level` (1-based, 1 = lowest) with index `j` within the
    /// level.
    Join {
        /// Reduction level, 1-based.
        level: u32,
        /// Join index within the level.
        j: u64,
    },
    /// Correction stage `level` for leaf `leaf`.
    Correction {
        /// Correction stage, 1-based, aligned with join levels.
        level: u32,
        /// Leaf whose local tree is being corrected.
        leaf: u64,
    },
    /// Final segmentation for leaf `leaf`.
    Segmentation {
        /// Leaf being segmented.
        leaf: u64,
    },
    /// Relay node `x` (heap index within the broadcast tree, `1..I(level)`)
    /// of the broadcast rooted at join `(level, j)`.
    Relay {
        /// Level of the owning join.
        level: u32,
        /// Index of the owning join within its level.
        j: u64,
        /// Heap index of this relay within the join's broadcast tree.
        x: u64,
    },
}

/// How joins broadcast augmented trees to their corrections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BroadcastMode {
    /// Through the per-join relay overlay tree ("to avoid sending too many
    /// messages from a single join task, the dataflow implements its own
    /// overlay tree") — the paper's design.
    RelayTree,
    /// Directly from each join to every correction of its subtree — the
    /// naive alternative the overlay exists to avoid. Kept for ablation
    /// studies (`babelflow-bench`'s `ablations` binary).
    Direct,
}

/// The merge-tree dataflow over `k^d` input blocks.
#[derive(Clone, Debug)]
pub struct KWayMerge {
    k: u64,
    d: u32,
    n: u64,
    mode: BroadcastMode,
    callbacks: Vec<CallbackId>,
}

impl KWayMerge {
    /// Build the dataflow for `leaves` blocks with reduction `valence`.
    ///
    /// # Panics
    /// If `valence < 2` or `leaves` is not a power of `valence` with at
    /// least one reduction level; see [`try_new`](Self::try_new) for the
    /// fallible form.
    pub fn new(leaves: u64, valence: u64) -> Self {
        Self::try_new(leaves, valence).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: reports bad parameters as a [`GraphError`]
    /// instead of panicking.
    pub fn try_new(leaves: u64, valence: u64) -> Result<Self, GraphError> {
        const FAMILY: &str = "merge dataflow";
        if valence < 2 {
            return Err(GraphError::ValenceTooSmall { family: FAMILY, valence });
        }
        let d = exact_log(leaves, valence)
            .ok_or(GraphError::NotPowerOfValence { family: FAMILY, leaves, valence })?;
        if d < 1 {
            return Err(GraphError::TooShallow { family: FAMILY });
        }
        Ok(KWayMerge {
            k: valence,
            d,
            n: leaves,
            mode: BroadcastMode::RelayTree,
            callbacks: (0..5).map(CallbackId).collect(),
        })
    }

    /// Switch to direct join→correction broadcasts (no relay tasks); see
    /// [`BroadcastMode::Direct`].
    pub fn with_direct_broadcast(mut self) -> Self {
        self.mode = BroadcastMode::Direct;
        self
    }

    /// The configured broadcast mode.
    pub fn broadcast_mode(&self) -> BroadcastMode {
        self.mode
    }

    /// The reduction valence `k`.
    pub fn valence(&self) -> u64 {
        self.k
    }

    /// Number of join levels `d`.
    pub fn depth(&self) -> u32 {
        self.d
    }

    /// Number of leaves `N`.
    pub fn leaves(&self) -> u64 {
        self.n
    }

    // --- section geometry -------------------------------------------------

    fn joins_at(&self, level: u32) -> u64 {
        self.k.pow(self.d - level)
    }

    fn total_joins(&self) -> u64 {
        (self.n - 1) / (self.k - 1)
    }

    /// Internal-node count of the broadcast tree rooted at a level-`l` join
    /// (including the join itself as node 0).
    fn bc_internal(&self, level: u32) -> u64 {
        (self.k.pow(level) - 1) / (self.k - 1)
    }

    fn relays_per_join(&self, level: u32) -> u64 {
        match self.mode {
            BroadcastMode::RelayTree => self.bc_internal(level) - 1,
            BroadcastMode::Direct => 0,
        }
    }

    fn total_relays(&self) -> u64 {
        (1..=self.d).map(|l| self.joins_at(l) * self.relays_per_join(l)).sum()
    }

    fn join_section(&self) -> u64 {
        self.n
    }

    fn correction_section(&self) -> u64 {
        self.join_section() + self.total_joins()
    }

    fn seg_section(&self) -> u64 {
        self.correction_section() + self.d as u64 * self.n
    }

    fn relay_section(&self) -> u64 {
        self.seg_section() + self.n
    }

    // --- id construction ---------------------------------------------------

    /// Id of the leaf (local computation) task for block `i`.
    pub fn leaf_id(&self, i: u64) -> TaskId {
        debug_assert!(i < self.n);
        TaskId(i)
    }

    /// Id of join `(level, j)`.
    pub fn join_id(&self, level: u32, j: u64) -> TaskId {
        debug_assert!((1..=self.d).contains(&level) && j < self.joins_at(level));
        let before: u64 = (1..level).map(|m| self.joins_at(m)).sum();
        TaskId(self.join_section() + before + j)
    }

    /// Id of correction stage `level` for `leaf`.
    pub fn correction_id(&self, level: u32, leaf: u64) -> TaskId {
        debug_assert!((1..=self.d).contains(&level) && leaf < self.n);
        TaskId(self.correction_section() + (level as u64 - 1) * self.n + leaf)
    }

    /// Id of the segmentation task for `leaf`.
    pub fn seg_id(&self, leaf: u64) -> TaskId {
        debug_assert!(leaf < self.n);
        TaskId(self.seg_section() + leaf)
    }

    /// Id of relay `x` (heap index `1..I(level)`) of join `(level, j)`.
    pub fn relay_id(&self, level: u32, j: u64, x: u64) -> TaskId {
        debug_assert!((1..=x + 1).contains(&1)); // x >= 1 by construction below
        let before: u64 =
            (1..level).map(|m| self.joins_at(m) * self.relays_per_join(m)).sum();
        TaskId(self.relay_section() + before + j * self.relays_per_join(level) + (x - 1))
    }

    /// Decode an id into its role, or `None` if out of range.
    pub fn role(&self, id: TaskId) -> Option<MergeRole> {
        let v = id.0;
        if v < self.join_section() {
            return Some(MergeRole::Local { leaf: v });
        }
        if v < self.correction_section() {
            let mut rest = v - self.join_section();
            for level in 1..=self.d {
                let n = self.joins_at(level);
                if rest < n {
                    return Some(MergeRole::Join { level, j: rest });
                }
                rest -= n;
            }
            unreachable!("join section arithmetic");
        }
        if v < self.seg_section() {
            let rest = v - self.correction_section();
            return Some(MergeRole::Correction {
                level: (rest / self.n) as u32 + 1,
                leaf: rest % self.n,
            });
        }
        if v < self.relay_section() {
            return Some(MergeRole::Segmentation { leaf: v - self.seg_section() });
        }
        let total = self.relay_section() + self.total_relays();
        if v < total {
            let mut rest = v - self.relay_section();
            for level in 1..=self.d {
                let block = self.joins_at(level) * self.relays_per_join(level);
                if rest < block {
                    let per = self.relays_per_join(level);
                    return Some(MergeRole::Relay {
                        level,
                        j: rest / per,
                        x: rest % per + 1,
                    });
                }
                rest -= block;
            }
            unreachable!("relay section arithmetic");
        }
        None
    }

    // --- broadcast-tree helpers --------------------------------------------

    /// Task id of broadcast-tree node `x` of join `(level, j)`: the join for
    /// `x == 0`, a relay for `1 <= x < I(level)`, the correction for leaf
    /// positions `x >= I(level)`.
    fn bc_node_id(&self, level: u32, j: u64, x: u64) -> TaskId {
        let i = self.bc_internal(level);
        if x == 0 {
            self.join_id(level, j)
        } else if x < i {
            self.relay_id(level, j, x)
        } else {
            let leaf = j * self.k.pow(level) + (x - i);
            self.correction_id(level, leaf)
        }
    }

    /// Children (in the broadcast tree) of node `x` of join `(level, j)`.
    fn bc_children(&self, level: u32, j: u64, x: u64) -> Vec<TaskId> {
        if self.mode == BroadcastMode::Direct {
            debug_assert_eq!(x, 0, "direct mode has no relay nodes");
            let span = self.k.pow(level);
            return (0..span).map(|o| self.correction_id(level, j * span + o)).collect();
        }
        (1..=self.k).map(|c| self.bc_node_id(level, j, x * self.k + c)).collect()
    }

    /// Broadcast-tree parent task of the correction at `(level, leaf)`.
    fn bc_parent_of_correction(&self, level: u32, leaf: u64) -> TaskId {
        let span = self.k.pow(level);
        let j = leaf / span;
        if self.mode == BroadcastMode::Direct {
            return self.join_id(level, j);
        }
        let x = self.bc_internal(level) + (leaf - j * span);
        self.bc_node_id(level, j, (x - 1) / self.k)
    }

    /// First (lowest-index) leaf covered by broadcast-tree node `x` of join
    /// `(level, j)` — used for locality-preserving task mapping.
    fn bc_first_leaf(&self, level: u32, j: u64, mut x: u64) -> u64 {
        let i = self.bc_internal(level);
        while x < i {
            x = x * self.k + 1;
        }
        j * self.k.pow(level) + (x - i)
    }

    /// Ids of the segmentation tasks, whose outputs are the dataflow's
    /// external results.
    pub fn seg_ids(&self) -> Vec<TaskId> {
        (0..self.n).map(|i| self.seg_id(i)).collect()
    }

    /// Ids of the leaf tasks, in block order.
    pub fn leaf_ids(&self) -> Vec<TaskId> {
        (0..self.n).map(|i| self.leaf_id(i)).collect()
    }
}

impl TaskGraph for KWayMerge {
    fn size(&self) -> usize {
        (self.relay_section() + self.total_relays()) as usize
    }

    fn task(&self, id: TaskId) -> Option<Task> {
        let role = self.role(id)?;
        let cb = |slot: usize| self.callbacks[slot];
        let mut t = match role {
            MergeRole::Local { leaf } => {
                let mut t = Task::new(id, cb(LOCAL_CB));
                t.incoming = vec![TaskId::EXTERNAL];
                // Slot 0: boundary tree to the level-1 join.
                // Slot 1: local tree to the first correction.
                t.outgoing = vec![
                    vec![self.join_id(1, leaf / self.k)],
                    vec![self.correction_id(1, leaf)],
                ];
                t
            }
            MergeRole::Join { level, j } => {
                let mut t = Task::new(id, cb(JOIN_CB));
                t.incoming = (0..self.k)
                    .map(|c| {
                        if level == 1 {
                            self.leaf_id(j * self.k + c)
                        } else {
                            self.join_id(level - 1, j * self.k + c)
                        }
                    })
                    .collect();
                let bc = self.bc_children(level, j, 0);
                if level < self.d {
                    // Slot 0: merged boundary tree to the parent join.
                    // Slot 1: augmented boundary tree into the broadcast.
                    t.outgoing = vec![vec![self.join_id(level + 1, j / self.k)], bc];
                } else {
                    // The root join only broadcasts.
                    t.outgoing = vec![bc];
                }
                t
            }
            MergeRole::Relay { level, j, x } => {
                let mut t = Task::new(id, cb(RELAY_CB));
                t.incoming = vec![self.bc_node_id(level, j, (x - 1) / self.k)];
                t.outgoing = vec![self.bc_children(level, j, x)];
                t
            }
            MergeRole::Correction { level, leaf } => {
                let mut t = Task::new(id, cb(CORRECTION_CB));
                let prev = if level == 1 {
                    self.leaf_id(leaf)
                } else {
                    self.correction_id(level - 1, leaf)
                };
                // Slot 0: the running local tree; slot 1: the augmented
                // boundary tree arriving through the broadcast overlay.
                t.incoming = vec![prev, self.bc_parent_of_correction(level, leaf)];
                let next = if level < self.d {
                    self.correction_id(level + 1, leaf)
                } else {
                    self.seg_id(leaf)
                };
                t.outgoing = vec![vec![next]];
                t
            }
            MergeRole::Segmentation { leaf } => {
                let mut t = Task::new(id, cb(SEG_CB));
                t.incoming = vec![self.correction_id(self.d, leaf)];
                t.outgoing = vec![vec![TaskId::EXTERNAL]];
                t
            }
        };
        t.id = id;
        Some(t)
    }

    fn callback_ids(&self) -> Vec<CallbackId> {
        self.callbacks.clone()
    }
}

/// Locality-preserving task map for [`KWayMerge`]: leaf `i` and its
/// correction/segmentation chain live on shard `i % shards`; joins and
/// relays live with the first leaf of their subtree — mirroring how the
/// original implementation co-locates the reduction with the data.
#[derive(Clone, Debug)]
pub struct MergeTreeMap {
    graph: KWayMerge,
    shards: u32,
}

impl MergeTreeMap {
    /// Map the given dataflow over `shards` shards.
    ///
    /// # Panics
    /// If `shards` is zero.
    pub fn new(graph: KWayMerge, shards: u32) -> Self {
        assert!(shards > 0, "MergeTreeMap needs at least one shard");
        MergeTreeMap { graph, shards }
    }

    fn owner_leaf(&self, id: TaskId) -> u64 {
        match self.graph.role(id).expect("id in graph") {
            MergeRole::Local { leaf }
            | MergeRole::Correction { leaf, .. }
            | MergeRole::Segmentation { leaf } => leaf,
            MergeRole::Join { level, j } => j * self.graph.k.pow(level),
            MergeRole::Relay { level, j, x } => self.graph.bc_first_leaf(level, j, x),
        }
    }
}

impl TaskMap for MergeTreeMap {
    fn shard(&self, task: TaskId) -> ShardId {
        ShardId((self.owner_leaf(task) % self.shards as u64) as u32)
    }

    fn tasks(&self, shard: ShardId) -> Vec<TaskId> {
        self.graph
            .ids()
            .into_iter()
            .filter(|&id| self.shard(id) == shard)
            .collect()
    }

    fn num_shards(&self) -> u32 {
        self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_lints_clean;
    use babelflow_core::lint_graph;

    #[test]
    fn fig5_shape_binary_four_leaves() {
        // Fig. 5: four input blocks, K = 2.
        let g = KWayMerge::new(4, 2);
        assert_lints_clean(&g);
        // 4 leaves + 3 joins + 8 corrections + 4 segmentations + relays.
        // Level-1 joins need no relays (k direct sends); the level-2 join
        // has I(2)-1 = 2 relays.
        assert_eq!(g.total_joins(), 3);
        assert_eq!(g.total_relays(), 2);
        assert_eq!(g.size(), 4 + 3 + 8 + 4 + 2);
        assert_eq!(g.input_tasks(), g.leaf_ids());
        assert_eq!(g.output_tasks(), g.seg_ids());
    }

    #[test]
    fn leaf_outputs_split_boundary_and_local() {
        let g = KWayMerge::new(4, 2);
        let t = g.task(g.leaf_id(2)).unwrap();
        assert_eq!(t.outgoing[0], vec![g.join_id(1, 1)]);
        assert_eq!(t.outgoing[1], vec![g.correction_id(1, 2)]);
    }

    #[test]
    fn root_join_only_broadcasts() {
        let g = KWayMerge::new(4, 2);
        let root = g.task(g.join_id(2, 0)).unwrap();
        assert_eq!(root.fan_out(), 1);
        // Root broadcast goes through the two relays.
        assert_eq!(root.outgoing[0], vec![g.relay_id(2, 0, 1), g.relay_id(2, 0, 2)]);

        let lower = g.task(g.join_id(1, 0)).unwrap();
        assert_eq!(lower.fan_out(), 2);
        assert_eq!(lower.outgoing[0], vec![g.join_id(2, 0)]);
        // Level-1 joins broadcast directly to their two corrections.
        assert_eq!(lower.outgoing[1], vec![g.correction_id(1, 0), g.correction_id(1, 1)]);
    }

    #[test]
    fn corrections_chain_to_segmentation() {
        let g = KWayMerge::new(4, 2);
        let c1 = g.task(g.correction_id(1, 3)).unwrap();
        assert_eq!(c1.incoming[0], g.leaf_id(3));
        assert_eq!(c1.outgoing[0], vec![g.correction_id(2, 3)]);
        let c2 = g.task(g.correction_id(2, 3)).unwrap();
        assert_eq!(c2.incoming[0], g.correction_id(1, 3));
        assert_eq!(c2.outgoing[0], vec![g.seg_id(3)]);
        let s = g.task(g.seg_id(3)).unwrap();
        assert_eq!(s.outgoing, vec![vec![TaskId::EXTERNAL]]);
    }

    #[test]
    fn relay_tree_reaches_all_corrections() {
        // Deeper tree: relays must fan out correctly.
        let g = KWayMerge::new(8, 2);
        assert_lints_clean(&g);
        // Level-3 join: I(3) = 7 internal nodes -> 6 relays.
        assert_eq!(g.relays_per_join(3), 6);
        // Its broadcast must reach all 8 level-3 corrections: walk it.
        let mut frontier = vec![g.join_id(3, 0)];
        let mut reached = Vec::new();
        while let Some(id) = frontier.pop() {
            let t = g.task(id).unwrap();
            let slot = t.outgoing.last().unwrap();
            for &dst in slot {
                match g.role(dst).unwrap() {
                    MergeRole::Relay { .. } => frontier.push(dst),
                    MergeRole::Correction { level: 3, leaf } => reached.push(leaf),
                    other => panic!("unexpected broadcast target {other:?}"),
                }
            }
        }
        reached.sort();
        assert_eq!(reached, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn eight_way_paper_configuration() {
        // "In practice, we typically use 8-way reductions."
        let g = KWayMerge::new(64, 8);
        assert_lints_clean(&g);
        assert_eq!(g.depth(), 2);
        assert_eq!(g.total_joins(), 9);
    }

    #[test]
    fn role_roundtrip_every_id() {
        let g = KWayMerge::new(8, 2);
        for id in g.ids() {
            let role = g.role(id).unwrap();
            let back = match role {
                MergeRole::Local { leaf } => g.leaf_id(leaf),
                MergeRole::Join { level, j } => g.join_id(level, j),
                MergeRole::Correction { level, leaf } => g.correction_id(level, leaf),
                MergeRole::Segmentation { leaf } => g.seg_id(leaf),
                MergeRole::Relay { level, j, x } => g.relay_id(level, j, x),
            };
            assert_eq!(back, id, "role {role:?}");
        }
        assert_eq!(g.role(TaskId(g.size() as u64)), None);
    }

    #[test]
    fn merge_tree_map_is_consistent_and_local() {
        let g = KWayMerge::new(8, 2);
        for shards in [1u32, 2, 3, 8] {
            let m = MergeTreeMap::new(g.clone(), shards);
            let rep = lint_graph(&g, &m);
            assert!(rep.is_empty(), "shards={shards}: {rep}");
        }
        // Leaf 5's whole correction chain is co-located with leaf 5.
        let m = MergeTreeMap::new(g.clone(), 4);
        let s = m.shard(g.leaf_id(5));
        assert_eq!(m.shard(g.correction_id(1, 5)), s);
        assert_eq!(m.shard(g.correction_id(3, 5)), s);
        assert_eq!(m.shard(g.seg_id(5)), s);
        // Join (1,2) lives with its first leaf, leaf 4.
        assert_eq!(m.shard(g.join_id(1, 2)), m.shard(g.leaf_id(4)));
    }
}

#[cfg(test)]
mod direct_mode_tests {
    use super::*;
    use crate::assert_lints_clean;

    #[test]
    fn direct_mode_has_no_relays_and_is_valid() {
        let g = KWayMerge::new(8, 2).with_direct_broadcast();
        assert_eq!(g.broadcast_mode(), BroadcastMode::Direct);
        assert_lints_clean(&g);
        assert_eq!(g.total_relays(), 0);
        // Smaller than the relay version by exactly the relay count.
        let relay = KWayMerge::new(8, 2);
        assert_eq!(g.size() + relay.total_relays() as usize, relay.size());
        // The top join fans out to all 8 corrections directly.
        let root = g.task(g.join_id(3, 0)).unwrap();
        assert_eq!(root.outgoing[0].len(), 8);
        assert!(root.outgoing[0].iter().all(|&t| matches!(
            g.role(t),
            Some(MergeRole::Correction { level: 3, .. })
        )));
    }

    #[test]
    fn direct_mode_reaches_identical_corrections() {
        let relay = KWayMerge::new(16, 4);
        let direct = KWayMerge::new(16, 4).with_direct_broadcast();
        assert_lints_clean(&direct);
        // Every correction has the same "previous" input and ultimately
        // receives the same join's augmented tree in both modes.
        for leaf in 0..16 {
            for level in 1..=2 {
                let a = relay.task(relay.correction_id(level, leaf)).unwrap();
                let b = direct.task(direct.correction_id(level, leaf)).unwrap();
                assert_eq!(a.incoming[0], b.incoming[0], "prev chain differs");
                // Direct mode's second input is the join itself.
                assert!(matches!(
                    direct.role(b.incoming[1]),
                    Some(MergeRole::Join { .. })
                ));
            }
        }
    }
}
