//! The 2D neighbor-exchange dataflow — Fig. 8 of the paper (brain-volume
//! registration).
//!
//! "For each Z slab, a set of tasks read the blocks that overlap with the
//! neighbors. These are sent to the correlation tasks to perform the
//! registration. The results are collected by another set of tasks
//! (i.e. sort/evaluate), that will evaluate the final position in space of
//! each volume."
//!
//! Volumes sit on a `gx × gy` grid; each is decomposed into `slabs` slabs
//! along Z. Per volume and slab a *read* task extracts the overlap regions;
//! per grid edge and slab a *correlation* task estimates the pairwise
//! offset; per edge an *evaluate* task sorts the per-slab estimates and
//! picks the best; a single *solve* task turns pairwise offsets into final
//! volume positions (the external output).

use babelflow_core::{CallbackId, Task, TaskGraph, TaskId};

use crate::error::GraphError;

/// Callback slot index of per-(volume, slab) read tasks.
pub const READ_CB: usize = 0;
/// Callback slot index of per-(edge, slab) correlation tasks.
pub const CORR_CB: usize = 1;
/// Callback slot index of per-edge sort/evaluate tasks.
pub const EVAL_CB: usize = 2;
/// Callback slot index of the final solve task.
pub const SOLVE_CB: usize = 3;

/// An undirected adjacency between two grid-neighboring volumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridEdge {
    /// Lower endpoint (left or bottom volume), as linear index `y*gx + x`.
    pub a: u64,
    /// Upper endpoint (right or top volume).
    pub b: u64,
    /// True for an X-direction (left-right) edge, false for Y (bottom-top).
    pub horizontal: bool,
}

/// Which stage of the registration dataflow a task belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NeighborRole {
    /// Overlap extraction for `(volume, slab)`.
    Read {
        /// Volume index (`y*gx + x`).
        volume: u64,
        /// Z slab index.
        slab: u64,
    },
    /// Offset estimation for `(edge, slab)`.
    Correlate {
        /// Edge index.
        edge: u64,
        /// Z slab index.
        slab: u64,
    },
    /// Per-edge sort/evaluate.
    Evaluate {
        /// Edge index.
        edge: u64,
    },
    /// The final global solve.
    Solve,
}

/// The neighbor registration dataflow.
#[derive(Clone, Debug)]
pub struct NeighborGraph {
    gx: u64,
    gy: u64,
    slabs: u64,
    callbacks: Vec<CallbackId>,
}

impl NeighborGraph {
    /// Build the dataflow for a `gx × gy` volume grid with `slabs` Z slabs
    /// per volume.
    ///
    /// # Panics
    /// If any dimension is zero or the grid has no edges (single volume);
    /// see [`try_new`](Self::try_new) for the fallible form.
    pub fn new(gx: u64, gy: u64, slabs: u64) -> Self {
        Self::try_new(gx, gy, slabs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: reports bad parameters as a [`GraphError`]
    /// instead of panicking.
    pub fn try_new(gx: u64, gy: u64, slabs: u64) -> Result<Self, GraphError> {
        if gx == 0 || gy == 0 || slabs == 0 {
            return Err(GraphError::EmptyGrid);
        }
        if gx * gy < 2 {
            return Err(GraphError::TooFewVolumes { gx, gy });
        }
        Ok(NeighborGraph { gx, gy, slabs, callbacks: (0..4).map(CallbackId).collect() })
    }

    /// Grid width.
    pub fn gx(&self) -> u64 {
        self.gx
    }

    /// Grid height.
    pub fn gy(&self) -> u64 {
        self.gy
    }

    /// Slabs per volume.
    pub fn slabs(&self) -> u64 {
        self.slabs
    }

    /// Number of volumes.
    pub fn volumes(&self) -> u64 {
        self.gx * self.gy
    }

    /// Number of grid edges.
    pub fn edges(&self) -> u64 {
        (self.gx - 1) * self.gy + self.gx * (self.gy - 1)
    }

    /// The `e`-th edge: X-direction edges first (row-major), then
    /// Y-direction edges.
    pub fn edge(&self, e: u64) -> GridEdge {
        let nh = (self.gx - 1) * self.gy;
        if e < nh {
            // Horizontal edge index: row y, column x in 0..gx-1.
            let y = e / (self.gx - 1);
            let x = e % (self.gx - 1);
            GridEdge { a: y * self.gx + x, b: y * self.gx + x + 1, horizontal: true }
        } else {
            let e = e - nh;
            let y = e / self.gx;
            let x = e % self.gx;
            GridEdge { a: y * self.gx + x, b: (y + 1) * self.gx + x, horizontal: false }
        }
    }

    /// Edges incident to volume `v`, in increasing edge-index order.
    pub fn edges_of(&self, v: u64) -> Vec<u64> {
        (0..self.edges())
            .filter(|&e| {
                let ed = self.edge(e);
                ed.a == v || ed.b == v
            })
            .collect()
    }

    // --- id sections: [reads | correlations | evals | solve] --------------

    fn corr_section(&self) -> u64 {
        self.volumes() * self.slabs
    }

    fn eval_section(&self) -> u64 {
        self.corr_section() + self.edges() * self.slabs
    }

    fn solve_id_raw(&self) -> u64 {
        self.eval_section() + self.edges()
    }

    /// Id of the read task for volume `v`, slab `s`.
    pub fn read_id(&self, v: u64, s: u64) -> TaskId {
        debug_assert!(v < self.volumes() && s < self.slabs);
        TaskId(v * self.slabs + s)
    }

    /// Id of the correlation task for edge `e`, slab `s`.
    pub fn corr_id(&self, e: u64, s: u64) -> TaskId {
        debug_assert!(e < self.edges() && s < self.slabs);
        TaskId(self.corr_section() + e * self.slabs + s)
    }

    /// Id of the evaluate task for edge `e`.
    pub fn eval_id(&self, e: u64) -> TaskId {
        debug_assert!(e < self.edges());
        TaskId(self.eval_section() + e)
    }

    /// Id of the final solve task.
    pub fn solve_id(&self) -> TaskId {
        TaskId(self.solve_id_raw())
    }

    /// Decode a task id into its role, or `None` if out of range.
    pub fn role(&self, id: TaskId) -> Option<NeighborRole> {
        let v = id.0;
        if v < self.corr_section() {
            Some(NeighborRole::Read { volume: v / self.slabs, slab: v % self.slabs })
        } else if v < self.eval_section() {
            let rest = v - self.corr_section();
            Some(NeighborRole::Correlate { edge: rest / self.slabs, slab: rest % self.slabs })
        } else if v < self.solve_id_raw() {
            Some(NeighborRole::Evaluate { edge: v - self.eval_section() })
        } else if v == self.solve_id_raw() {
            Some(NeighborRole::Solve)
        } else {
            None
        }
    }

    /// Ids of the read tasks (the dataflow inputs), volume-major.
    pub fn read_ids(&self) -> Vec<TaskId> {
        (0..self.volumes())
            .flat_map(|v| (0..self.slabs).map(move |s| (v, s)))
            .map(|(v, s)| self.read_id(v, s))
            .collect()
    }
}

impl TaskGraph for NeighborGraph {
    fn size(&self) -> usize {
        (self.solve_id_raw() + 1) as usize
    }

    fn task(&self, id: TaskId) -> Option<Task> {
        let v = id.0;
        if v < self.corr_section() {
            // Read task.
            let vol = v / self.slabs;
            let s = v % self.slabs;
            let mut t = Task::new(id, self.callbacks[READ_CB]);
            t.incoming = vec![TaskId::EXTERNAL];
            // One output slot per incident edge, in edge order: the overlap
            // region facing that neighbor.
            t.outgoing = self
                .edges_of(vol)
                .into_iter()
                .map(|e| vec![self.corr_id(e, s)])
                .collect();
            Some(t)
        } else if v < self.eval_section() {
            // Correlation task.
            let rest = v - self.corr_section();
            let e = rest / self.slabs;
            let s = rest % self.slabs;
            let edge = self.edge(e);
            let mut t = Task::new(id, self.callbacks[CORR_CB]);
            t.incoming = vec![self.read_id(edge.a, s), self.read_id(edge.b, s)];
            t.outgoing = vec![vec![self.eval_id(e)]];
            Some(t)
        } else if v < self.solve_id_raw() {
            // Evaluate task: gathers this edge's per-slab estimates.
            let e = v - self.eval_section();
            let mut t = Task::new(id, self.callbacks[EVAL_CB]);
            t.incoming = (0..self.slabs).map(|s| self.corr_id(e, s)).collect();
            t.outgoing = vec![vec![self.solve_id()]];
            Some(t)
        } else if v == self.solve_id_raw() {
            let mut t = Task::new(id, self.callbacks[SOLVE_CB]);
            t.incoming = (0..self.edges()).map(|e| self.eval_id(e)).collect();
            t.outgoing = vec![vec![TaskId::EXTERNAL]];
            Some(t)
        } else {
            None
        }
    }

    fn callback_ids(&self) -> Vec<CallbackId> {
        self.callbacks.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_lints_clean;

    #[test]
    fn two_by_two_grid_shape() {
        let g = NeighborGraph::new(2, 2, 3);
        assert_lints_clean(&g);
        assert_eq!(g.volumes(), 4);
        assert_eq!(g.edges(), 4);
        // 4*3 reads + 4*3 corrs + 4 evals + 1 solve.
        assert_eq!(g.size(), 12 + 12 + 4 + 1);
        assert_eq!(g.input_tasks().len(), 12);
        assert_eq!(g.output_tasks(), vec![g.solve_id()]);
    }

    #[test]
    fn edge_enumeration_fig8_style() {
        let g = NeighborGraph::new(2, 2, 1);
        // Horizontal edges: (0,1) and (2,3); vertical: (0,2) and (1,3).
        assert_eq!(g.edge(0), GridEdge { a: 0, b: 1, horizontal: true });
        assert_eq!(g.edge(1), GridEdge { a: 2, b: 3, horizontal: true });
        assert_eq!(g.edge(2), GridEdge { a: 0, b: 2, horizontal: false });
        assert_eq!(g.edge(3), GridEdge { a: 1, b: 3, horizontal: false });
    }

    #[test]
    fn read_outputs_follow_incident_edges() {
        let g = NeighborGraph::new(3, 3, 2);
        // Center volume 4 touches 4 edges.
        assert_eq!(g.edges_of(4).len(), 4);
        let t = g.task(g.read_id(4, 1)).unwrap();
        assert_eq!(t.fan_out(), 4);
        // Corner volume 0 touches 2 edges.
        let t0 = g.task(g.read_id(0, 0)).unwrap();
        assert_eq!(t0.fan_out(), 2);
    }

    #[test]
    fn correlation_inputs_are_the_two_endpoints() {
        let g = NeighborGraph::new(2, 1, 2);
        let e = 0; // only edge: volumes 0-1
        let t = g.task(g.corr_id(e, 1)).unwrap();
        assert_eq!(t.incoming, vec![g.read_id(0, 1), g.read_id(1, 1)]);
        assert_eq!(t.outgoing, vec![vec![g.eval_id(0)]]);
    }

    #[test]
    fn eval_gathers_all_slabs() {
        let g = NeighborGraph::new(2, 1, 5);
        let t = g.task(g.eval_id(0)).unwrap();
        assert_eq!(t.fan_in(), 5);
        assert_eq!(t.outgoing, vec![vec![g.solve_id()]]);
    }

    #[test]
    fn paper_scale_5x5_grid_valid() {
        // The paper registers 25 volumes on a 5x5 grid.
        let g = NeighborGraph::new(5, 5, 4);
        assert_lints_clean(&g);
        assert_eq!(g.edges(), 40);
        let solve = g.task(g.solve_id()).unwrap();
        assert_eq!(solve.fan_in(), 40);
    }

    #[test]
    #[should_panic(expected = "at least two volumes")]
    fn rejects_single_volume() {
        NeighborGraph::new(1, 1, 4);
    }
}

#[cfg(test)]
mod role_tests {
    use super::*;

    #[test]
    fn role_roundtrip_every_id() {
        let g = NeighborGraph::new(3, 2, 2);
        for id in babelflow_core::TaskGraph::ids(&g) {
            match g.role(id).unwrap() {
                NeighborRole::Read { volume, slab } => assert_eq!(g.read_id(volume, slab), id),
                NeighborRole::Correlate { edge, slab } => assert_eq!(g.corr_id(edge, slab), id),
                NeighborRole::Evaluate { edge } => assert_eq!(g.eval_id(edge), id),
                NeighborRole::Solve => assert_eq!(g.solve_id(), id),
            }
        }
        assert_eq!(g.role(TaskId(babelflow_core::TaskGraph::size(&g) as u64)), None);
    }
}
