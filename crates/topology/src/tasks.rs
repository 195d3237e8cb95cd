//! BabelFlow tasks for the distributed segmented-merge-tree pipeline.
//!
//! Wires the algorithms of [`mergetree`](crate::mergetree) and
//! [`segmentation`](crate::segmentation) into the [`KWayMerge`] dataflow
//! (Fig. 5): *local computation* produces a local tree and a boundary
//! tree; *joins* glue boundary trees up a reduction; *relays* broadcast
//! augmented trees back down; *corrections* merge global structure into
//! each local tree; *segmentation* emits the final labels.
//!
//! One deliberate simplification relative to Landge et al.: join tasks
//! pass the *whole* joined boundary tree upward instead of re-restricting
//! it to the outer boundary of the union region. This is always correct
//! (restriction is purely an optimization reducing message sizes) and
//! keeps the tasks independent of the spatial layout of leaves; the
//! simulator's cost model accounts for the paper's restricted sizes.

use std::collections::HashMap;
use std::sync::Arc;

use babelflow_core::{
    codec::DecodeError, Decoder, Encoder, InitialInputs, Payload, PayloadData, Registry,
    TaskGraph,
};
use babelflow_data::{BlockDecomp, Grid3, Idx3};
use babelflow_graphs::{
    kway_merge::{CORRECTION_CB, JOIN_CB, LOCAL_CB, RELAY_CB, SEG_CB},
    KWayMerge, MergeRole,
};

use crate::mergetree::MergeTree;
use crate::segmentation::{segment_tree, Segmentation};

/// A simulation block handed to a leaf task: its samples (including the
/// one-layer overlap with succeeding neighbors) plus placement metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockData {
    /// Global origin of `grid`.
    pub origin: Idx3,
    /// Block coordinates in the decomposition.
    pub coords: Idx3,
    /// The samples.
    pub grid: Grid3,
}

impl PayloadData for BlockData {
    fn encode_into(&self, e: &mut Encoder) {
        for v in [
            self.origin.x,
            self.origin.y,
            self.origin.z,
            self.coords.x,
            self.coords.y,
            self.coords.z,
        ] {
            e.put_usize(v);
        }
        e.put_len_prefixed(|e| self.grid.encode_into(e));
    }

    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(buf);
        let origin = Idx3::new(d.get_usize()?, d.get_usize()?, d.get_usize()?);
        let coords = Idx3::new(d.get_usize()?, d.get_usize()?, d.get_usize()?);
        let grid = Grid3::decode(d.get_bytes()?)?;
        Ok(BlockData { origin, coords, grid })
    }
}

/// Configuration of a distributed merge-tree run.
#[derive(Clone, Debug)]
pub struct MergeTreeConfig {
    /// Global grid extent.
    pub dims: Idx3,
    /// Blocks per axis; the total must be a power of `valence`.
    pub blocks: Idx3,
    /// Segmentation threshold τ.
    pub threshold: f32,
    /// Reduction valence (the paper typically uses 8).
    pub valence: u64,
}

impl MergeTreeConfig {
    /// The block decomposition.
    pub fn decomp(&self) -> BlockDecomp {
        BlockDecomp::new(self.dims, self.blocks)
    }

    /// The Fig. 5 dataflow for this configuration.
    pub fn graph(&self) -> KWayMerge {
        KWayMerge::new(self.blocks.volume() as u64, self.valence)
    }

    /// Initial inputs: one overlapped block per leaf task.
    pub fn initial_inputs(&self, grid: &Grid3) -> InitialInputs {
        let decomp = self.decomp();
        let graph = self.graph();
        let mut init = HashMap::new();
        for id in 0..decomp.count() {
            let block = decomp.block_with_overlap(grid, id);
            let data =
                BlockData { origin: block.origin, coords: block.coords, grid: block.grid };
            init.insert(graph.leaf_id(id as u64), vec![Payload::wrap(data)]);
        }
        init
    }

    /// Whether a *local* position within `block` lies on a face shared
    /// with a neighboring block (the gluing boundary).
    fn is_shared_face(&self, coords: Idx3, local: Idx3, block_dims: Idx3) -> bool {
        (local.x == 0 && coords.x > 0)
            || (local.x == block_dims.x - 1 && coords.x + 1 < self.blocks.x)
            || (local.y == 0 && coords.y > 0)
            || (local.y == block_dims.y - 1 && coords.y + 1 < self.blocks.y)
            || (local.z == 0 && coords.z > 0)
            || (local.z == block_dims.z - 1 && coords.z + 1 < self.blocks.z)
    }

    /// Build the augmented local tree of a block, with global vertex ids.
    pub fn local_tree(&self, block: &BlockData) -> MergeTree {
        let g = &block.grid;
        let (nx, ny, nz) = (g.dims.x, g.dims.y, g.dims.z);
        let gid = |x: usize, y: usize, z: usize| -> u64 {
            (((block.origin.z + z) * self.dims.y + (block.origin.y + y)) * self.dims.x
                + (block.origin.x + x)) as u64
        };
        let mut nodes = Vec::with_capacity(g.data.len());
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    nodes.push((gid(x, y, z), g.at(x, y, z), false));
                }
            }
        }
        let lidx = |x: usize, y: usize, z: usize| ((z * ny + y) * nx + x) as u32;
        let mut edges = Vec::with_capacity(3 * g.data.len());
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    if x + 1 < nx {
                        edges.push((lidx(x, y, z), lidx(x + 1, y, z)));
                    }
                    if y + 1 < ny {
                        edges.push((lidx(x, y, z), lidx(x, y + 1, z)));
                    }
                    if z + 1 < nz {
                        edges.push((lidx(x, y, z), lidx(x, y, z + 1)));
                    }
                }
            }
        }
        MergeTree::build(nodes, &edges)
    }

    /// Boundary tree of a block: the local tree restricted to shared-face
    /// vertices (plus required branch nodes).
    pub fn boundary_tree(&self, block: &BlockData, local: &MergeTree) -> MergeTree {
        let bd = block.grid.dims;
        let coords = block.coords;
        let cfg = self.clone();
        local.restrict(move |vert| {
            let v = vert as usize;
            let gx = v % cfg.dims.x;
            let gy = (v / cfg.dims.x) % cfg.dims.y;
            let gz = v / (cfg.dims.x * cfg.dims.y);
            let local = Idx3::new(gx - block.origin.x, gy - block.origin.y, gz - block.origin.z);
            cfg.is_shared_face(coords, local, bd)
        })
    }

    /// Global vertex id → coordinates.
    pub fn vertex_coords(&self, vert: u64) -> Idx3 {
        let v = vert as usize;
        Idx3::new(v % self.dims.x, (v / self.dims.x) % self.dims.y, v / (self.dims.x * self.dims.y))
    }

    /// Build the registry binding all five Fig. 5 task types.
    pub fn registry(&self) -> Registry {
        let cfg = Arc::new(self.clone());
        let graph = Arc::new(self.graph());
        let cb = graph.callback_ids();
        let mut reg = Registry::new();

        // Local computation.
        {
            let cfg = cfg.clone();
            reg.register(cb[LOCAL_CB], move |inputs, _id| {
                let block = inputs[0].extract::<BlockData>().expect("leaf input is a block");
                let local = cfg.local_tree(&block);
                let boundary = cfg.boundary_tree(&block, &local);
                vec![Payload::wrap(boundary), Payload::wrap(local)]
            });
        }

        // Join.
        {
            let graph = graph.clone();
            reg.register(cb[JOIN_CB], move |inputs, id| {
                let trees: Vec<Arc<MergeTree>> = inputs
                    .iter()
                    .map(|p| p.extract::<MergeTree>().expect("join inputs are trees"))
                    .collect();
                let refs: Vec<&MergeTree> = trees.iter().map(|t| t.as_ref()).collect();
                let joined = MergeTree::join(&refs);
                match graph.role(id) {
                    Some(MergeRole::Join { level, .. }) if level < graph.depth() => {
                        vec![Payload::wrap(joined.clone()), Payload::wrap(joined)]
                    }
                    _ => vec![Payload::wrap(joined)],
                }
            });
        }

        // Relay: pure forward.
        reg.register(cb[RELAY_CB], |inputs, _id| vec![inputs[0].clone()]);

        // Correction: merge the incoming augmented boundary tree into the
        // running local tree.
        reg.register(cb[CORRECTION_CB], |inputs, _id| {
            let local = inputs[0].extract::<MergeTree>().expect("correction local input");
            let aug = inputs[1].extract::<MergeTree>().expect("correction augmented input");
            vec![Payload::wrap(MergeTree::join(&[&local, &aug]))]
        });

        // Segmentation: label the vertices this block owns.
        {
            let cfg = cfg.clone();
            let graph = graph.clone();
            reg.register(cb[SEG_CB], move |inputs, id| {
                let tree = inputs[0].extract::<MergeTree>().expect("segmentation input");
                let leaf = match graph.role(id) {
                    Some(MergeRole::Segmentation { leaf }) => leaf,
                    other => panic!("segmentation callback on {other:?}"),
                };
                let (origin, size) = cfg.decomp().range(leaf as usize);
                let cfg = cfg.clone();
                let seg = segment_tree(&tree, cfg.threshold, move |vert| {
                    let c = cfg.vertex_coords(vert);
                    c.x >= origin.x
                        && c.x < origin.x + size.x
                        && c.y >= origin.y
                        && c.y < origin.y + size.y
                        && c.z >= origin.z
                        && c.z < origin.z + size.z
                });
                vec![Payload::wrap(seg)]
            });
        }

        reg
    }

    /// Serial oracle: segmentation of the full grid computed directly,
    /// as a canonical partition (labels → members) for comparison with a
    /// distributed run.
    pub fn oracle_partition(&self, grid: &Grid3) -> HashMap<u64, Vec<u64>> {
        let whole = BlockData { origin: Idx3::new(0, 0, 0), coords: Idx3::new(0, 0, 0), grid: grid.clone() };
        let tree = self.local_tree(&whole);
        let seg = segment_tree(&tree, self.threshold, |_| true);
        crate::segmentation::merge_segmentations(&[seg])
    }

    /// Extract the per-leaf segmentations from a run report.
    pub fn collect_segmentations(
        &self,
        report: &babelflow_core::RunReport,
    ) -> Vec<Segmentation> {
        report
            .outputs
            .values()
            .flat_map(|ps| ps.iter())
            .map(|p| (*p.extract::<Segmentation>().expect("segmentation output")).clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_data_roundtrip() {
        let b = BlockData {
            origin: Idx3::new(1, 2, 3),
            coords: Idx3::new(0, 1, 0),
            grid: Grid3::from_fn((2, 2, 2), |x, y, z| (x + y + z) as f32),
        };
        assert_eq!(BlockData::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn local_tree_covers_block_and_is_monotone() {
        let cfg = MergeTreeConfig {
            dims: Idx3::new(8, 8, 8),
            blocks: Idx3::new(2, 2, 2),
            threshold: 0.5,
            valence: 2,
        };
        let grid = Grid3::from_fn((8, 8, 8), |x, y, z| ((x * 7 + y * 3 + z * 5) % 11) as f32);
        let decomp = cfg.decomp();
        let block = decomp.block_with_overlap(&grid, 0);
        let data = BlockData { origin: block.origin, coords: block.coords, grid: block.grid };
        let tree = cfg.local_tree(&data);
        assert_eq!(tree.len(), data.grid.data.len());
        assert!(tree.monotonicity_violations().is_empty());
        assert_eq!(tree.roots().len(), 1);
    }

    #[test]
    fn boundary_tree_is_flagged_and_smaller() {
        let cfg = MergeTreeConfig {
            dims: Idx3::new(8, 8, 8),
            blocks: Idx3::new(2, 1, 1),
            threshold: 0.5,
            valence: 2,
        };
        let grid = Grid3::from_fn((8, 8, 8), |x, y, z| ((x * 5 + y * 11 + z * 3) % 13) as f32);
        let decomp = cfg.decomp();
        let block = decomp.block_with_overlap(&grid, 0);
        let data = BlockData { origin: block.origin, coords: block.coords, grid: block.grid };
        let local = cfg.local_tree(&data);
        let boundary = cfg.boundary_tree(&data, &local);
        assert!(!boundary.is_empty());
        assert!(boundary.len() < local.len());
        assert!(boundary.flags.iter().all(|&f| f));
        assert!(boundary.monotonicity_violations().is_empty());
        // Every shared-face vertex is kept: face x = 4 has 8x8 vertices.
        assert!(boundary.len() >= 64);
    }

    #[test]
    fn vertex_coords_roundtrip() {
        let cfg = MergeTreeConfig {
            dims: Idx3::new(5, 7, 3),
            blocks: Idx3::new(1, 1, 1),
            threshold: 0.0,
            valence: 2,
        };
        for vert in [0u64, 4, 5, 34, 104] {
            let c = cfg.vertex_coords(vert);
            assert_eq!(((c.z * 7 + c.y) * 5 + c.x) as u64, vert);
        }
    }
}
