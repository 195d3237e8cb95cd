//! BabelFlow tasks for the two-stage rendering pipeline (§V-B).
//!
//! "A common two-stage visualization pipeline consisting of a rendering
//! and a compositing stage." The volume is decomposed into Z slabs; leaf
//! tasks ray-cast their slab; compositing uses either the reduction
//! dataflow (Listing 1, Fig. 10e) or binary swap (Fig. 7, Fig. 10f).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

use babelflow_core::{
    codec::DecodeError, Decoder, Encoder, InitialInputs, Payload, PayloadData, Registry,
    RunReport, TaskGraph,
};
use babelflow_data::{BlockDecomp, Grid3, Idx3};
use babelflow_graphs::{binary_swap, reduction, BinarySwap, Reduction};

use crate::image::{binary_swap_region, ImageFragment};
use crate::raycast::{render_block, render_rows, RenderParams};

/// A Z slab handed to a rendering leaf.
#[derive(Clone, Debug, PartialEq)]
pub struct SlabData {
    /// World-space origin of the slab.
    pub origin: (usize, usize, usize),
    /// The samples.
    pub grid: Grid3,
}

impl PayloadData for SlabData {
    fn encode_into(&self, e: &mut Encoder) {
        e.put_usize(self.origin.0);
        e.put_usize(self.origin.1);
        e.put_usize(self.origin.2);
        e.put_len_prefixed(|e| self.grid.encode_into(e));
    }

    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(buf);
        let origin = (d.get_usize()?, d.get_usize()?, d.get_usize()?);
        let grid = Grid3::decode(d.get_bytes()?)?;
        Ok(SlabData { origin, grid })
    }
}

/// Configuration of a distributed rendering run.
///
/// Correctness of both compositing dataflows relies on leaf order being
/// depth order — guaranteed here by decomposing the volume into Z slabs
/// fed to the leaves in slab order. Every composite then combines groups
/// of slabs that are contiguous in depth (separated by a plane), so the
/// non-commutative OVER operator is applied in a globally consistent
/// order. Arbitrary (non-plane-separable) decompositions would need
/// per-pixel depth compositing instead.
#[derive(Clone, Debug)]
pub struct RenderConfig {
    /// Global volume extent.
    pub dims: Idx3,
    /// Number of Z slabs (= rendering leaves).
    pub slabs: u64,
    /// Camera and transfer function.
    pub params: RenderParams,
    /// Valence of the reduction compositing tree.
    pub valence: u64,
}

impl RenderConfig {
    /// Slab decomposition along Z.
    pub fn decomp(&self) -> BlockDecomp {
        BlockDecomp::new(self.dims, Idx3::new(1, 1, self.slabs as usize))
    }

    /// Initial inputs keyed by the given leaf task ids (slab order).
    pub fn initial_inputs(&self, grid: &Grid3, leaf_ids: &[babelflow_core::TaskId]) -> InitialInputs {
        let decomp = self.decomp();
        assert_eq!(leaf_ids.len(), decomp.count());
        let mut init = HashMap::new();
        for (i, &id) in leaf_ids.iter().enumerate() {
            let b = decomp.block(grid, i);
            let data = SlabData { origin: (b.origin.x, b.origin.y, b.origin.z), grid: b.grid };
            init.insert(id, vec![Payload::wrap(data)]);
        }
        init
    }

    /// The reduction compositing graph.
    pub fn reduction_graph(&self) -> Reduction {
        Reduction::new(self.slabs, self.valence)
    }

    /// Registry for the reduction pipeline: leaf = render, reduce =
    /// composite, root = composite + emit final image.
    pub fn reduction_registry(&self) -> Registry {
        let g = self.reduction_graph();
        let cb = g.callback_ids();
        let params = Arc::new(self.params.clone());
        let mut reg = Registry::new();

        {
            let params = params.clone();
            reg.register(cb[reduction::LEAF_CB], move |inputs, _id| {
                let slab = inputs[0].extract::<SlabData>().expect("leaf input is a slab");
                vec![Payload::wrap(render_block(&params, slab.origin, &slab.grid))]
            });
        }
        reg.register(cb[reduction::REDUCE_CB], |inputs, _id| {
            vec![Payload::wrap(composite_sorted(&inputs))]
        });
        reg.register(cb[reduction::ROOT_CB], |inputs, _id| {
            vec![Payload::wrap(composite_sorted(&inputs))]
        });
        reg
    }

    /// The binary-swap compositing graph.
    pub fn binary_swap_graph(&self) -> BinarySwap {
        BinarySwap::new(self.slabs)
    }

    /// Registry for the binary-swap pipeline: leaf = render straight into
    /// the first split's two halves, swap = composite straight into the
    /// next split's two halves, write = composite + emit tile.
    pub fn binary_swap_registry(&self) -> Registry {
        let g = Arc::new(self.binary_swap_graph());
        let cb = g.callback_ids();
        let params = Arc::new(self.params.clone());
        let height = self.params.image.1;
        let mut reg = Registry::new();

        {
            let (g, params) = (g.clone(), params.clone());
            reg.register(cb[binary_swap::LEAF_CB], move |inputs, id| {
                let slab = inputs[0].extract::<SlabData>().expect("leaf input is a slab");
                let (_, i) = g.position(id);
                swap_halves(height, 1, i)
                    .map(|rows| Payload::wrap(render_rows(&params, slab.origin, &slab.grid, rows)))
                    .into()
            });
        }
        {
            let g = g.clone();
            reg.register(cb[binary_swap::SWAP_CB], move |inputs, id| {
                let frags = depth_sorted(&inputs);
                let (round, i) = g.position(id);
                split_outputs(&frags[0], &frags[1], height, round + 1, i)
            });
        }
        reg.register(cb[binary_swap::WRITE_CB], |inputs, _id| {
            vec![Payload::wrap(composite_sorted(&inputs))]
        });
        reg
    }

    /// Serial oracle: render every slab and composite front-to-back.
    pub fn oracle_image(&self, grid: &Grid3) -> ImageFragment {
        let decomp = self.decomp();
        let mut frags: Vec<ImageFragment> = (0..decomp.count())
            .map(|i| {
                let b = decomp.block(grid, i);
                render_block(&self.params, (b.origin.x, b.origin.y, b.origin.z), &b.grid)
            })
            .collect();
        frags.sort_by(|a, b| a.depth.partial_cmp(&b.depth).expect("finite depths"));
        assemble(&frags)
    }

    /// Collect the final image of a reduction run.
    pub fn final_image(&self, report: &RunReport) -> ImageFragment {
        let frags: Vec<Arc<ImageFragment>> = report
            .outputs
            .values()
            .flat_map(|ps| ps.iter())
            .map(|p| p.extract::<ImageFragment>().expect("image output"))
            .collect();
        assemble(&frags)
    }
}

/// The input fragments, nearest first (a stable sort, so equal depths
/// keep their input order).
fn depth_sorted(inputs: &[Payload]) -> Vec<Arc<ImageFragment>> {
    let mut frags: Vec<Arc<ImageFragment>> = inputs
        .iter()
        .map(|p| p.extract::<ImageFragment>().expect("composite inputs are fragments"))
        .collect();
    frags.sort_by(|a, b| a.depth.partial_cmp(&b.depth).expect("finite depths"));
    frags
}

/// Composite any number of fragments in depth order.
fn composite_sorted(inputs: &[Payload]) -> ImageFragment {
    assemble(&depth_sorted(inputs))
}

/// The two outputs of a binary-swap stage, `front` OVER `back`
/// composited straight into each: the kept half (slot 0, region of
/// `index` at `round`) and the sent half (slot 1, the partner's region).
fn split_outputs(
    front: &ImageFragment,
    back: &ImageFragment,
    height: u32,
    round: u32,
    index: u64,
) -> Vec<Payload> {
    swap_halves(height, round, index)
        .map(|rows| Payload::wrap(ImageFragment::over_rows(front, back, rows)))
        .into()
}

/// The kept and the sent row windows `(y0, h)` of a binary-swap stage.
fn swap_halves(height: u32, round: u32, index: u64) -> [(u32, u32); 2] {
    [
        binary_swap_region(height, round, index),
        binary_swap_region(height, round, index ^ (1 << (round - 1))),
    ]
}

/// Composite fragments front to back, in the order given:
/// `over(over(f0, f1), f2)…`. This assembles disjoint fragments (e.g.
/// binary-swap tiles) into one image. Only a lone fragment is cloned.
pub fn assemble<F: Borrow<ImageFragment>>(frags: &[F]) -> ImageFragment {
    match frags {
        [] => panic!("nothing to assemble"),
        [only] => only.borrow().clone(),
        [f0, f1, rest @ ..] => {
            let first = ImageFragment::over(f0.borrow(), f1.borrow());
            rest.iter().fold(first, |out, f| ImageFragment::over(&out, f.borrow()))
        }
    }
}

/// Maximum per-channel difference between two images over the full extent.
pub fn max_pixel_diff(a: &ImageFragment, b: &ImageFragment) -> f32 {
    assert_eq!(a.full, b.full);
    let mut worst = 0.0f32;
    for y in 0..a.full.1 {
        for x in 0..a.full.0 {
            let pa = a.at_absolute(x, y).unwrap_or([0.0; 4]);
            let pb = b.at_absolute(x, y).unwrap_or([0.0; 4]);
            for c in 0..4 {
                worst = worst.max((pa[c] - pb[c]).abs());
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_payload_roundtrip() {
        let s = SlabData {
            origin: (0, 0, 4),
            grid: Grid3::from_fn((2, 2, 2), |x, y, z| (x + y + z) as f32),
        };
        assert_eq!(SlabData::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn split_outputs_partition_the_region() {
        let f = ImageFragment::empty((4, 8), (0, 0, 4, 8), 1.0);
        let b = ImageFragment::empty((4, 8), (0, 2, 4, 4), 2.0);
        let outs = split_outputs(&f, &b, 8, 1, 0);
        let keep = outs[0].extract::<ImageFragment>().unwrap();
        let send = outs[1].extract::<ImageFragment>().unwrap();
        assert_eq!(keep.rect, (0, 0, 4, 4));
        assert_eq!(send.rect, (0, 4, 4, 4));
    }

    #[test]
    fn assemble_covers_union() {
        let a = ImageFragment::empty((4, 4), (0, 0, 4, 2), 0.0);
        let b = ImageFragment::empty((4, 4), (0, 2, 4, 2), 1.0);
        let whole = assemble(&[a, b]);
        assert_eq!(whole.rect, (0, 0, 4, 4));
    }
}
