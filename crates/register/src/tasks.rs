//! BabelFlow tasks for the brain-registration dataflow (§V-C, Fig. 8).
//!
//! *Read* tasks extract each tile slab's overlap regions (padded by the
//! search window); *correlation* tasks estimate the pairwise offset per
//! slab by NCC search; *evaluate* tasks sort the per-slab estimates and
//! keep the best; the *solve* task propagates pairwise offsets into global
//! positions (deviation from the nominal acquisition grid) for every
//! volume.

use std::collections::HashMap;
use std::sync::Arc;

use babelflow_core::{
    codec::DecodeError, Decoder, Encoder, InitialInputs, Payload, PayloadData, Registry,
    RunReport, TaskGraph,
};
use babelflow_data::{BrainAcquisition, Grid3, Idx3};
use babelflow_graphs::{
    neighbor::{CORR_CB, EVAL_CB, READ_CB, SOLVE_CB},
    NeighborGraph, NeighborRole,
};

use crate::correlate::{search_offset, Estimate, Offset};

/// One Z slab of an acquired tile (the dataflow's external input).
#[derive(Clone, Debug, PartialEq)]
pub struct TileSlab {
    /// The samples (full tile extent in X/Y, slab rows in Z).
    pub grid: Grid3,
}

impl PayloadData for TileSlab {
    fn encode_into(&self, e: &mut Encoder) {
        self.grid.encode_into(e);
    }

    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        Ok(TileSlab { grid: Grid3::decode(buf)? })
    }
}

/// An overlap patch sent from a read task to a correlation task.
#[derive(Clone, Debug, PartialEq)]
pub struct OverlapPatch {
    /// The patch origin in its tile's local frame.
    pub origin: Offset,
    /// The samples.
    pub grid: Grid3,
}

impl PayloadData for OverlapPatch {
    fn encode_into(&self, e: &mut Encoder) {
        e.put_i64(self.origin.0);
        e.put_i64(self.origin.1);
        e.put_i64(self.origin.2);
        e.put_len_prefixed(|e| self.grid.encode_into(e));
    }

    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(buf);
        let origin = (d.get_i64()?, d.get_i64()?, d.get_i64()?);
        let grid = Grid3::decode(d.get_bytes()?)?;
        Ok(OverlapPatch { origin, grid })
    }
}

/// A pairwise offset estimate (correlation → evaluate → solve).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeEstimate {
    /// Estimated offset (jitter of `b` minus jitter of `a`).
    pub offset: Offset,
    /// NCC score of the estimate.
    pub score: f32,
}

impl PayloadData for EdgeEstimate {
    fn encode_into(&self, e: &mut Encoder) {
        e.put_i64(self.offset.0);
        e.put_i64(self.offset.1);
        e.put_i64(self.offset.2);
        e.put_f32(self.score);
    }

    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(buf);
        Ok(EdgeEstimate {
            offset: (d.get_i64()?, d.get_i64()?, d.get_i64()?),
            score: d.get_f32()?,
        })
    }
}

/// Final positions: per volume, the deviation from its nominal grid
/// position (volume 0 anchored at zero).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Positions {
    /// `(volume, deviation)` pairs, sorted by volume.
    pub list: Vec<(u64, Offset)>,
}

impl PayloadData for Positions {
    fn encode_into(&self, e: &mut Encoder) {
        e.reserve(8 + self.list.len() * 32);
        e.put_usize(self.list.len());
        for &(v, (x, y, z)) in &self.list {
            e.put_u64(v);
            e.put_i64(x);
            e.put_i64(y);
            e.put_i64(z);
        }
    }

    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(buf);
        let n = d.get_usize()?;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            list.push((d.get_u64()?, (d.get_i64()?, d.get_i64()?, d.get_i64()?)));
        }
        Ok(Positions { list })
    }
}

/// Configuration of a registration run.
#[derive(Clone, Debug)]
pub struct RegisterConfig {
    /// Volume grid (gx, gy) — the paper uses 5×5.
    pub grid: (u64, u64),
    /// Tile extent per axis (cubic).
    pub tile: usize,
    /// Stride between nominal tile origins (tile − overlap).
    pub stride: usize,
    /// Z slabs per volume.
    pub slabs: u64,
    /// Offset search radius in voxels.
    pub search: i64,
}

impl RegisterConfig {
    /// Configuration matching a synthetic acquisition.
    pub fn for_acquisition(acq: &BrainAcquisition, slabs: u64, search: i64) -> Self {
        RegisterConfig {
            grid: (acq.params.grid.0 as u64, acq.params.grid.1 as u64),
            tile: acq.params.tile,
            stride: acq.stride,
            slabs,
            search,
        }
    }

    /// The Fig. 8 dataflow.
    pub fn graph(&self) -> NeighborGraph {
        NeighborGraph::new(self.grid.0, self.grid.1, self.slabs)
    }

    /// Slab Z range `[lo, hi)` within a tile.
    pub fn slab_range(&self, s: u64) -> (usize, usize) {
        let tz = self.tile / self.slabs as usize;
        assert!(tz * self.slabs as usize == self.tile, "tile must divide into slabs");
        (s as usize * tz, (s as usize + 1) * tz)
    }

    /// Initial inputs: one [`TileSlab`] per (volume, slab).
    pub fn initial_inputs(&self, acq: &BrainAcquisition) -> InitialInputs {
        let graph = self.graph();
        let mut init = HashMap::new();
        for (v, tile) in acq.tiles.iter().enumerate() {
            for s in 0..self.slabs {
                let (z0, z1) = self.slab_range(s);
                let grid = tile.volume.crop(
                    Idx3::new(0, 0, z0),
                    Idx3::new(self.tile, self.tile, z1 - z0),
                );
                init.insert(graph.read_id(v as u64, s), vec![Payload::wrap(TileSlab { grid })]);
            }
        }
        init
    }

    /// The overlap patch volume `v` contributes to edge `e` at slab `s`.
    fn extract_patch(&self, graph: &NeighborGraph, slab_grid: &Grid3, v: u64, e: u64, s: u64) -> OverlapPatch {
        let edge = graph.edge(e);
        let w = self.search.max(0) as usize;
        let overlap = self.tile - self.stride;
        let (z0, _) = self.slab_range(s);
        // X/Y window facing the neighbor, padded by the search radius.
        let full = 0..self.tile;
        let (xr, yr) = if edge.horizontal {
            if v == edge.a {
                (self.stride.saturating_sub(w)..self.tile, full)
            } else {
                (0..(overlap + w).min(self.tile), full)
            }
        } else if v == edge.a {
            (full, self.stride.saturating_sub(w)..self.tile)
        } else {
            (full, 0..(overlap + w).min(self.tile))
        };
        let origin = (xr.start as i64, yr.start as i64, z0 as i64);
        let grid = slab_grid.crop(
            Idx3::new(xr.start, yr.start, 0),
            Idx3::new(xr.end - xr.start, yr.end - yr.start, slab_grid.dims.z),
        );
        OverlapPatch { origin, grid }
    }

    /// Build the registry binding all four Fig. 8 task types.
    pub fn registry(&self) -> Registry {
        let cfg = Arc::new(self.clone());
        let graph = Arc::new(self.graph());
        let cb = graph.callback_ids();
        let mut reg = Registry::new();

        // Read: extract overlap patches for each incident edge.
        {
            let (cfg, graph) = (cfg.clone(), graph.clone());
            reg.register(cb[READ_CB], move |inputs, id| {
                let slab = inputs[0].extract::<TileSlab>().expect("read input is a tile slab");
                let Some(NeighborRole::Read { volume, slab: s }) = graph.role(id) else {
                    panic!("read callback on non-read task {id}");
                };
                graph
                    .edges_of(volume)
                    .into_iter()
                    .map(|e| {
                        Payload::wrap(cfg.extract_patch(&graph, &slab.grid, volume, e, s))
                    })
                    .collect()
            });
        }

        // Correlate: NCC offset search on the two patches.
        {
            let (cfg, graph) = (cfg.clone(), graph.clone());
            reg.register(cb[CORR_CB], move |inputs, id| {
                let Some(NeighborRole::Correlate { edge, .. }) = graph.role(id) else {
                    panic!("correlate callback on non-correlate task {id}");
                };
                let a = inputs[0].extract::<OverlapPatch>().expect("patch from endpoint a");
                let b = inputs[1].extract::<OverlapPatch>().expect("patch from endpoint b");
                let nominal = if graph.edge(edge).horizontal {
                    (cfg.stride as i64, 0, 0)
                } else {
                    (0, cfg.stride as i64, 0)
                };
                let est: Estimate =
                    search_offset(&a.grid, a.origin, &b.grid, b.origin, nominal, cfg.search);
                vec![Payload::wrap(EdgeEstimate { offset: est.offset, score: est.score })]
            });
        }

        // Evaluate: keep the best-scoring slab estimate (deterministic
        // tie-break on the offset).
        reg.register(cb[EVAL_CB], |inputs, _id| {
            let mut best: Option<EdgeEstimate> = None;
            for p in inputs {
                let e = *p.extract::<EdgeEstimate>().expect("estimate");
                best = Some(match best {
                    None => e,
                    Some(b) if e.score > b.score || (e.score == b.score && e.offset < b.offset) => e,
                    Some(b) => b,
                });
            }
            vec![Payload::wrap(best.expect("at least one slab"))]
        });

        // Solve: propagate pairwise offsets from the anchor volume.
        {
            let graph = graph.clone();
            reg.register(cb[SOLVE_CB], move |inputs, _id| {
                let estimates: Vec<EdgeEstimate> = inputs
                    .iter()
                    .map(|p| *p.extract::<EdgeEstimate>().expect("estimate"))
                    .collect();
                vec![Payload::wrap(solve_positions(&graph, &estimates))]
            });
        }

        reg
    }

    /// Extract the final positions from a run report.
    pub fn positions(&self, report: &RunReport) -> Positions {
        let graph = self.graph();
        let p = &report.outputs[&graph.solve_id()][0];
        (*p.extract::<Positions>().expect("solve output")).clone()
    }
}

/// Breadth-first propagation of pairwise offsets into per-volume
/// deviations, anchored at volume 0.
pub fn solve_positions(graph: &NeighborGraph, estimates: &[EdgeEstimate]) -> Positions {
    let n = graph.volumes();
    let mut pos: Vec<Option<Offset>> = vec![None; n as usize];
    pos[0] = Some((0, 0, 0));
    let mut queue = std::collections::VecDeque::from([0u64]);
    while let Some(v) = queue.pop_front() {
        let pv = pos[v as usize].expect("queued volumes are placed");
        for e in graph.edges_of(v) {
            let edge = graph.edge(e);
            let est = estimates[e as usize];
            let (other, delta) = if edge.a == v {
                (edge.b, est.offset)
            } else {
                (edge.a, (-est.offset.0, -est.offset.1, -est.offset.2))
            };
            if pos[other as usize].is_none() {
                pos[other as usize] = Some((pv.0 + delta.0, pv.1 + delta.1, pv.2 + delta.2));
                queue.push_back(other);
            }
        }
    }
    Positions {
        list: pos
            .into_iter()
            .enumerate()
            .map(|(v, p)| (v as u64, p.expect("grid is connected")))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrips() {
        let p = OverlapPatch {
            origin: (3, -1, 4),
            grid: Grid3::from_fn((2, 2, 2), |x, y, z| (x * y + z) as f32),
        };
        assert_eq!(OverlapPatch::decode(&p.encode()).unwrap(), p);

        let e = EdgeEstimate { offset: (1, -2, 0), score: 0.97 };
        assert_eq!(EdgeEstimate::decode(&e.encode()).unwrap(), e);

        let pos = Positions { list: vec![(0, (0, 0, 0)), (1, (1, -1, 2))] };
        assert_eq!(Positions::decode(&pos.encode()).unwrap(), pos);
    }

    #[test]
    fn solve_propagates_offsets_both_directions() {
        // 2x1 grid, single edge 0-1 with offset (2, 0, -1).
        let graph = NeighborGraph::new(2, 1, 1);
        let est = [EdgeEstimate { offset: (2, 0, -1), score: 1.0 }];
        let pos = solve_positions(&graph, &est);
        assert_eq!(pos.list, vec![(0, (0, 0, 0)), (1, (2, 0, -1))]);
    }

    #[test]
    fn solve_covers_a_grid() {
        let graph = NeighborGraph::new(3, 3, 1);
        let estimates: Vec<EdgeEstimate> = (0..graph.edges())
            .map(|_| EdgeEstimate { offset: (1, 0, 0), score: 1.0 })
            .collect();
        let pos = solve_positions(&graph, &estimates);
        assert_eq!(pos.list.len(), 9);
        // Every volume reached; all deviations finite by construction.
    }
}
