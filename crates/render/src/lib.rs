//! # babelflow-render
//!
//! The paper's second use case (§V-B, Figs. 7 and 10): distributed volume
//! rendering and image compositing. A software ray-caster substitutes for
//! VTK's SmartVolumeMapper; compositing runs as either a reduction or a
//! binary-swap dataflow on any BabelFlow runtime; [`icet`] provides the
//! direct in-memory baseline standing in for the IceT library.

#![warn(missing_docs)]

pub mod icet;
pub mod image;
pub mod raycast;
pub mod tasks;

pub use icet::{icet_binary_swap, icet_reduce};
pub use image::{binary_swap_region, split_rows, ImageFragment};
pub use raycast::{render_block, render_rows, RenderParams, TransferFunction};
pub use tasks::{assemble, max_pixel_diff, RenderConfig, SlabData};

#[cfg(test)]
mod tests {
    use babelflow_core::{canonical_outputs, run_serial, Controller, ModuloMap, TaskGraph};
    use babelflow_data::{hcci_proxy, Grid3, HcciParams, Idx3};

    use super::*;

    fn test_volume(n: usize) -> Grid3 {
        hcci_proxy(&HcciParams {
            size: n,
            kernels: 6,
            kernel_radius: 0.15,
            noise_amplitude: 0.1,
            noise_scale: 4,
            seed: 21,
        })
    }

    fn config(n: usize, slabs: u64) -> RenderConfig {
        RenderConfig {
            dims: Idx3::new(n, n, n),
            slabs,
            params: RenderParams {
                image: (n as u32, n as u32),
                world: (n, n),
                step: 1.0,
                tf: TransferFunction::default(),
            },
            valence: 2,
        }
    }

    #[test]
    fn reduction_pipeline_matches_oracle() {
        let n = 16;
        let grid = test_volume(n);
        let cfg = config(n, 4);
        let g = cfg.reduction_graph();
        let reg = cfg.reduction_registry();
        let init = cfg.initial_inputs(&grid, &g.leaf_ids());
        let report = run_serial(&g, &reg, init).unwrap();
        let img = cfg.final_image(&report);
        let oracle = cfg.oracle_image(&grid);
        assert!(img.total_alpha() > 0.0, "image is not empty");
        assert!(max_pixel_diff(&img, &oracle) < 1e-5);
    }

    #[test]
    fn binary_swap_pipeline_matches_oracle() {
        let n = 16;
        let grid = test_volume(n);
        let cfg = config(n, 4);
        let g = cfg.binary_swap_graph();
        let reg = cfg.binary_swap_registry();
        let init = cfg.initial_inputs(&grid, &g.leaf_ids());
        let report = run_serial(&g, &reg, init).unwrap();
        // Binary swap emits one tile per leaf; assembled they must match.
        let img = cfg.final_image(&report);
        let oracle = cfg.oracle_image(&grid);
        assert!(max_pixel_diff(&img, &oracle) < 1e-4);
    }

    #[test]
    fn icet_baselines_match_oracle() {
        let n = 16;
        let grid = test_volume(n);
        let cfg = config(n, 4);
        let decomp = cfg.decomp();
        let frags: Vec<ImageFragment> = (0..4usize)
            .map(|i| {
                let b = decomp.block(&grid, i);
                render_block(&cfg.params, (b.origin.x, b.origin.y, b.origin.z), &b.grid)
            })
            .collect();
        let oracle = cfg.oracle_image(&grid);
        assert!(max_pixel_diff(&icet_reduce(frags.clone(), 2), &oracle) < 1e-5);
        assert!(max_pixel_diff(&icet_binary_swap(frags), &oracle) < 1e-4);
    }

    #[test]
    fn rendering_identical_across_runtimes() {
        let n = 12;
        let grid = test_volume(n);
        let cfg = config(n, 4);
        let g = cfg.reduction_graph();
        let reg = cfg.reduction_registry();
        let map = ModuloMap::new(3, g.size() as u64);

        let serial = run_serial(&g, &reg, cfg.initial_inputs(&grid, &g.leaf_ids())).unwrap();
        let canon = canonical_outputs(&serial);

        let r = babelflow_mpi::MpiController::new()
            .run(&g, &map, &reg, cfg.initial_inputs(&grid, &g.leaf_ids()))
            .unwrap();
        assert_eq!(canonical_outputs(&r), canon, "mpi");

        let r = babelflow_charm::CharmController::new(2)
            .run(&g, &map, &reg, cfg.initial_inputs(&grid, &g.leaf_ids()))
            .unwrap();
        assert_eq!(canonical_outputs(&r), canon, "charm");

        let r = babelflow_legion::LegionSpmdController::new(2)
            .run(&g, &map, &reg, cfg.initial_inputs(&grid, &g.leaf_ids()))
            .unwrap();
        assert_eq!(canonical_outputs(&r), canon, "legion-spmd");
    }

    #[test]
    fn binary_swap_identical_across_runtimes() {
        let n = 12;
        let grid = test_volume(n);
        let cfg = config(n, 4);
        let g = cfg.binary_swap_graph();
        let reg = cfg.binary_swap_registry();
        let map = ModuloMap::new(4, g.size() as u64);

        let serial = run_serial(&g, &reg, cfg.initial_inputs(&grid, &g.leaf_ids())).unwrap();
        let canon = canonical_outputs(&serial);

        let r = babelflow_mpi::MpiController::new()
            .run(&g, &map, &reg, cfg.initial_inputs(&grid, &g.leaf_ids()))
            .unwrap();
        assert_eq!(canonical_outputs(&r), canon, "mpi");

        let r = babelflow_legion::LegionIndexLaunchController::new(2)
            .run(&g, &map, &reg, cfg.initial_inputs(&grid, &g.leaf_ids()))
            .unwrap();
        assert_eq!(canonical_outputs(&r), canon, "legion-il");
    }

    #[test]
    fn ppm_output_is_writable() {
        let n = 12;
        let grid = test_volume(n);
        let cfg = config(n, 2);
        let img = cfg.oracle_image(&grid);
        let ppm = img.to_ppm([0.0, 0.0, 0.0]);
        assert!(ppm.len() > 11);
        assert!(ppm.starts_with(b"P6\n12 12\n255\n"));
    }
}
