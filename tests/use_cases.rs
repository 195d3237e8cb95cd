//! Workspace-level end-to-end runs of the paper's three use cases on
//! parallel backends, verified against their respective oracles.

use babelflow::core::{Controller, ModuloMap, TaskGraph};
use babelflow::data::{brain_acquisition, hcci_proxy, BrainParams, HcciParams, Idx3};
use babelflow::graphs::MergeTreeMap;
use babelflow::render::{max_pixel_diff, RenderConfig, RenderParams, TransferFunction};
use babelflow::register::RegisterConfig;
use babelflow::topology::{canonical_partition, merge_segmentations, MergeTreeConfig};

#[test]
fn topology_on_mpi_matches_oracle() {
    let n = 16;
    let grid = hcci_proxy(&HcciParams {
        size: n,
        kernels: 12,
        kernel_radius: 0.1,
        noise_amplitude: 0.2,
        noise_scale: 4,
        seed: 31,
    });
    let cfg = MergeTreeConfig {
        dims: Idx3::new(n, n, n),
        blocks: Idx3::new(2, 2, 2),
        threshold: 0.4,
        valence: 2,
    };
    let graph = cfg.graph();
    let map = MergeTreeMap::new(graph.clone(), 4);
    let report = babelflow::mpi::MpiController::new()
        .run(&graph, &map, &cfg.registry(), cfg.initial_inputs(&grid))
        .unwrap();
    let distributed = merge_segmentations(&cfg.collect_segmentations(&report));
    let oracle = cfg.oracle_partition(&grid);
    assert_eq!(canonical_partition(&distributed), canonical_partition(&oracle));
}

#[test]
fn rendering_on_charm_matches_oracle() {
    let n = 16;
    let grid = hcci_proxy(&HcciParams {
        size: n,
        kernels: 8,
        kernel_radius: 0.12,
        noise_amplitude: 0.1,
        noise_scale: 4,
        seed: 33,
    });
    let cfg = RenderConfig {
        dims: Idx3::new(n, n, n),
        slabs: 4,
        params: RenderParams {
            image: (n as u32, n as u32),
            world: (n, n),
            step: 1.0,
            tf: TransferFunction::default(),
        },
        valence: 2,
    };
    let g = cfg.binary_swap_graph();
    let map = ModuloMap::new(4, g.size() as u64);
    let report = babelflow::charm::CharmController::new(3)
        .run(&g, &map, &cfg.binary_swap_registry(), cfg.initial_inputs(&grid, &g.leaf_ids()))
        .unwrap();
    let img = cfg.final_image(&report);
    assert!(max_pixel_diff(&img, &cfg.oracle_image(&grid)) < 1e-4);
}

#[test]
fn registration_on_legion_recovers_ground_truth() {
    let acq = brain_acquisition(&BrainParams {
        grid: (2, 2),
        tile: 24,
        overlap: 0.25,
        max_jitter: 1,
        noise: 0.01,
        seed: 5,
    });
    let cfg = RegisterConfig::for_acquisition(&acq, 2, 3);
    let graph = cfg.graph();
    let map = ModuloMap::new(3, graph.size() as u64);
    let report = babelflow::legion::LegionSpmdController::new(3)
        .run(&graph, &map, &cfg.registry(), cfg.initial_inputs(&acq))
        .unwrap();
    let pos = cfg.positions(&report);
    for &(v, dev) in &pos.list {
        let t = &acq.tiles[v as usize];
        let t0 = &acq.tiles[0];
        let truth = (
            (t.true_origin.0 - t.nominal_origin.0) - (t0.true_origin.0 - t0.nominal_origin.0),
            (t.true_origin.1 - t.nominal_origin.1) - (t0.true_origin.1 - t0.nominal_origin.1),
            (t.true_origin.2 - t.nominal_origin.2) - (t0.true_origin.2 - t0.nominal_origin.2),
        );
        assert_eq!(dev, truth, "volume {v}");
    }
}

#[test]
fn simulator_reproduces_figure_6_ordering_at_scale() {
    // The headline Fig. 6 relationships, checked at a reduced size so the
    // test stays fast: Original MPI slower than BabelFlow MPI at low core
    // counts; Legion flattens while MPI keeps scaling.
    use babelflow::sim::{simulate, MachineConfig, MergeTreeCost, RuntimeCosts};
    let g = babelflow::graphs::KWayMerge::new(4096, 8);
    let map = ModuloMap::new(128, g.size() as u64);
    let cost = MergeTreeCost::new(g.clone(), 32 * 32 * 32);
    let run = |cores: u32, rc: &RuntimeCosts| {
        let map = ModuloMap::new(cores, g.size() as u64);
        let machine = MachineConfig::shaheen(cores);
        simulate(&g, &|id| babelflow::core::TaskMap::shard(&map, id).0, &cost, &machine, rc)
    };
    let _ = map;

    let orig_128 = run(128, &RuntimeCosts::mpi_blocking());
    let mpi_128 = run(128, &RuntimeCosts::mpi_async());
    assert!(orig_128.makespan_ns >= mpi_128.makespan_ns, "Original MPI not slower at 128");

    let mpi_2048 = run(2048, &RuntimeCosts::mpi_async());
    let legion_2048 = run(2048, &RuntimeCosts::legion_spmd());
    assert!(mpi_2048.makespan_ns < mpi_128.makespan_ns / 4, "MPI fails to strong-scale");
    assert!(
        legion_2048.makespan_ns > 2 * mpi_2048.makespan_ns,
        "Legion should flatten at scale: legion {} vs mpi {}",
        legion_2048.makespan_ns,
        mpi_2048.makespan_ns
    );
}

#[test]
fn conduit_style_payloads_flow_through_any_runtime() {
    // The paper's outlook: "exploit new data models such as Conduit to
    // transparently access simulation data". Tasks below are written
    // purely against the hierarchical DataNode convention — they never see
    // the host's concrete types — and run unchanged on two backends.
    use babelflow::core::{
        canonical_outputs, run_serial, Payload, Registry, TaskId,
    };
    use babelflow::data::{DataNode, Value};
    use babelflow::graphs::Reduction;
    use std::sync::Arc;

    let g = Reduction::new(4, 2);
    let cb = babelflow::core::TaskGraph::callback_ids(&g);
    let mut reg = Registry::new();
    // Leaf: compute the block's mean into `stats/mean`.
    reg.register(cb[0], |inputs, _| {
        let node = inputs[0].extract::<DataNode>().unwrap();
        let (_, grid) = node.to_block("temperature").expect("mesh convention");
        let mean = grid.data.iter().sum::<f32>() as f64 / grid.data.len() as f64;
        let mut out = DataNode::new();
        out.set_path("stats/mean", Value::F64(mean));
        out.set_path("stats/count", Value::I64(grid.data.len() as i64));
        vec![Payload::wrap(out)]
    });
    // Reduce/root: weighted-average the means.
    let combine = |inputs: &[Payload], _id: TaskId| -> Vec<Payload> {
        let mut sum = 0.0f64;
        let mut count = 0i64;
        for p in inputs {
            let n = p.extract::<DataNode>().unwrap();
            let c = n.as_i64("stats/count").unwrap();
            sum += n.as_f64("stats/mean").unwrap() * c as f64;
            count += c;
        }
        let mut out = DataNode::new();
        out.set_path("stats/mean", Value::F64(sum / count as f64));
        out.set_path("stats/count", Value::I64(count));
        vec![Payload::wrap(out)]
    };
    reg.register(cb[1], combine);
    reg.register(cb[2], combine);

    let inputs: babelflow::core::InitialInputs = g
        .leaf_ids()
        .into_iter()
        .enumerate()
        .map(|(i, id)| {
            let dims = babelflow::data::Idx3::new(4, 4, 4);
            let grid = babelflow::data::Grid3::from_fn(dims, |x, y, z| {
                (i * 100 + x + y + z) as f32
            });
            let node = DataNode::from_block(
                babelflow::data::Idx3::new(0, 0, i * 4),
                "temperature",
                Arc::new(grid.data),
                dims,
            );
            (id, vec![Payload::wrap(node)])
        })
        .collect();

    let serial = run_serial(&g, &reg, inputs.clone()).unwrap();
    let out = serial.outputs[&TaskId(0)][0].extract::<DataNode>().unwrap();
    let mean = out.as_f64("stats/mean").unwrap();
    // Global mean of (i*100 + x+y+z) over 4 blocks of 4^3: 150 + 4.5.
    assert!((mean - 154.5).abs() < 1e-9, "mean = {mean}");

    let map = ModuloMap::new(3, babelflow::core::TaskGraph::size(&g) as u64);
    let r = babelflow::mpi::MpiController::new().run(&g, &map, &reg, inputs).unwrap();
    assert_eq!(canonical_outputs(&r), canonical_outputs(&serial));
}
