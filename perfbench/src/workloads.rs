//! The three workloads: inputs from a seed, graph, registry, task map,
//! initial inputs and plan, plus each one's domain oracle.

use std::sync::Arc;
use std::time::Instant;

use babelflow_core::rng::Rng;
use babelflow_core::Blob;
use babelflow_core::{
    BlockMap, InitialInputs, ModuloMap, Payload, Registry, RunReport, ShardPlan, TaskGraph, TaskId,
    TaskMap,
};
use babelflow_data::{hcci_proxy, HcciParams, Idx3};
use babelflow_graphs::{MergeTreeMap, Reduction};
use babelflow_render::{max_pixel_diff, RenderConfig, RenderParams, TransferFunction};
use babelflow_topology::{canonical_partition, merge_segmentations, MergeTreeConfig};

/// Workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 3] = ["dispatch", "composite", "mergetree"];

/// Problem size: `Full` is what the benchmark measures, `Tiny` is for
/// smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The documented benchmark sizes.
    Full,
    /// Seconds-scale sizes that still exercise every code path.
    Tiny,
}

/// Checks a run's outputs against a result computed without the dataflow.
pub type Oracle = Box<dyn Fn(&RunReport) -> Result<(), String>>;

/// Everything one workload's runs need, built once in set-up.
pub struct Workload {
    /// The dataflow.
    pub graph: Arc<dyn TaskGraph>,
    /// Task placement over the shards.
    pub map: Arc<dyn TaskMap>,
    /// Callback bindings.
    pub registry: Registry,
    /// Host-supplied inputs, cloned into every run.
    pub initial: InitialInputs,
    /// The plan every controller is built with.
    pub plan: Arc<ShardPlan>,
    /// The domain oracle.
    pub oracle: Oracle,
}

/// Where one set-up spent its time, in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Input synthesis (the seeded field, or the leaf values).
    pub gen_ms: f64,
    /// Graph, registry, map and initial-input construction.
    pub build_ms: f64,
    /// `ShardPlan::build`, including its lint.
    pub plan_ms: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_ms(&self) -> f64 {
        self.gen_ms + self.build_ms + self.plan_ms
    }
}

/// Build workload `name` from `seed` over `shards` shards, timing each
/// set-up step. Errors on an unknown name.
pub fn build(
    name: &str,
    seed: u64,
    scale: Scale,
    shards: u32,
) -> Result<(Workload, SetupTimes), String> {
    match name {
        "dispatch" => Ok(dispatch(seed, dispatch_leaves(scale), shards)),
        "composite" => Ok(composite(seed, scale, shards)),
        "mergetree" => Ok(mergetree(seed, scale, shards)),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {NAMES:?})"
        )),
    }
}

/// Leaves of the dispatch reduction at `scale`.
pub fn dispatch_leaves(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 4096,
        Scale::Tiny => 64,
    }
}

/// Leaves of the smaller reduction the fixed/per-task fit pairs with
/// [`dispatch_leaves`].
pub fn companion_leaves(scale: Scale) -> u64 {
    dispatch_leaves(scale) / 4
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

const VALENCE: u64 = 4;
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

fn word(v: u64) -> Payload {
    Payload::wrap(Blob(v.to_le_bytes().to_vec()))
}

fn value(p: &Payload) -> Result<u64, String> {
    let blob = p.extract::<Blob>().map_err(|e| e.to_string())?;
    let bytes: [u8; 8] = blob
        .0
        .as_slice()
        .try_into()
        .map_err(|_| "not an 8-byte word")?;
    Ok(u64::from_le_bytes(bytes))
}

/// A `Reduction::new(leaves, 4)` over 8-byte words whose every task adds
/// its inputs and a multiple of its id: kernel time is near zero, so a
/// run is almost pure runtime overhead.
pub fn dispatch(seed: u64, leaves: u64, shards: u32) -> (Workload, SetupTimes) {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let mut rng = Rng::seed_from_u64(seed);
    let values: Vec<u64> = (0..leaves).map(|_| rng.next_u64()).collect();
    times.gen_ms = ms_since(t);

    let t = Instant::now();
    let graph = Reduction::new(leaves, VALENCE);
    let mut registry = Registry::new();
    for cb in graph.callback_ids() {
        registry.register(cb, |inputs, id| {
            let sum = inputs.iter().fold(id.0.wrapping_mul(MIX), |acc, p| {
                acc.wrapping_add(value(p).expect("dispatch payloads are words"))
            });
            vec![word(sum)]
        });
    }
    let map = BlockMap::new(shards, graph.size() as u64);
    let initial: InitialInputs = graph
        .leaf_ids()
        .into_iter()
        .zip(&values)
        .map(|(id, &v)| (id, vec![word(v)]))
        .collect();
    times.build_ms = ms_since(t);

    let t = Instant::now();
    let plan = Arc::new(ShardPlan::build(&graph, &map));
    times.plan_ms = ms_since(t);

    let expected = graph.ids().into_iter().fold(
        values.iter().fold(0u64, |a, &v| a.wrapping_add(v)),
        |a, id| a.wrapping_add(id.0.wrapping_mul(MIX)),
    );
    let oracle: Oracle = Box::new(move |report| {
        let root = report
            .outputs
            .get(&TaskId(0))
            .ok_or("no output from the root task")?;
        match root.as_slice() {
            [p] if value(p)? == expected => Ok(()),
            [p] => Err(format!("root sum {:#x}, expected {expected:#x}", value(p)?)),
            other => Err(format!("root emitted {} payloads, expected 1", other.len())),
        }
    });
    let workload = Workload {
        graph: Arc::new(graph),
        map: Arc::new(map),
        registry,
        initial,
        plan,
        oracle,
    };
    (workload, times)
}

/// The §V-B pipeline: ray-cast Z slabs of an HCCI proxy, then
/// binary-swap composite the fragments.
fn composite(seed: u64, scale: Scale, shards: u32) -> (Workload, SetupTimes) {
    let (n, slabs, image, step) = match scale {
        Scale::Full => (64, 16, 384, 4.0),
        Scale::Tiny => (16, 4, 32, 1.0),
    };
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let grid = hcci_proxy(&HcciParams {
        size: n,
        kernels: 40,
        kernel_radius: 0.08,
        noise_amplitude: 0.12,
        noise_scale: 8,
        seed,
    });
    times.gen_ms = ms_since(t);

    let t = Instant::now();
    let cfg = RenderConfig {
        dims: Idx3::new(n, n, n),
        slabs,
        params: RenderParams {
            image: (image, image),
            world: (n, n),
            step,
            tf: TransferFunction {
                lo: 0.25,
                hi: 1.1,
                density: 0.08,
            },
        },
        valence: 2,
    };
    let graph = cfg.binary_swap_graph();
    let registry = cfg.binary_swap_registry();
    let map = ModuloMap::new(shards, graph.size() as u64);
    let initial = cfg.initial_inputs(&grid, &graph.leaf_ids());
    times.build_ms = ms_since(t);

    let t = Instant::now();
    let plan = Arc::new(ShardPlan::build(&graph, &map));
    times.plan_ms = ms_since(t);

    let oracle: Oracle = Box::new(move |report| {
        let diff = max_pixel_diff(&cfg.final_image(report), &cfg.oracle_image(&grid));
        if diff < 1e-4 {
            Ok(())
        } else {
            Err(format!("image differs from the serial render by {diff}"))
        }
    });
    let workload = Workload {
        graph: Arc::new(graph),
        map: Arc::new(map),
        registry,
        initial,
        plan,
        oracle,
    };
    (workload, times)
}

/// The §V-A pipeline: the segmented merge tree of an HCCI proxy.
fn mergetree(seed: u64, scale: Scale, shards: u32) -> (Workload, SetupTimes) {
    let (n, blocks) = match scale {
        Scale::Full => (24, Idx3::new(4, 4, 2)),
        Scale::Tiny => (16, Idx3::new(2, 2, 2)),
    };
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let grid = hcci_proxy(&HcciParams {
        size: n,
        kernels: 32,
        kernel_radius: 0.07,
        noise_amplitude: 0.15,
        noise_scale: 8,
        seed,
    });
    times.gen_ms = ms_since(t);

    let t = Instant::now();
    let cfg = MergeTreeConfig {
        dims: Idx3::new(n, n, n),
        blocks,
        threshold: 0.45,
        valence: 2,
    };
    let graph = cfg.graph();
    let registry = cfg.registry();
    let map = MergeTreeMap::new(graph.clone(), shards);
    let initial = cfg.initial_inputs(&grid);
    times.build_ms = ms_since(t);

    let t = Instant::now();
    let plan = Arc::new(ShardPlan::build(&graph, &map));
    times.plan_ms = ms_since(t);

    let oracle: Oracle = Box::new(move |report| {
        let got = canonical_partition(&merge_segmentations(&cfg.collect_segmentations(report)));
        let want = canonical_partition(&cfg.oracle_partition(&grid));
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{} features, the whole-grid oracle finds {}",
                got.len(),
                want.len()
            ))
        }
    });
    let workload = Workload {
        graph: Arc::new(graph),
        map: Arc::new(map),
        registry,
        initial,
        plan,
        oracle,
    };
    (workload, times)
}
