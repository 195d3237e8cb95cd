//! Warm-run page-fault gate for the render + binary-swap pipeline.
//!
//! A steady-state run must reuse the pixel and frame buffers of the run
//! before it instead of first-touching fresh memory: after two warm-up
//! runs, each run takes under a tenth of the cold run's minor page
//! faults. Faults are read for this thread alone (field 10 of
//! `/proc/thread-self/stat`), and the serial controller runs every task
//! on the calling thread, so the count is the pipeline's own. This file
//! holds one test so no other test shares the process's buffer pools.

use babelflow_core::run_serial;
use babelflow_data::{hcci_proxy, HcciParams, Idx3};
use babelflow_render::{RenderConfig, RenderParams, TransferFunction};

/// Minor page faults this thread has taken, or why they cannot be read.
fn thread_minor_faults() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").map_err(|e| e.to_string())?;
    // The command name (field 2) may hold spaces; fields after it do not.
    let rest = &stat[stat.rfind(')').ok_or("no ')' in stat")? + 1..];
    // `rest` starts at field 3, so field 10 is its 8th word.
    let field = rest.split_whitespace().nth(7).ok_or("stat too short")?;
    field.parse().map_err(|e| format!("minflt {field:?}: {e}"))
}

#[test]
fn warm_runs_reuse_buffers_instead_of_faulting() {
    if let Err(why) = thread_minor_faults() {
        println!("skipped: cannot read this thread's page faults ({why})");
        return;
    }
    // Each slab projects onto the whole 256² image, so a run moves ~16 MB
    // of 1 MB half-frames and their shrinking binary-swap crops.
    let n = 32;
    let grid = hcci_proxy(&HcciParams {
        size: n,
        kernels: 12,
        kernel_radius: 0.1,
        noise_amplitude: 0.1,
        noise_scale: 4,
        seed: 7,
    });
    let cfg = RenderConfig {
        dims: Idx3::new(n, n, n),
        slabs: 8,
        params: RenderParams {
            image: (256, 256),
            world: (n, n),
            step: 4.0,
            tf: TransferFunction::default(),
        },
        valence: 2,
    };
    let g = cfg.binary_swap_graph();
    let reg = cfg.binary_swap_registry();
    let faults: Vec<u64> = (0..5)
        .map(|_| {
            let init = cfg.initial_inputs(&grid, &g.leaf_ids());
            let before = thread_minor_faults().expect("readable above");
            let report = run_serial(&g, &reg, init).expect("serial run");
            drop(report);
            thread_minor_faults().expect("readable above") - before
        })
        .collect();
    println!("minor faults per run: {faults:?}");
    assert!(faults[0] > 0, "the cold run touched no new memory: {faults:?}");
    for (run, &f) in faults.iter().enumerate().skip(2) {
        assert!(f * 10 < faults[0], "run {} took {f} faults, cold run {}: {faults:?}", run + 1, faults[0]);
    }
}
