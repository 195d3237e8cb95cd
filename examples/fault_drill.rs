//! Fault drill: the quickstart reduction run under injected faults on
//! every backend.
//!
//! Each backend executes the same 16-leaf reduction while the harness
//! drops and duplicates transport messages (MPI backends), kills a
//! worker thread (async MPI), and panics the root callback on its first
//! attempt (all backends). The run must still byte-match the fault-free
//! serial golden — the exactly-once guarantee of DESIGN.md §11 — and the
//! recovery counters must show the faults were actually absorbed, not
//! merely absent.
//!
//! Run with: `cargo run --example fault_drill`
//! CI runs this as the fault-matrix smoke test (see ci.sh).

use std::collections::HashMap;
use std::process::exit;
use std::time::Duration;

use babelflow::core::{
    canonical_outputs, inject_panics, run_serial, Blob, Controller, FaultPlan, FnMap, Payload,
    Registry, ShardId, TaskGraph, TaskId,
};
use babelflow::graphs::{reduction, Reduction};

fn val(p: &Payload) -> u64 {
    u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
}

fn pay(v: u64) -> Payload {
    Payload::wrap(Blob(v.to_le_bytes().to_vec()))
}

fn main() {
    let graph = Reduction::new(16, 4);
    let cb = graph.callback_ids();
    let mut registry = Registry::new();
    registry.register(cb[reduction::LEAF_CB], |inputs, _| inputs);
    registry.register(cb[reduction::REDUCE_CB], |inputs, _| {
        vec![pay(inputs.iter().map(val).sum())]
    });
    registry.register(cb[reduction::ROOT_CB], |inputs, _| {
        vec![pay(inputs.iter().map(val).sum())]
    });

    let initial = || -> HashMap<TaskId, Vec<Payload>> {
        graph
            .leaf_ids()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, vec![pay(i as u64 + 1)]))
            .collect()
    };

    // The golden: a fault-free serial run. Sum of 1..=16.
    let golden = run_serial(&graph, &registry, initial()).expect("fault-free serial golden");
    assert_eq!(val(&golden.outputs[&graph.root_id()][0]), 136);
    let canon = canonical_outputs(&golden);

    // The drill: early-sequence drops and duplicates in both directions,
    // one delayed delivery, one killed worker, and a root callback that
    // panics on its first attempt.
    let faults = FaultPlan {
        drop: vec![(0, 1, 0), (1, 0, 1)],
        duplicate: vec![(0, 1, 1), (1, 0, 0)],
        delay: vec![(0, 1, 2, Duration::from_millis(5))],
        panic_once: vec![graph.root_id()],
        kill_worker: vec![(0, 1)],
    };

    let ids = graph.ids();
    let map = FnMap::new(2, ids, |t| ShardId((t.0 % 2) as u32));
    let mut backends: Vec<(&str, Box<dyn Controller>)> = vec![
        ("serial", Box::new(babelflow::core::SerialController::new())),
        (
            "mpi-async",
            Box::new(
                babelflow::mpi::MpiController::new().with_workers(2).with_faults(faults.clone()),
            ),
        ),
        (
            "mpi-blocking",
            Box::new(
                babelflow::mpi::BlockingMpiController::new().with_faults(faults.message_faults()),
            ),
        ),
        ("charm", Box::new(babelflow::charm::CharmController::new(2))),
        ("legion-spmd", Box::new(babelflow::legion::LegionSpmdController::new(2))),
        ("legion-il", Box::new(babelflow::legion::LegionIndexLaunchController::new(2))),
    ];

    let mut failed = false;
    for (name, ctrl) in &mut backends {
        // Re-arm the one-shot panics for each backend: each must absorb
        // the callback fault itself.
        let poisoned = inject_panics(&registry, &faults);
        match ctrl.run(&graph, &map, &poisoned, initial()) {
            Ok(report) => {
                let matches = canonical_outputs(&report) == canon;
                let recovered = report.stats.recovery.retries > 0;
                println!(
                    "{name:<13}: outputs {} | {}",
                    if matches { "byte-match golden" } else { "DIVERGE" },
                    report.stats.recovery
                );
                if !matches || !recovered {
                    eprintln!("{name}: expected byte-matching outputs and retries > 0");
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("{name}: failed under faults: {e}");
                failed = true;
            }
        }
    }
    if failed {
        exit(1);
    }
    println!("all backends survived the drill with exactly-once effect");
}
