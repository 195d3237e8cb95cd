//! Verifier smoke: lint every graph family across task maps and shard
//! counts, then run the dynamic checkers once end to end.
//!
//! * Static: all five families × {modulo, block} × {1, 2, 4, 8} shards
//!   must lint clean — any diagnostic at all (Error or Warning) fails the
//!   run, since the families are the reference "pristine" inputs the
//!   mutation suite corrupts.
//! * Dynamic: a traced serial reduction must pass the happens-before
//!   checker, and a pure-callback reduction must replay byte-identically
//!   under permuted delivery schedules.
//!
//! Exits nonzero on any violation; prints per-case lint timings so the
//! pass stays visibly cheap relative to plan construction.

use std::process::ExitCode;
use std::time::Instant;

use babelflow_core::{
    Blob, BlockMap, CallbackId, Controller, InitialInputs, ModuloMap, Payload, Registry,
    SerialController, ShardPlan, TaskGraph, TaskMap,
};
use babelflow_graphs::{BinarySwap, Broadcast, KWayMerge, NeighborGraph, Reduction};
use babelflow_trace::TraceRecorder;
use babelflow_verify::{check_determinism, check_happens_before, lint_graph};

fn pay(v: u64) -> Payload {
    Payload::wrap(Blob(v.to_le_bytes().to_vec()))
}

fn val(p: &Payload) -> u64 {
    u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
}

fn sum_registry() -> Registry {
    let mut r = Registry::new();
    r.register(CallbackId(0), |inputs: &[Payload], _| vec![inputs[0].clone()]);
    r.register(CallbackId(1), |inputs: &[Payload], _| {
        vec![pay(inputs.iter().map(val).sum())]
    });
    r.register(CallbackId(2), |inputs: &[Payload], _| {
        vec![pay(inputs.iter().map(val).sum())]
    });
    r
}

fn families() -> Vec<(&'static str, Box<dyn TaskGraph>)> {
    vec![
        ("reduction(64,2)", Box::new(Reduction::new(64, 2))),
        ("broadcast(81,3)", Box::new(Broadcast::new(81, 3))),
        ("binary_swap(32)", Box::new(BinarySwap::new(32))),
        ("kway_merge(64,4)", Box::new(KWayMerge::new(64, 4))),
        ("neighbor(4,4,3)", Box::new(NeighborGraph::new(4, 4, 3))),
    ]
}

fn static_sweep() -> Result<(), String> {
    for (name, graph) in families() {
        let n = graph.size() as u64;
        for shards in [1u32, 2, 4, 8] {
            let mods = ModuloMap::new(shards, n);
            let blocks = BlockMap::new(shards, n);
            for (map_name, map) in [("modulo", &mods as &dyn TaskMap), ("block", &blocks)] {
                let start = Instant::now();
                let rep = lint_graph(&*graph, map);
                let lint_us = start.elapsed().as_micros();
                if !rep.is_empty() {
                    return Err(format!(
                        "{name} x {map_name} x {shards} shards: expected a clean lint, got:\n{rep}"
                    ));
                }
                println!("lint  {name:<18} {map_name:<6} shards={shards:<2} {lint_us:>6} us  clean");
            }
        }
    }
    Ok(())
}

fn dynamic_smoke() -> Result<(), String> {
    let g = Reduction::new(16, 2);
    let map = ModuloMap::new(4, g.size() as u64);
    let initial: InitialInputs =
        g.leaf_ids().into_iter().enumerate().map(|(i, id)| (id, vec![pay(i as u64)])).collect();

    let rec = TraceRecorder::shared();
    SerialController::new()
        .run_traced(&g, &map, &sum_registry(), initial.clone(), rec.clone())
        .map_err(|e| format!("traced serial run failed: {e}"))?;
    let hb = check_happens_before(&rec.take(), &ShardPlan::build(&g, &map));
    if !hb.is_clean() {
        return Err(format!("serial reduction trace violates happens-before:\n{hb}"));
    }
    println!("hb    reduction(16,2)    {} execs, {} causal edges, clean", hb.execs, hb.causal_edges);

    let rep = check_determinism(&g, &map, &sum_registry(), &initial, 8, 0xbabe)
        .map_err(|e| format!("determinism harness failed to run: {e}"))?;
    if !rep.is_deterministic() {
        return Err(format!("pure reduction diverged under permuted schedules:\n{rep}"));
    }
    println!("det   reduction(16,2)    {} schedules, deterministic", rep.schedules);
    Ok(())
}

fn main() -> ExitCode {
    let checks = [static_sweep as fn() -> Result<(), String>, dynamic_smoke];
    for check in checks {
        if let Err(msg) = check() {
            eprintln!("graph_lint: FAIL: {msg}");
            return ExitCode::FAILURE;
        }
    }
    println!("graph_lint: all families lint clean; dynamic checkers pass");
    ExitCode::SUCCESS
}
