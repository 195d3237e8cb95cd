//! Perf smoke: deterministic fast-path counters for every backend and
//! graph family.
//!
//! * `perf_smoke` — measure and (re)write `BENCH_controllers.json`.
//! * `perf_smoke --check` — re-measure and fail (exit 1) if the structural
//!   counters regress against the committed baseline, or if a fault-free
//!   run retransmits or retries a task.
//!
//! Structural counters (`payload_clones`, `local_messages`) are
//! exact-compared: they are functions of graph,
//! placement, and code path, not of scheduling. Every cell is fault-free,
//! so `retransmits` must be exactly 0: the reliable layer reads queued
//! acks before it looks for overdue messages, so only a message that is
//! really lost (or a peer stalled past the retransmit timeout) is sent
//! twice; and `retries` must be exactly 0 too, since a task is only
//! re-run when its callback panics or its worker dies. Transport counters
//! (`envelopes_sent`, `batches_sent`) get a 1.5× band because how sends
//! and acks coalesce into envelopes depends on thread timing. The work
//! pools' counters (`pool_locks`, `parks`, `wakes`) are printed per cell
//! and gated on nothing, since they move with thread timing; they stay
//! out of the baseline. Wall-clock time is perfbench's job, not this
//! binary's.

use std::collections::HashMap;
use std::sync::Arc;

use babelflow_core::{
    Blob, BlockMap, CallbackId, Controller, InitialInputs, Payload, Registry, ShardPlan,
    TaskGraph, TaskId,
};
use babelflow_graphs::{BinarySwap, Broadcast, KWayMerge, NeighborGraph, Reduction};
use babelflow_trace::json::{parse, Json};

const BASELINE: &str = "BENCH_controllers.json";
const TRANSPORT_BAND: f64 = 1.5;

fn pay(v: u64) -> Payload {
    Payload::wrap(Blob(v.to_le_bytes().to_vec()))
}

fn val(p: &Payload) -> u64 {
    u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
}

/// Bind every callback the graph declares to a deterministic input mixer
/// with the right fan-out.
fn registry_for(graph: &dyn TaskGraph) -> Registry {
    let mut cbs: Vec<CallbackId> = graph.callback_ids();
    cbs.extend(graph.ids().iter().filter_map(|&id| graph.task(id)).map(|t| t.callback));
    cbs.sort_unstable();
    cbs.dedup();
    let fan_outs: Arc<HashMap<TaskId, usize>> = Arc::new(
        graph.ids().iter().filter_map(|&id| graph.task(id).map(|t| (id, t.fan_out()))).collect(),
    );
    let mut reg = Registry::new();
    for cb in cbs {
        let fan_outs = fan_outs.clone();
        reg.register(cb, move |inputs, id| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for p in inputs {
                h = (h ^ val(p)).wrapping_mul(0x100_0000_01b3).rotate_left(7);
            }
            h ^= id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (0..fan_outs.get(&id).copied().unwrap_or(1)).map(|s| pay(h ^ s as u64)).collect()
        });
    }
    reg
}

fn inputs_for(graph: &dyn TaskGraph) -> InitialInputs {
    graph
        .input_tasks()
        .into_iter()
        .map(|id| {
            let task = graph.task(id).expect("input task exists");
            let externals = task.incoming.iter().filter(|s| s.is_external()).count();
            (id, (0..externals as u64).map(|s| pay(id.0.rotate_left(13) ^ s)).collect())
        })
        .collect()
}

#[derive(Debug, Clone, PartialEq)]
struct Sample {
    backend: &'static str,
    family: &'static str,
    tasks: u64,
    payload_clones: u64,
    local_messages: u64,
    envelopes_sent: u64,
    batches_sent: u64,
    retransmits: u64,
    /// Gated at 0, not written to the baseline.
    retries: u64,
    /// Printed only: neither gated nor written to the baseline.
    pool_locks: u64,
    parks: u64,
    wakes: u64,
}

const SHARDS: u32 = 3;

fn controller(backend: &str, plan: Arc<ShardPlan>) -> Box<dyn Controller> {
    match backend {
        "serial" => Box::new(babelflow_core::SerialController::new().with_plan(plan)),
        "mpi-async" => {
            Box::new(babelflow_mpi::MpiController::new().with_workers(2).with_plan(plan))
        }
        "mpi-blocking" => Box::new(babelflow_mpi::BlockingMpiController::new().with_plan(plan)),
        "charm" => {
            Box::new(babelflow_charm::CharmController::new(SHARDS as usize).with_plan(plan))
        }
        "legion-spmd" => {
            Box::new(babelflow_legion::LegionSpmdController::new(SHARDS as usize).with_plan(plan))
        }
        "legion-il" => Box::new(
            babelflow_legion::LegionIndexLaunchController::new(SHARDS as usize).with_plan(plan),
        ),
        other => panic!("unknown backend {other}"),
    }
}

const BACKENDS: [&str; 6] =
    ["serial", "mpi-async", "mpi-blocking", "charm", "legion-spmd", "legion-il"];

fn families() -> Vec<(&'static str, Arc<dyn TaskGraph>)> {
    vec![
        ("reduction", Arc::new(Reduction::new(64, 4))),
        ("broadcast", Arc::new(Broadcast::new(16, 2))),
        ("binary-swap", Arc::new(BinarySwap::new(8))),
        ("kway-merge", Arc::new(KWayMerge::new(9, 3))),
        ("neighbor", Arc::new(NeighborGraph::new(3, 2, 2))),
    ]
}

/// One steady-state run per backend/family for the counters, with the
/// plan prebuilt.
fn measure_matrix() -> Vec<Sample> {
    let mut out = Vec::new();
    for (family, graph) in families() {
        let reg = registry_for(&*graph);
        let inputs = inputs_for(&*graph);
        // Contiguous blocks co-locate sibling consumers, so multi-payload
        // fan-outs to one remote rank coalesce and `batches_sent` is
        // exercised (a modulo map would scatter every sibling).
        let map = BlockMap::new(SHARDS, graph.size() as u64);
        let plan = Arc::new(ShardPlan::build(&*graph, &map));
        for backend in BACKENDS {
            let report = controller(backend, plan.clone())
                .run(&*graph, &map, &reg, inputs.clone())
                .unwrap_or_else(|e| panic!("{backend}/{family}: {e}"));
            let p = &report.stats.perf;
            out.push(Sample {
                backend,
                family,
                tasks: report.stats.tasks_executed,
                payload_clones: p.payload_clones,
                local_messages: report.stats.local_messages,
                envelopes_sent: p.envelopes_sent,
                batches_sent: p.batches_sent,
                retransmits: report.stats.recovery.retransmits,
                retries: report.stats.recovery.retries,
                pool_locks: p.pool_locks,
                parks: p.parks,
                wakes: p.wakes,
            });
        }
    }
    out
}

fn render_json(samples: &[Sample]) -> String {
    let mut s = String::from("{\n  \"schema\": \"babelflow-perf-smoke-v1\",\n");
    s.push_str("  \"results\": [\n");
    for (i, r) in samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"backend\": \"{}\", \"family\": \"{}\", \"tasks\": {}, \"payload_clones\": {}, \"local_messages\": {}, \"envelopes_sent\": {}, \"batches_sent\": {}, \"retransmits\": {}}}{}\n",
            r.backend,
            r.family,
            r.tasks,
            r.payload_clones,
            r.local_messages,
            r.envelopes_sent,
            r.batches_sent,
            r.retransmits,
            if i + 1 == samples.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn field(j: &Json, key: &str) -> u64 {
    j.get(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("baseline missing field {key}")) as u64
}

/// Enforce the invariants every measurement must satisfy regardless of any
/// baseline: the runs being fault-free, zero retransmits and zero retries.
fn check_invariants(samples: &[Sample]) -> Vec<String> {
    let mut fails = Vec::new();
    for r in samples {
        if r.retransmits != 0 {
            fails.push(format!(
                "{}/{}: {} retransmits on a fault-free run (must be 0)",
                r.backend, r.family, r.retransmits
            ));
        }
        if r.retries != 0 {
            fails.push(format!(
                "{}/{}: {} task retries on a fault-free run (must be 0)",
                r.backend, r.family, r.retries
            ));
        }
    }
    fails
}

fn check_against_baseline(baseline: &Json, samples: &[Sample]) -> Vec<String> {
    let mut fails = Vec::new();
    let rows = baseline
        .get("results")
        .and_then(Json::as_arr)
        .expect("baseline has results array");
    for r in samples {
        let Some(row) = rows.iter().find(|row| {
            row.get("backend").and_then(Json::as_str) == Some(r.backend)
                && row.get("family").and_then(Json::as_str) == Some(r.family)
        }) else {
            fails.push(format!("{}/{}: no baseline row", r.backend, r.family));
            continue;
        };
        for (key, got) in [
            ("tasks", r.tasks),
            ("payload_clones", r.payload_clones),
            ("local_messages", r.local_messages),
        ] {
            let want = field(row, key);
            if got != want {
                fails.push(format!(
                    "{}/{}: {key} regressed: baseline {want}, measured {got}",
                    r.backend, r.family
                ));
            }
        }
        for (key, got) in [("envelopes_sent", r.envelopes_sent), ("batches_sent", r.batches_sent)]
        {
            let want = field(row, key);
            let ok = if want == 0 {
                got == 0
            } else {
                (got as f64) <= (want as f64) * TRANSPORT_BAND
                    && (got as f64) >= (want as f64) / TRANSPORT_BAND
            };
            if !ok {
                fails.push(format!(
                    "{}/{}: {key} outside the {TRANSPORT_BAND}x band: baseline {want}, measured {got}",
                    r.backend, r.family
                ));
            }
        }
    }
    fails
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");

    let samples = measure_matrix();
    for r in &samples {
        println!(
            "pool {}/{}: {} locks, {} parks, {} wakes",
            r.backend, r.family, r.pool_locks, r.parks, r.wakes
        );
    }

    let mut fails = check_invariants(&samples);
    if check {
        let text = std::fs::read_to_string(BASELINE)
            .unwrap_or_else(|e| panic!("--check needs a committed {BASELINE}: {e}"));
        let baseline = parse(&text).expect("baseline parses as JSON");
        fails.extend(check_against_baseline(&baseline, &samples));
        if fails.is_empty() {
            println!("perf smoke OK: {} backend/family cells match {BASELINE}", samples.len());
        }
    } else {
        let json = render_json(&samples);
        // Self-validate through the in-repo parser before writing.
        parse(&json).expect("rendered JSON parses");
        std::fs::write(BASELINE, &json).expect("write baseline");
        println!("wrote {BASELINE}: {} cells", samples.len());
    }

    if !fails.is_empty() {
        for f in &fails {
            eprintln!("perf smoke FAIL: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use babelflow_core::{inject_panics, FaultPlan};

    use super::*;

    /// Σ over the plan's tasks and slots of `routes − 1`: every route of
    /// a slot but the last takes a clone of its output.
    fn planned_clones(plan: &ShardPlan) -> u64 {
        let slots = plan.tasks().iter().flat_map(|pt| &pt.routes);
        slots.map(|routes| routes.len().saturating_sub(1) as u64).sum()
    }

    #[test]
    fn payload_clones_follow_the_plan_on_every_backend_and_under_retries() {
        for (family, graph) in families() {
            let reg = registry_for(&*graph);
            let inputs = inputs_for(&*graph);
            let map = BlockMap::new(SHARDS, graph.size() as u64);
            let plan = Arc::new(ShardPlan::build(&*graph, &map));
            let want = planned_clones(&plan);
            if family == "reduction" {
                assert_eq!(want, 0, "a reduction routes each output once");
            }
            for backend in BACKENDS {
                for panic_once in [vec![], graph.ids()] {
                    let faults = FaultPlan { panic_once, ..FaultPlan::none() };
                    let report = controller(backend, plan.clone())
                        .run(&*graph, &map, &inject_panics(&reg, &faults), inputs.clone())
                        .unwrap_or_else(|e| panic!("{backend}/{family}: {e}"));
                    let (s, retries) = (&report.stats, faults.panic_once.len() as u64);
                    assert_eq!(s.recovery.retries, retries, "{backend}/{family}");
                    assert_eq!(
                        s.perf.payload_clones, want,
                        "{backend}/{family} with {retries} retries"
                    );
                }
            }
        }
    }
}
