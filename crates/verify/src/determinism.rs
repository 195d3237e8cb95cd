//! Schedule-permutation determinism checking.
//!
//! BabelFlow callbacks must be pure functions of their inputs, and a
//! fan-in task's inputs arrive in *slot* order, not time order — so the
//! bytes a graph produces must not depend on which ready task a
//! scheduler happens to pick next. [`check_determinism`] replays a graph
//! K times under seeded random ready-set permutations (the per-channel
//! FIFO the transports guarantee is preserved; only completion order is
//! shuffled) and byte-compares every replay against the serial
//! controller's canonical output. A divergence means a callback is
//! order-sensitive: it observes arrival order, global state, or time.

use std::sync::Arc;

use babelflow_core::controller::{InitialInputs, Result, RunReport};
use babelflow_core::exec::{exec, route_outputs};
use babelflow_core::plan::{Pending, ShardPlan};
use babelflow_core::rng::Rng;
use babelflow_core::trace::NoopSink;
use babelflow_core::{canonical_outputs, Controller, Registry, SerialController, TaskGraph, TaskMap};

/// Outcome of a determinism check.
#[derive(Clone, Debug, Default)]
pub struct DeterminismReport {
    /// Schedules replayed (excluding the canonical baseline).
    pub schedules: usize,
    /// Seeds whose replay produced different output bytes.
    pub divergent: Vec<u64>,
}

impl DeterminismReport {
    /// Whether every permuted schedule reproduced the baseline bytes.
    pub fn is_deterministic(&self) -> bool {
        self.divergent.is_empty()
    }
}

impl std::fmt::Display for DeterminismReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.divergent.is_empty() {
            write!(f, "{} permuted schedules, all byte-identical", self.schedules)
        } else {
            write!(
                f,
                "{} of {} permuted schedules diverged (seeds {:?})",
                self.divergent.len(),
                self.schedules,
                self.divergent
            )
        }
    }
}

/// Replay `graph` under `k` seeded schedule permutations and compare
/// each replay's canonical output bytes against the serial controller.
///
/// Seeds are `base_seed..base_seed + k`, so a divergence is reproducible
/// by rerunning with `k = 1` at the reported seed.
pub fn check_determinism(
    graph: &dyn TaskGraph,
    map: &dyn TaskMap,
    registry: &Registry,
    initial: &InitialInputs,
    k: usize,
    base_seed: u64,
) -> Result<DeterminismReport> {
    let plan = Arc::new(ShardPlan::build(graph, map));
    let baseline = SerialController::new().with_plan(plan.clone()).run(
        graph,
        map,
        registry,
        initial.clone(),
    )?;
    let want = canonical_outputs(&baseline);

    let mut rep = DeterminismReport::default();
    for seed in base_seed..base_seed + k as u64 {
        let report = run_permuted(&plan, registry, initial.clone(), seed)?;
        rep.schedules += 1;
        if canonical_outputs(&report) != want {
            rep.divergent.push(seed);
        }
    }
    Ok(rep)
}

/// Execute the plan with a random-order ready set: whenever more than
/// one task is ready, a seeded pick decides which runs next. Deliveries
/// from one producer still land in slot order (the transport FIFO). The
/// baseline run has already preflighted `plan` against `registry` and
/// `initial`.
fn run_permuted(
    plan: &Arc<ShardPlan>,
    registry: &Registry,
    initial: InitialInputs,
    seed: u64,
) -> Result<RunReport> {
    let mut rng = Rng::seed_from_u64(seed);

    let mut pending = Pending::all(plan);
    for (id, payloads) in initial {
        let ix = plan.index_of(id).expect("preflight checked initial inputs");
        pending.deliver_initial(ix, payloads.into_iter())?;
    }
    let mut ready = pending.ready();

    let mut report = RunReport::default();
    while !ready.is_empty() {
        let ix = ready.swap_remove(rng.random_range(0..ready.len()));
        let pt = plan.task(ix);
        let id = pt.id();
        let cb = registry.get(pt.callback()).expect("preflight checked bindings");
        let inputs = &pending.take(ix).expect("ready task is pending");
        exec(pt, cb, inputs, (0, 0), &NoopSink, &mut report.stats, |outs, stats| {
            stats.tasks_executed += 1;
            route_outputs(plan, pt, outs, stats, |route, payload, stats| {
                let Some(input @ (c, _)) = route.input else {
                    report.outputs.entry(id).or_default().push(payload);
                    return Ok(());
                };
                if pending.deliver(input, payload)? {
                    ready.push(c);
                }
                stats.local_messages += 1;
                Ok(())
            })
        })?;
    }
    pending.drained()?;
    Ok(report)
}
