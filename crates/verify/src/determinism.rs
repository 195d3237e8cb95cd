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

use std::collections::HashMap;
use std::sync::Arc;

use babelflow_core::controller::{ControllerError, InitialInputs, Result, RunReport};
use babelflow_core::ids::TaskId;
use babelflow_core::plan::{PlanBuffer, ShardPlan};
use babelflow_core::rng::Rng;
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

    let mut states: HashMap<TaskId, PlanBuffer> = plan
        .tasks()
        .iter()
        .map(|pt| {
            let ix = plan.index_of(pt.id()).expect("plan indexes its own ids");
            (pt.id(), PlanBuffer::new(plan, ix))
        })
        .collect();

    for (&id, payloads) in &initial {
        let st = states
            .get_mut(&id)
            .ok_or_else(|| ControllerError::Runtime(format!("initial input for unknown task {id}")))?;
        let pt = plan.task(st.ix());
        for p in payloads {
            if !st.deliver(pt, TaskId::EXTERNAL, p.clone()) {
                return Err(ControllerError::Runtime(format!(
                    "too many initial inputs for task {id}"
                )));
            }
        }
    }

    let mut ready: Vec<TaskId> = {
        let mut ids: Vec<TaskId> =
            states.iter().filter(|(_, st)| st.ready()).map(|(&id, _)| id).collect();
        ids.sort();
        ids
    };

    let mut report = RunReport::default();
    while !ready.is_empty() {
        let pick = rng.random_range(0..ready.len());
        let id = ready.swap_remove(pick);
        let st = states.remove(&id).expect("ready task has state");
        let pt = plan.task(st.ix());
        let cb = registry.get(pt.callback()).expect("preflight checked bindings");
        let outputs = cb(st.take(), id);
        report.stats.tasks_executed += 1;

        if outputs.len() != pt.fan_out() {
            return Err(ControllerError::BadOutputArity {
                task: id,
                expected: pt.fan_out(),
                got: outputs.len(),
            });
        }

        for (slot, payload) in outputs.into_iter().enumerate() {
            for route in &pt.routes[slot] {
                let dst = route.dst;
                if dst.is_external() {
                    report.outputs.entry(id).or_default().push(payload.clone());
                    continue;
                }
                let dst_state = states.get_mut(&dst).ok_or_else(|| {
                    ControllerError::Runtime(format!(
                        "task {id} sent to unknown or already-executed task {dst}"
                    ))
                })?;
                let dst_pt = plan.task(dst_state.ix());
                if !dst_state.deliver(dst_pt, id, payload.clone()) {
                    return Err(ControllerError::Runtime(format!(
                        "task {dst} has no free input slot for producer {id}"
                    )));
                }
                report.stats.local_messages += 1;
                if dst_state.ready() {
                    ready.push(dst);
                }
            }
        }
    }

    if !states.is_empty() {
        let mut pending: Vec<TaskId> = states.keys().copied().collect();
        pending.sort();
        return Err(ControllerError::Deadlock { pending });
    }
    Ok(report)
}
