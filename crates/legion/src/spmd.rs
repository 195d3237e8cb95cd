//! The Legion SPMD controller — the paper's preferred Legion execution.
//!
//! "Slaughter et al. suggest that in order to scale an application with a
//! high number of data-parallel tasks, an SPMD approach is preferable. […]
//! we start one task per shard using a must parallelism launcher to execute
//! a set of independent tasks running in parallel without any runtime
//! synchronization. […] The per-shard task will then schedule its assigned
//! part of the task graph using single task launchers. To manage
//! dependencies between shards, Legion provides synchronization primitives
//! called phase barriers."
//!
//! Implementation: one must-epoch launch of `num_shards` shard tasks. Each
//! shard task walks its local subgraph (from a [`ShardPlan`] capturing the
//! user's `TaskMap` — "as in the MPI case, the Legion controller makes use
//! of the task map") and submits one single-task launcher per dataflow
//! task. Same-shard edges become region-readiness dependencies; cross-shard
//! edges additionally get a one-arrival phase barrier that the producer
//! arrives at after writing the shared region.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use babelflow_core::sync::{Counter, Mutex};
use babelflow_core::trace::{now_ns, SpanKind, TraceEvent, TraceSink};
use babelflow_core::{
    exec, Controller, ControllerError, InitialInputs, Payload, Registry, Result,
    RunReport, RunStats, ShardId, ShardPlan, TaskId,
};

use crate::edges::{input_regions, output_regions};
use crate::runtime::{LegionRuntime, RegionKey, RegionRequirement, TaskLauncher, WaitOutcome};

/// Legion-style SPMD controller (must-epoch shards + phase barriers).
#[derive(Clone, Debug)]
pub struct LegionSpmdController {
    /// Worker threads executing launched tasks.
    pub workers: usize,
    /// Stall-detection timeout.
    pub timeout: Duration,
}

impl LegionSpmdController {
    /// Controller executing on `workers` threads.
    pub fn new(workers: usize) -> Self {
        LegionSpmdController { workers, timeout: Duration::from_secs(10) }
    }

    /// Set the stall-detection timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }
}

/// Shared output/error sinks for task bodies.
#[derive(Default)]
pub(crate) struct Sinks {
    outputs: Mutex<BTreeMap<TaskId, Vec<Payload>>>,
    executed: Mutex<HashSet<TaskId>>,
    error: Mutex<Option<ControllerError>>,
    /// Callback re-executions after captured panics, surfaced as
    /// `RunStats::recovery.retries`.
    retries: Counter,
    /// Payload clones (inputs handed to callbacks, outputs copied into
    /// regions), surfaced as `PerfStats::payload_clones`.
    clones: Counter,
}

/// Attach every external input payload as a pre-mapped physical region.
pub(crate) fn attach_inputs(rt: &LegionRuntime, plan: &ShardPlan, initial: &InitialInputs) {
    for (task_id, payloads) in initial {
        let pt = plan.task_by_id(*task_id).expect("preflight verified inputs");
        let regions = input_regions(&pt.task);
        let mut supplied = payloads.iter();
        for (slot, &src) in pt.task.incoming.iter().enumerate() {
            if src.is_external() {
                let p = supplied.next().expect("preflight counted external inputs");
                rt.attach_region(regions[slot], p.clone());
            }
        }
    }
}

/// Build the fully owned single-task launcher for plan task `ix`.
///
/// `barriers` maps cross-shard edge regions to their phase barrier (empty
/// in index-launch mode): an input region with a barrier is gated by it,
/// which implies the region was written; every other input is a region
/// dependence. Spans go on the `rank` row, on the thread of the worker
/// that runs the task.
pub(crate) fn build_task_launcher(
    plan: &Arc<ShardPlan>,
    ix: u32,
    registry: &Registry,
    barriers: &Arc<HashMap<RegionKey, u64>>,
    sinks: &Arc<Sinks>,
    rank: u32,
) -> TaskLauncher {
    let pt = plan.task(ix);
    let callback = registry.get(pt.callback()).expect("preflight checked bindings").clone();
    let in_regions = input_regions(&pt.task);
    let (mut reqs, mut waits) = (Vec::new(), Vec::new());
    for &region in &in_regions {
        match barriers.get(&region) {
            Some(&b) => waits.push(b),
            None => reqs.push(RegionRequirement::read(region)),
        }
    }
    let trace_task = pt.id().0;
    let (plan, barriers, sinks) = (plan.clone(), barriers.clone(), sinks.clone());

    let mut launcher = TaskLauncher::new(
        "dataflow-task",
        Box::new(move |ctx| {
            let pt = plan.task(ix);
            let tracing = ctx.tracing();
            // Physical regions are immutable once written, so a faulted
            // callback re-reads the same inputs: re-execution in place.
            let inputs: Vec<Payload> = in_regions.iter().map(|&r| ctx.read_region(r)).collect();
            let write = |outs: Vec<Payload>, stats: &mut RunStats| -> Result<()> {
                for (slot, region) in output_regions(&pt.task) {
                    stats.perf.payload_clones += 1;
                    if TaskId(region.dst).is_external() {
                        sinks.outputs.lock().entry(pt.id()).or_default().push(outs[slot].clone());
                        continue;
                    }
                    let send_start = if tracing { now_ns() } else { 0 };
                    ctx.write_region(region, outs[slot].clone());
                    if let Some(&b) = barriers.get(&region) {
                        ctx.arrive(b);
                    }
                    if tracing {
                        // Region writes move payloads in memory: bytes = 0.
                        ctx.trace_sink().record(
                            TraceEvent::span(
                                SpanKind::MsgSend,
                                send_start,
                                now_ns(),
                                rank,
                                ctx.worker(),
                            )
                            .with_task(pt.id(), pt.callback())
                            .with_message(TaskId(region.dst), 0),
                        );
                    }
                }
                Ok(())
            };
            let mut stats = RunStats::default();
            let row = (rank, ctx.worker());
            let result = exec(pt, &callback, &inputs, row, ctx.trace_sink(), &mut stats, write);
            sinks.clones.fetch_add(stats.perf.payload_clones);
            sinks.retries.fetch_add(stats.recovery.retries);
            match result {
                Ok(()) => {
                    sinks.executed.lock().insert(pt.id());
                }
                Err(err) => {
                    sinks.error.lock().get_or_insert(err);
                }
            }
        }),
    );
    launcher.requirements = reqs;
    launcher.barriers = waits;
    launcher.trace_task = trace_task;
    launcher
}

/// Wait for every launched task and turn the run into a report: the
/// first task error if any, a deadlock naming the tasks that never ran, or
/// the outputs and counters.
pub(crate) fn finish(
    rt: &LegionRuntime,
    timeout: Duration,
    plan: &ShardPlan,
    sinks: &Sinks,
) -> Result<RunReport> {
    let finished = rt.wait_all(timeout);
    if let Some(err) = sinks.error.lock().take() {
        return Err(err);
    }
    match finished {
        WaitOutcome::Completed => {}
        WaitOutcome::Stalled { .. } => {
            let executed = sinks.executed.lock();
            let mut pending: Vec<TaskId> = plan
                .tasks()
                .iter()
                .map(|pt| pt.id())
                .filter(|id| !executed.contains(id))
                .collect();
            pending.sort();
            return Err(ControllerError::Deadlock { pending });
        }
        WaitOutcome::NoWorkers { outstanding } => {
            return Err(ControllerError::Runtime(format!(
                "runtime has zero workers; {outstanding} tasks can never run"
            )));
        }
    }

    let outputs = std::mem::take(&mut *sinks.outputs.lock());
    let mut report = RunReport { outputs, ..RunReport::default() };
    report.stats.tasks_executed = sinks.executed.lock().len() as u64;
    report.stats.local_messages = rt.stats().tasks_launched;
    report.stats.recovery.retries = sinks.retries.get();
    report.stats.perf.payload_clones = sinks.clones.get();
    Ok(report)
}

impl Controller for LegionSpmdController {
    fn execute(
        &mut self,
        plan: &Arc<ShardPlan>,
        registry: &Registry,
        initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        let shards = plan.num_shards();
        let rt = LegionRuntime::with_sink(self.workers, sink);
        attach_inputs(&rt, plan, &initial);

        // One phase barrier per cross-shard edge.
        let mut barriers: HashMap<RegionKey, u64> = HashMap::new();
        for pt in plan.tasks() {
            let home = pt.shard;
            for (_, region) in output_regions(&pt.task) {
                let dst = TaskId(region.dst);
                if !dst.is_external()
                    && plan.task_by_id(dst).expect("edge target exists").shard != home
                {
                    barriers.insert(region, rt.create_barrier(1).id);
                }
            }
        }
        let barriers = Arc::new(barriers);
        let sinks = Arc::new(Sinks::default());

        // Precompute each shard's launchers (the shard task's "schedule its
        // assigned part of the task graph" work), then must-epoch launch
        // the shard tasks which submit them.
        let mut shard_tasks = Vec::with_capacity(shards as usize);
        for shard in 0..shards {
            let launchers: Vec<TaskLauncher> = plan
                .local(ShardId(shard))
                .iter()
                .map(|&ix| {
                    let home = plan.task(ix).shard.0;
                    build_task_launcher(plan, ix, registry, &barriers, &sinks, home)
                })
                .collect();
            shard_tasks.push(TaskLauncher::new(
                "spmd-shard",
                Box::new(move |ctx| {
                    for l in launchers {
                        ctx.launch(l);
                    }
                }),
            ));
        }
        rt.must_epoch_launch(shard_tasks);
        finish(&rt, self.timeout, plan, &sinks)
    }

    fn name(&self) -> &'static str {
        "legion-spmd"
    }
}
