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
//! task. Every consumer input slot of the plan is one logical region,
//! numbered [`ShardPlan::slot_base`]` + slot`, and a producer writes the
//! region its [`Route::input`](babelflow_core::Route::input) names.
//! Same-shard edges become region-read dependencies; each cross-shard edge
//! instead gets a one-arrival phase barrier that the producer arrives at
//! after writing the shared region.
//!
//! A run ends when the runtime's pool goes idle. Tasks that never ran are
//! reported as [`ControllerError::Deadlock`] at once, with no timer.

use std::collections::BTreeMap;
use std::sync::Arc;

use babelflow_core::exec::route_outputs;
use babelflow_core::trace::{now_ns, SpanKind, TraceEvent, TraceSink, HOST_RANK};
use babelflow_core::{
    exec, Controller, ControllerError, InitialInputs, Payload, Registry, Result, RunReport,
    RunStats, ShardId, ShardPlan, TaskId,
};

use crate::runtime::{LegionRuntime, TaskCtx, WaitOutcome};

/// Legion-style SPMD controller (must-epoch shards + phase barriers).
#[derive(Clone, Debug)]
pub struct LegionSpmdController {
    /// Worker threads executing launched tasks.
    pub workers: usize,
}

impl LegionSpmdController {
    /// Controller executing on `workers` threads.
    pub fn new(workers: usize) -> Self {
        LegionSpmdController { workers }
    }
}

/// Create one logical region per input slot of the plan (the runtime's
/// first regions, so region `r` is plan input slot `r`) and attach every
/// external input payload as its slot's physical instance.
pub(crate) fn map_regions(rt: &LegionRuntime<u32>, plan: &ShardPlan, mut initial: InitialInputs) {
    rt.create_regions(plan.num_input_slots());
    rt.attach_regions(plan.input_tasks().iter().flat_map(|&ix| {
        let pt = plan.task(ix);
        let supplied = initial.remove(&pt.id()).expect("preflight verified inputs");
        let base = plan.slot_base(ix);
        pt.external_slots().map(move |slot| base + slot).zip(supplied)
    }));
}

/// The regions task `ix` reads and the barriers it waits on. `barriers`
/// holds, per region, the phase barrier gating it (empty in index-launch
/// mode): an input region with a barrier is waited on through it, which
/// implies the region was written; every other input is a region read.
pub(crate) fn requirements<'a>(
    plan: &ShardPlan,
    ix: u32,
    barriers: &'a [Option<u32>],
) -> (impl Iterator<Item = u32> + 'a, impl Iterator<Item = u32> + 'a) {
    let base = plan.slot_base(ix);
    let inputs = base..base + plan.task(ix).fan_in() as u32;
    let barrier = move |r: u32| barriers.get(r as usize).copied().flatten();
    (inputs.clone().filter(move |&r| barrier(r).is_none()), inputs.filter_map(barrier))
}

/// What one worker gathers over a run; [`finish`] sums them at the end.
#[derive(Default)]
struct Worker {
    stats: RunStats,
    outputs: BTreeMap<TaskId, Vec<Payload>>,
    /// Plan indices of the tasks this worker completed.
    ran: Vec<u32>,
    error: Option<ControllerError>,
    /// Input buffer, reused from task to task.
    inputs: Vec<Payload>,
}

/// Run plan task `ix` on a worker: take its input regions, execute its
/// callback, write each internal output's region (arriving at its barrier,
/// if any) and keep each external one. The first task a write makes ready
/// runs next on this worker; any others are queued for every worker.
/// Spans go on the task's shard row when `shard_rows` (SPMD), else on row
/// 0, on the worker's thread.
fn run_task(
    plan: &ShardPlan,
    registry: &Registry,
    barriers: &[Option<u32>],
    shard_rows: bool,
    w: &mut Worker,
    ctx: &mut TaskCtx<'_, u32>,
    ix: u32,
) {
    let (rt, pt) = (ctx.runtime, plan.task(ix));
    let sink = rt.trace_sink();
    let tracing = sink.enabled();
    if tracing {
        sink.record(
            TraceEvent::span(SpanKind::QueueWait, ctx.ready_ns, now_ns(), HOST_RANK, ctx.worker)
                .with_task(pt.id(), pt.callback()),
        );
    }
    let base = plan.slot_base(ix);
    rt.take_regions(base..base + pt.fan_in() as u32, &mut w.inputs);
    let rank = if shard_rows { pt.shard.0 } else { 0 };
    let row = (rank, ctx.worker);
    let write = |outs: Vec<Payload>, stats: &mut RunStats| -> Result<()> {
        route_outputs(plan, pt, outs, stats, |route, payload, stats| {
            let Some((consumer, slot)) = route.input else {
                w.outputs.entry(pt.id()).or_default().push(payload);
                return Ok(());
            };
            let region = plan.slot_base(consumer) + slot;
            let send_start = if tracing { now_ns() } else { 0 };
            let barrier = barriers.get(region as usize).copied().flatten();
            ctx.keep(rt.write_region(region, payload, barrier));
            stats.local_messages += 1;
            if tracing {
                // Region writes move payloads in memory: bytes = 0.
                sink.record(
                    TraceEvent::span(SpanKind::MsgSend, send_start, now_ns(), rank, row.1)
                        .with_task(pt.id(), pt.callback())
                        .with_message(route.dst, 0),
                );
            }
            Ok(())
        })
    };
    // A faulted callback is retried on the same local inputs: re-execution
    // in place.
    let callback = registry.get(pt.callback()).expect("preflight checked bindings");
    match exec(pt, callback, &w.inputs, row, sink, &mut w.stats, write) {
        Ok(()) => w.ran.push(ix),
        Err(err) => {
            w.error.get_or_insert(err);
        }
    }
    w.inputs.clear();
}

/// Run every launched task to the end and turn the run into a report: the
/// first task error if any (by worker), a runtime error if the pool could
/// not run, a deadlock naming the tasks that never ran, or the outputs and
/// counters.
pub(crate) fn finish(
    rt: &LegionRuntime<u32>,
    plan: &ShardPlan,
    registry: &Registry,
    barriers: &[Option<u32>],
    shard_rows: bool,
) -> Result<RunReport> {
    let (outcome, workers) = rt.wait_all(
        |_| Worker::default(),
        |w, ctx, ix| run_task(plan, registry, barriers, shard_rows, w, ctx, ix),
    );
    match outcome {
        WaitOutcome::Completed | WaitOutcome::Stalled { .. } => {}
        WaitOutcome::NoWorkers { outstanding } => {
            return Err(ControllerError::Runtime(format!(
                "runtime has zero workers; {outstanding} tasks can never run"
            )));
        }
        WaitOutcome::WorkerPanicked { worker } => {
            return Err(ControllerError::Runtime(format!("legion worker {worker} panicked")));
        }
    }
    let mut report = RunReport::default();
    let mut ran = vec![false; plan.len()];
    for w in workers {
        if let Some(err) = w.error {
            return Err(err);
        }
        report.stats.merge(&w.stats);
        report.outputs.extend(w.outputs);
        for ix in w.ran {
            ran[ix as usize] = true;
        }
    }
    // A task that never ran is pending, whether its launcher stalled in
    // the runtime or no index-launch round could hold it.
    let mut pending: Vec<TaskId> =
        plan.tasks().iter().zip(ran).filter(|(_, ran)| !ran).map(|(pt, _)| pt.id()).collect();
    if !pending.is_empty() {
        pending.sort_unstable();
        return Err(ControllerError::Deadlock { pending });
    }
    report.stats.tasks_executed = plan.len() as u64;
    report.stats.perf.add_pool(&rt.stats().pool);
    Ok(report)
}

/// One SPMD run on `rt`.
pub(crate) fn run(
    rt: &LegionRuntime<u32>,
    plan: &ShardPlan,
    registry: &Registry,
    initial: InitialInputs,
) -> Result<RunReport> {
    map_regions(rt, plan, initial);

    // One phase barrier per cross-shard edge, kept per region.
    let mut barriers = vec![None; plan.num_input_slots() as usize];
    let mut count = 0;
    for pt in plan.tasks() {
        for route in pt.routes.iter().flatten() {
            let Some((consumer, slot)) = route.input else { continue };
            if route.shard != pt.shard {
                barriers[(plan.slot_base(consumer) + slot) as usize] = Some(count);
                count += 1;
            }
        }
    }
    assert_eq!(rt.create_barriers(count, 1), 0, "the run's barriers are the runtime's first");

    // Must-epoch launch the shard tasks; each "schedules its assigned part
    // of the task graph" as one batch of single-task launchers.
    rt.must_epoch_launch(plan.num_shards(), |ctx, shard| {
        let mut batch = ctx.runtime.launch_batch();
        for &ix in plan.local(ShardId(shard)) {
            let (reads, waits) = requirements(plan, ix, &barriers);
            batch.launch(ix, reads, waits);
        }
    });
    finish(rt, plan, registry, &barriers, true)
}

impl Controller for LegionSpmdController {
    fn execute(
        &mut self,
        plan: &Arc<ShardPlan>,
        registry: &Registry,
        initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        run(&LegionRuntime::with_sink(self.workers, sink), plan, registry, initial)
    }

    fn name(&self) -> &'static str {
        "legion-spmd"
    }
}
