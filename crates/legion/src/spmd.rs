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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use babelflow_core::sync::{Counter, Mutex};
use babelflow_core::trace::{now_ns, SpanKind, TraceEvent, TraceSink};
use babelflow_core::{
    exec, Controller, ControllerError, InitialInputs, Payload, Registry, Result, RunReport,
    RunStats, ShardId, ShardPlan, TaskId,
};

use crate::runtime::{LegionRuntime, TaskLauncher, WaitOutcome};

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

/// Shared output/error sinks for task bodies.
pub(crate) struct Sinks {
    outputs: Mutex<BTreeMap<TaskId, Vec<Payload>>>,
    /// Per plan index: whether the task completed.
    executed: Vec<AtomicBool>,
    error: Mutex<Option<ControllerError>>,
    /// Callback re-executions after captured panics, surfaced as
    /// `RunStats::recovery.retries`.
    retries: Counter,
    /// Payload clones (inputs handed to callbacks, outputs copied into
    /// regions), surfaced as `PerfStats::payload_clones`.
    clones: Counter,
    /// Internal region writes, surfaced as `RunStats::local_messages`.
    writes: Counter,
}

impl Sinks {
    pub(crate) fn new(plan: &ShardPlan) -> Arc<Self> {
        Arc::new(Sinks {
            outputs: Mutex::default(),
            executed: plan.tasks().iter().map(|_| AtomicBool::new(false)).collect(),
            error: Mutex::default(),
            retries: Counter::default(),
            clones: Counter::default(),
            writes: Counter::default(),
        })
    }
}

/// Create one logical region per input slot of the plan (the runtime's
/// first regions, so region `r` is plan input slot `r`) and attach every
/// external input payload as its slot's physical instance.
pub(crate) fn map_regions(rt: &LegionRuntime, plan: &ShardPlan, mut initial: InitialInputs) {
    rt.create_regions(plan.num_input_slots());
    for &ix in plan.input_tasks() {
        let pt = plan.task(ix);
        let mut supplied =
            initial.remove(&pt.id()).expect("preflight verified inputs").into_iter();
        for (slot, src) in pt.task.incoming.iter().enumerate() {
            if src.is_external() {
                let p = supplied.next().expect("preflight counted external inputs");
                rt.attach_region(plan.slot_base(ix) + slot as u32, p);
            }
        }
    }
}

/// The error for a route whose consumer slot the plan could not resolve
/// (only a lenient plan has such routes), worded as the serial backend
/// words it.
fn unroutable(plan: &ShardPlan, src: TaskId, dst: TaskId) -> ControllerError {
    ControllerError::Runtime(match plan.index_of(dst) {
        None => format!("task {src} sent to unknown or already-executed task {dst}"),
        Some(_) => format!("task {dst} has no free input slot for producer {src}"),
    })
}

/// Build the fully owned single-task launcher for plan task `ix`.
///
/// `barriers` holds, per region, the phase barrier gating it (empty in
/// index-launch mode): an input region with a barrier is waited on through
/// it, which implies the region was written; every other input is a
/// region read. Spans go on the `rank` row, on the thread of the worker
/// that runs the task.
pub(crate) fn build_task_launcher(
    plan: &Arc<ShardPlan>,
    ix: u32,
    registry: &Registry,
    barriers: &Arc<Vec<Option<u32>>>,
    sinks: &Arc<Sinks>,
    rank: u32,
) -> TaskLauncher {
    let pt = plan.task(ix);
    let callback = registry.get(pt.callback()).expect("preflight checked bindings").clone();
    let base = plan.slot_base(ix);
    let inputs = base..base + pt.fan_in() as u32;
    let (mut reads, mut waits) = (Vec::with_capacity(pt.fan_in()), Vec::new());
    for region in inputs.clone() {
        match barriers.get(region as usize).copied().flatten() {
            Some(b) => waits.push(b),
            None => reads.push(region),
        }
    }
    let (plan, barriers, sinks) = (plan.clone(), barriers.clone(), sinks.clone());

    let mut launcher = TaskLauncher::new(
        "dataflow-task",
        Box::new(move |ctx| {
            let pt = plan.task(ix);
            let tracing = ctx.tracing();
            // Physical regions are immutable once written, so a faulted
            // callback re-reads the same inputs: re-execution in place.
            let inputs: Vec<Payload> = inputs.map(|r| ctx.read_region(r)).collect();
            let write = |outs: Vec<Payload>, stats: &mut RunStats| -> Result<()> {
                for (payload, routes) in outs.iter().zip(&pt.routes) {
                    for route in routes {
                        stats.perf.payload_clones += 1;
                        if route.is_external() {
                            let mut outputs = sinks.outputs.lock();
                            outputs.entry(pt.id()).or_default().push(payload.clone());
                            continue;
                        }
                        let Some((consumer, slot)) = route.input else {
                            return Err(unroutable(&plan, pt.id(), route.dst));
                        };
                        let region = plan.slot_base(consumer) + slot;
                        let send_start = if tracing { now_ns() } else { 0 };
                        ctx.write_region(region, payload.clone());
                        stats.local_messages += 1;
                        if let Some(b) = barriers.get(region as usize).copied().flatten() {
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
                                .with_message(route.dst, 0),
                            );
                        }
                    }
                }
                Ok(())
            };
            let mut stats = RunStats::default();
            let row = (rank, ctx.worker());
            let result = exec(pt, &callback, &inputs, row, ctx.trace_sink(), &mut stats, write);
            sinks.clones.fetch_add(stats.perf.payload_clones);
            sinks.retries.fetch_add(stats.recovery.retries);
            sinks.writes.fetch_add(stats.local_messages);
            match result {
                Ok(()) => sinks.executed[ix as usize].store(true, Ordering::Relaxed),
                Err(err) => {
                    sinks.error.lock().get_or_insert(err);
                }
            }
        }),
    )
    .with_trace_task(pt.id().0);
    launcher.reads = reads;
    launcher.barriers = waits;
    launcher
}

/// Wait for every launched task and turn the run into a report: the
/// first task error if any, a runtime error if the pool could not run, a
/// deadlock naming the tasks that never ran, or the outputs and counters.
pub(crate) fn finish(rt: &LegionRuntime, plan: &ShardPlan, sinks: &Sinks) -> Result<RunReport> {
    let outcome = rt.wait_all();
    if let Some(err) = sinks.error.lock().take() {
        return Err(err);
    }
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
    // A task that never ran is pending, whether its launcher stalled in
    // the runtime or no index-launch round could hold it.
    let mut pending: Vec<TaskId> = plan
        .tasks()
        .iter()
        .zip(&sinks.executed)
        .filter(|(_, done)| !done.load(Ordering::Relaxed))
        .map(|(pt, _)| pt.id())
        .collect();
    if !pending.is_empty() {
        pending.sort_unstable();
        return Err(ControllerError::Deadlock { pending });
    }

    let outputs = std::mem::take(&mut *sinks.outputs.lock());
    let mut report = RunReport { outputs, ..RunReport::default() };
    report.stats.tasks_executed = plan.len() as u64;
    report.stats.local_messages = sinks.writes.get();
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
        let rt = LegionRuntime::with_sink(self.workers, sink);
        map_regions(&rt, plan, initial);

        // One phase barrier per cross-shard edge, kept per region.
        let mut barriers = vec![None; plan.num_input_slots() as usize];
        for pt in plan.tasks() {
            for route in pt.routes.iter().flatten() {
                let Some((consumer, slot)) = route.input else { continue };
                if route.shard != pt.shard {
                    let region = plan.slot_base(consumer) + slot;
                    barriers[region as usize] = Some(rt.create_barrier(1).id);
                }
            }
        }
        let barriers = Arc::new(barriers);
        let sinks = Sinks::new(plan);

        // Precompute each shard's launchers (the shard task's "schedule its
        // assigned part of the task graph" work), then must-epoch launch
        // the shard tasks which submit them.
        let shard_tasks = (0..plan.num_shards())
            .map(|shard| {
                let launchers: Vec<TaskLauncher> = plan
                    .local(ShardId(shard))
                    .iter()
                    .map(|&ix| build_task_launcher(plan, ix, registry, &barriers, &sinks, shard))
                    .collect();
                TaskLauncher::new(
                    "spmd-shard",
                    Box::new(move |ctx| {
                        for l in launchers {
                            ctx.launch(l);
                        }
                    }),
                )
            })
            .collect();
        rt.must_epoch_launch(shard_tasks);
        finish(&rt, plan, &sinks)
    }

    fn name(&self) -> &'static str {
        "legion-spmd"
    }
}
