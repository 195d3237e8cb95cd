//! The Charm++ controller — §IV-B of the paper.
//!
//! "The Charm++ runtime controller implements the tasks as chares. […] The
//! tasks in the task graph are mapped to a collection of chares called a
//! chare array. […] no explicit task map is needed. […] Unlike the MPI and
//! Legion implementation, Charm++ does not explicitly instantiate any local
//! or global task graph. Instead, the chare id is translated into a task id
//! at the execution time of a chare, […] and the communication between
//! chares uses remote procedure calls."
//!
//! Accordingly this controller ignores the user's `TaskMap` for placement
//! (the runtime places chares itself, statically by index), creates one
//! chare per task with chare index == task id, and starts the dataflow by
//! delivering the initial payloads to the input chares. Graph structure
//! comes from a [`ShardPlan`] built once up front, so chare construction
//! and routing never re-query the procedural graph.

use std::sync::Arc;

use babelflow_core::sync::Counter;
use babelflow_core::trace::TraceSink;
use babelflow_core::{
    exec, Callback, Controller, ControllerError, InitialInputs, Payload, PlanBuffer, Registry,
    Result, RunReport, RunStats, ShardPlan, TaskId,
};

use crate::runtime::{Chare, ChareCtx, CharmRuntime};

/// Charm++-style controller: tasks as chares, placed statically over
/// processing elements and run message-driven.
#[derive(Clone, Debug)]
pub struct CharmController {
    /// Processing elements (worker threads) to schedule chares on.
    pub pes: usize,
}

impl CharmController {
    /// Controller over `pes` processing elements.
    pub fn new(pes: usize) -> Self {
        CharmController { pes }
    }
}

/// A task graph node hosted as a chare: buffers inputs, executes its
/// callback when complete, then retires.
struct TaskChare {
    buffer: PlanBuffer,
    plan: Arc<ShardPlan>,
    callback: Callback,
    error: ErrorSink,
    /// Shared retry counter, surfaced as `RunStats::recovery.retries`.
    retries: Arc<Counter>,
    /// Shared payload-clone counter, surfaced as `PerfStats::payload_clones`.
    clones: Arc<Counter>,
}

type ErrorSink = std::sync::Arc<babelflow_core::sync::Mutex<Option<ControllerError>>>;

/// Keep the first error of the run.
fn fail(error: &ErrorSink, err: ControllerError) {
    error.lock().get_or_insert(err);
}

impl Chare for TaskChare {
    fn on_message(&mut self, src: TaskId, payload: Payload, ctx: &mut ChareCtx<'_>) -> bool {
        let ix = self.buffer.ix();
        let pt = self.plan.task(ix);
        if !self.buffer.deliver(pt, src, payload) {
            let err = ControllerError::Runtime(format!("unexpected delivery {src} -> {}", pt.id()));
            fail(&self.error, err);
            // Retire so the run drains instead of stalling on a poisoned
            // chare; the error sink carries the real failure out.
            return true;
        }
        if !self.buffer.ready() {
            return false;
        }
        // Execute: translate the chare id back into a task and run it.
        // Chares re-execute a faulted entry method in place: inputs are
        // retained until the callback succeeds, so recovery needs no
        // cooperation from the runtime's messaging layer.
        let buffer = std::mem::replace(&mut self.buffer, PlanBuffer::new(&self.plan, ix));
        let inputs = buffer.take();
        let mut stats = RunStats::default();
        let ctx = &*ctx;
        let send = |outs: Vec<Payload>, stats: &mut RunStats| -> Result<()> {
            for (slot, payload) in outs.into_iter().enumerate() {
                for route in &pt.routes[slot] {
                    stats.perf.payload_clones += 1;
                    if route.is_external() {
                        ctx.emit_external(pt.id(), payload.clone());
                    } else {
                        ctx.send(route.dst.0, pt.id(), payload.clone());
                    }
                }
            }
            Ok(())
        };
        let row = (ctx.pe() as u32, 0);
        let result = exec(pt, &self.callback, &inputs, row, ctx.trace_sink(), &mut stats, send);
        self.clones.fetch_add(stats.perf.payload_clones);
        self.retries.fetch_add(stats.recovery.retries);
        if let Err(err) = result {
            fail(&self.error, err);
        }
        true
    }
}

impl Controller for CharmController {
    fn execute(
        &mut self,
        plan: &Arc<ShardPlan>,
        registry: &Registry,
        initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        let indices: Vec<u64> = plan.tasks().iter().map(|pt| pt.id().0).collect();
        let error: ErrorSink = Default::default();
        let retries = Arc::new(Counter::new(0));
        let clones = Arc::new(Counter::new(0));

        let factory = {
            let error = error.clone();
            let retries = retries.clone();
            let clones = clones.clone();
            let plan = plan.clone();
            move |idx: u64| -> Box<dyn Chare> {
                let ix = plan.index_of(TaskId(idx)).expect("chare index is a task id");
                let pt = plan.task(ix);
                let callback =
                    registry.get(pt.callback()).expect("preflight checked bindings").clone();
                Box::new(TaskChare {
                    buffer: PlanBuffer::new(&plan, ix),
                    plan: plan.clone(),
                    callback,
                    error: error.clone(),
                    retries: retries.clone(),
                    clones: clones.clone(),
                })
            }
        };

        let mut bootstrap = Vec::new();
        for (task, payloads) in initial {
            for p in payloads {
                bootstrap.push((task.0, TaskId::EXTERNAL, p));
            }
        }

        let rt = CharmRuntime::new(self.pes).with_sink(sink);
        let result = rt.run(&indices, factory, bootstrap);

        if let Some(err) = error.lock().take() {
            return Err(err);
        }

        let (outputs, stats) = result?;
        let mut report = RunReport { outputs, ..RunReport::default() };
        report.stats.tasks_executed = stats.retired;
        report.stats.local_messages = stats.local_messages;
        report.stats.remote_messages = stats.cross_pe_messages;
        report.stats.recovery.retries = retries.get();
        report.stats.perf.payload_clones = clones.get();
        Ok(report)
    }

    fn name(&self) -> &'static str {
        "charm"
    }
}
