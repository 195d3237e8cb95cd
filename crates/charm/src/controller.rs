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

use babelflow_core::sync::Mutex;
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
/// callback when complete, then retires. It borrows the plan, its
/// callback and the run's error slot, so creating and retiring chares
/// writes no shared reference count; its PE counts its retries and
/// payload clones.
struct TaskChare<'a> {
    buffer: PlanBuffer,
    plan: &'a ShardPlan,
    callback: &'a Callback,
    error: &'a ErrorSink,
}

/// The first error of the run.
type ErrorSink = Mutex<Option<ControllerError>>;

/// Keep the first error of the run.
fn fail(error: &ErrorSink, err: ControllerError) {
    error.lock().get_or_insert(err);
}

impl Chare for TaskChare<'_> {
    fn on_message(&mut self, src: TaskId, payload: Payload, ctx: &mut ChareCtx<'_>) -> bool {
        let pt = self.plan.task(self.buffer.ix());
        if !self.buffer.deliver(pt, src, payload) {
            let err = ControllerError::Runtime(format!("unexpected delivery {src} -> {}", pt.id()));
            fail(self.error, err);
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
        // cooperation from the runtime's messaging layer. The chare
        // retires after this, so its spent buffer is never refilled.
        let inputs = self.buffer.take();
        let mut stats = RunStats::default();
        let (row, sink) = ((ctx.pe() as u32, 0), ctx.trace_sink());
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
        let result = exec(pt, self.callback, &inputs, row, sink, &mut stats, send);
        ctx.count(stats.perf.payload_clones, stats.recovery.retries);
        if let Err(err) = result {
            fail(self.error, err);
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
        let error = ErrorSink::default();

        let plan: &ShardPlan = plan;
        let factory = |idx: u64| -> Box<dyn Chare + '_> {
            let ix = plan.index_of(TaskId(idx)).expect("chare index is a task id");
            let callback =
                registry.get(plan.task(ix).callback()).expect("preflight checked bindings");
            let buffer = PlanBuffer::new(plan, ix);
            Box::new(TaskChare { buffer, plan, callback, error: &error })
        };

        let mut bootstrap = Vec::new();
        for (task, payloads) in initial {
            for p in payloads {
                bootstrap.push((task.0, TaskId::EXTERNAL, p));
            }
        }

        let rt = CharmRuntime::new(self.pes).with_sink(sink);
        let result = rt.run(&indices, factory, bootstrap);

        if let Some(err) = error.into_inner() {
            return Err(err);
        }

        let (outputs, stats) = result?;
        let mut report = RunReport { outputs, ..RunReport::default() };
        report.stats.tasks_executed = stats.retired;
        report.stats.local_messages = stats.local_messages;
        report.stats.remote_messages = stats.cross_pe_messages;
        report.stats.recovery.retries = stats.retries;
        report.stats.perf.payload_clones = stats.payload_clones;
        report.stats.perf.add_pool(&stats.pool);
        Ok(report)
    }

    fn name(&self) -> &'static str {
        "charm"
    }
}
