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
//! (the runtime places chares itself, statically by id), creates one
//! chare per task with chare id == task id and chare index == plan index,
//! and starts the dataflow by delivering the initial payloads to the
//! input chares. Graph structure comes from a [`ShardPlan`] built once up
//! front, so chare construction and routing never re-query the procedural
//! graph: a chare sends to the plan index and input slot its route's
//! [`input`](babelflow_core::Route::input) names.

use std::sync::Arc;

use babelflow_core::exec::route_outputs;
use babelflow_core::sync::Mutex;
use babelflow_core::trace::TraceSink;
use babelflow_core::{
    exec, Bindings, Callbacks, Controller, ControllerError, Payload, PlanBuffer, Result,
    RunReport, RunStats, ShardPlan,
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
/// callback when complete, then retires. It borrows the plan, the run's
/// callbacks and the run's error slot, so creating and retiring chares
/// writes no shared reference count; its PE counts its retries and
/// payload clones.
struct TaskChare<'a> {
    buffer: PlanBuffer,
    plan: &'a ShardPlan,
    callbacks: &'a Callbacks,
    error: &'a ErrorSink,
}

/// The first error of the run.
type ErrorSink = Mutex<Option<ControllerError>>;

/// Keep the first error of the run.
fn fail(error: &ErrorSink, err: ControllerError) {
    error.lock().get_or_insert(err);
}

impl Chare for TaskChare<'_> {
    fn on_message(&mut self, slot: u32, payload: Payload, ctx: &mut ChareCtx<'_>) -> bool {
        let pt = self.plan.task(self.buffer.ix());
        match self.buffer.fill(pt, slot, payload) {
            Ok(true) => {}
            Ok(false) => return false,
            Err(err) => {
                fail(self.error, err);
                // Retire so the run drains instead of stalling on a
                // poisoned chare; the error sink carries the real failure
                // out.
                return true;
            }
        }
        // Execute: translate the chare id back into a task and run it.
        // Chares re-execute a faulted entry method in place: inputs are
        // retained until the callback succeeds, so recovery needs no
        // cooperation from the runtime's messaging layer. The chare
        // retires after this, so its spent buffer is never refilled.
        let inputs = self.buffer.take();
        let mut stats = RunStats::default();
        let (row, sink) = ((ctx.pe() as u32, 0), ctx.trace_sink());
        let result = exec(pt, self.callbacks, &inputs, row, sink, &mut stats, |outs, stats| {
            route_outputs(self.plan, pt, outs, stats, |route, payload, _| {
                match route.input {
                    Some(input) => ctx.send(input, pt.id(), payload),
                    None => ctx.emit_external(pt.id(), payload),
                }
                Ok(())
            })
        });
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
        run: Bindings,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        // The chare array in plan order: chare index == plan index.
        let ids: Vec<u64> = plan.tasks().iter().map(|pt| pt.id().0).collect();
        let error = ErrorSink::default();

        let plan: &ShardPlan = plan;
        let Bindings { callbacks, inputs } = run;
        let factory = |ix: u32| -> Box<dyn Chare + '_> {
            let buffer = PlanBuffer::new(plan, ix);
            Box::new(TaskChare { buffer, plan, callbacks: &callbacks, error: &error })
        };

        let mut bootstrap = Vec::new();
        for (ix, payloads) in inputs {
            let slots = plan.task(ix).external_slots().map(|slot| (ix, slot));
            bootstrap.extend(slots.zip(payloads));
        }

        let rt = CharmRuntime::new(self.pes).with_sink(sink);
        let result = rt.run(&ids, factory, bootstrap);

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
