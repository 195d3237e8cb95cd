//! The Legion index-launch controller — the paper's second Legion variant.
//!
//! "Index launches require the task graph to be organized in a set of
//! rounds of similar tasks, all of which can then be processed using a
//! single index launch. The current implementation crawls the graph to
//! group the tasks into rounds of noninterfering tasks, i.e., those that do
//! not have dependencies between tasks of the same round. For each round,
//! an index task launcher will be executed, mapping the necessary outputs
//! of the previous launch with the inputs of the next."
//!
//! "Neither phase barriers nor task maps are required": the user's
//! `TaskMap` is ignored; dependencies between rounds flow through the
//! regions, one per consumer input slot of the plan. The crawl runs over
//! the plan's dense indices and resolved routes. All per-point staging
//! work runs on the top-level thread — the parent-pays overhead that
//! limits this controller's scalability (Figs. 2 and 3).

use std::sync::Arc;

use babelflow_core::trace::TraceSink;
use babelflow_core::{Bindings, Controller, Result, RunReport, ShardPlan};

use crate::runtime::LegionRuntime;
use crate::spmd::{finish, map_regions, requirements};

/// Legion-style index-launch controller.
#[derive(Clone, Debug)]
pub struct LegionIndexLaunchController {
    /// Worker threads executing launched tasks.
    pub workers: usize,
}

impl LegionIndexLaunchController {
    /// Controller executing on `workers` threads.
    pub fn new(workers: usize) -> Self {
        LegionIndexLaunchController { workers }
    }
}

/// One index-launch run on `rt`: one index launch per round of
/// [`ShardPlan::rounds`], all staged by this (parent) thread. A task in no
/// round is reported as pending. No task map: every point runs on
/// "rank" 0.
pub(crate) fn run(rt: &LegionRuntime<u32>, plan: &ShardPlan, bound: Bindings) -> Result<RunReport> {
    map_regions(rt, plan, bound.inputs);
    for round in plan.rounds() {
        let mut batch = rt.launch_batch();
        for &ix in round {
            let (reads, waits) = requirements(plan, ix, &[]);
            batch.launch(ix, reads, waits);
        }
    }
    finish(rt, plan, &bound.callbacks, &[], false)
}

impl Controller for LegionIndexLaunchController {
    fn execute(
        &mut self,
        plan: &Arc<ShardPlan>,
        bound: Bindings,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        run(&LegionRuntime::with_sink(self.workers, sink), plan, bound)
    }

    fn name(&self) -> &'static str {
        "legion-index-launch"
    }
}
