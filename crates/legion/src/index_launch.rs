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

use std::collections::VecDeque;
use std::sync::Arc;

use babelflow_core::trace::TraceSink;
use babelflow_core::{Controller, InitialInputs, Registry, Result, RunReport, ShardPlan};

use crate::runtime::LegionRuntime;
use crate::spmd::{build_task_launcher, finish, map_regions, Sinks};

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

/// Crawl the plan into rounds of non-interfering tasks, as plan indices:
/// round = longest path from any source, so every dependency points to an
/// earlier round. A task with an input no producer ever fills (a lenient
/// plan's dangling edge, or a cycle) is in no round; the controller
/// reports it as pending.
pub fn crawl_rounds(plan: &ShardPlan) -> Vec<Vec<u32>> {
    let tasks = plan.tasks();
    let mut unmet: Vec<usize> = tasks.iter().map(|pt| pt.fan_in() - pt.external_inputs).collect();
    let mut round = vec![0usize; tasks.len()];
    let mut queue: VecDeque<u32> =
        (0..tasks.len() as u32).filter(|&ix| unmet[ix as usize] == 0).collect();
    let mut rounds: Vec<Vec<u32>> = Vec::new();
    while let Some(ix) = queue.pop_front() {
        let r = round[ix as usize];
        if rounds.len() <= r {
            rounds.resize_with(r + 1, Vec::new);
        }
        rounds[r].push(ix);
        for route in tasks[ix as usize].routes.iter().flatten() {
            let Some((consumer, _)) = route.input else { continue };
            let c = consumer as usize;
            round[c] = round[c].max(r + 1);
            unmet[c] -= 1;
            if unmet[c] == 0 {
                queue.push_back(consumer);
            }
        }
    }
    for r in &mut rounds {
        r.sort_unstable();
    }
    rounds
}

impl Controller for LegionIndexLaunchController {
    fn execute(
        &mut self,
        plan: &Arc<ShardPlan>,
        registry: &Registry,
        initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        let rt = LegionRuntime::with_sink(self.workers, sink);
        map_regions(&rt, plan, initial);
        let no_barriers = Arc::new(Vec::new());
        let sinks = Sinks::new(plan);

        // One index launch per round, all staged by this (parent) thread.
        // No task map: every point runs on "rank" 0.
        for round in crawl_rounds(plan) {
            rt.index_launch("round", round.len() as u64, |p| {
                build_task_launcher(plan, round[p as usize], registry, &no_barriers, &sinks, 0)
            });
        }
        finish(&rt, plan, &sinks)
    }

    fn name(&self) -> &'static str {
        "legion-index-launch"
    }
}
