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
//! `TaskMap` is ignored; dependencies between rounds flow through regions.
//! All per-point staging work runs on the top-level thread — the
//! parent-pays overhead that limits this controller's scalability (Figs. 2
//! and 3).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use babelflow_core::trace::TraceSink;
use babelflow_core::{
    Controller, InitialInputs, Registry, Result, RunReport, ShardPlan, Task, TaskGraph, TaskId,
};

use crate::runtime::LegionRuntime;
use crate::spmd::{attach_inputs, build_task_launcher, finish, Sinks};

/// Legion-style index-launch controller.
#[derive(Clone, Debug)]
pub struct LegionIndexLaunchController {
    /// Worker threads executing launched tasks.
    pub workers: usize,
    /// Stall-detection timeout.
    pub timeout: Duration,
}

impl LegionIndexLaunchController {
    /// Controller executing on `workers` threads.
    pub fn new(workers: usize) -> Self {
        LegionIndexLaunchController { workers, timeout: Duration::from_secs(10) }
    }

    /// Set the stall-detection timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }
}

/// Crawl the graph into rounds of non-interfering tasks: round = longest
/// path from any source, so every dependency points to an earlier round.
pub fn crawl_rounds(graph: &dyn TaskGraph) -> Vec<Vec<TaskId>> {
    let ids = graph.ids();
    let tasks: HashMap<TaskId, Task> =
        ids.iter().filter_map(|&id| graph.task(id).map(|t| (id, t))).collect();
    crawl_rounds_from(&tasks)
}

/// Crawl an already-materialized plan into rounds — the steady-state path:
/// no procedural graph queries.
fn plan_rounds(plan: &ShardPlan) -> Vec<Vec<TaskId>> {
    let tasks: HashMap<TaskId, Task> =
        plan.tasks().iter().map(|pt| (pt.id(), pt.task.clone())).collect();
    crawl_rounds_from(&tasks)
}

fn crawl_rounds_from(tasks: &HashMap<TaskId, Task>) -> Vec<Vec<TaskId>> {
    let mut indegree: HashMap<TaskId, usize> = tasks
        .values()
        .map(|t| (t.id, t.incoming.iter().filter(|s| !s.is_external()).count()))
        .collect();
    let mut round_of: HashMap<TaskId, usize> = HashMap::new();
    let mut frontier: Vec<TaskId> = indegree
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&id, _)| id)
        .collect();
    frontier.sort();
    let mut queue: std::collections::VecDeque<TaskId> = frontier.into();
    while let Some(id) = queue.pop_front() {
        let my_round = *round_of.entry(id).or_insert(0);
        for dsts in &tasks[&id].outgoing {
            for &dst in dsts {
                if dst.is_external() {
                    continue;
                }
                let r = round_of.entry(dst).or_insert(0);
                *r = (*r).max(my_round + 1);
                let d = indegree.get_mut(&dst).expect("edge target exists");
                *d -= 1;
                if *d == 0 {
                    queue.push_back(dst);
                }
            }
        }
    }
    let n_rounds = round_of.values().copied().max().map_or(0, |m| m + 1);
    let mut rounds = vec![Vec::new(); n_rounds];
    for (&id, &r) in &round_of {
        rounds[r].push(id);
    }
    for r in &mut rounds {
        r.sort();
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
        attach_inputs(&rt, plan, &initial);

        let no_barriers = Arc::new(HashMap::new());
        let sinks = Arc::new(Sinks::default());

        // One index launch per round, all staged by this (parent) thread.
        for round in &plan_rounds(plan) {
            // No task map: every point runs on "rank" 0.
            let mut launchers: Vec<Option<_>> = round
                .iter()
                .map(|&id| {
                    let ix = plan.index_of(id).expect("round ids are tasks");
                    Some(build_task_launcher(plan, ix, registry, &no_barriers, &sinks, 0))
                })
                .collect();
            rt.index_launch("round", round.len() as u64, |p| {
                launchers[p as usize].take().expect("each point launched once")
            });
        }
        finish(&rt, self.timeout, plan, &sinks)
    }

    fn name(&self) -> &'static str {
        "legion-index-launch"
    }
}
