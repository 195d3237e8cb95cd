//! In-situ coupling: the deployment model the paper describes for MPI
//! host applications.
//!
//! "In practice, the in-situ coupling to a host application would be
//! handled according to each runtime's execution model. For example, in
//! MPI the graph is split across the ranks, and each rank instantiates
//! only its assigned subgraph. Similarly, the subgraph requires only data
//! local to the specific rank. Then, each MPI rank instantiates a
//! controller that executes the local graph."
//!
//! [`InSituWorld`] implements exactly that: the host application (here,
//! one thread per simulation rank) takes one [`InSituRank`] endpoint per
//! rank; each rank hands over *its own* blocks and drives its local
//! subgraph, with no global gather of inputs. The post-processing style
//! [`MpiController`](crate::MpiController) is a thin convenience wrapper
//! over the same per-rank execution.

use std::collections::BTreeMap;
use std::sync::Arc;

use babelflow_core::{
    ControllerError, InitialInputs, Payload, Pending, PlanTask, Registry, Result, RunStats,
    ShardId, ShardPlan, TaskGraph, TaskId, TaskMap,
};

use crate::comm::World;
use crate::controller::rank_main;
use crate::rank::run_rank;

/// A dataflow world prepared for in-situ coupling.
pub struct InSituWorld {
    registry: Arc<Registry>,
    /// Built once here; every rank executes from the shared plan without
    /// touching the procedural graph again.
    plan: Arc<ShardPlan>,
    workers_per_rank: usize,
}

impl InSituWorld {
    /// Prepare a dataflow for the given graph, placement, and callbacks.
    pub fn new(graph: Arc<dyn TaskGraph>, map: Arc<dyn TaskMap>, registry: Registry) -> Self {
        let plan = Arc::new(ShardPlan::build(&*graph, &*map));
        InSituWorld { registry: Arc::new(registry), plan, workers_per_rank: 2 }
    }

    /// Set the per-rank worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker per rank");
        self.workers_per_rank = workers;
        self
    }

    /// Split into one endpoint per rank (as many as the task map has
    /// shards). Hand each to the host application thread that owns that
    /// rank's data.
    pub fn into_ranks(self) -> Vec<InSituRank> {
        let mut world = World::new(self.plan.num_shards() as usize);
        world
            .endpoints()
            .into_iter()
            .map(|ep| InSituRank {
                ep,
                registry: self.registry.clone(),
                plan: self.plan.clone(),
                workers: self.workers_per_rank,
            })
            .collect()
    }
}

/// One rank's endpoint into an in-situ dataflow.
pub struct InSituRank {
    ep: crate::comm::RankComm,
    registry: Arc<Registry>,
    plan: Arc<ShardPlan>,
    workers: usize,
}

impl InSituRank {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.ep.rank()
    }

    /// The input tasks assigned to this rank — the tasks this rank must
    /// supply local simulation data for.
    pub fn local_input_tasks(&self) -> Vec<TaskId> {
        let local = self.plan.local(ShardId(self.rank() as u32)).iter();
        let tasks = local.map(|&ix| self.plan.task(ix)).filter(|pt| pt.external_inputs > 0);
        tasks.map(PlanTask::id).collect()
    }

    /// Execute this rank's subgraph, feeding `local_inputs` (payloads for
    /// exactly the tasks [`Self::local_input_tasks`] lists). Blocks until
    /// the rank's portion of the dataflow drains; returns the external
    /// outputs produced by tasks on this rank.
    ///
    /// All ranks of the world must call `run` (from their own threads) for
    /// the dataflow to complete. Input for a task another rank owns is an
    /// error: in-situ ranks only supply their own data.
    pub fn run(
        self,
        local_inputs: InitialInputs,
    ) -> Result<(BTreeMap<TaskId, Vec<Payload>>, RunStats)> {
        let plan = &*self.plan;
        run_rank(self.ep, |rel| {
            let mut pending = Pending::local(plan, ShardId(rel.rank() as u32));
            for (task, payloads) in local_inputs {
                let ix = plan.index_of(task).ok_or_else(|| {
                    ControllerError::Runtime(format!("initial input for unknown task {task}"))
                })?;
                pending.deliver_initial(ix, payloads.into_iter())?;
            }
            rank_main(
                rel,
                plan,
                &self.registry,
                pending,
                self.workers,
                &crate::comm::FaultPlan::none(),
                &babelflow_core::NoopSink,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use babelflow_core::{
        canonical_outputs, run_serial, Blob, CallbackId, ControllerError, ModuloMap, PayloadData,
        RunReport,
    };
    use babelflow_graphs::Reduction;

    use super::*;

    fn pay(v: u64) -> Payload {
        Payload::wrap(Blob(v.to_le_bytes().to_vec()))
    }

    fn val(p: &Payload) -> u64 {
        u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
    }

    fn sum_registry() -> Registry {
        let mut r = Registry::new();
        r.register(CallbackId(0), |inputs, _| vec![inputs[0].clone()]);
        r.register(CallbackId(1), |inputs, _| vec![pay(inputs.iter().map(val).sum())]);
        r.register(CallbackId(2), |inputs, _| vec![pay(inputs.iter().map(val).sum())]);
        r
    }

    #[test]
    fn per_rank_feeding_matches_post_process_run() {
        let graph = Arc::new(Reduction::new(16, 2));
        let map = Arc::new(ModuloMap::new(4, babelflow_core::TaskGraph::size(&*graph) as u64));
        let reg = sum_registry();

        // Reference: post-process style with globally gathered inputs.
        let all_inputs: HashMap<TaskId, Vec<Payload>> = graph
            .leaf_ids()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, vec![pay(i as u64 * 3)]))
            .collect();
        let serial = run_serial(&*graph, &reg, all_inputs.clone()).unwrap();

        // In-situ: each "simulation rank" supplies only its local blocks.
        let world = InSituWorld::new(graph.clone(), map.clone(), sum_registry());
        let ranks = world.into_ranks();
        let outcome: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = ranks
                .into_iter()
                .map(|rank| {
                    let all = all_inputs.clone();
                    s.spawn(move || {
                        let local: InitialInputs = rank
                            .local_input_tasks()
                            .into_iter()
                            .map(|t| (t, all[&t].clone()))
                            .collect();
                        rank.run(local).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let mut report = RunReport::default();
        for (outputs, stats) in outcome {
            report.outputs.extend(outputs);
            report.stats.merge(&stats);
        }
        assert_eq!(canonical_outputs(&report), canonical_outputs(&serial));
        assert_eq!(report.stats.tasks_executed as usize, babelflow_core::TaskGraph::size(&*graph));
    }

    #[test]
    fn foreign_inputs_are_rejected() {
        let graph = Arc::new(Reduction::new(4, 2));
        let map = Arc::new(ModuloMap::new(2, babelflow_core::TaskGraph::size(&*graph) as u64));
        let world = InSituWorld::new(graph.clone(), map, sum_registry());
        let mut ranks = world.into_ranks();
        let r1 = ranks.pop().unwrap();
        let r0 = ranks.pop().unwrap();
        // Rank 0 tries to feed a leaf owned by rank 1.
        let foreign = r1.local_input_tasks()[0];
        let mut inputs = HashMap::new();
        inputs.insert(foreign, vec![pay(1)]);
        let err = r0.run(inputs).unwrap_err();
        assert!(matches!(err, ControllerError::Runtime(_)), "got {err}");
        drop(r1);
    }

    #[test]
    fn an_extra_payload_for_an_input_task_is_refused() {
        let graph = Arc::new(Reduction::new(4, 2));
        let map = Arc::new(ModuloMap::new(1, babelflow_core::TaskGraph::size(&*graph) as u64));
        let rank = InSituWorld::new(graph.clone(), map, sum_registry()).into_ranks().remove(0);
        let leaf = rank.local_input_tasks()[0];
        let inputs: InitialInputs = rank
            .local_input_tasks()
            .into_iter()
            .map(|t| (t, if t == leaf { vec![pay(1), pay(2)] } else { vec![pay(1)] }))
            .collect();
        let err = rank.run(inputs).unwrap_err();
        assert!(
            matches!(err, ControllerError::BadInitialInputs { task, expected: 1, got: 2 }
                if task == leaf),
            "got {err}"
        );
    }

    #[test]
    fn local_input_tasks_partition_the_inputs() {
        let graph = Arc::new(Reduction::new(8, 2));
        let map = Arc::new(ModuloMap::new(3, babelflow_core::TaskGraph::size(&*graph) as u64));
        let world = InSituWorld::new(graph.clone(), map, sum_registry());
        let ranks = world.into_ranks();
        let mut seen: Vec<TaskId> = ranks.iter().flat_map(|r| r.local_input_tasks()).collect();
        seen.sort();
        let mut expected = babelflow_core::TaskGraph::input_tasks(&*graph);
        expected.sort();
        assert_eq!(seen, expected);
        // Exercise Blob's PayloadData path for coverage symmetry.
        let _ = Blob(vec![1]).encode();
    }
}
