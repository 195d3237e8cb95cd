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
use std::time::Duration;

use babelflow_core::{
    ControllerError, InitialInputs, Payload, Registry, Result, RunStats, ShardId, ShardPlan,
    TaskGraph, TaskId, TaskMap,
};

use crate::comm::World;
use crate::controller::{rank_main, DEFAULT_TIMEOUT};
use crate::rank::run_rank;

/// A dataflow world prepared for in-situ coupling.
pub struct InSituWorld {
    graph: Arc<dyn TaskGraph>,
    map: Arc<dyn TaskMap>,
    registry: Arc<Registry>,
    /// Built once here; every rank executes from the shared plan without
    /// touching the procedural graph again.
    plan: Arc<ShardPlan>,
    workers_per_rank: usize,
    timeout: Duration,
}

impl InSituWorld {
    /// Prepare a dataflow for the given graph, placement, and callbacks.
    pub fn new(graph: Arc<dyn TaskGraph>, map: Arc<dyn TaskMap>, registry: Registry) -> Self {
        let plan = Arc::new(ShardPlan::build(&*graph, &*map));
        InSituWorld {
            graph,
            map,
            registry: Arc::new(registry),
            plan,
            workers_per_rank: 2,
            timeout: DEFAULT_TIMEOUT,
        }
    }

    /// Set the per-rank worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker per rank");
        self.workers_per_rank = workers;
        self
    }

    /// Set the stall-detection timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Split into one endpoint per rank (as many as the task map has
    /// shards). Hand each to the host application thread that owns that
    /// rank's data.
    pub fn into_ranks(self) -> Vec<InSituRank> {
        let n = self.map.num_shards() as usize;
        let mut world = World::new(n);
        world
            .endpoints()
            .into_iter()
            .map(|ep| InSituRank {
                ep,
                graph: self.graph.clone(),
                map: self.map.clone(),
                registry: self.registry.clone(),
                plan: self.plan.clone(),
                workers: self.workers_per_rank,
                timeout: self.timeout,
            })
            .collect()
    }
}

/// One rank's endpoint into an in-situ dataflow.
pub struct InSituRank {
    ep: crate::comm::RankComm,
    graph: Arc<dyn TaskGraph>,
    map: Arc<dyn TaskMap>,
    registry: Arc<Registry>,
    plan: Arc<ShardPlan>,
    workers: usize,
    timeout: Duration,
}

impl InSituRank {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.ep.rank()
    }

    /// The input tasks assigned to this rank — the tasks this rank must
    /// supply local simulation data for.
    pub fn local_input_tasks(&self) -> Vec<TaskId> {
        let me = ShardId(self.rank() as u32);
        self.graph
            .input_tasks()
            .into_iter()
            .filter(|&t| self.map.shard(t) == me)
            .collect()
    }

    /// Execute this rank's subgraph, feeding `local_inputs` (payloads for
    /// exactly the tasks [`Self::local_input_tasks`] lists). Blocks until
    /// the rank's portion of the dataflow drains; returns the external
    /// outputs produced by tasks on this rank.
    ///
    /// All ranks of the world must call `run` (from their own threads) for
    /// the dataflow to complete.
    pub fn run(
        self,
        local_inputs: InitialInputs,
    ) -> Result<(BTreeMap<TaskId, Vec<Payload>>, RunStats)> {
        // Validate locality: in-situ ranks only supply their own data.
        let me = ShardId(self.rank() as u32);
        for task in local_inputs.keys() {
            if self.map.shard(*task) != me {
                return Err(ControllerError::Runtime(format!(
                    "rank {} supplied input for task {task} owned by {}",
                    self.rank(),
                    self.map.shard(*task)
                )));
            }
        }
        run_rank(self.ep, self.timeout, |rel| {
            rank_main(
                rel,
                &self.plan,
                &self.registry,
                local_inputs,
                self.workers,
                self.timeout,
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
        canonical_outputs, run_serial, Blob, CallbackId, ModuloMap, PayloadData, RunReport,
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
        let world = InSituWorld::new(graph.clone(), map, sum_registry())
            .with_timeout(Duration::from_millis(200));
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
