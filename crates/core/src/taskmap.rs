//! Task maps: assignment of tasks to shards.
//!
//! "The MPI and some version of the Legion controller use the concept of a
//! task map that, given an MPI rank or a shard, provides a list of tasks
//! assigned to it." The two directions must agree:
//! `map.tasks(s).contains(t) ⇔ map.shard(t) == s` — a property the tests in
//! this module and the proptest suite enforce for every implementation.

use crate::ids::{ShardId, TaskId};

/// Assignment of task ids to shards.
pub trait TaskMap: Send + Sync {
    /// The shard the given task runs on.
    fn shard(&self, task: TaskId) -> ShardId;

    /// All tasks assigned to the given shard.
    fn tasks(&self, shard: ShardId) -> Vec<TaskId>;

    /// Number of shards tasks are distributed over.
    fn num_shards(&self) -> u32;
}

impl<M: TaskMap + ?Sized> TaskMap for &M {
    fn shard(&self, task: TaskId) -> ShardId {
        (**self).shard(task)
    }
    fn tasks(&self, shard: ShardId) -> Vec<TaskId> {
        (**self).tasks(shard)
    }
    fn num_shards(&self) -> u32 {
        (**self).num_shards()
    }
}

impl<M: TaskMap + ?Sized> TaskMap for std::sync::Arc<M> {
    fn shard(&self, task: TaskId) -> ShardId {
        (**self).shard(task)
    }
    fn tasks(&self, shard: ShardId) -> Vec<TaskId> {
        (**self).tasks(shard)
    }
    fn num_shards(&self) -> u32 {
        (**self).num_shards()
    }
}

/// Round-robin assignment by `task_id % shard_count` — Listing 3 of the
/// paper, for densely numbered graphs.
#[derive(Clone, Debug)]
pub struct ModuloMap {
    shard_count: u32,
    task_count: u64,
}

impl ModuloMap {
    /// Map `task_count` dense task ids over `shard_count` shards.
    ///
    /// # Panics
    /// If `shard_count` is zero.
    pub fn new(shard_count: u32, task_count: u64) -> Self {
        assert!(shard_count > 0, "ModuloMap needs at least one shard");
        ModuloMap { shard_count, task_count }
    }
}

impl TaskMap for ModuloMap {
    fn shard(&self, task: TaskId) -> ShardId {
        ShardId((task.0 % self.shard_count as u64) as u32)
    }

    fn tasks(&self, shard: ShardId) -> Vec<TaskId> {
        let mut back = Vec::new();
        let mut t = shard.0 as u64;
        while t < self.task_count {
            back.push(TaskId(t));
            t += self.shard_count as u64;
        }
        back
    }

    fn num_shards(&self) -> u32 {
        self.shard_count
    }
}

/// Contiguous block assignment: shard `s` owns tasks
/// `[s*ceil(n/p), (s+1)*ceil(n/p))`. Keeps id-adjacent tasks co-located,
/// which suits graphs whose communication is between nearby ids.
#[derive(Clone, Debug)]
pub struct BlockMap {
    shard_count: u32,
    task_count: u64,
    block: u64,
}

impl BlockMap {
    /// Map `task_count` dense ids in contiguous blocks over `shard_count`
    /// shards.
    ///
    /// # Panics
    /// If `shard_count` is zero.
    pub fn new(shard_count: u32, task_count: u64) -> Self {
        assert!(shard_count > 0, "BlockMap needs at least one shard");
        let block = task_count.div_ceil(shard_count as u64).max(1);
        BlockMap { shard_count, task_count, block }
    }
}

impl TaskMap for BlockMap {
    fn shard(&self, task: TaskId) -> ShardId {
        ShardId(((task.0 / self.block).min(self.shard_count as u64 - 1)) as u32)
    }

    fn tasks(&self, shard: ShardId) -> Vec<TaskId> {
        let lo = shard.0 as u64 * self.block;
        let hi = if shard.0 == self.shard_count - 1 {
            self.task_count
        } else {
            ((shard.0 as u64 + 1) * self.block).min(self.task_count)
        };
        (lo..hi).map(TaskId).collect()
    }

    fn num_shards(&self) -> u32 {
        self.shard_count
    }
}

/// Arbitrary assignment provided as an explicit function over an explicit
/// id list. This is what composed graphs with non-contiguous id spaces use.
pub struct FnMap {
    shard_count: u32,
    ids: Vec<TaskId>,
    assign: Box<dyn Fn(TaskId) -> ShardId + Send + Sync>,
}

impl FnMap {
    /// Build from the graph's id list and an assignment function.
    ///
    /// # Panics
    /// If `shard_count` is zero, or `assign` maps any id outside
    /// `0..shard_count`.
    pub fn new(
        shard_count: u32,
        ids: Vec<TaskId>,
        assign: impl Fn(TaskId) -> ShardId + Send + Sync + 'static,
    ) -> Self {
        assert!(shard_count > 0, "FnMap needs at least one shard");
        for &id in &ids {
            let s = assign(id);
            assert!(s.0 < shard_count, "task {id} assigned to out-of-range {s}");
        }
        FnMap { shard_count, ids, assign: Box::new(assign) }
    }
}

impl TaskMap for FnMap {
    fn shard(&self, task: TaskId) -> ShardId {
        (self.assign)(task)
    }

    fn tasks(&self, shard: ShardId) -> Vec<TaskId> {
        self.ids
            .iter()
            .copied()
            .filter(|&id| (self.assign)(id) == shard)
            .collect()
    }

    fn num_shards(&self) -> u32 {
        self.shard_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ExplicitGraph;
    use crate::ids::CallbackId;
    use crate::lint::lint_graph;
    use crate::task::Task;

    fn dense(n: u64) -> Vec<TaskId> {
        (0..n).map(TaskId).collect()
    }

    /// Whether the map's two directions agree over `ids`: a graph of
    /// edgeless tasks with those ids lints clean under it.
    fn consistent(map: &dyn TaskMap, ids: &[TaskId]) -> bool {
        let tasks = ids.iter().map(|&id| Task::new(id, CallbackId(0))).collect();
        let rep = lint_graph(&ExplicitGraph::new(tasks, vec![CallbackId(0)]), map);
        rep.is_empty()
    }

    #[test]
    fn modulo_matches_listing3() {
        let m = ModuloMap::new(3, 10);
        assert_eq!(m.shard(TaskId(0)), ShardId(0));
        assert_eq!(m.shard(TaskId(4)), ShardId(1));
        assert_eq!(m.tasks(ShardId(1)), vec![TaskId(1), TaskId(4), TaskId(7)]);
        assert!(consistent(&m, &dense(10)));
    }

    #[test]
    fn modulo_more_shards_than_tasks() {
        let m = ModuloMap::new(8, 3);
        assert_eq!(m.tasks(ShardId(5)), Vec::<TaskId>::new());
        assert!(consistent(&m, &dense(3)));
    }

    #[test]
    fn block_covers_all_tasks_once() {
        for (p, n) in [(1u32, 7u64), (3, 7), (7, 7), (4, 16), (5, 3)] {
            let m = BlockMap::new(p, n);
            let mut all: Vec<TaskId> =
                (0..p).flat_map(|s| m.tasks(ShardId(s))).collect();
            all.sort();
            assert_eq!(all, dense(n), "p={p} n={n}");
            assert!(consistent(&m, &dense(n)), "p={p} n={n}");
        }
    }

    #[test]
    fn block_is_contiguous() {
        let m = BlockMap::new(3, 10);
        for s in 0..3 {
            let ts = m.tasks(ShardId(s));
            for w in ts.windows(2) {
                assert_eq!(w[1].0, w[0].0 + 1);
            }
        }
    }

    #[test]
    fn fn_map_with_sparse_ids() {
        let ids = vec![TaskId(100), TaskId(200), TaskId(4096)];
        let m = FnMap::new(2, ids.clone(), |t| ShardId((t.0 / 200) as u32 % 2));
        assert!(consistent(&m, &ids));
        assert_eq!(m.shard(TaskId(100)), ShardId(0));
        assert_eq!(m.shard(TaskId(200)), ShardId(1));
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn fn_map_rejects_out_of_range() {
        FnMap::new(2, vec![TaskId(0)], |_| ShardId(5));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn modulo_rejects_zero_shards() {
        ModuloMap::new(0, 1);
    }
}
