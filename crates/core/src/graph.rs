//! The `TaskGraph` trait: procedural description of a dataflow.
//!
//! Task graphs "may contain millions of nodes. Therefore, fully
//! instantiating a graph on every core or node of a simulation is not
//! scalable. Instead, we typically rely on procedural descriptions, which
//! allow any part of the framework to query the global task graph." The
//! trait therefore exposes per-id queries; controllers instantiate only the
//! local subgraph assigned to their shard.

use std::collections::HashMap;

use crate::ids::{CallbackId, ShardId, TaskId};
use crate::task::Task;
use crate::taskmap::TaskMap;

/// Procedural description of a dataflow graph.
///
/// Implementors provide the two functions the paper's basic interface
/// requires — "compute the total number of tasks, and return a logical task
/// corresponding to a task id" — plus the list of callback ids the graph
/// uses. Everything else has default implementations.
pub trait TaskGraph: Send + Sync {
    /// Total number of tasks in the graph.
    fn size(&self) -> usize;

    /// The logical task with the given id, or `None` if no such task.
    fn task(&self, id: TaskId) -> Option<Task>;

    /// The callback ids (task types) this graph uses, in the conventional
    /// order the graph's documentation defines (e.g. a reduction exposes
    /// `[leaf, reduce, root]`).
    fn callback_ids(&self) -> Vec<CallbackId>;

    /// All task ids in the graph.
    ///
    /// The default assumes dense numbering `0..size()`; composed graphs with
    /// prefixed id spaces override this.
    fn ids(&self) -> Vec<TaskId> {
        (0..self.size() as u64).map(TaskId).collect()
    }

    /// The logical tasks assigned to `shard` under `map` (Listing 2's
    /// `localGraph`).
    fn local_graph(&self, shard: ShardId, map: &dyn TaskMap) -> Vec<Task> {
        map.tasks(shard)
            .into_iter()
            .filter_map(|id| self.task(id))
            .collect()
    }

    /// Tasks with at least one external input — where the host application
    /// hands data in.
    fn input_tasks(&self) -> Vec<TaskId> {
        self.ids()
            .into_iter()
            .filter(|&id| self.task(id).is_some_and(|t| t.has_external_input()))
            .collect()
    }

    /// Tasks with at least one external output — where results leave the
    /// graph.
    fn output_tasks(&self) -> Vec<TaskId> {
        self.ids()
            .into_iter()
            .filter(|&id| self.task(id).is_some_and(|t| t.has_external_output()))
            .collect()
    }
}

impl<G: TaskGraph + ?Sized> TaskGraph for &G {
    fn size(&self) -> usize {
        (**self).size()
    }
    fn task(&self, id: TaskId) -> Option<Task> {
        (**self).task(id)
    }
    fn callback_ids(&self) -> Vec<CallbackId> {
        (**self).callback_ids()
    }
    fn ids(&self) -> Vec<TaskId> {
        (**self).ids()
    }
}

impl<G: TaskGraph + ?Sized> TaskGraph for std::sync::Arc<G> {
    fn size(&self) -> usize {
        (**self).size()
    }
    fn task(&self, id: TaskId) -> Option<Task> {
        (**self).task(id)
    }
    fn callback_ids(&self) -> Vec<CallbackId> {
        (**self).callback_ids()
    }
    fn ids(&self) -> Vec<TaskId> {
        (**self).ids()
    }
}

/// A fully materialized graph, useful for tests and for graphs built
/// imperatively (e.g. composed or hand-written ones).
#[derive(Clone, Debug, Default)]
pub struct ExplicitGraph {
    tasks: HashMap<TaskId, Task>,
    order: Vec<TaskId>,
    callbacks: Vec<CallbackId>,
}

impl ExplicitGraph {
    /// Build from a list of tasks and the advertised callback ids.
    pub fn new(tasks: Vec<Task>, callbacks: Vec<CallbackId>) -> Self {
        let order: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
        let tasks = tasks.into_iter().map(|t| (t.id, t)).collect();
        ExplicitGraph { tasks, order, callbacks }
    }

    /// Materialize any graph into explicit form.
    pub fn from_graph(g: &dyn TaskGraph) -> Self {
        let order = g.ids();
        let tasks = order
            .iter()
            .filter_map(|&id| g.task(id).map(|t| (id, t)))
            .collect();
        ExplicitGraph { tasks, order, callbacks: g.callback_ids() }
    }

    /// Mutable access to a task (test fixture surgery).
    pub fn task_mut(&mut self, id: TaskId) -> Option<&mut Task> {
        self.tasks.get_mut(&id)
    }
}

impl TaskGraph for ExplicitGraph {
    fn size(&self) -> usize {
        self.order.len()
    }

    fn task(&self, id: TaskId) -> Option<Task> {
        self.tasks.get(&id).cloned()
    }

    fn callback_ids(&self) -> Vec<CallbackId> {
        self.callbacks.clone()
    }

    fn ids(&self) -> Vec<TaskId> {
        self.order.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lint_graph;
    use crate::taskmap::ModuloMap;

    /// Two-task chain: 0 -> 1, with external input on 0 and external output
    /// on 1.
    fn chain() -> ExplicitGraph {
        let mut a = Task::new(TaskId(0), CallbackId(0));
        a.incoming = vec![TaskId::EXTERNAL];
        a.outgoing = vec![vec![TaskId(1)]];
        let mut b = Task::new(TaskId(1), CallbackId(1));
        b.incoming = vec![TaskId(0)];
        b.outgoing = vec![vec![TaskId::EXTERNAL]];
        ExplicitGraph::new(vec![a, b], vec![CallbackId(0), CallbackId(1)])
    }

    #[test]
    fn valid_chain_passes() {
        let rep = lint_graph(&chain(), &ModuloMap::new(2, 2));
        assert!(rep.is_empty(), "{rep}");
        assert_eq!(chain().input_tasks(), vec![TaskId(0)]);
        assert_eq!(chain().output_tasks(), vec![TaskId(1)]);
    }
}
