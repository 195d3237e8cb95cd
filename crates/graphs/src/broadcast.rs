//! K-way broadcast tree: the mirror image of [`Reduction`](crate::Reduction).
//!
//! One root with external input relays its payload down a k-ary tree to
//! `k^d` leaves with external outputs. Used standalone for scatter-style
//! patterns and as the overlay tree inside the merge-tree dataflow ("the
//! dataflow implements its own overlay tree to perform the broadcast").

use babelflow_core::{CallbackId, Task, TaskGraph, TaskId};

use crate::error::GraphError;
use crate::reduction::exact_log;

/// Callback slot index of relay tasks (root and interior).
pub const RELAY_CB: usize = 0;
/// Callback slot index of leaf tasks (external output).
pub const LEAF_CB: usize = 1;

/// A k-way broadcast tree with `k^d` leaves.
///
/// Ids use the same heap numbering as [`Reduction`](crate::Reduction):
/// root 0, children of `i` at `i*k+1 ..= i*k+k`, leaves last.
#[derive(Clone, Debug)]
pub struct Broadcast {
    k: u64,
    d: u32,
    n_tasks: u64,
    leaves: u64,
    callbacks: Vec<CallbackId>,
}

impl Broadcast {
    /// Build a broadcast to `leaves` outputs with the given `valence`.
    ///
    /// # Panics
    /// If `valence < 2` or `leaves` is not a positive power of `valence`;
    /// see [`try_new`](Self::try_new) for the fallible form.
    pub fn new(leaves: u64, valence: u64) -> Self {
        Self::try_new(leaves, valence).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: reports bad parameters as a [`GraphError`]
    /// instead of panicking.
    pub fn try_new(leaves: u64, valence: u64) -> Result<Self, GraphError> {
        const FAMILY: &str = "broadcast";
        if valence < 2 {
            return Err(GraphError::ValenceTooSmall { family: FAMILY, valence });
        }
        let d = exact_log(leaves, valence)
            .ok_or(GraphError::NotPowerOfValence { family: FAMILY, leaves, valence })?;
        if d < 1 {
            return Err(GraphError::TooShallow { family: FAMILY });
        }
        let n_tasks = (valence.pow(d + 1) - 1) / (valence - 1);
        Ok(Broadcast { k: valence, d, n_tasks, leaves, callbacks: vec![CallbackId(0), CallbackId(1)] })
    }

    /// Use custom callback ids (in `[relay, leaf]` order).
    pub fn with_callbacks(mut self, relay: CallbackId, leaf: CallbackId) -> Self {
        self.callbacks = vec![relay, leaf];
        self
    }

    /// The broadcast valence `k`.
    pub fn valence(&self) -> u64 {
        self.k
    }

    /// Tree depth `d`.
    pub fn depth(&self) -> u32 {
        self.d
    }

    /// Ids of the leaf tasks, in output order.
    pub fn leaf_ids(&self) -> Vec<TaskId> {
        (self.n_tasks - self.leaves..self.n_tasks).map(TaskId).collect()
    }

    /// Id of the root task.
    pub fn root_id(&self) -> TaskId {
        TaskId(0)
    }

    fn is_leaf(&self, id: u64) -> bool {
        id >= self.n_tasks - self.leaves
    }
}

impl TaskGraph for Broadcast {
    fn size(&self) -> usize {
        self.n_tasks as usize
    }

    fn task(&self, id: TaskId) -> Option<Task> {
        if id.0 >= self.n_tasks {
            return None;
        }
        let i = id.0;
        let cb = if self.is_leaf(i) { self.callbacks[LEAF_CB] } else { self.callbacks[RELAY_CB] };
        let mut t = Task::new(id, cb);

        t.incoming = vec![if i == 0 { TaskId::EXTERNAL } else { TaskId((i - 1) / self.k) }];

        if self.is_leaf(i) {
            t.outgoing = vec![vec![TaskId::EXTERNAL]];
        } else {
            // One output slot fanning out to all k children: every child
            // receives the same relayed payload.
            t.outgoing = vec![(1..=self.k).map(|c| TaskId(i * self.k + c)).collect()];
        }
        Some(t)
    }

    fn callback_ids(&self) -> Vec<CallbackId> {
        self.callbacks.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_lints_clean;

    #[test]
    fn mirror_of_reduction() {
        let g = Broadcast::new(4, 2);
        assert_lints_clean(&g);
        assert_eq!(g.size(), 7);
        assert_eq!(g.input_tasks(), vec![TaskId(0)]);
        assert_eq!(g.output_tasks(), g.leaf_ids());

        let root = g.task(TaskId(0)).unwrap();
        assert_eq!(root.incoming, vec![TaskId::EXTERNAL]);
        assert_eq!(root.outgoing, vec![vec![TaskId(1), TaskId(2)]]);

        let leaf = g.task(TaskId(4)).unwrap();
        assert_eq!(leaf.incoming, vec![TaskId(1)]);
        assert_eq!(leaf.outgoing, vec![vec![TaskId::EXTERNAL]]);
    }

    #[test]
    fn fan_out_is_single_slot() {
        // The relay produces ONE payload consumed by k children, not k
        // distinct outputs.
        let g = Broadcast::new(8, 2);
        let relay = g.task(TaskId(1)).unwrap();
        assert_eq!(relay.fan_out(), 1);
        assert_eq!(relay.outgoing[0].len(), 2);
    }

    #[test]
    fn wide_broadcast_valid() {
        let g = Broadcast::new(81, 3);
        assert_lints_clean(&g);
        assert_eq!(g.depth(), 4);
    }

    #[test]
    fn custom_callbacks() {
        let g = Broadcast::new(2, 2).with_callbacks(CallbackId(5), CallbackId(6));
        assert_eq!(g.task(TaskId(0)).unwrap().callback, CallbackId(5));
        assert_eq!(g.task(TaskId(1)).unwrap().callback, CallbackId(6));
    }

    #[test]
    #[should_panic(expected = "not a power of valence")]
    fn rejects_bad_leaf_count() {
        Broadcast::new(5, 2);
    }
}
