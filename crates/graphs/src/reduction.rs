//! K-way reduction tree — Listing 2 of the paper.
//!
//! `k^d` leaves reduce through `d` levels to a root task. Task ids follow
//! the heap numbering of the listing: the root is task 0, the children of
//! task `i` are `i*k+1 ..= i*k+k`, and the leaves are the last `k^d` ids.
//! Three task types are advertised, in this order: leaf, reduce, root.

use babelflow_core::{CallbackId, Task, TaskGraph, TaskId};

use crate::error::GraphError;

/// Callback slot index of leaf tasks (external input, e.g. local render).
pub const LEAF_CB: usize = 0;
/// Callback slot index of interior reduce tasks (e.g. composite).
pub const REDUCE_CB: usize = 1;
/// Callback slot index of the root wrap-up task (e.g. write image).
pub const ROOT_CB: usize = 2;

/// A k-way reduction tree with `k^d` leaves plus a wrap-up root.
#[derive(Clone, Debug)]
pub struct Reduction {
    k: u64,
    d: u32,
    n_tasks: u64,
    leaves: u64,
    callbacks: Vec<CallbackId>,
}

impl Reduction {
    /// Build a reduction over `leaves` inputs with the given `valence`.
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
        const FAMILY: &str = "reduction";
        if valence < 2 {
            return Err(GraphError::ValenceTooSmall { family: FAMILY, valence });
        }
        let d = exact_log(leaves, valence)
            .ok_or(GraphError::NotPowerOfValence { family: FAMILY, leaves, valence })?;
        if d < 1 {
            return Err(GraphError::TooShallow { family: FAMILY });
        }
        let n_tasks = (valence.pow(d + 1) - 1) / (valence - 1);
        Ok(Reduction {
            k: valence,
            d,
            n_tasks,
            leaves,
            callbacks: vec![CallbackId(0), CallbackId(1), CallbackId(2)],
        })
    }

    /// Use custom callback ids instead of the default `0, 1, 2` (in
    /// `[leaf, reduce, root]` order), e.g. when composing graphs.
    pub fn with_callbacks(mut self, leaf: CallbackId, reduce: CallbackId, root: CallbackId) -> Self {
        self.callbacks = vec![leaf, reduce, root];
        self
    }

    /// The reduction valence `k`.
    pub fn valence(&self) -> u64 {
        self.k
    }

    /// Tree depth `d` (number of reduction levels).
    pub fn depth(&self) -> u32 {
        self.d
    }

    /// Number of leaf tasks.
    pub fn leaves(&self) -> u64 {
        self.leaves
    }

    /// Ids of the leaf tasks, in input order.
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

/// `log_k(n)` if `n` is an exact positive power of `k` (including `k^0`).
pub(crate) fn exact_log(n: u64, k: u64) -> Option<u32> {
    if n == 0 {
        return None;
    }
    let mut v = 1u64;
    let mut d = 0u32;
    while v < n {
        v = v.checked_mul(k)?;
        d += 1;
    }
    (v == n).then_some(d)
}

impl TaskGraph for Reduction {
    fn size(&self) -> usize {
        self.n_tasks as usize
    }

    fn task(&self, id: TaskId) -> Option<Task> {
        if id.0 >= self.n_tasks {
            return None;
        }
        let i = id.0;
        let cb = if i == 0 {
            self.callbacks[ROOT_CB]
        } else if self.is_leaf(i) {
            self.callbacks[LEAF_CB]
        } else {
            self.callbacks[REDUCE_CB]
        };
        let mut t = Task::new(id, cb);

        if self.is_leaf(i) {
            t.incoming = vec![TaskId::EXTERNAL];
        } else {
            t.incoming = (1..=self.k).map(|c| TaskId(i * self.k + c)).collect();
        }

        if i == 0 {
            t.outgoing = vec![vec![TaskId::EXTERNAL]];
        } else {
            t.outgoing = vec![vec![TaskId((i - 1) / self.k)]];
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
    fn sizes_match_closed_form() {
        assert_eq!(Reduction::new(2, 2).size(), 3);
        assert_eq!(Reduction::new(4, 2).size(), 7);
        assert_eq!(Reduction::new(8, 2).size(), 15);
        assert_eq!(Reduction::new(64, 8).size(), 73);
        assert_eq!(Reduction::new(512, 8).size(), 585);
    }

    #[test]
    fn binary_four_leaves_shape() {
        let g = Reduction::new(4, 2);
        assert_lints_clean(&g);
        assert_eq!(g.leaf_ids(), vec![TaskId(3), TaskId(4), TaskId(5), TaskId(6)]);

        let root = g.task(TaskId(0)).unwrap();
        assert_eq!(root.callback, CallbackId(2));
        assert_eq!(root.incoming, vec![TaskId(1), TaskId(2)]);
        assert_eq!(root.outgoing, vec![vec![TaskId::EXTERNAL]]);

        let mid = g.task(TaskId(1)).unwrap();
        assert_eq!(mid.callback, CallbackId(1));
        assert_eq!(mid.incoming, vec![TaskId(3), TaskId(4)]);
        assert_eq!(mid.outgoing, vec![vec![TaskId(0)]]);

        let leaf = g.task(TaskId(5)).unwrap();
        assert_eq!(leaf.callback, CallbackId(0));
        assert_eq!(leaf.incoming, vec![TaskId::EXTERNAL]);
        assert_eq!(leaf.outgoing, vec![vec![TaskId(2)]]);
    }

    #[test]
    fn inputs_are_leaves_output_is_root() {
        let g = Reduction::new(8, 2);
        assert_eq!(g.input_tasks(), g.leaf_ids());
        assert_eq!(g.output_tasks(), vec![TaskId(0)]);
    }

    #[test]
    fn eight_way_valid() {
        let g = Reduction::new(64, 8);
        assert_lints_clean(&g);
        assert_eq!(g.depth(), 2);
        assert_eq!(g.leaf_ids().len(), 64);
    }

    #[test]
    fn custom_callbacks_respected() {
        let g = Reduction::new(2, 2).with_callbacks(CallbackId(10), CallbackId(11), CallbackId(12));
        assert_eq!(g.callback_ids(), vec![CallbackId(10), CallbackId(11), CallbackId(12)]);
        assert_eq!(g.task(TaskId(0)).unwrap().callback, CallbackId(12));
        assert_eq!(g.task(TaskId(1)).unwrap().callback, CallbackId(10));
        assert_lints_clean(&g);
    }

    #[test]
    #[should_panic(expected = "not a power of valence")]
    fn rejects_non_power_leaves() {
        Reduction::new(6, 2);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn rejects_single_leaf() {
        Reduction::new(1, 2);
    }

    #[test]
    fn exact_log_edge_cases() {
        assert_eq!(exact_log(1, 2), Some(0));
        assert_eq!(exact_log(8, 2), Some(3));
        assert_eq!(exact_log(9, 2), None);
        assert_eq!(exact_log(0, 2), None);
        assert_eq!(exact_log(64, 8), Some(2));
    }
}
