//! Binary-swap compositing dataflow — Fig. 7 of the paper.
//!
//! "At each stage the tasks pair up and exchange a portion of their current
//! picture. At the end of the dataflow, a number of tasks (i.e., equal to
//! the number of input images to compose) will each own one tile of the
//! final image."
//!
//! With `n = 2^r` leaves the graph has `r + 1` rounds of `n` tasks each.
//! Task `(round j, index i)` has id `j*n + i`. A round-`j` task (`j < r`)
//! sends output slot 0 (the half it keeps) to `(j+1, i)` and output slot 1
//! (the half it swaps away) to `(j+1, i ^ 2^j)`. A round-`j` task (`j >= 1`)
//! receives slot 0 from `(j-1, i)` and slot 1 from `(j-1, i ^ 2^(j-1))`.
//! Round 0 tasks are leaves (external input, e.g. a freshly rendered
//! image); round `r` tasks composite the final exchange and write their
//! tile (external output).
//!
//! Which half of the image each slot carries is a convention between the
//! callbacks (see `babelflow_render::binary_swap_callbacks`): at round `j`,
//! the task with the lower index keeps the lower half of the current
//! extent.

use babelflow_core::{CallbackId, Task, TaskGraph, TaskId};

use crate::error::GraphError;

/// Callback slot index of round-0 leaf tasks.
pub const LEAF_CB: usize = 0;
/// Callback slot index of intermediate swap/composite tasks.
pub const SWAP_CB: usize = 1;
/// Callback slot index of the final per-tile write tasks.
pub const WRITE_CB: usize = 2;

/// The binary-swap dataflow over `2^r` inputs.
#[derive(Clone, Debug)]
pub struct BinarySwap {
    n: u64,
    rounds: u32,
    callbacks: Vec<CallbackId>,
}

impl BinarySwap {
    /// Build a binary swap over `leaves` inputs.
    ///
    /// # Panics
    /// If `leaves` is not a power of two or is smaller than 2; see
    /// [`try_new`](Self::try_new) for the fallible form.
    pub fn new(leaves: u64) -> Self {
        Self::try_new(leaves).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: reports bad parameters as a [`GraphError`]
    /// instead of panicking.
    pub fn try_new(leaves: u64) -> Result<Self, GraphError> {
        if leaves < 2 || !leaves.is_power_of_two() {
            return Err(GraphError::NotPowerOfTwo { leaves });
        }
        let rounds = leaves.trailing_zeros();
        Ok(BinarySwap { n: leaves, rounds, callbacks: vec![CallbackId(0), CallbackId(1), CallbackId(2)] })
    }

    /// Use custom callback ids (in `[leaf, swap, write]` order).
    pub fn with_callbacks(mut self, leaf: CallbackId, swap: CallbackId, write: CallbackId) -> Self {
        self.callbacks = vec![leaf, swap, write];
        self
    }

    /// Number of exchange rounds `r`.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Number of leaves (and of final tiles).
    pub fn leaves(&self) -> u64 {
        self.n
    }

    /// Id of the task at `(round, index)`.
    pub fn id_at(&self, round: u32, index: u64) -> TaskId {
        debug_assert!(round <= self.rounds && index < self.n);
        TaskId(round as u64 * self.n + index)
    }

    /// `(round, index)` of a task id.
    pub fn position(&self, id: TaskId) -> (u32, u64) {
        ((id.0 / self.n) as u32, id.0 % self.n)
    }

    /// Ids of the leaf tasks, in input order.
    pub fn leaf_ids(&self) -> Vec<TaskId> {
        (0..self.n).map(|i| self.id_at(0, i)).collect()
    }

    /// Ids of the final write tasks, in tile order.
    pub fn write_ids(&self) -> Vec<TaskId> {
        (0..self.n).map(|i| self.id_at(self.rounds, i)).collect()
    }

    /// The exchange partner of `index` at round `j` (1-based rounds).
    pub fn partner(&self, round: u32, index: u64) -> u64 {
        index ^ (1u64 << (round - 1))
    }
}

impl TaskGraph for BinarySwap {
    fn size(&self) -> usize {
        ((self.rounds as u64 + 1) * self.n) as usize
    }

    fn task(&self, id: TaskId) -> Option<Task> {
        if id.0 >= self.size() as u64 {
            return None;
        }
        let (round, i) = self.position(id);
        let cb = if round == 0 {
            self.callbacks[LEAF_CB]
        } else if round == self.rounds {
            self.callbacks[WRITE_CB]
        } else {
            self.callbacks[SWAP_CB]
        };
        let mut t = Task::new(id, cb);

        if round == 0 {
            t.incoming = vec![TaskId::EXTERNAL];
        } else {
            let p = self.partner(round, i);
            t.incoming = vec![self.id_at(round - 1, i), self.id_at(round - 1, p)];
        }

        if round == self.rounds {
            t.outgoing = vec![vec![TaskId::EXTERNAL]];
        } else {
            let p = self.partner(round + 1, i);
            t.outgoing = vec![vec![self.id_at(round + 1, i)], vec![self.id_at(round + 1, p)]];
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
    fn two_leaves_is_one_exchange() {
        let g = BinarySwap::new(2);
        assert_lints_clean(&g);
        assert_eq!(g.size(), 4);
        assert_eq!(g.rounds(), 1);

        let leaf0 = g.task(TaskId(0)).unwrap();
        assert_eq!(leaf0.incoming, vec![TaskId::EXTERNAL]);
        // Keeps its half for (1,0), swaps the other to (1,1).
        assert_eq!(leaf0.outgoing, vec![vec![TaskId(2)], vec![TaskId(3)]]);

        let w1 = g.task(TaskId(3)).unwrap();
        assert_eq!(w1.callback, CallbackId(2));
        assert_eq!(w1.incoming, vec![TaskId(1), TaskId(0)]);
        assert_eq!(w1.outgoing, vec![vec![TaskId::EXTERNAL]]);
    }

    #[test]
    fn eight_leaves_structure() {
        let g = BinarySwap::new(8);
        assert_lints_clean(&g);
        assert_eq!(g.size(), 32);
        assert_eq!(g.rounds(), 3);
        assert_eq!(g.input_tasks().len(), 8);
        assert_eq!(g.output_tasks().len(), 8);

        // Round-2 partner of index 5 flips bit 1: 5 ^ 2 = 7.
        assert_eq!(g.partner(2, 5), 7);
        let t = g.task(g.id_at(2, 5)).unwrap();
        assert_eq!(t.incoming, vec![g.id_at(1, 5), g.id_at(1, 7)]);
    }

    #[test]
    fn partners_are_mutual_every_round() {
        let g = BinarySwap::new(16);
        for round in 1..=g.rounds() {
            for i in 0..16 {
                let p = g.partner(round, i);
                assert_ne!(p, i);
                assert_eq!(g.partner(round, p), i);
            }
        }
    }

    #[test]
    fn every_interior_task_has_two_ins_two_outs() {
        let g = BinarySwap::new(8);
        for round in 1..g.rounds() {
            for i in 0..8 {
                let t = g.task(g.id_at(round, i)).unwrap();
                assert_eq!(t.fan_in(), 2);
                assert_eq!(t.fan_out(), 2);
                assert_eq!(t.callback, CallbackId(1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "2^r")]
    fn rejects_non_power_of_two() {
        BinarySwap::new(6);
    }

    #[test]
    #[should_panic(expected = "2^r")]
    fn rejects_single_leaf() {
        BinarySwap::new(1);
    }
}
