//! Fault injection and recovery primitives shared by every backend.
//!
//! The paper's central robustness claim is that tasks are *idempotent*, so
//! a runtime may re-execute any task whose inputs are still available. This
//! module supplies the two halves every backend needs to exercise and
//! honor that claim:
//!
//! * a generalized [`FaultPlan`] — message drop/duplicate/delay (consumed
//!   by the MPI transport), one-shot callback panics (injected at the
//!   [`Registry`] level, so every backend is poisoned identically), and
//!   worker death (consumed by the asynchronous MPI controller's pool) —
//!   plus seeded random schedule generation for the conformance suite;
//! * the retry budget, [`MAX_TASK_RETRIES`]: how many re-executions a
//!   poisoned task gets in [`exec`](crate::exec::exec) before it surfaces
//!   as [`TaskError`](crate::controller::ControllerError::TaskError).
//!
//! Injected panics carry [`PANIC_MARKER`] in their message;
//! [`quiet_panic_hook`] suppresses exactly those from stderr so a test run
//! full of deliberately-poisoned tasks stays readable, while genuine
//! callback bugs still print.

use std::collections::HashSet;
use std::panic;
use std::sync::{Arc, Once};
use std::time::Duration;

use crate::ids::TaskId;
use crate::registry::Registry;
use crate::rng::Rng;
use crate::sync::Mutex;

/// Re-executions a failing task gets before the controller gives up and
/// reports [`TaskError`](crate::controller::ControllerError::TaskError)
/// (so a task runs at most `1 + MAX_TASK_RETRIES` times).
pub const MAX_TASK_RETRIES: u32 = 3;

/// Marker substring carried by every injected panic; [`quiet_panic_hook`]
/// keys off it to keep deliberate faults out of stderr.
pub const PANIC_MARKER: &str = "babelflow-injected-fault";

/// A deterministic fault schedule.
///
/// Message faults are keyed `(src, dst, seq)` where `seq` counts raw sends
/// on that directed rank pair starting at 0 (acks and retransmits consume
/// sequence numbers too, so under recovery a fault may land on any leg of
/// the protocol — which is the point: the run must converge regardless).
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    /// Messages to silently drop.
    pub drop: Vec<(usize, usize, u64)>,
    /// Messages to deliver twice.
    pub duplicate: Vec<(usize, usize, u64)>,
    /// Messages to hold back for the given duration before delivery.
    /// Later sends on the same pair overtake the held message, so this is
    /// how reordering is exercised (MPI's per-pair FIFO guarantee is
    /// deliberately violated for the matched message only).
    pub delay: Vec<(usize, usize, u64, Duration)>,
    /// Tasks whose callback panics on its first invocation (process-wide,
    /// whichever backend executes it first; armed by [`inject_panics`]).
    pub panic_once: Vec<TaskId>,
    /// `(rank, worker)` pool threads that die when they pick up their
    /// first task, abandoning it. The controller pins one of the rank's
    /// first tasks to each, so the kill always fires when the rank has
    /// tasks. Only the asynchronous MPI controller models a worker pool,
    /// so only it consumes these; the killed worker must not be the
    /// rank's last one or the rank has nothing left to re-execute with.
    pub kill_worker: Vec<(usize, u32)>,
}

impl FaultPlan {
    /// A plan that injects no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.drop.is_empty()
            && self.duplicate.is_empty()
            && self.delay.is_empty()
            && self.panic_once.is_empty()
            && self.kill_worker.is_empty()
    }

    /// Just the transport faults (drop/duplicate/delay), for backends that
    /// take message faults but model their own execution failures.
    pub fn message_faults(&self) -> Self {
        FaultPlan {
            drop: self.drop.clone(),
            duplicate: self.duplicate.clone(),
            delay: self.delay.clone(),
            panic_once: Vec::new(),
            kill_worker: Vec::new(),
        }
    }

    /// A seeded random fault schedule for a world of `ranks` ranks running
    /// a graph whose tasks are `task_ids`: up to 3 drops, 3 duplicates and
    /// 2 short delays on random rank pairs, up to 2 one-shot callback
    /// panics, and (1-in-4 runs) the death of one rank's worker 0.
    /// Deterministic in `seed`.
    pub fn random(seed: u64, ranks: usize, task_ids: &[TaskId]) -> Self {
        let mut rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut plan = FaultPlan::none();
        if ranks >= 2 {
            let pair = |rng: &mut Rng| {
                let src = rng.random_range(0..ranks);
                let mut dst = rng.random_range(0..ranks - 1);
                if dst >= src {
                    dst += 1;
                }
                (src, dst)
            };
            for _ in 0..rng.random_range(0..=3u32) {
                let (src, dst) = pair(&mut rng);
                plan.drop.push((src, dst, rng.random_range(0..6u64)));
            }
            for _ in 0..rng.random_range(0..=3u32) {
                let (src, dst) = pair(&mut rng);
                plan.duplicate.push((src, dst, rng.random_range(0..6u64)));
            }
            for _ in 0..rng.random_range(0..=2u32) {
                let (src, dst) = pair(&mut rng);
                let hold = Duration::from_millis(rng.random_range(1..=10u64));
                plan.delay.push((src, dst, rng.random_range(0..6u64), hold));
            }
            if rng.random_range(0..4u32) == 0 {
                plan.kill_worker.push((rng.random_range(0..ranks), 0));
            }
        }
        if !task_ids.is_empty() {
            for _ in 0..rng.random_range(0..=2u32) {
                plan.panic_once.push(task_ids[rng.random_range(0..task_ids.len())]);
            }
            plan.panic_once.sort();
            plan.panic_once.dedup();
        }
        plan
    }
}

/// Wrap every callback in `registry` so the tasks named in
/// `plan.panic_once` panic (with [`PANIC_MARKER`]) exactly once — the
/// first time each is invoked, process-wide — and behave normally on every
/// later attempt. Returns the poisoned registry; the original is untouched.
/// Installs [`quiet_panic_hook`] so the deliberate unwinds stay quiet.
pub fn inject_panics(registry: &Registry, plan: &FaultPlan) -> Registry {
    if plan.panic_once.is_empty() {
        return registry.clone();
    }
    quiet_panic_hook();
    let armed: Arc<Mutex<HashSet<TaskId>>> =
        Arc::new(Mutex::new(plan.panic_once.iter().copied().collect()));
    let mut out = Registry::new();
    for (id, cb) in registry.iter() {
        let cb = cb.clone();
        let armed = armed.clone();
        out.register(id, move |inputs, task| {
            if armed.lock().remove(&task) {
                panic!("{PANIC_MARKER}: injected one-shot panic in task {task}");
            }
            cb(inputs, task)
        });
    }
    out
}

/// Install (once, process-wide) a panic hook that suppresses the stderr
/// report for panics whose message contains [`PANIC_MARKER`], delegating
/// everything else to the previous hook. Idempotent.
pub fn quiet_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let msg_has_marker = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains(PANIC_MARKER))
                .or_else(|| {
                    info.payload().downcast_ref::<&str>().map(|s| s.contains(PANIC_MARKER))
                })
                .unwrap_or(false);
            if !msg_has_marker {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CallbackId;
    use crate::payload::{Blob, Payload};

    #[test]
    fn random_plans_are_deterministic_in_the_seed() {
        let ids: Vec<TaskId> = (0..9).map(TaskId).collect();
        let a = FaultPlan::random(42, 4, &ids);
        let b = FaultPlan::random(42, 4, &ids);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = FaultPlan::random(43, 4, &ids);
        // Not a hard guarantee for any single pair of seeds, but these two
        // differ (checked once; the seed is fixed so this cannot flake).
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn random_plan_respects_bounds() {
        for seed in 0..64u64 {
            let ids: Vec<TaskId> = (0..5).map(TaskId).collect();
            let p = FaultPlan::random(seed, 3, &ids);
            assert!(p.drop.len() <= 3 && p.duplicate.len() <= 3 && p.delay.len() <= 2);
            assert!(p.panic_once.len() <= 2 && p.kill_worker.len() <= 1);
            for &(src, dst, _) in p.drop.iter().chain(&p.duplicate) {
                assert!(src < 3 && dst < 3 && src != dst);
            }
            for &(_, w) in &p.kill_worker {
                assert_eq!(w, 0, "only worker 0 is ever killed");
            }
        }
    }

    #[test]
    fn single_rank_plans_have_no_message_faults() {
        let p = FaultPlan::random(7, 1, &[TaskId(0)]);
        assert!(p.drop.is_empty() && p.duplicate.is_empty() && p.delay.is_empty());
        assert!(p.kill_worker.is_empty());
    }

    #[test]
    fn injected_panic_fires_exactly_once() {
        quiet_panic_hook();
        let mut r = Registry::new();
        r.register(CallbackId(0), |_, _| vec![Payload::wrap(Blob(vec![1]))]);
        let plan = FaultPlan { panic_once: vec![TaskId(5)], ..FaultPlan::none() };
        let poisoned = inject_panics(&r, &plan);
        let cb = poisoned.get(CallbackId(0)).unwrap();
        let panics = |cb: &crate::registry::Callback, id| {
            panic::catch_unwind(panic::AssertUnwindSafe(|| cb(&[], id))).is_err()
        };

        // First invocation of task 5 panics; the retry succeeds.
        assert!(panics(cb, TaskId(5)));
        assert!(!panics(cb, TaskId(5)));
        // Other tasks served by the same callback are unaffected.
        assert!(!panics(cb, TaskId(6)));
        // The original registry stays clean.
        assert!(!panics(r.get(CallbackId(0)).unwrap(), TaskId(5)));
    }

    #[test]
    fn message_faults_strips_execution_faults() {
        let plan = FaultPlan {
            drop: vec![(0, 1, 0)],
            panic_once: vec![TaskId(1)],
            kill_worker: vec![(0, 0)],
            ..FaultPlan::none()
        };
        let m = plan.message_faults();
        assert_eq!(m.drop, plan.drop);
        assert!(m.panic_once.is_empty() && m.kill_worker.is_empty());
        assert!(!plan.is_empty() && FaultPlan::none().is_empty());
    }
}
