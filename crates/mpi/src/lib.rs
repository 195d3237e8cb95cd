//! # babelflow-mpi
//!
//! MPI-like backend for BabelFlow-RS.
//!
//! Rust lacks a production MPI binding (and this reproduction must run
//! self-contained), so this crate provides both halves:
//!
//! * [`comm`] — the transport substrate: a fixed world of ranks (threads)
//!   exchanging ordered, asynchronous, eager point-to-point byte messages,
//!   with optional deterministic fault injection for tests;
//! * [`MpiController`] — the paper's §IV-A controller: static task→rank
//!   allocation via a `TaskMap`, a per-rank controller loop multiplexing
//!   arrivals and completions, worker threads executing ready tasks
//!   greedily in arrival order, and the in-memory fast path that skips
//!   serialization for intra-rank edges;
//! * [`BlockingMpiController`] — the "Original MPI" baseline of Fig. 6:
//!   identical transport and tasks, but a fixed static schedule with
//!   blocking receives and no worker threads.

#![warn(missing_docs)]

pub mod blocking;
pub mod comm;
pub mod controller;
pub mod insitu;
mod rank;
pub mod reliable;
pub mod wire;

pub use blocking::BlockingMpiController;
pub use comm::{
    pack_batch, unpack_batch, Envelope, FaultPlan, RankComm, World, TAG_BATCH, TAG_WAKE,
};
pub use controller::{MpiController, DEFAULT_TIMEOUT};
pub use insitu::{InSituRank, InSituWorld};
pub use reliable::{ReliableEndpoint, BASE_RTO, TAG_ACK};
pub use wire::{DataflowMsg, TAG_DATAFLOW};

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::time::Duration;

    use babelflow_core::{
        canonical_outputs, run_serial, Blob, CallbackId, Controller, ControllerError, ModuloMap,
        Payload, Registry, TaskId,
    };
    use babelflow_core::TaskGraph;
use babelflow_graphs::{BinarySwap, Reduction};

    use super::*;

    /// Sum-reduction callbacks over `Blob` payloads interpreted as u64
    /// little-endian counters.
    fn sum_registry() -> Registry {
        fn read(p: &Payload) -> u64 {
            let b = p.extract::<Blob>().unwrap();
            u64::from_le_bytes(b.0.as_slice().try_into().unwrap())
        }
        fn write(v: u64) -> Payload {
            Payload::wrap(Blob(v.to_le_bytes().to_vec()))
        }
        let mut r = Registry::new();
        // Leaf: forward.
        r.register(CallbackId(0), |inputs, _| vec![inputs[0].clone()]);
        // Reduce: sum.
        r.register(CallbackId(1), move |inputs, _| {
            vec![write(inputs.iter().map(read).sum())]
        });
        // Root: sum + 1000 marker.
        r.register(CallbackId(2), move |inputs, _| {
            vec![write(inputs.iter().map(read).sum::<u64>() + 1000)]
        });
        r
    }

    fn reduction_inputs(g: &Reduction) -> HashMap<TaskId, Vec<Payload>> {
        g.leaf_ids()
            .into_iter()
            .enumerate()
            .map(|(i, id)| {
                (id, vec![Payload::wrap(Blob((i as u64).to_le_bytes().to_vec()))])
            })
            .collect()
    }

    #[test]
    fn async_matches_serial_on_reduction() {
        let g = Reduction::new(16, 2);
        let reg = sum_registry();
        let serial = run_serial(&g, &reg, reduction_inputs(&g)).unwrap();

        for ranks in [1u32, 2, 3, 5, 16] {
            let map = ModuloMap::new(ranks, g.size() as u64);
            let mut c = MpiController::new();
            let report = c.run(&g, &map, &reg, reduction_inputs(&g)).unwrap();
            assert_eq!(
                canonical_outputs(&report),
                canonical_outputs(&serial),
                "ranks={ranks}"
            );
            assert_eq!(report.stats.tasks_executed, g.size() as u64);
        }
    }

    #[test]
    fn blocking_matches_serial_on_reduction() {
        let g = Reduction::new(8, 2);
        let reg = sum_registry();
        let serial = run_serial(&g, &reg, reduction_inputs(&g)).unwrap();
        for ranks in [1u32, 4] {
            let map = ModuloMap::new(ranks, g.size() as u64);
            let mut c = BlockingMpiController::new();
            let report = c.run(&g, &map, &reg, reduction_inputs(&g)).unwrap();
            assert_eq!(canonical_outputs(&report), canonical_outputs(&serial));
        }
    }

    #[test]
    fn remote_messages_serialize_local_do_not() {
        let g = Reduction::new(4, 2);
        let reg = sum_registry();
        // All on one rank: everything local.
        let map1 = ModuloMap::new(1, g.size() as u64);
        let r1 = MpiController::new().run(&g, &map1, &reg, reduction_inputs(&g)).unwrap();
        assert_eq!(r1.stats.remote_messages, 0);
        assert_eq!(r1.stats.local_messages, 6);

        // Spread over 7 ranks: most edges cross ranks.
        let map7 = ModuloMap::new(7, g.size() as u64);
        let r7 = MpiController::new().run(&g, &map7, &reg, reduction_inputs(&g)).unwrap();
        assert_eq!(r7.stats.remote_messages + r7.stats.local_messages, 6);
        assert!(r7.stats.remote_messages > 0);
        assert!(r7.stats.remote_bytes > 0);
    }

    #[test]
    fn binary_swap_exchange_pattern_runs() {
        // Binary swap has same-round cross-edges — a good stress for slot
        // routing.
        let g = BinarySwap::new(8);
        let mut reg = Registry::new();
        fn read(p: &Payload) -> u64 {
            u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
        }
        fn write(v: u64) -> Payload {
            Payload::wrap(Blob(v.to_le_bytes().to_vec()))
        }
        reg.register(CallbackId(0), |inputs, _| {
            let v = read(&inputs[0]);
            vec![write(v), write(v.wrapping_mul(3))]
        });
        reg.register(CallbackId(1), |inputs, _| {
            let a = read(&inputs[0]);
            let b = read(&inputs[1]);
            vec![write(a ^ b), write(a.wrapping_add(b))]
        });
        reg.register(CallbackId(2), |inputs, _| {
            let a = read(&inputs[0]);
            let b = read(&inputs[1]);
            vec![write(a.wrapping_sub(b))]
        });
        let inputs: HashMap<TaskId, Vec<Payload>> = g
            .leaf_ids()
            .into_iter()
            .enumerate()
            .map(|(i, id)| (id, vec![write(i as u64 + 7)]))
            .collect();

        let serial = run_serial(&g, &reg, inputs.clone()).unwrap();
        for ranks in [2u32, 8] {
            let map = ModuloMap::new(ranks, g.size() as u64);
            let report = MpiController::new().run(&g, &map, &reg, inputs.clone()).unwrap();
            assert_eq!(canonical_outputs(&report), canonical_outputs(&serial), "ranks={ranks}");
        }
    }

    #[test]
    fn dropped_message_is_recovered_by_retransmit() {
        let g = Reduction::new(4, 2);
        let reg = sum_registry();
        let serial = run_serial(&g, &reg, reduction_inputs(&g)).unwrap();
        let map = ModuloMap::new(2, g.size() as u64);
        // Drop the first message rank 1 sends to rank 0: the reliable
        // layer retransmits it and the run completes correctly anyway.
        let faults = FaultPlan { drop: vec![(1, 0, 0)], ..FaultPlan::none() };
        let mut c = MpiController::new()
            .with_faults(faults)
            .with_timeout(Duration::from_secs(5));
        let report = c.run(&g, &map, &reg, reduction_inputs(&g)).unwrap();
        assert_eq!(canonical_outputs(&report), canonical_outputs(&serial));
        assert!(report.stats.recovery.retransmits > 0, "{}", report.stats);
    }

    #[test]
    fn duplicated_message_is_suppressed() {
        let g = Reduction::new(4, 2);
        let reg = sum_registry();
        let serial = run_serial(&g, &reg, reduction_inputs(&g)).unwrap();
        let map = ModuloMap::new(2, g.size() as u64);
        let faults = FaultPlan { duplicate: vec![(1, 0, 0)], ..FaultPlan::none() };
        let mut c = MpiController::new()
            .with_faults(faults)
            .with_timeout(Duration::from_secs(5));
        let report = c.run(&g, &map, &reg, reduction_inputs(&g)).unwrap();
        assert_eq!(canonical_outputs(&report), canonical_outputs(&serial));
        assert!(report.stats.recovery.duplicates_suppressed > 0, "{}", report.stats);
    }

    #[test]
    fn blocking_controller_recovers_from_drops_too() {
        let g = Reduction::new(4, 2);
        let reg = sum_registry();
        let serial = run_serial(&g, &reg, reduction_inputs(&g)).unwrap();
        let map = ModuloMap::new(2, g.size() as u64);
        let faults = FaultPlan { drop: vec![(1, 0, 0)], ..FaultPlan::none() };
        let mut c = BlockingMpiController::new()
            .with_faults(faults)
            .with_timeout(Duration::from_secs(5));
        let report = c.run(&g, &map, &reg, reduction_inputs(&g)).unwrap();
        assert_eq!(canonical_outputs(&report), canonical_outputs(&serial));
        assert!(report.stats.recovery.retransmits > 0, "{}", report.stats);
    }

    #[test]
    fn killed_worker_task_is_refired() {
        let g = Reduction::new(4, 2);
        let reg = sum_registry();
        let serial = run_serial(&g, &reg, reduction_inputs(&g)).unwrap();
        let map = ModuloMap::new(2, g.size() as u64);
        let faults = FaultPlan { kill_worker: vec![(0, 0)], ..FaultPlan::none() };
        let mut c = MpiController::new()
            .with_workers(2)
            .with_faults(faults)
            .with_timeout(Duration::from_secs(5));
        let report = c.run(&g, &map, &reg, reduction_inputs(&g)).unwrap();
        assert_eq!(canonical_outputs(&report), canonical_outputs(&serial));
        // The doomed worker is handed rank 0's first task, whatever its
        // sibling does: it dies holding it, and the task is re-run once.
        assert_eq!(report.stats.recovery.retries, 1, "{}", report.stats);
    }

    /// Keeps every event it is handed.
    #[derive(Default)]
    struct Collect(std::sync::Mutex<Vec<babelflow_core::TraceEvent>>);

    impl babelflow_core::TraceSink for Collect {
        fn record(&self, event: babelflow_core::TraceEvent) {
            self.0.lock().unwrap().push(event);
        }
    }

    #[test]
    fn workers_route_same_rank_outputs_themselves() {
        use babelflow_core::trace::{SpanKind, CONTROL_THREAD};
        let g = Reduction::new(16, 2);
        let reg = sum_registry();
        let map = ModuloMap::new(1, g.size() as u64);
        let sink = std::sync::Arc::new(Collect::default());
        let report = MpiController::new()
            .run_traced(&g, &map, &reg, reduction_inputs(&g), sink.clone())
            .unwrap();
        let events = sink.0.lock().unwrap();
        let sends: Vec<_> = events.iter().filter(|e| e.kind == SpanKind::MsgSend).collect();
        assert_eq!(sends.len() as u64, report.stats.local_messages);
        assert!(!sends.is_empty());
        for e in sends {
            assert_eq!(e.rank, 0);
            assert_ne!(e.thread, CONTROL_THREAD, "{e:?}");
            assert!(e.thread < 2, "a worker row: {e:?}");
        }
    }

    #[test]
    fn poisoned_callback_is_retried_on_both_mpi_controllers() {
        use babelflow_core::fault::inject_panics;
        let g = Reduction::new(4, 2);
        let reg = sum_registry();
        let serial = run_serial(&g, &reg, reduction_inputs(&g)).unwrap();
        let map = ModuloMap::new(2, g.size() as u64);
        let root = g.root_id();
        for blocking in [false, true] {
            let plan = FaultPlan { panic_once: vec![root], ..FaultPlan::none() };
            let poisoned = inject_panics(&reg, &plan);
            let report = if blocking {
                BlockingMpiController::new()
                    .with_timeout(Duration::from_secs(5))
                    .run(&g, &map, &poisoned, reduction_inputs(&g))
            } else {
                MpiController::new()
                    .with_timeout(Duration::from_secs(5))
                    .run(&g, &map, &poisoned, reduction_inputs(&g))
            }
            .unwrap();
            assert_eq!(canonical_outputs(&report), canonical_outputs(&serial));
            assert!(report.stats.recovery.retries > 0, "blocking={blocking}");
        }
    }

    #[test]
    fn persistently_failing_task_surfaces_as_task_error() {
        babelflow_core::quiet_panic_hook();
        let g = Reduction::new(4, 2);
        let mut reg = sum_registry();
        reg.rebind(CallbackId(2), |_, _| -> Vec<Payload> {
            panic!("{}: root always fails", babelflow_core::PANIC_MARKER)
        });
        let map = ModuloMap::new(2, g.size() as u64);
        let err = MpiController::new()
            .with_timeout(Duration::from_secs(5))
            .run(&g, &map, &reg, reduction_inputs(&g))
            .unwrap_err();
        assert!(matches!(err, ControllerError::TaskError { .. }), "got {err}");
    }

    /// Panics on the first `MsgRecv` it is handed, from whichever rank
    /// thread records it.
    struct PanicOnFirstRecv(std::sync::atomic::AtomicBool);

    impl babelflow_core::TraceSink for PanicOnFirstRecv {
        fn record(&self, event: babelflow_core::TraceEvent) {
            if event.kind == babelflow_core::SpanKind::MsgRecv
                && !self.0.swap(true, std::sync::atomic::Ordering::SeqCst)
            {
                panic!("{}: trace sink fails", babelflow_core::PANIC_MARKER);
            }
        }
    }

    #[test]
    fn panicking_rank_thread_is_an_error_not_an_abort() {
        babelflow_core::quiet_panic_hook();
        // Root and one leaf on rank 0, the other leaf on rank 1: rank 0
        // acks rank 1's only message, then panics recording its receipt,
        // while rank 1 waits at the shutdown barrier.
        let g = Reduction::new(2, 2);
        let reg = sum_registry();
        let map = ModuloMap::new(2, g.size() as u64);
        for blocking in [false, true] {
            let sink = std::sync::Arc::new(PanicOnFirstRecv(Default::default()));
            let started = std::time::Instant::now();
            let result = if blocking {
                BlockingMpiController::new().run_traced(&g, &map, &reg, reduction_inputs(&g), sink)
            } else {
                MpiController::new().run_traced(&g, &map, &reg, reduction_inputs(&g), sink)
            };
            let err = result.unwrap_err();
            assert!(matches!(err, ControllerError::Runtime(_)), "blocking={blocking}: {err}");
            // The default timeout is 10 s; the panicking rank's endpoint
            // releases its peer as it unwinds.
            assert!(started.elapsed() < Duration::from_secs(2), "blocking={blocking}");
        }
    }

    /// Panics recording the first worker-side `MsgSend` that fills its
    /// consumer's last slot (a second send to a reduction node), so the
    /// consumer is never dispatched.
    #[derive(Default)]
    struct PanicOnCompletingSend(std::sync::Mutex<std::collections::HashSet<u64>>);

    impl babelflow_core::TraceSink for PanicOnCompletingSend {
        fn record(&self, event: babelflow_core::TraceEvent) {
            if event.kind == babelflow_core::SpanKind::MsgSend
                && event.thread != babelflow_core::trace::CONTROL_THREAD
                && !self.0.lock().unwrap().insert(event.peer.0)
            {
                panic!("{}: trace sink fails", babelflow_core::PANIC_MARKER);
            }
        }
    }

    #[test]
    fn panicking_worker_while_routing_is_an_error_not_a_stall() {
        babelflow_core::quiet_panic_hook();
        // One rank: every route is same-rank and is recorded on the worker
        // that completes the producer. It dies having filled a consumer
        // that no one dispatches, and the producer, already completed, is
        // never re-fired.
        let g = Reduction::new(16, 2);
        let reg = sum_registry();
        let map = ModuloMap::new(1, g.size() as u64);
        let sink = std::sync::Arc::new(PanicOnCompletingSend::default());
        let started = std::time::Instant::now();
        let err = MpiController::new()
            .run_traced(&g, &map, &reg, reduction_inputs(&g), sink)
            .unwrap_err();
        assert!(matches!(err, ControllerError::Runtime(_)), "{err}");
        // The default stall timeout is 10 s.
        assert!(started.elapsed() < Duration::from_secs(2), "{:?}", started.elapsed());
    }

    #[test]
    fn more_ranks_than_tasks_is_fine() {
        let g = Reduction::new(2, 2);
        let reg = sum_registry();
        let map = ModuloMap::new(16, g.size() as u64);
        let report = MpiController::new().run(&g, &map, &reg, reduction_inputs(&g)).unwrap();
        assert_eq!(report.stats.tasks_executed, 3);
    }
}
