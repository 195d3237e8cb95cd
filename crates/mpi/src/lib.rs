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
pub use controller::MpiController;
pub use insitu::{InSituRank, InSituWorld};
pub use reliable::{ReliableEndpoint, Sleep, BASE_RTO, SEQ_ROOM, TAG_ACK};
pub use wire::{DataflowMsg, TAG_DATAFLOW};

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use babelflow_core::{
        canonical_outputs, run_serial, Blob, CallbackId, Controller, ControllerError,
        ExplicitGraph, InitialInputs, ModuloMap, Payload, Registry, SerialController, ShardPlan,
        Task, TaskGraph, TaskId,
    };
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
        let mut c = MpiController::new().with_faults(faults);
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
        let mut c = MpiController::new().with_faults(faults);
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
        let mut c = BlockingMpiController::new().with_faults(faults);
        let report = c.run(&g, &map, &reg, reduction_inputs(&g)).unwrap();
        assert_eq!(canonical_outputs(&report), canonical_outputs(&serial));
        assert!(report.stats.recovery.retransmits > 0, "{}", report.stats);
    }

    /// `reg` with every invocation counted per task.
    fn counting(reg: &Registry) -> (Registry, Arc<Mutex<HashMap<TaskId, u32>>>) {
        let counts = Arc::new(Mutex::new(HashMap::new()));
        let mut out = Registry::new();
        for (id, cb) in reg.iter() {
            let (cb, counts) = (cb.clone(), counts.clone());
            out.register(id, move |inputs, task| {
                *counts.lock().unwrap().entry(task).or_insert(0) += 1;
                cb(inputs, task)
            });
        }
        (out, counts)
    }

    #[test]
    fn killed_worker_task_is_refired() {
        let g = Reduction::new(4, 2);
        let reg = sum_registry();
        let serial = run_serial(&g, &reg, reduction_inputs(&g)).unwrap();
        let map = ModuloMap::new(2, g.size() as u64);
        let faults = FaultPlan { kill_worker: vec![(0, 0)], ..FaultPlan::none() };
        let (counted, counts) = counting(&reg);
        let mut c = MpiController::new().with_workers(2).with_faults(faults);
        let report = c.run(&g, &map, &counted, reduction_inputs(&g)).unwrap();
        assert_eq!(canonical_outputs(&report), canonical_outputs(&serial));
        // The doomed worker is handed rank 0's first task, whatever its
        // sibling does: it dies holding it and hands it back, and the
        // task runs once, on the sibling. So does every other task.
        assert_eq!(report.stats.recovery.retries, 1, "{}", report.stats);
        let counts = counts.lock().unwrap();
        assert_eq!(counts.len(), g.size());
        assert!(counts.values().all(|&n| n == 1), "{counts:?}");
    }

    #[test]
    fn a_long_callback_on_a_live_worker_is_not_retried() {
        let g = Reduction::new(4, 2);
        let mut reg = sum_registry();
        let root = reg.get(CallbackId(2)).unwrap().clone();
        reg.rebind(CallbackId(2), move |inputs, id| {
            std::thread::sleep(Duration::from_millis(1500));
            root(inputs, id)
        });
        let map = ModuloMap::new(2, g.size() as u64);
        let report = MpiController::new().run(&g, &map, &reg, reduction_inputs(&g)).unwrap();
        assert_eq!(report.stats.recovery.retries, 0, "{}", report.stats);
        assert_eq!(report.stats.tasks_executed, g.size() as u64);
    }

    #[test]
    fn killing_every_worker_is_an_error_not_a_hang() {
        let g = Reduction::new(4, 2);
        let map = ModuloMap::new(2, g.size() as u64);
        let faults = FaultPlan { kill_worker: vec![(1, 0)], ..FaultPlan::none() };
        let err = MpiController::new()
            .with_workers(1)
            .with_faults(faults)
            .run(&g, &map, &sum_registry(), reduction_inputs(&g))
            .unwrap_err();
        assert!(matches!(err, ControllerError::Runtime(_)), "{err}");
    }

    /// Task 0 (one external input) feeds tasks 1 and 2, which feed task 3.
    fn diamond() -> ExplicitGraph {
        let task = |id, cb, incoming: Vec<u64>, outgoing: Vec<u64>| {
            let mut t = Task::new(TaskId(id), CallbackId(cb));
            t.incoming = incoming.into_iter().map(TaskId).collect();
            t.outgoing = vec![outgoing.into_iter().map(TaskId).collect()];
            t
        };
        let ext = TaskId::EXTERNAL.0;
        ExplicitGraph::new(
            vec![
                task(0, 0, vec![ext], vec![1, 2]),
                task(1, 1, vec![0], vec![3]),
                task(2, 1, vec![0], vec![3]),
                task(3, 2, vec![1, 2], vec![ext]),
            ],
            vec![CallbackId(0), CallbackId(1), CallbackId(2)],
        )
    }

    /// Run `g` on a lenient plan over two ranks, serial first, then on
    /// both MPI controllers, each with how long it took to fail.
    fn run_lenient(
        g: &ExplicitGraph,
        inputs: &InitialInputs,
    ) -> (ControllerError, Vec<(&'static str, Duration, ControllerError)>) {
        let (reg, map) = (sum_registry(), ModuloMap::new(2, g.size() as u64));
        let plan = Arc::new(ShardPlan::build(g, &map).lenient());
        let serial = SerialController::new()
            .with_plan(plan.clone())
            .run(g, &map, &reg, inputs.clone())
            .unwrap_err();
        let mpi: [Box<dyn Controller>; 2] = [
            Box::new(MpiController::new().with_plan(plan.clone())),
            Box::new(BlockingMpiController::new().with_plan(plan)),
        ];
        let timed = mpi.into_iter().map(|mut c| {
            let started = Instant::now();
            let err = c.run(g, &map, &reg, inputs.clone()).unwrap_err();
            (c.name(), started.elapsed(), err)
        });
        (serial, timed.collect())
    }

    #[test]
    fn dangling_input_deadlocks_at_once_with_serials_pending_set() {
        // Task 0's input comes from task 42, which is not in the graph:
        // no task can ever run.
        let mut g = diamond();
        g.task_mut(TaskId(0)).unwrap().incoming = vec![TaskId(42)];
        let (serial, mpi) = run_lenient(&g, &InitialInputs::new());
        let ControllerError::Deadlock { pending } = &serial else { panic!("serial: {serial}") };
        assert_eq!(pending.len(), 4);
        for (name, elapsed, err) in mpi {
            assert!(
                matches!(&err, ControllerError::Deadlock { pending: p } if p == pending),
                "{name}: {err}"
            );
            assert!(elapsed < Duration::from_millis(100), "{name}: {elapsed:?}");
        }
    }

    #[test]
    fn data_for_a_finished_rank_is_a_runtime_error() {
        // The root, the last task to run, also sends to task 76, which is
        // not in the graph and maps to rank 0 — done by then.
        let mut g = diamond();
        g.task_mut(TaskId(3)).unwrap().outgoing[0].push(TaskId(76));
        let inputs = InitialInputs::from([(TaskId(0), vec![Payload::wrap(Blob(vec![0; 8]))])]);
        let (serial, mpi) = run_lenient(&g, &inputs);
        assert!(matches!(serial, ControllerError::Runtime(_)), "serial: {serial}");
        for (name, elapsed, err) in mpi {
            assert!(matches!(err, ControllerError::Runtime(_)), "{name}: {err}");
            assert!(elapsed < Duration::from_millis(100), "{name}: {elapsed:?}");
        }
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
                BlockingMpiController::new().run(&g, &map, &poisoned, reduction_inputs(&g))
            } else {
                MpiController::new().run(&g, &map, &poisoned, reduction_inputs(&g))
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
        let map = ModuloMap::new(2, g.size() as u64);
        // The root, then the reductions in the middle of the graph: their
        // peers wait for outputs that never come.
        for cb in [2, 1] {
            let mut reg = sum_registry();
            reg.rebind(CallbackId(cb), |_, _| -> Vec<Payload> {
                panic!("{}: task always fails", babelflow_core::PANIC_MARKER)
            });
            let mpi: [Box<dyn Controller>; 2] =
                [Box::new(MpiController::new()), Box::new(BlockingMpiController::new())];
            for mut c in mpi {
                let started = Instant::now();
                let err = c.run(&g, &map, &reg, reduction_inputs(&g)).unwrap_err();
                let elapsed = started.elapsed();
                assert!(
                    matches!(err, ControllerError::TaskError { .. }),
                    "{} cb {cb}: got {err}",
                    c.name()
                );
                assert!(elapsed < Duration::from_millis(100), "{} cb {cb}: {elapsed:?}", c.name());
            }
        }
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
            // The panicking rank's endpoint releases its peer as it
            // unwinds.
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
        // that no one dispatches, with the producer already completed.
        let g = Reduction::new(16, 2);
        let reg = sum_registry();
        let map = ModuloMap::new(1, g.size() as u64);
        let sink = std::sync::Arc::new(PanicOnCompletingSend::default());
        let started = std::time::Instant::now();
        let err = MpiController::new()
            .run_traced(&g, &map, &reg, reduction_inputs(&g), sink)
            .unwrap_err();
        assert!(matches!(err, ControllerError::Runtime(_)), "{err}");
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
