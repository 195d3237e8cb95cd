//! Workspace-level integration: the paper's portability guarantee, checked
//! across crates — identical dataflow outputs on every runtime backend,
//! including composed graphs, and (the differential conformance suite at
//! the bottom) identical outputs *under injected faults*.

use std::collections::HashMap;
use std::sync::Arc;

use babelflow::core::proptest_lite::prelude::*;
use babelflow::core::rng::Rng;
use babelflow::core::{
    canonical_outputs, inject_panics, quiet_panic_hook, run_serial, Blob, CallbackId, ChainGraph,
    Controller, ControllerError, DiagnosticCode, FaultPlan, FnMap, Link, ModuloMap, OffsetGraph,
    Payload, Registry, Severity, ShardId, ShardPlan, SpanKind, TaskGraph, TaskId, TaskMap,
    TraceEvent, TraceSink, PANIC_MARKER,
};
use babelflow::graphs::{BinarySwap, Broadcast, KWayMerge, NeighborGraph, Reduction};

fn val(p: &Payload) -> u64 {
    u64::from_le_bytes(p.extract::<Blob>().unwrap().0.as_slice().try_into().unwrap())
}

fn pay(v: u64) -> Payload {
    Payload::wrap(Blob(v.to_le_bytes().to_vec()))
}

/// Reduce 8 values to a sum, then broadcast the sum back to 8 consumers —
/// a composed graph built with the prefix technique of §III.
fn reduce_then_broadcast() -> (ChainGraph, Registry) {
    let red = Reduction::new(8, 2);
    let bc = Broadcast::new(8, 2).with_callbacks(CallbackId(3), CallbackId(4));
    let red_size = red.size() as u64;
    let root_in_second_space = TaskId(red_size); // broadcast root after offset

    let first: Arc<dyn TaskGraph> = Arc::new(red);
    let second: Arc<dyn TaskGraph> = Arc::new(OffsetGraph::new(Arc::new(bc), red_size, 0));
    let chain = ChainGraph::new(
        first,
        second,
        vec![Link { from: TaskId(0), to: root_in_second_space }],
    );

    let mut reg = Registry::new();
    reg.register(CallbackId(0), |inputs, _| vec![inputs[0].clone()]); // leaf
    reg.register(CallbackId(1), |inputs, _| vec![pay(inputs.iter().map(val).sum())]);
    reg.register(CallbackId(2), |inputs, _| vec![pay(inputs.iter().map(val).sum())]); // root
    reg.register(CallbackId(3), |inputs, _| vec![inputs[0].clone()]); // relay
    reg.register(CallbackId(4), |inputs, _| vec![pay(val(&inputs[0]) + 1)]); // bcast leaf
    (chain, reg)
}

fn inputs(graph: &dyn TaskGraph) -> HashMap<TaskId, Vec<Payload>> {
    graph
        .input_tasks()
        .into_iter()
        .enumerate()
        .map(|(i, id)| (id, vec![pay(i as u64 + 1)]))
        .collect()
}

#[test]
fn composed_graph_runs_identically_on_every_backend() {
    let (chain, reg) = reduce_then_broadcast();
    let ids = chain.ids();
    let explicit = babelflow::core::FnMap::new(3, ids, |t| {
        babelflow::core::ShardId((t.0 % 3) as u32)
    });
    let lint = babelflow::core::lint_graph(&chain, &explicit);
    assert!(lint.is_empty(), "{lint}");

    let serial = run_serial(&chain, &reg, inputs(&chain)).unwrap();
    // Sum of 1..=8 = 36; every broadcast leaf emits 37.
    assert_eq!(serial.outputs.len(), 8);
    for payloads in serial.outputs.values() {
        assert_eq!(val(&payloads[0]), 37);
    }
    let canon = canonical_outputs(&serial);

    let r = babelflow::mpi::MpiController::new()
        .run(&chain, &explicit, &reg, inputs(&chain))
        .unwrap();
    assert_eq!(canonical_outputs(&r), canon, "mpi");

    let r = babelflow::mpi::BlockingMpiController::new()
        .run(&chain, &explicit, &reg, inputs(&chain))
        .unwrap();
    assert_eq!(canonical_outputs(&r), canon, "mpi-blocking");

    let r = babelflow::charm::CharmController::new(3)
        .run(&chain, &explicit, &reg, inputs(&chain))
        .unwrap();
    assert_eq!(canonical_outputs(&r), canon, "charm");

    let r = babelflow::legion::LegionSpmdController::new(3)
        .run(&chain, &explicit, &reg, inputs(&chain))
        .unwrap();
    assert_eq!(canonical_outputs(&r), canon, "legion-spmd");

    let r = babelflow::legion::LegionIndexLaunchController::new(3)
        .run(&chain, &explicit, &reg, inputs(&chain))
        .unwrap();
    assert_eq!(canonical_outputs(&r), canon, "legion-il");
}

#[test]
fn over_decomposition_runs_on_a_single_rank() {
    // "Any backend can execute task graphs of arbitrary size, on a single
    // node or even serially."
    let (chain, reg) = reduce_then_broadcast();
    let ids = chain.ids();
    let one = babelflow::core::FnMap::new(1, ids, |_| babelflow::core::ShardId(0));
    let serial = run_serial(&chain, &reg, inputs(&chain)).unwrap();
    let r = babelflow::mpi::MpiController::new()
        .run(&chain, &one, &reg, inputs(&chain))
        .unwrap();
    assert_eq!(canonical_outputs(&r), canonical_outputs(&serial));
    assert_eq!(r.stats.remote_messages, 0, "single rank sends nothing remotely");
}

// ---------------------------------------------------------------------------
// Differential fault-injection conformance suite (the fault-model oracle).
//
// Each case derives, from one seed: a graph from one of the five library
// families, seeded external inputs, a rank count, and a random
// `FaultPlan`. The fault-free serial run is the byte-level golden; every
// backend must then converge to it — the MPI backends under the full
// message-fault plan (drops, duplicates, delays, a killed worker), every
// backend under one-shot callback panics. Failures name the backend and
// the case seed, and the proptest_lite runner prints its stream seed for
// exact replay.
// ---------------------------------------------------------------------------

/// FNV-1a over a byte slice, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A registry binding every callback the graph uses to the same
/// deterministic hash-combiner: output `slot` is a mix of all input bytes,
/// the task id, and the slot index. Any dropped, duplicated, or re-ordered
/// effect anywhere in the dataflow changes the root-level bytes, so
/// byte-matching the serial golden is a whole-run integrity check.
fn hash_registry(graph: Arc<dyn TaskGraph + Send + Sync>) -> Registry {
    // Bind every callback the graph declares (preflight checks the
    // declared set, which can exceed the callbacks actually on tasks).
    let mut cbs: Vec<CallbackId> = graph.callback_ids();
    cbs.extend(graph.ids().iter().filter_map(|&id| graph.task(id)).map(|t| t.callback));
    cbs.sort_unstable();
    cbs.dedup();
    let mut reg = Registry::new();
    for cb in cbs {
        let g = graph.clone();
        reg.register(cb, move |inputs, id| {
            let fan_out = g.task(id).map_or(1, |t| t.fan_out());
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for p in &inputs {
                let blob = p.extract::<Blob>().expect("conformance payloads are blobs");
                h = fnv1a(h, &blob.0).rotate_left(7);
            }
            h ^= id.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (0..fan_out)
                .map(|slot| {
                    let mut x = h ^ (slot as u64).wrapping_mul(0xff51_afd7_ed55_8ccd);
                    x ^= x >> 33;
                    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
                    x ^= x >> 29;
                    pay(x)
                })
                .collect()
        });
    }
    reg
}

/// One graph from the five library families, sized small enough that a
/// case stays fast but deep enough to cross ranks.
fn sample_graph(rng: &mut Rng) -> Arc<dyn TaskGraph + Send + Sync> {
    match rng.random_range(0u32..5) {
        0 => {
            let k = rng.random_range(2u64..=3);
            let d = rng.random_range(1u32..=3);
            Arc::new(Reduction::new(k.pow(d), k))
        }
        1 => {
            let k = rng.random_range(2u64..=3);
            let d = rng.random_range(1u32..=3);
            Arc::new(Broadcast::new(k.pow(d), k))
        }
        2 => Arc::new(BinarySwap::new(1 << rng.random_range(1u32..=3))),
        3 => {
            let k = rng.random_range(2u64..=3);
            let d = rng.random_range(1u32..=2);
            Arc::new(KWayMerge::new(k.pow(d), k))
        }
        _ => {
            let gx = rng.random_range(2u64..=3);
            let gy = rng.random_range(1u64..=2);
            let slabs = rng.random_range(1u64..=2);
            Arc::new(NeighborGraph::new(gx, gy, slabs))
        }
    }
}

/// Seed-derived external inputs: one payload per external slot.
fn seeded_inputs(graph: &dyn TaskGraph, seed: u64) -> HashMap<TaskId, Vec<Payload>> {
    graph
        .input_tasks()
        .into_iter()
        .map(|id| {
            let task = graph.task(id).expect("input task exists");
            let externals = task.incoming.iter().filter(|s| s.is_external()).count();
            let payloads = (0..externals as u64)
                .map(|slot| pay(seed ^ id.0.rotate_left(17).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ slot))
                .collect();
            (id, payloads)
        })
        .collect()
}

/// Run one conformance case on all six backends; `Err` names the first
/// diverging backend.
fn run_conformance_case(case_seed: u64) -> Result<(), String> {
    let mut rng = Rng::seed_from_u64(case_seed);
    let graph = sample_graph(&mut rng);
    let ranks = rng.random_range(2u32..=3);
    let input_seed = rng.next_u64();
    let ids = graph.ids();
    let plan = FaultPlan::random(rng.next_u64(), ranks as usize, &ids);

    let reg = hash_registry(graph.clone());
    let golden = run_serial(&*graph, &reg, seeded_inputs(&*graph, input_seed))
        .map_err(|e| format!("fault-free serial golden failed: {e}"))?;
    let canon = canonical_outputs(&golden);

    let map = FnMap::new(ranks, ids, move |t| ShardId((t.0 % ranks as u64) as u32));
    let shard_plan = babelflow::core::ShardPlan::build(&*graph, &map);

    let mut backends: Vec<(&str, Box<dyn Controller>)> = vec![
        ("serial", Box::new(babelflow::core::SerialController::new())),
        (
            "mpi-async",
            Box::new(
                babelflow::mpi::MpiController::new().with_workers(2).with_faults(plan.clone()),
            ),
        ),
        (
            "mpi-blocking",
            Box::new(
                babelflow::mpi::BlockingMpiController::new().with_faults(plan.message_faults()),
            ),
        ),
        ("charm", Box::new(babelflow::charm::CharmController::new(2))),
        ("legion-spmd", Box::new(babelflow::legion::LegionSpmdController::new(2))),
        ("legion-il", Box::new(babelflow::legion::LegionIndexLaunchController::new(2))),
    ];

    for (name, ctrl) in &mut backends {
        // Each backend re-arms the one-shot panics: every one of them must
        // absorb the callback fault, not just whichever ran first.
        let poisoned = inject_panics(&reg, &plan);
        let rec = babelflow::trace::TraceRecorder::shared();
        let report = ctrl
            .run_traced(&*graph, &map, &poisoned, seeded_inputs(&*graph, input_seed), rec.clone())
            .map_err(|e| format!("{name} failed under faults: {e}"))?;
        if canonical_outputs(&report) != canon {
            return Err(format!("{name} outputs diverge from the serial golden"));
        }
        if !plan.panic_once.is_empty() && report.stats.recovery.retries == 0 {
            return Err(format!(
                "{name} reported no retries although {} callback panics were armed",
                plan.panic_once.len()
            ));
        }
        // Every conformance case also proves happens-before consistency:
        // each task's first execution is ordered after its producers'.
        let hb = babelflow::verify::check_happens_before(&rec.take(), &shard_plan);
        if !hb.is_clean() {
            return Err(format!("{name} trace violates happens-before: {hb}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_backend_converges_to_the_serial_golden_under_faults(case_seed in any::<u64>()) {
        let res = run_conformance_case(case_seed);
        prop_assert!(res.is_ok(), "case_seed={case_seed:#x}: {}", res.unwrap_err());
    }
}

#[test]
fn conformance_cases_are_deterministic_under_a_fixed_seed() {
    // The same case seed must replay the same graph, inputs, and fault
    // schedule — the property the failure-seed printout relies on.
    let mut rng_a = Rng::seed_from_u64(0xBABE);
    let mut rng_b = Rng::seed_from_u64(0xBABE);
    let ga = sample_graph(&mut rng_a);
    let gb = sample_graph(&mut rng_b);
    assert_eq!(ga.ids(), gb.ids());
    let pa = FaultPlan::random(7, 3, &ga.ids());
    let pb = FaultPlan::random(7, 3, &gb.ids());
    assert_eq!(format!("{pa:?}"), format!("{pb:?}"));
    assert_eq!(
        canonical_outputs(&run_serial(&*ga, &hash_registry(ga.clone()), seeded_inputs(&*ga, 5)).unwrap()),
        canonical_outputs(&run_serial(&*gb, &hash_registry(gb.clone()), seeded_inputs(&*gb, 5)).unwrap()),
    );
    run_conformance_case(0xBABE).unwrap();
}

// ---------------------------------------------------------------------------
// One validator for six backends: a graph whose `ids()`/`task()`/`size()`
// do not describe one graph, whose tasks use a callback nobody bound, or
// whose map places a task on a shard no rank hosts, is rejected at
// preflight with its BF code on every backend, on a strict plan and on a
// lenient one alike — it never runs and never panics.
// ---------------------------------------------------------------------------

/// A `Reduction(4, 2)` whose procedural description is broken in the one
/// way `defect` names (left intact for a code it has no arm for).
struct Broken {
    inner: Reduction,
    defect: DiagnosticCode,
}

impl Broken {
    const STRANGER: TaskId = TaskId(1_000);
}

impl TaskGraph for Broken {
    fn size(&self) -> usize {
        let n = self.ids().len();
        n + usize::from(self.defect == DiagnosticCode::SizeMismatch)
    }

    fn task(&self, id: TaskId) -> Option<babelflow::core::Task> {
        let mut t = self.inner.task(id)?;
        if id == self.inner.root_id() {
            match self.defect {
                DiagnosticCode::TaskIdMismatch => t.id = Self::STRANGER,
                DiagnosticCode::UnregisteredCallback => t.callback = CallbackId(99),
                _ => {}
            }
        }
        Some(t)
    }

    fn callback_ids(&self) -> Vec<CallbackId> {
        self.inner.callback_ids()
    }

    fn ids(&self) -> Vec<TaskId> {
        let mut ids = self.inner.ids();
        match self.defect {
            DiagnosticCode::DuplicateTaskId => ids.push(ids[0]),
            DiagnosticCode::MissingTask => ids.push(Self::STRANGER),
            _ => {}
        }
        ids
    }
}

/// A map that places one task on a shard no rank hosts.
struct Exile {
    inner: ModuloMap,
    victim: TaskId,
}

impl TaskMap for Exile {
    fn shard(&self, task: TaskId) -> ShardId {
        if task == self.victim {
            ShardId(self.inner.num_shards() + 7)
        } else {
            self.inner.shard(task)
        }
    }
    fn tasks(&self, shard: ShardId) -> Vec<TaskId> {
        self.inner.tasks(shard)
    }
    fn num_shards(&self) -> u32 {
        self.inner.num_shards()
    }
}

/// The six backends, each bound to `plan` when one is given.
fn six_backends(plan: Option<Arc<ShardPlan>>) -> Vec<(&'static str, Box<dyn Controller>)> {
    fn boxed<C: Controller + 'static>(c: C, plan: &Option<Arc<ShardPlan>>) -> Box<dyn Controller> {
        match plan {
            Some(plan) => Box::new(c.with_plan(plan.clone())),
            None => Box::new(c),
        }
    }
    vec![
        ("serial", boxed(babelflow::core::SerialController::new(), &plan)),
        ("mpi-async", boxed(babelflow::mpi::MpiController::new(), &plan)),
        ("mpi-blocking", boxed(babelflow::mpi::BlockingMpiController::new(), &plan)),
        ("charm", boxed(babelflow::charm::CharmController::new(2), &plan)),
        ("legion-spmd", boxed(babelflow::legion::LegionSpmdController::new(2), &plan)),
        ("legion-il", boxed(babelflow::legion::LegionIndexLaunchController::new(2), &plan)),
    ]
}

#[test]
fn broken_contracts_are_rejected_alike_by_every_backend() {
    let pristine = Reduction::new(4, 2);
    let reg = hash_registry(Arc::new(pristine.clone()));
    let map = ModuloMap::new(2, pristine.size() as u64);
    let exile = Exile { inner: map.clone(), victim: pristine.root_id() };
    for (name, mut ctrl) in six_backends(None) {
        ctrl.run(&pristine, &map, &reg, inputs(&pristine))
            .unwrap_or_else(|e| panic!("{name}: the pristine graph fails: {e}"));
    }

    for defect in [
        DiagnosticCode::DuplicateTaskId,
        DiagnosticCode::SizeMismatch,
        DiagnosticCode::MissingTask,
        DiagnosticCode::TaskIdMismatch,
        DiagnosticCode::UnregisteredCallback,
        DiagnosticCode::UnmappedTask,
    ] {
        let g = Broken { inner: pristine.clone(), defect };
        let map: &dyn TaskMap = if defect == DiagnosticCode::UnmappedTask { &exile } else { &map };
        let lenient = Arc::new(ShardPlan::build(&g, map).lenient());
        for (mode, plan) in [("strict", None), ("lenient", Some(lenient))] {
            for (name, mut ctrl) in six_backends(plan.clone()) {
                match ctrl.run(&g, map, &reg, inputs(&pristine)) {
                    Err(ControllerError::LintRejected(rep))
                        if rep.of_code(defect).any(|d| d.severity == Severity::Error) => {}
                    other => panic!("{defect} on {mode} {name}: expected {defect}, got {other:?}"),
                }
            }
        }
    }
}

/// Panics on the first `MsgSend` it is handed, from whichever runtime
/// thread records it.
struct PanicOnFirstSend(std::sync::atomic::AtomicBool);

impl TraceSink for PanicOnFirstSend {
    fn record(&self, event: TraceEvent) {
        if event.kind == SpanKind::MsgSend && !self.0.swap(true, std::sync::atomic::Ordering::SeqCst)
        {
            panic!("{PANIC_MARKER}: trace sink fails");
        }
    }
}

/// A panic on a runtime thread outside any callback (callback panics are
/// retried) must end the run with `ControllerError::Runtime` within 2 s,
/// not hang, on every backend that runs threads of its own. Each run
/// reports over a channel, so a hang fails the test instead of stalling
/// it. Serial runs everything on the caller's thread, so its panic is the
/// caller's and stays out of scope.
#[test]
fn panicking_runtime_thread_is_an_error_not_a_hang() {
    quiet_panic_hook();
    for (name, _) in six_backends(None).into_iter().filter(|(n, _)| *n != "serial") {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let g = Reduction::new(8, 2);
            let reg = hash_registry(Arc::new(g.clone()));
            let map = ModuloMap::new(2, g.size() as u64);
            let (_, mut ctrl) = six_backends(None).into_iter().find(|(n, _)| *n == name).unwrap();
            let sink = Arc::new(PanicOnFirstSend(Default::default()));
            let result = ctrl.run_traced(&g, &map, &reg, inputs(&g), sink);
            let _ = tx.send((matches!(result, Err(ControllerError::Runtime(_))), format!("{result:?}")));
        });
        let (is_runtime_error, got) = rx
            .recv_timeout(std::time::Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("{name}: no result within 2 s"));
        assert!(is_runtime_error, "{name}: got {got}");
    }
}
