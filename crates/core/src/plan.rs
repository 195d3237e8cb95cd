//! Shard-local execution plans: the steady-state fast path.
//!
//! The EDSL's graphs are *procedural* — [`TaskGraph::task`] computes a
//! [`Task`] by value on every call, which is what makes million-task
//! graphs free to "instantiate". But a controller that re-queries the
//! graph per message (and re-clones the returned `Task`) pays that
//! computation on the hot path, once per delivery. A [`ShardPlan`] is
//! built **once** per run (or once ever, via
//! [`Controller::with_plan`](crate::Controller::with_plan)): it queries
//! every task exactly one time and precomputes everything the steady
//! state needs —
//!
//! * an interned task table (no more `Task` clones per query),
//! * fan-in counts and per-source input-slot maps (no per-delivery
//!   scratch allocation: see [`PlanBuffer::deliver`]),
//! * per-edge destination shards (no `TaskMap` calls while routing),
//! * per-edge consumer input slots, numbered densely across the plan
//!   (see [`Route::input`] and [`ShardPlan::slot_base`]),
//! * the shard-local task lists and the input/output task sets that
//!   controllers previously derived by scanning the whole id space.
//!
//! Controllers count their remaining procedural queries in
//! [`PerfStats::task_queries`](crate::PerfStats) — a plan build
//! contributes exactly `size()` queries, and a reused plan contributes
//! zero — which is how the perf smoke proves the fast path stays fast
//! on a machine too noisy for wall-clock gates.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

use crate::controller::{ControllerError, InitialInputs, Result};
use crate::graph::TaskGraph;
use crate::ids::{CallbackId, ShardId, TaskId};
use crate::lint::{self, DiagnosticCode, Severity, VerifyReport};
use crate::payload::Payload;
use crate::registry::Registry;
use crate::task::Task;
use crate::taskmap::TaskMap;

/// One precomputed edge destination: the receiving task, the shard it is
/// mapped to, and the input slot the edge fills. External outputs use
/// [`TaskId::EXTERNAL`] as `dst`; their `shard` is meaningless and never
/// read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Receiving task ([`TaskId::EXTERNAL`] for host outputs).
    pub dst: TaskId,
    /// Shard the receiver is placed on (undefined for external routes).
    pub shard: ShardId,
    /// The receiver's plan index and the input slot this edge fills: the
    /// `k`-th route from a producer to a consumer fills the `k`-th slot
    /// the consumer wires to that producer, the order in which a FIFO
    /// channel delivers. `None` for external routes and for edges the
    /// consumer does not accept (a missing task, or more routes than
    /// wired slots — possible only on a [`lenient`](ShardPlan::lenient)
    /// plan).
    pub input: Option<(u32, u32)>,
}

impl Route {
    /// Whether this route leaves the graph toward the host application.
    pub fn is_external(&self) -> bool {
        self.dst.is_external()
    }
}

/// An interned task plus everything precomputed about its edges.
#[derive(Debug, Clone)]
pub struct PlanTask {
    /// The task exactly as the procedural graph returned it.
    pub task: Task,
    /// Shard this task is placed on by the run's [`TaskMap`].
    pub shard: ShardId,
    /// Number of input slots fed by the host application.
    pub external_inputs: usize,
    /// Per distinct producer: the input-slot indices it feeds, in slot
    /// order. Replaces the per-delivery
    /// [`input_slots_from`](Task::input_slots_from) scan-and-collect.
    pub sources: Vec<(TaskId, Vec<u32>)>,
    /// Per output slot: the precomputed routes of every consumer.
    pub routes: Vec<Vec<Route>>,
}

impl PlanTask {
    /// The task's globally unique id.
    pub fn id(&self) -> TaskId {
        self.task.id
    }

    /// The callback executing this task.
    pub fn callback(&self) -> CallbackId {
        self.task.callback
    }

    /// Number of input slots.
    pub fn fan_in(&self) -> usize {
        self.task.fan_in()
    }

    /// Number of output slots.
    pub fn fan_out(&self) -> usize {
        self.routes.len()
    }
}

/// A fully precomputed execution plan for one `(graph, map)` pair.
///
/// Build once with [`ShardPlan::build`], then share (it is immutable) —
/// typically as an `Arc<ShardPlan>` handed to a controller, so repeated
/// runs of the same dataflow never touch the procedural graph again.
#[derive(Debug)]
pub struct ShardPlan {
    tasks: Vec<PlanTask>,
    index: HashMap<TaskId, u32>,
    slot_base: Vec<u32>,
    locals: Vec<Vec<u32>>,
    inputs: Vec<u32>,
    outputs: Vec<u32>,
    callback_ids: Vec<CallbackId>,
    num_shards: u32,
    build_queries: u64,
    lint: VerifyReport,
    enforce_lint: bool,
}

impl ShardPlan {
    /// Build a plan by querying every task of `graph` exactly once and
    /// resolving every edge destination through `map`.
    ///
    /// The plan holds one task per id: an id `ids()` repeats (BF008), an
    /// id `task()` has no task for (BF010) and a task carrying another id
    /// (BF011) are recorded in [`lint`](Self::lint) and left out, as is a
    /// `size()` that disagrees with `ids()` (BF009).
    pub fn build(graph: &dyn TaskGraph, map: &dyn TaskMap) -> Self {
        let num_shards = map.num_shards();
        let size = graph.size();
        let mut tasks = Vec::with_capacity(size);
        let mut index = HashMap::with_capacity(size);
        let mut locals = vec![Vec::new(); num_shards as usize];
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        let mut callback_ids = graph.callback_ids();
        let mut build_queries = 0u64;
        let mut lint = VerifyReport::new();

        let ids = graph.ids();
        if ids.len() != size {
            lint.push(
                DiagnosticCode::SizeMismatch,
                Severity::Error,
                None,
                format!("size() is {size} but ids() lists {} ids", ids.len()),
            );
        }
        for id in ids {
            let Entry::Vacant(vacant) = index.entry(id) else {
                lint.push(
                    DiagnosticCode::DuplicateTaskId,
                    Severity::Error,
                    Some(id),
                    "ids() lists the id more than once; the plan keeps its first task".into(),
                );
                continue;
            };
            build_queries += 1;
            let Some(task) = graph.task(id) else {
                lint.push(
                    DiagnosticCode::MissingTask,
                    Severity::Error,
                    Some(id),
                    "ids() lists the id but task() returns None".into(),
                );
                continue;
            };
            if task.id != id {
                lint.push(
                    DiagnosticCode::TaskIdMismatch,
                    Severity::Error,
                    Some(id),
                    format!("task() returns a task with id {}; the plan drops it", task.id),
                );
                continue;
            }
            if !callback_ids.contains(&task.callback) {
                lint.push(
                    DiagnosticCode::UnregisteredCallback,
                    Severity::Warning,
                    Some(id),
                    format!("uses callback {}, which the graph does not advertise", task.callback),
                );
                callback_ids.push(task.callback);
            }
            let shard = map.shard(id);

            let mut sources: Vec<(TaskId, Vec<u32>)> = Vec::new();
            for (slot, &src) in task.incoming.iter().enumerate() {
                match sources.iter_mut().find(|(s, _)| *s == src) {
                    Some((_, slots)) => slots.push(slot as u32),
                    None => sources.push((src, vec![slot as u32])),
                }
            }
            let external_inputs =
                task.incoming.iter().filter(|t| t.is_external()).count();

            let routes: Vec<Vec<Route>> = task
                .outgoing
                .iter()
                .map(|dsts| {
                    dsts.iter()
                        .map(|&dst| Route {
                            dst,
                            shard: if dst.is_external() {
                                ShardId(u32::MAX)
                            } else {
                                map.shard(dst)
                            },
                            input: None,
                        })
                        .collect()
                })
                .collect();

            let ix = tasks.len() as u32;
            vacant.insert(ix);
            if (shard.0 as usize) < locals.len() {
                locals[shard.0 as usize].push(ix);
            }
            if external_inputs > 0 {
                inputs.push(ix);
            }
            if routes.iter().flatten().any(Route::is_external) {
                outputs.push(ix);
            }
            tasks.push(PlanTask { task, shard, external_inputs, sources, routes });
        }

        // Resolve every internal route to the consumer slot it fills, now
        // that every consumer's `sources` map exists.
        let mut sent: Vec<TaskId> = Vec::new();
        for p in 0..tasks.len() {
            let src = tasks[p].task.id;
            sent.clear();
            for slot in 0..tasks[p].routes.len() {
                for r in 0..tasks[p].routes[slot].len() {
                    let dst = tasks[p].routes[slot][r].dst;
                    let Some(&c) = index.get(&dst) else { continue };
                    let k = sent.iter().filter(|&&t| t == dst).count();
                    sent.push(dst);
                    let wired = tasks[c as usize].sources.iter().find(|(s, _)| *s == src);
                    tasks[p].routes[slot][r].input =
                        wired.and_then(|(_, slots)| slots.get(k)).map(|&s| (c, s));
                }
            }
        }
        let mut slot_base = vec![0u32];
        for pt in &tasks {
            slot_base.push(slot_base[slot_base.len() - 1] + pt.fan_in() as u32);
        }

        lint.merge(lint::lint_plan(&tasks, &index, num_shards));
        ShardPlan {
            tasks,
            index,
            slot_base,
            locals,
            inputs,
            outputs,
            callback_ids,
            num_shards,
            build_queries,
            lint,
            enforce_lint: true,
        }
    }

    /// The lint findings computed at build time: every code but the
    /// registry-dependent BF004 Errors, which run at
    /// [`preflight`](Self::preflight).
    pub fn lint(&self) -> &VerifyReport {
        &self.lint
    }

    /// Downgrade lint enforcement: [`preflight`](Self::preflight) will no
    /// longer reject the plan on `Error`-level dataflow diagnostics.
    /// The findings stay available through [`lint`](Self::lint); the run
    /// then fails (or stalls) wherever the defect actually bites — which
    /// is exactly what debugging a checker, or testing a controller's own
    /// deadlock detection, needs. A broken
    /// [contract](DiagnosticCode::is_contract) is still rejected.
    pub fn lenient(mut self) -> Self {
        self.enforce_lint = false;
        self
    }

    /// Whether preflight rejects `Error`-level dataflow findings.
    pub fn enforces_lint(&self) -> bool {
        self.enforce_lint
    }

    /// Number of interned tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the plan holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The interned task at plan index `ix`.
    pub fn task(&self, ix: u32) -> &PlanTask {
        &self.tasks[ix as usize]
    }

    /// All interned tasks, in plan-index order (ascending id order as
    /// produced by the graph's `ids()`).
    pub fn tasks(&self) -> &[PlanTask] {
        &self.tasks
    }

    /// Plan index of a task id, if the id exists in the graph.
    pub fn index_of(&self, id: TaskId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// The interned task with the given id.
    pub fn task_by_id(&self, id: TaskId) -> Option<&PlanTask> {
        self.index_of(id).map(|ix| self.task(ix))
    }

    /// Global number of input slot 0 of the task at plan index `ix`:
    /// every input slot of the plan has one dense number,
    /// `slot_base(ix) + slot`, below [`num_input_slots`](Self::num_input_slots).
    pub fn slot_base(&self, ix: u32) -> u32 {
        self.slot_base[ix as usize]
    }

    /// Total input slots over every task of the plan.
    pub fn num_input_slots(&self) -> u32 {
        self.slot_base[self.tasks.len()]
    }

    /// Plan indices of the tasks placed on `shard`.
    pub fn local(&self, shard: ShardId) -> &[u32] {
        self.locals.get(shard.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Plan indices of tasks with host-supplied inputs.
    pub fn input_tasks(&self) -> &[u32] {
        &self.inputs
    }

    /// Plan indices of tasks producing host-consumed outputs.
    pub fn output_tasks(&self) -> &[u32] {
        &self.outputs
    }

    /// Every callback the plan uses: the ids the graph advertised at build
    /// time, then any a task uses without the graph advertising it.
    pub fn callback_ids(&self) -> &[CallbackId] {
        &self.callback_ids
    }

    /// Shard count of the map the plan was built with.
    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    /// How many procedural `task()` queries building this plan cost. A
    /// controller that builds the plan itself adds this to
    /// [`PerfStats::task_queries`](crate::PerfStats); one handed a
    /// prebuilt plan adds nothing.
    pub fn build_queries(&self) -> u64 {
        self.build_queries
    }

    /// Plan-based preflight, with zero graph queries: the lint computed
    /// at build time plus the registry-dependent BF004 pass
    /// ([`lint_bindings`](lint::lint_bindings)), then external-input arity.
    /// Any `Error`-level diagnostic rejects the run with
    /// [`LintRejected`](ControllerError::LintRejected) — on a
    /// [`lenient`](Self::lenient) plan, only a
    /// [contract](DiagnosticCode::is_contract) one.
    pub fn preflight(&self, registry: &Registry, initial: &InitialInputs) -> Result<()> {
        let bindings = lint::lint_bindings(self, registry);
        let rejects = |d: &lint::Diagnostic| {
            d.severity == Severity::Error && (self.enforce_lint || d.code.is_contract())
        };
        if self.lint.diagnostics().iter().chain(bindings.diagnostics()).any(rejects) {
            let mut report = self.lint.clone();
            report.merge(bindings);
            return Err(ControllerError::LintRejected(report));
        }
        for &ix in &self.inputs {
            let pt = &self.tasks[ix as usize];
            let got = initial.get(&pt.task.id).map_or(0, Vec::len);
            if pt.external_inputs != got {
                return Err(ControllerError::BadInitialInputs {
                    task: pt.task.id,
                    expected: pt.external_inputs,
                    got,
                });
            }
        }
        Ok(())
    }

    /// A deterministic topological execution order, as plan indices:
    /// Kahn's algorithm with smallest-id-first tie-breaking, then every
    /// task that never becomes ready (one with a dangling input, on a
    /// [`lenient`](Self::lenient) plan) in id order. Used by statically
    /// scheduled backends; derived entirely from the plan, in
    /// O(n log n).
    pub fn static_schedule(&self) -> Vec<u32> {
        let mut indegree: Vec<usize> =
            self.tasks.iter().map(|pt| pt.fan_in() - pt.external_inputs).collect();
        let key = |ix: u32| Reverse((self.tasks[ix as usize].task.id, ix));
        let mut frontier: BinaryHeap<_> = (0..self.tasks.len() as u32)
            .filter(|&ix| indegree[ix as usize] == 0)
            .map(key)
            .collect();
        let mut order = Vec::with_capacity(self.tasks.len());
        while let Some(Reverse((_, ix))) = frontier.pop() {
            order.push(ix);
            let consumers = self.tasks[ix as usize].routes.iter().flatten().filter_map(|r| r.input);
            for (c, _) in consumers {
                indegree[c as usize] -= 1;
                if indegree[c as usize] == 0 {
                    frontier.push(key(c));
                }
            }
        }
        let mut never: Vec<u32> =
            (0..self.tasks.len() as u32).filter(|&ix| indegree[ix as usize] > 0).collect();
        never.sort_by_key(|&ix| self.tasks[ix as usize].task.id);
        order.extend(never);
        order
    }
}

/// Input-slot buffer for one pending task, driven by a [`PlanTask`]'s
/// precomputed source map instead of the task's raw edge list.
///
/// It does not own a [`Task`] — the task stays interned in the plan — so
/// creating one per pending task clones nothing, and
/// [`PlanBuffer::deliver`] allocates nothing.
#[derive(Debug)]
pub struct PlanBuffer {
    ix: u32,
    slots: Vec<Option<Payload>>,
    missing: usize,
}

impl PlanBuffer {
    /// Create an empty buffer for the plan task at index `ix`.
    pub fn new(plan: &ShardPlan, ix: u32) -> Self {
        let n = plan.task(ix).fan_in();
        PlanBuffer { ix, slots: (0..n).map(|_| None).collect(), missing: n }
    }

    /// Plan index of the buffered task.
    pub fn ix(&self) -> u32 {
        self.ix
    }

    /// Deliver a payload from `src` into the first free slot wired to it.
    /// `pt` must be the plan task this buffer was created for. Returns
    /// `false` if no such slot exists or all are filled (a duplicate or
    /// misrouted message).
    pub fn deliver(&mut self, pt: &PlanTask, src: TaskId, payload: Payload) -> bool {
        debug_assert_eq!(
            pt.fan_in(),
            self.slots.len(),
            "PlanBuffer used with a foreign PlanTask"
        );
        let Some((_, slots)) = pt.sources.iter().find(|(s, _)| *s == src) else {
            return false;
        };
        for &slot in slots {
            let cell = &mut self.slots[slot as usize];
            if cell.is_none() {
                *cell = Some(payload);
                self.missing -= 1;
                return true;
            }
        }
        false
    }

    /// Whether all input slots are filled.
    pub fn ready(&self) -> bool {
        self.missing == 0
    }

    /// Number of still-empty slots.
    pub fn missing(&self) -> usize {
        self.missing
    }

    /// Consume the buffer, returning the inputs in slot order.
    ///
    /// # Panics
    /// If the buffer is not [`ready`](Self::ready).
    pub fn take(self) -> Vec<Payload> {
        assert!(self.missing == 0, "take() with {} inputs missing", self.missing);
        self.slots.into_iter().map(|p| p.expect("ready buffer")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ExplicitGraph;
    use crate::payload::Blob;
    use crate::sync::Counter;
    use crate::taskmap::ModuloMap;

    /// A [`TaskGraph`] wrapper counting every procedural `task()` query.
    struct CountingGraph<'g> {
        inner: &'g dyn TaskGraph,
        queries: Counter,
    }

    impl<'g> CountingGraph<'g> {
        fn new(inner: &'g dyn TaskGraph) -> Self {
            CountingGraph { inner, queries: Counter::new(0) }
        }

        fn queries(&self) -> u64 {
            self.queries.get()
        }
    }

    impl TaskGraph for CountingGraph<'_> {
        fn size(&self) -> usize {
            self.inner.size()
        }

        fn task(&self, id: TaskId) -> Option<Task> {
            self.queries.next();
            self.inner.task(id)
        }

        fn callback_ids(&self) -> Vec<CallbackId> {
            self.inner.callback_ids()
        }

        fn ids(&self) -> Vec<TaskId> {
            self.inner.ids()
        }
    }

    /// A diamond: 0 -> {1, 2} -> 3, with external input at 0 and external
    /// output at 3; task 3 takes both inputs from slot-ordered producers.
    fn diamond() -> ExplicitGraph {
        let mut t0 = Task::new(TaskId(0), CallbackId(0));
        t0.incoming = vec![TaskId::EXTERNAL];
        t0.outgoing = vec![vec![TaskId(1), TaskId(2)]];
        let mut t1 = Task::new(TaskId(1), CallbackId(1));
        t1.incoming = vec![TaskId(0)];
        t1.outgoing = vec![vec![TaskId(3)]];
        let mut t2 = Task::new(TaskId(2), CallbackId(1));
        t2.incoming = vec![TaskId(0)];
        t2.outgoing = vec![vec![TaskId(3)]];
        let mut t3 = Task::new(TaskId(3), CallbackId(2));
        t3.incoming = vec![TaskId(1), TaskId(2)];
        t3.outgoing = vec![vec![TaskId::EXTERNAL]];
        ExplicitGraph::new(
            vec![t0, t1, t2, t3],
            vec![CallbackId(0), CallbackId(1), CallbackId(2)],
        )
    }

    #[test]
    fn build_queries_each_task_once() {
        let g = diamond();
        let counting = CountingGraph::new(&g);
        let map = ModuloMap::new(2, 4);
        let plan = ShardPlan::build(&counting, &map);
        assert_eq!(plan.len(), 4);
        assert_eq!(counting.queries(), 4);
        assert_eq!(plan.build_queries(), 4);
    }

    #[test]
    fn routes_carry_destination_shards() {
        let g = diamond();
        let map = ModuloMap::new(2, 4);
        let plan = ShardPlan::build(&g, &map);
        let t0 = plan.task_by_id(TaskId(0)).unwrap();
        assert_eq!(t0.routes.len(), 1);
        assert_eq!(
            t0.routes[0],
            vec![
                Route { dst: TaskId(1), shard: ShardId(1), input: Some((1, 0)) },
                Route { dst: TaskId(2), shard: ShardId(0), input: Some((2, 0)) },
            ]
        );
        let t3 = plan.task_by_id(TaskId(3)).unwrap();
        assert!(t3.routes[0][0].is_external());
    }

    #[test]
    fn routes_resolve_consumer_slots_densely() {
        // 1 sends twice to 2 (parallel edges, in slot order), once to the
        // missing task 77, and once more to 2 than 2 wires; 2 also takes
        // two external inputs around its two slots from 1.
        let mut p = Task::new(TaskId(1), CallbackId(0));
        p.incoming = vec![TaskId::EXTERNAL];
        p.outgoing = vec![vec![TaskId(2), TaskId(77)], vec![TaskId(2), TaskId(2)]];
        let mut c = Task::new(TaskId(2), CallbackId(0));
        c.incoming = vec![TaskId::EXTERNAL, TaskId(1), TaskId::EXTERNAL, TaskId(1)];
        c.outgoing = vec![vec![TaskId::EXTERNAL]];
        let g = ExplicitGraph::new(vec![p, c], vec![CallbackId(0)]);
        let plan = ShardPlan::build(&g, &ModuloMap::new(1, 3));
        let inputs: Vec<Option<(u32, u32)>> =
            plan.task(0).routes.iter().flatten().map(|r| r.input).collect();
        assert_eq!(inputs, vec![Some((1, 1)), None, Some((1, 3)), None]);
        assert!(plan.task(1).routes[0][0].input.is_none());
        // Every input slot, external ones included, has a dense number.
        assert_eq!((plan.slot_base(0), plan.slot_base(1)), (0, 1));
        assert_eq!(plan.num_input_slots(), 5);
    }

    #[test]
    fn locals_and_io_sets_match_the_map() {
        let g = diamond();
        let map = ModuloMap::new(2, 4);
        let plan = ShardPlan::build(&g, &map);
        let ids = |ixs: &[u32]| -> Vec<u64> {
            ixs.iter().map(|&ix| plan.task(ix).id().0).collect()
        };
        assert_eq!(ids(plan.local(ShardId(0))), vec![0, 2]);
        assert_eq!(ids(plan.local(ShardId(1))), vec![1, 3]);
        assert_eq!(ids(plan.input_tasks()), vec![0]);
        assert_eq!(ids(plan.output_tasks()), vec![3]);
        assert_eq!(plan.num_shards(), 2);
    }

    #[test]
    fn plan_buffer_fills_in_slot_order_per_source() {
        let mut t = Task::new(TaskId(9), CallbackId(0));
        t.incoming = vec![TaskId(1), TaskId(2), TaskId(1)];
        let g = ExplicitGraph::new(vec![t], vec![CallbackId(0)]);
        let plan = ShardPlan::build(&g, &ModuloMap::new(1, 10));
        let ix = plan.index_of(TaskId(9)).unwrap();
        let pt = plan.task(ix);

        let mut b = PlanBuffer::new(&plan, ix);
        assert!(!b.ready());
        assert!(b.deliver(pt, TaskId(1), Payload::wrap(Blob(vec![10]))));
        assert!(b.deliver(pt, TaskId(1), Payload::wrap(Blob(vec![11]))));
        assert!(!b.deliver(pt, TaskId(1), Payload::wrap(Blob(vec![12]))));
        assert!(!b.deliver(pt, TaskId(5), Payload::wrap(Blob(vec![]))));
        assert!(b.deliver(pt, TaskId(2), Payload::wrap(Blob(vec![20]))));
        assert!(b.ready());
        let vals: Vec<u8> =
            b.take().iter().map(|p| p.extract::<Blob>().unwrap().0[0]).collect();
        assert_eq!(vals, vec![10, 20, 11]);
    }

    #[test]
    fn plan_preflight_matches_graph_preflight() {
        let g = diamond();
        let plan = ShardPlan::build(&g, &ModuloMap::new(1, 4));
        let mut reg = Registry::new();
        reg.register(CallbackId(0), |i, _| i);
        reg.register(CallbackId(1), |i, _| i);

        // Unbound callback 2, rejected even on a lenient plan.
        for plan in [&plan, &ShardPlan::build(&g, &ModuloMap::new(1, 4)).lenient()] {
            let err = plan.preflight(&reg, &InitialInputs::new()).unwrap_err();
            let ControllerError::LintRejected(rep) = err else { panic!("got {err}") };
            assert_eq!(rep.count(DiagnosticCode::UnregisteredCallback), 1, "{rep}");
        }

        reg.register(CallbackId(2), |i, _| i);
        let err = plan.preflight(&reg, &InitialInputs::new()).unwrap_err();
        assert!(matches!(
            err,
            ControllerError::BadInitialInputs { task, expected: 1, got: 0 } if task == TaskId(0)
        ));

        let mut init = InitialInputs::new();
        init.insert(TaskId(0), vec![Payload::wrap(Blob(vec![]))]);
        assert!(plan.preflight(&reg, &init).is_ok());
    }

    #[test]
    fn static_schedule_is_topological_and_deterministic() {
        let g = diamond();
        let plan = ShardPlan::build(&g, &ModuloMap::new(2, 4));
        let ids: Vec<TaskId> =
            plan.static_schedule().into_iter().map(|ix| plan.task(ix).id()).collect();
        // Smallest-id tie-break between the two middle tasks.
        assert_eq!(ids, [0, 1, 2, 3].map(TaskId));
    }

    #[test]
    fn never_ready_tasks_close_the_static_schedule_in_id_order() {
        // Task 0 waits for task 42, which is not in the graph: nothing
        // downstream of it ever becomes ready.
        let mut g = diamond();
        g.task_mut(TaskId(0)).unwrap().incoming = vec![TaskId(42)];
        let plan = ShardPlan::build(&g, &ModuloMap::new(2, 4)).lenient();
        assert_eq!(plan.static_schedule(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_fan_in_buffer_is_immediately_ready() {
        let t = Task::new(TaskId(0), CallbackId(0));
        let g = ExplicitGraph::new(vec![t], vec![CallbackId(0)]);
        let plan = ShardPlan::build(&g, &ModuloMap::new(1, 1));
        let b = PlanBuffer::new(&plan, 0);
        assert!(b.ready());
        assert!(b.take().is_empty());
    }
}
