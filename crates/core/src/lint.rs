//! Coded structural diagnostics over graphs and plans.
//!
//! A [`TaskGraph`] is handed to runtimes that assume it is executable;
//! when it is not, the failure shows up far from the cause — a
//! controller deadlocks, or a [`PlanBuffer`] silently drops a delivery.
//! The lint passes in this module turn those latent defects into *coded
//! diagnostics* at plan-build time, before any task runs:
//!
//! | Code | Name | Severity | Meaning |
//! |---|---|---|---|
//! | BF001 | `CycleDetected` | Error | task participates in a dependency cycle |
//! | BF002 | `DanglingEdge` | Error | edge endpoint references a nonexistent task |
//! | BF003 | `EdgeAsymmetry` | Error | consumer wires more input slots from a producer than the producer sends — a slot that never fills |
//! | BF004 | `UnregisteredCallback` | Error / Warning | callback unbound in the registry, or bound with a declared arity the task contradicts (Error); used by a task but not advertised by the graph (Warning) |
//! | BF005 | `UnmappedTask` | Error / Warning | `TaskMap` places a task on an out-of-range shard (Error), or the map's two directions disagree (Warning) |
//! | BF006 | `UnreachableTask` | Error | task can never become ready (downstream of a cycle, asymmetry, or dangling producer) |
//! | BF007 | `FanInSlotCollision` | Error | producer routes more messages to a consumer than it has slots wired — deliveries would collide in the [`PlanBuffer`] |
//! | BF008 | `DuplicateTaskId` | Error | `ids()` lists an id more than once |
//! | BF009 | `SizeMismatch` | Error | `size()` disagrees with the number of ids `ids()` lists |
//! | BF010 | `MissingTask` | Error | `ids()` lists an id for which `task(id)` returns `None` |
//! | BF011 | `TaskIdMismatch` | Error | `task(id)` returns a task carrying another id |
//!
//! [`ShardPlan::build`](crate::plan::ShardPlan::build) records the
//! graph-contract codes (BF004's Warning, BF008–BF011) in the loop that
//! interns the tasks, runs the structural passes once over the interned
//! table (zero extra procedural `task()` queries) and stores the
//! [`VerifyReport`]; [`ShardPlan::preflight`](crate::plan::ShardPlan::preflight)
//! adds the registry-dependent BF004 pass and hard-fails on any
//! `Error`-level diagnostic. A [`lenient`](crate::plan::ShardPlan::lenient)
//! plan waives only the dataflow codes (BF001–BF003, BF006, BF007), which
//! a run surfaces by itself; it never waives a
//! [contract](DiagnosticCode::is_contract) code.
//!
//! [`lint_graph`] and [`lint_run`] are the one-call entry points: they
//! build the plan once and add the two-way [`TaskMap`] consistency check.
//! The dynamic trace-based checkers live in the `babelflow-verify` crate.
//!
//! [`PlanBuffer`]: crate::plan::PlanBuffer

use std::collections::HashMap;

use crate::graph::TaskGraph;
use crate::ids::{ShardId, TaskId};
use crate::plan::{PlanTask, ShardPlan};
use crate::registry::Registry;
use crate::taskmap::TaskMap;

/// Stable identifier of one diagnostic class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DiagnosticCode {
    /// BF001: the graph has a directed dependency cycle.
    CycleDetected,
    /// BF002: an edge endpoint references a task that does not exist.
    DanglingEdge,
    /// BF003: a consumer expects more inputs from a producer than the
    /// producer's outgoing view sends — the extra slots never fill.
    EdgeAsymmetry,
    /// BF004: a callback is not bound in the registry, or a registered
    /// arity declaration contradicts a task using the callback (both
    /// Errors); or a task uses a callback the graph does not advertise
    /// (a Warning).
    UnregisteredCallback,
    /// BF005: the task map places a task on a shard outside
    /// `0..num_shards` (an Error), or its two directions disagree about a
    /// task (a Warning).
    UnmappedTask,
    /// BF006: the task can never become ready, so the dataflow would
    /// stall with it pending.
    UnreachableTask,
    /// BF007: a producer routes more messages to a consumer than the
    /// consumer has input slots wired to it, so deliveries collide.
    FanInSlotCollision,
    /// BF008: `ids()` lists an id more than once; the plan keeps the
    /// first task and drops the repeats.
    DuplicateTaskId,
    /// BF009: `size()` disagrees with the number of ids `ids()` lists.
    SizeMismatch,
    /// BF010: `ids()` lists an id for which `task(id)` returns `None`.
    MissingTask,
    /// BF011: `task(id)` returns a task whose `id` field is another id;
    /// the plan drops it.
    TaskIdMismatch,
}

impl DiagnosticCode {
    /// The stable `BFnnn` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagnosticCode::CycleDetected => "BF001",
            DiagnosticCode::DanglingEdge => "BF002",
            DiagnosticCode::EdgeAsymmetry => "BF003",
            DiagnosticCode::UnregisteredCallback => "BF004",
            DiagnosticCode::UnmappedTask => "BF005",
            DiagnosticCode::UnreachableTask => "BF006",
            DiagnosticCode::FanInSlotCollision => "BF007",
            DiagnosticCode::DuplicateTaskId => "BF008",
            DiagnosticCode::SizeMismatch => "BF009",
            DiagnosticCode::MissingTask => "BF010",
            DiagnosticCode::TaskIdMismatch => "BF011",
        }
    }

    /// Whether the code marks a broken contract rather than a flawed
    /// dataflow: an unbound callback (or one whose declared arity a task
    /// contradicts), a task placed on a shard no rank hosts, or
    /// `ids()`/`task()`/`size()` that do not describe one graph. The six
    /// backends cannot agree on how to run such a plan, so preflight
    /// rejects its `Error`s even on a [`lenient`](ShardPlan::lenient)
    /// plan.
    pub fn is_contract(self) -> bool {
        matches!(
            self,
            DiagnosticCode::UnregisteredCallback
                | DiagnosticCode::UnmappedTask
                | DiagnosticCode::DuplicateTaskId
                | DiagnosticCode::SizeMismatch
                | DiagnosticCode::MissingTask
                | DiagnosticCode::TaskIdMismatch
        )
    }
}

impl std::fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a diagnostic is. `Error` means the graph cannot execute
/// correctly; `Warning` means it will execute but something is suspect.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note.
    Info,
    /// Suspicious but executable.
    Warning,
    /// The run would stall, drop data, or mis-route; preflight rejects it.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One coded finding, anchored to the task it was detected at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which class of defect.
    pub code: DiagnosticCode,
    /// How serious it is.
    pub severity: Severity,
    /// The task the finding is anchored to, if any.
    pub task: Option<TaskId>,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.task {
            Some(t) => write!(f, "{} {}: [{}] {}", self.code, self.severity, t, self.message),
            None => write!(f, "{} {}: {}", self.code, self.severity, self.message),
        }
    }
}

/// The outcome of a lint run: every diagnostic, in detection order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    diags: Vec<Diagnostic>,
}

impl VerifyReport {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a finding.
    pub fn push(&mut self, code: DiagnosticCode, severity: Severity, task: Option<TaskId>, message: String) {
        self.diags.push(Diagnostic { code, severity, task, message });
    }

    /// Fold another report's findings into this one.
    pub fn merge(&mut self, other: VerifyReport) {
        self.diags.extend(other.diags);
    }

    /// All findings, in detection order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// Whether no findings were recorded at all.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Whether the report carries no `Error`-level findings (warnings and
    /// infos are allowed on a "clean" graph).
    pub fn is_clean(&self) -> bool {
        !self.has_errors()
    }

    /// Whether any finding is `Error`-level.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// Findings of one code, in detection order.
    pub fn of_code(&self, code: DiagnosticCode) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(move |d| d.code == code)
    }

    /// Number of findings of one code.
    pub fn count(&self, code: DiagnosticCode) -> usize {
        self.of_code(code).count()
    }

    /// The distinct codes present, ascending.
    pub fn codes(&self) -> Vec<DiagnosticCode> {
        let mut codes: Vec<DiagnosticCode> = self.diags.iter().map(|d| d.code).collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.diags.is_empty() {
            return write!(f, "clean (no diagnostics)");
        }
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// How many messages `producer` routes to `consumer`, summed over every
/// output slot.
fn out_edges(producer: &PlanTask, consumer: TaskId) -> usize {
    producer
        .routes
        .iter()
        .flatten()
        .filter(|r| r.dst == consumer)
        .count()
}

/// Structural lint over an interned task table: BF001, BF002, BF003,
/// BF005, BF006, BF007. Runs in `O(V + E)` with no procedural graph
/// queries; [`ShardPlan::build`](crate::plan::ShardPlan::build) calls
/// this once and stores the result.
pub fn lint_plan(
    tasks: &[PlanTask],
    index: &HashMap<TaskId, u32>,
    num_shards: u32,
) -> VerifyReport {
    let mut rep = VerifyReport::new();
    let pt_of = |id: TaskId| index.get(&id).map(|&ix| &tasks[ix as usize]);

    for pt in tasks {
        let id = pt.id();

        // BF005: the map resolved this task to a shard that no rank hosts.
        if pt.shard.0 >= num_shards {
            rep.push(
                DiagnosticCode::UnmappedTask,
                Severity::Error,
                Some(id),
                format!(
                    "mapped to shard {} but the map has only {num_shards} shards",
                    pt.shard
                ),
            );
        }

        // Producer-side edges: BF002 for unknown destinations, BF007 for
        // destinations that wire no slot back to this producer (the pair
        // with *some* wired slots is judged from the consumer side below).
        for route in pt.routes.iter().flatten() {
            if route.is_external() {
                continue;
            }
            match pt_of(route.dst) {
                None => rep.push(
                    DiagnosticCode::DanglingEdge,
                    Severity::Error,
                    Some(id),
                    format!("output edge to nonexistent task {}", route.dst),
                ),
                Some(dst) => {
                    if !dst.sources.iter().any(|(s, _)| *s == id) {
                        rep.push(
                            DiagnosticCode::FanInSlotCollision,
                            Severity::Error,
                            Some(route.dst),
                            format!(
                                "receives {} messages from {id} but wires no input slot to it",
                                out_edges(pt, route.dst)
                            ),
                        );
                    }
                }
            }
        }

        // Consumer-side edges: BF002 for unknown producers, BF003 for
        // slots that never fill, BF007 for deliveries that collide.
        for (src, slots) in &pt.sources {
            if src.is_external() {
                continue;
            }
            let Some(producer) = pt_of(*src) else {
                rep.push(
                    DiagnosticCode::DanglingEdge,
                    Severity::Error,
                    Some(id),
                    format!("input slot wired to nonexistent producer {src}"),
                );
                continue;
            };
            let in_n = slots.len();
            let out_n = out_edges(producer, id);
            if in_n > out_n {
                rep.push(
                    DiagnosticCode::EdgeAsymmetry,
                    Severity::Error,
                    Some(id),
                    format!(
                        "wires {in_n} input slots from {src} but {src} sends only {out_n} \
                         messages; {} slots never fill",
                        in_n - out_n
                    ),
                );
            } else if out_n > in_n {
                rep.push(
                    DiagnosticCode::FanInSlotCollision,
                    Severity::Error,
                    Some(id),
                    format!(
                        "{src} sends {out_n} messages but only {in_n} input slots are wired \
                         to it; deliveries collide"
                    ),
                );
            }
        }
    }

    // BF001: Kahn's algorithm over the edges both views agree on — per
    // (producer, consumer) pair, min(slots wired, messages sent). Edges
    // only one side believes in are starvation (BF003) or collisions
    // (BF007), not cycles, and must not drag their consumer in here.
    let mut indegree: HashMap<TaskId, usize> = tasks
        .iter()
        .map(|pt| {
            let n: usize = pt
                .sources
                .iter()
                .filter(|(s, _)| !s.is_external())
                .map(|(src, slots)| {
                    pt_of(*src).map_or(0, |p| slots.len().min(out_edges(p, pt.id())))
                })
                .sum();
            (pt.id(), n)
        })
        .collect();
    let mut frontier: Vec<TaskId> = indegree
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&id, _)| id)
        .collect();
    while let Some(id) = frontier.pop() {
        if let Some(pt) = pt_of(id) {
            let mut dsts: Vec<TaskId> = pt
                .routes
                .iter()
                .flatten()
                .filter(|r| !r.is_external())
                .map(|r| r.dst)
                .collect();
            dsts.sort_unstable();
            dsts.dedup();
            for dst in dsts {
                let agreed = pt_of(dst).map_or(0, |c| {
                    c.sources
                        .iter()
                        .find(|(s, _)| *s == id)
                        .map_or(0, |(_, slots)| slots.len().min(out_edges(pt, dst)))
                });
                if let Some(d) = indegree.get_mut(&dst) {
                    *d = d.saturating_sub(agreed);
                    if *d == 0 && agreed > 0 {
                        frontier.push(dst);
                    }
                }
            }
        }
    }
    let mut cyclic: Vec<TaskId> =
        indegree.iter().filter(|(_, &d)| d > 0).map(|(&id, _)| id).collect();
    cyclic.sort_unstable();
    for &id in &cyclic {
        rep.push(
            DiagnosticCode::CycleDetected,
            Severity::Error,
            Some(id),
            "task participates in (or is blocked behind) a dependency cycle".to_string(),
        );
    }

    // BF006: a "will run" fixpoint. A task runs iff every internal
    // producer exists, will itself run, and sends at least as many
    // messages as the task wires slots for. Tasks outside the fixpoint
    // that Kahn already attributed to a cycle keep their BF001 instead.
    let mut will_run: HashMap<TaskId, bool> =
        tasks.iter().map(|pt| (pt.id(), false)).collect();
    loop {
        let mut changed = false;
        for pt in tasks {
            if will_run[&pt.id()] {
                continue;
            }
            let ok = pt.sources.iter().filter(|(s, _)| !s.is_external()).all(|(src, slots)| {
                pt_of(*src).is_some_and(|producer| {
                    will_run[src] && out_edges(producer, pt.id()) >= slots.len()
                })
            });
            if ok {
                will_run.insert(pt.id(), true);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let mut stuck: Vec<TaskId> = will_run
        .iter()
        .filter(|(id, &runs)| !runs && !cyclic.contains(id))
        .map(|(&id, _)| id)
        .collect();
    stuck.sort_unstable();
    for id in stuck {
        rep.push(
            DiagnosticCode::UnreachableTask,
            Severity::Error,
            Some(id),
            "task can never become ready; the run would stall with it pending".to_string(),
        );
    }

    rep
}

/// Registry-dependent lint: BF004. Every callback the plan uses (see
/// [`ShardPlan::callback_ids`]) must be bound, and any arity the registry
/// declares (see [`Registry::declare_arity`]) must match every task using
/// it. Runs at preflight time, when the run's [`Registry`] is known.
pub fn lint_bindings(plan: &ShardPlan, registry: &Registry) -> VerifyReport {
    let mut rep = VerifyReport::new();
    let mut missing = registry.missing(plan.callback_ids());
    missing.sort_unstable();
    missing.dedup();
    for cb in missing {
        rep.push(
            DiagnosticCode::UnregisteredCallback,
            Severity::Error,
            None,
            format!("callback {cb} has no registered implementation"),
        );
    }

    for pt in plan.tasks() {
        let Some((inputs, outputs)) = registry.declared_arity(pt.task.callback) else {
            continue;
        };
        if let Some(n) = inputs {
            if n != pt.fan_in() {
                rep.push(
                    DiagnosticCode::UnregisteredCallback,
                    Severity::Error,
                    Some(pt.id()),
                    format!(
                        "callback {} is declared to take {n} inputs but the task has {} \
                         input slots",
                        pt.task.callback,
                        pt.fan_in()
                    ),
                );
            }
        }
        if let Some(n) = outputs {
            if n != pt.fan_out() {
                rep.push(
                    DiagnosticCode::UnregisteredCallback,
                    Severity::Error,
                    Some(pt.id()),
                    format!(
                        "callback {} is declared to produce {n} outputs but the task has {} \
                         output slots",
                        pt.task.callback,
                        pt.fan_out()
                    ),
                );
            }
        }
    }
    rep
}

/// Lint a graph under a task map: the structural passes of
/// [`ShardPlan::build`] plus the two-way [`TaskMap`] consistency check
/// that the plan alone cannot see — `map.tasks(s).contains(t)` must hold
/// exactly when `map.shard(t) == s`, or shard-local schedulers and the
/// routing tables disagree about who owns a task (reported as `BF005`).
pub fn lint_graph(graph: &dyn TaskGraph, map: &dyn TaskMap) -> VerifyReport {
    lint_with(graph, map, None)
}

/// [`lint_graph`] plus the registry-dependent `BF004` pass of
/// [`lint_bindings`].
pub fn lint_run(graph: &dyn TaskGraph, map: &dyn TaskMap, registry: &Registry) -> VerifyReport {
    lint_with(graph, map, Some(registry))
}

/// Build the plan once and collect every report the entry points return.
fn lint_with(graph: &dyn TaskGraph, map: &dyn TaskMap, registry: Option<&Registry>) -> VerifyReport {
    let plan = ShardPlan::build(graph, map);
    let mut rep = plan.lint().clone();
    if let Some(registry) = registry {
        rep.merge(lint_bindings(&plan, registry));
    }
    lint_map(&plan, map, &mut rep);
    rep
}

/// The two-way [`TaskMap`] consistency check (`BF005`), over each shard's
/// task list collected once. Out-of-range shards are already `Error`s
/// from the plan pass; a disagreement between the map's two directions is
/// a `Warning` because the plan's routing tables are built from
/// `shard()` alone and still function — but any backend that walks
/// `tasks(shard)` will skip or double-run the task.
fn lint_map(plan: &ShardPlan, map: &dyn TaskMap, rep: &mut VerifyReport) {
    let mut lists: Vec<Vec<TaskId>> =
        (0..map.num_shards()).map(|s| map.tasks(ShardId(s))).collect();
    for (s, list) in lists.iter_mut().enumerate() {
        for &t in list.iter() {
            let placed = map.shard(t);
            if plan.index_of(t).is_some() && placed.0 as usize != s {
                rep.push(
                    DiagnosticCode::UnmappedTask,
                    Severity::Warning,
                    Some(t),
                    format!(
                        "map lists task in shard {s}'s task list but shard() places it on {placed}"
                    ),
                );
            }
        }
        list.sort_unstable();
    }
    for pt in plan.tasks() {
        let s = pt.shard;
        if lists.get(s.0 as usize).is_some_and(|list| list.binary_search(&pt.id()).is_err()) {
            rep.push(
                DiagnosticCode::UnmappedTask,
                Severity::Warning,
                Some(pt.id()),
                format!("shard() places task on {s} but shard {s}'s task list omits it"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ExplicitGraph;
    use crate::ids::CallbackId;
    use crate::task::Task;
    use crate::taskmap::ModuloMap;

    /// EXTERNAL -> t0 -> t1 -> EXTERNAL.
    fn chain() -> ExplicitGraph {
        let mut t0 = Task::new(TaskId(0), CallbackId(0));
        t0.incoming = vec![TaskId::EXTERNAL];
        t0.outgoing = vec![vec![TaskId(1)]];
        let mut t1 = Task::new(TaskId(1), CallbackId(1));
        t1.incoming = vec![TaskId(0)];
        t1.outgoing = vec![vec![TaskId::EXTERNAL]];
        ExplicitGraph::new(vec![t0, t1], vec![CallbackId(0), CallbackId(1)])
    }

    /// Task 0 sends both of its outputs to task 1, which wires `slots`
    /// input slots to task 0.
    fn parallel_edges(slots: usize) -> ExplicitGraph {
        let mut a = Task::new(TaskId(0), CallbackId(0));
        a.incoming = vec![TaskId::EXTERNAL];
        a.outgoing = vec![vec![TaskId(1)], vec![TaskId(1)]];
        let mut b = Task::new(TaskId(1), CallbackId(0));
        b.incoming = vec![TaskId(0); slots];
        b.outgoing = vec![vec![TaskId::EXTERNAL]];
        ExplicitGraph::new(vec![a, b], vec![CallbackId(0)])
    }

    #[test]
    fn reciprocal_parallel_edges_lint_clean() {
        let rep = lint_graph(&parallel_edges(2), &ModuloMap::new(2, 2));
        assert!(rep.is_empty(), "{rep}");
    }

    #[test]
    fn unbalanced_parallel_edges_fire_bf007() {
        let rep = lint_graph(&parallel_edges(1), &ModuloMap::new(2, 2));
        assert_eq!(rep.codes(), vec![DiagnosticCode::FanInSlotCollision], "{rep}");
    }

    #[test]
    fn size_mismatch_fires_bf009() {
        struct Lying;
        impl TaskGraph for Lying {
            fn size(&self) -> usize {
                3
            }
            fn task(&self, id: TaskId) -> Option<Task> {
                (id.0 < 2).then(|| Task::new(id, CallbackId(0)))
            }
            fn callback_ids(&self) -> Vec<CallbackId> {
                vec![CallbackId(0)]
            }
            fn ids(&self) -> Vec<TaskId> {
                vec![TaskId(0), TaskId(1)]
            }
        }
        let rep = lint_graph(&Lying, &ModuloMap::new(1, 2));
        assert_eq!(rep.codes(), vec![DiagnosticCode::SizeMismatch], "{rep}");
        assert!(rep.has_errors());
    }

    #[test]
    fn unadvertised_callback_is_a_bf004_warning() {
        let mut g = chain();
        g.task_mut(TaskId(0)).unwrap().callback = CallbackId(42);
        let plan = ShardPlan::build(&g, &ModuloMap::new(1, 2));
        let rep = plan.lint();
        assert_eq!(rep.count(DiagnosticCode::UnregisteredCallback), 1, "{rep}");
        assert!(rep.is_clean(), "{rep}");
        // The plan's callbacks now include it, so the binding check sees it.
        assert!(plan.callback_ids().contains(&CallbackId(42)));
    }

    #[test]
    fn inconsistent_map_is_flagged() {
        struct LyingMap;
        impl TaskMap for LyingMap {
            fn shard(&self, _: TaskId) -> ShardId {
                ShardId(0)
            }
            fn tasks(&self, shard: ShardId) -> Vec<TaskId> {
                // Claims t1 lives on shard 1, contradicting shard().
                if shard.0 == 1 {
                    vec![TaskId(0), TaskId(1)]
                } else {
                    vec![TaskId(0)]
                }
            }
            fn num_shards(&self) -> u32 {
                2
            }
        }
        let rep = lint_graph(&chain(), &LyingMap);
        assert!(rep.count(DiagnosticCode::UnmappedTask) >= 2, "{rep}");
        // Disagreements are warnings: the plan still routes correctly.
        assert!(rep.is_clean(), "{rep}");
    }

    #[test]
    fn unbound_callback_is_bf004() {
        let mut reg = Registry::new();
        reg.register(CallbackId(0), |i, _| i);
        let rep = lint_run(&chain(), &ModuloMap::new(1, 2), &reg);
        assert_eq!(rep.count(DiagnosticCode::UnregisteredCallback), 1, "{rep}");
        assert!(rep.has_errors());
    }
}
