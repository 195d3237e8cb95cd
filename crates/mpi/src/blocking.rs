//! The blocking-communication baseline controller ("Original MPI").
//!
//! The paper compares BabelFlow's MPI backend against the hand-tuned
//! implementation of Landge et al. and attributes the difference to
//! communication style: "the original implementation used blocking
//! communication while our MPI backend uses asynchronous calls and
//! independent threads. Since the computation is naturally load imbalanced
//! […] an asynchronous execution is likely more tolerant of delays."
//!
//! This controller reproduces the baseline's mechanism: each rank executes
//! its tasks in a *fixed static order* (a global topological order of the
//! graph), blocking on each missing input in turn, with no worker threads.
//! Everything else — task graph, callbacks, payloads, transport — is
//! identical to the asynchronous controller (including the [`ShardPlan`]
//! fast path and batched sends), so benchmark deltas between the two
//! isolate exactly the scheduling difference.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use babelflow_core::channel::RecvTimeoutError;
use babelflow_core::fault::{catch_invoke, MAX_TASK_RETRIES};
use babelflow_core::trace::{now_ns, SpanKind, TraceEvent, TraceSink, CONTROL_THREAD};
use babelflow_core::{
    Controller, ControllerError, InitialInputs, Payload, PlanBuffer, Registry, Result, RunReport,
    RunStats, ShardId, ShardPlan, TaskGraph, TaskId, TaskMap,
};

use crate::comm::{FaultPlan, RankComm, World};
use crate::controller::{rank_outcome, DEFAULT_TIMEOUT};
use crate::reliable::ReliableEndpoint;
use crate::wire::{DataflowMsg, TAG_DATAFLOW};

/// Blocking, statically ordered MPI-style controller (the "Original MPI"
/// baseline of Fig. 6).
#[derive(Clone, Debug)]
pub struct BlockingMpiController {
    /// Stall-detection timeout per blocking receive.
    pub timeout: Duration,
    /// Fault injection for tests.
    pub faults: FaultPlan,
    /// Prebuilt execution plan; when absent one is built (and its query
    /// cost counted) per run.
    pub plan: Option<Arc<ShardPlan>>,
}

impl Default for BlockingMpiController {
    fn default() -> Self {
        BlockingMpiController { timeout: DEFAULT_TIMEOUT, faults: FaultPlan::none(), plan: None }
    }
}

impl BlockingMpiController {
    /// Controller with the default timeout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the stall-detection timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Inject transport faults (tests only).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Reuse a prebuilt [`ShardPlan`] (it must have been built against the
    /// same graph and map this run uses).
    pub fn with_plan(mut self, plan: Arc<ShardPlan>) -> Self {
        self.plan = Some(plan);
        self
    }
}

impl Controller for BlockingMpiController {
    fn run_traced(
        &mut self,
        graph: &dyn TaskGraph,
        map: &dyn TaskMap,
        registry: &Registry,
        initial: InitialInputs,
        sink: Arc<dyn TraceSink>,
    ) -> Result<RunReport> {
        let mut built_queries = 0u64;
        let plan = match &self.plan {
            Some(p) => p.clone(),
            None => {
                let p = Arc::new(ShardPlan::build(graph, map));
                built_queries = p.build_queries();
                p
            }
        };
        plan.preflight(registry, &initial)?;
        let schedule = plan.static_schedule();
        let nranks = plan.num_shards() as usize;
        let mut world = World::with_faults(nranks, self.faults.clone());
        let endpoints = world.endpoints();

        let mut rank_inputs: Vec<InitialInputs> = (0..nranks).map(|_| HashMap::new()).collect();
        for (task, payloads) in initial {
            let shard = plan.task_by_id(task).expect("preflight checked inputs").shard;
            rank_inputs[shard.0 as usize].insert(task, payloads);
        }

        let timeout = self.timeout;
        let schedule = &schedule;

        let outcomes: Vec<Result<(BTreeMap<TaskId, Vec<Payload>>, RunStats)>> =
            std::thread::scope(|s| {
                let handles: Vec<_> = endpoints
                    .into_iter()
                    .zip(rank_inputs)
                    .map(|(ep, inputs)| {
                        let sink = sink.clone();
                        let plan = plan.clone();
                        s.spawn(move || {
                            blocking_rank_main(ep, &plan, registry, inputs, schedule, timeout, sink)
                        })
                    })
                    .collect();
                handles.into_iter().enumerate().map(|(r, h)| rank_outcome(r, h.join())).collect()
            });

        let mut report = RunReport::default();
        for outcome in outcomes {
            let (outputs, stats) = outcome?;
            report.outputs.extend(outputs);
            report.stats.merge(&stats);
        }
        report.stats.perf.task_queries += built_queries;
        Ok(report)
    }

    fn name(&self) -> &'static str {
        "mpi-blocking"
    }
}

#[allow(clippy::too_many_arguments)]
fn blocking_rank_main(
    ep: RankComm,
    plan: &Arc<ShardPlan>,
    registry: &Registry,
    initial: InitialInputs,
    schedule: &HashMap<TaskId, usize>,
    timeout: Duration,
    sink: Arc<dyn TraceSink>,
) -> Result<(BTreeMap<TaskId, Vec<Payload>>, RunStats)> {
    // As in `rank_main`, dropping `rel` on an error or a panic marks this
    // rank finished.
    let mut rel = ReliableEndpoint::new(ep);
    let (outputs, mut stats) =
        blocking_rank_inner(&mut rel, plan, registry, initial, schedule, timeout, sink)?;
    rel.flush(timeout);
    stats.recovery.merge(&rel.stats);
    stats.perf.envelopes_sent += rel.envelopes_sent;
    stats.perf.batches_sent += rel.batches_sent;
    Ok((outputs, stats))
}

#[allow(clippy::too_many_arguments)]
fn blocking_rank_inner(
    rel: &mut ReliableEndpoint,
    plan: &Arc<ShardPlan>,
    registry: &Registry,
    initial: InitialInputs,
    schedule: &HashMap<TaskId, usize>,
    timeout: Duration,
    sink: Arc<dyn TraceSink>,
) -> Result<(BTreeMap<TaskId, Vec<Payload>>, RunStats)> {
    let tracing = sink.enabled();
    let my_rank = rel.rank() as u32;
    let my_shard = ShardId(rel.rank() as u32);
    // The static schedule: strictly follow the global topological order.
    let mut local: Vec<u32> = plan.local(my_shard).to_vec();
    local.sort_by_key(|&ix| schedule[&plan.task(ix).id()]);

    let mut buffers: HashMap<TaskId, PlanBuffer> = local
        .iter()
        .map(|&ix| (plan.task(ix).id(), PlanBuffer::new(plan, ix)))
        .collect();

    for (task, payloads) in initial {
        let buf = buffers
            .get_mut(&task)
            .ok_or_else(|| ControllerError::Runtime(format!("initial input for non-local task {task}")))?;
        let pt = plan.task(buf.ix());
        for p in payloads {
            if !buf.deliver(pt, TaskId::EXTERNAL, p) {
                return Err(ControllerError::Runtime(format!("too many initial inputs for {task}")));
            }
        }
    }

    let mut outputs: BTreeMap<TaskId, Vec<Payload>> = BTreeMap::new();
    let mut stats = RunStats::default();

    for &task_ix in &local {
        let pt = plan.task(task_ix);
        let task_id = pt.id();
        // Blocking phase: wait until this specific task is complete,
        // ignoring whether later tasks could already run (the baseline's
        // weakness under load imbalance).
        let wait_start = if tracing { now_ns() } else { 0 };
        let tick = Duration::from_millis(10).min(timeout);
        let mut last_progress = Instant::now();
        while !buffers[&task_id].ready() {
            // Drain whatever the reliable layer has restored to order.
            let mut progressed = false;
            while let Some((src_rank, _tag, body)) = rel.pop_ready() {
                let recv_start = if tracing { now_ns() } else { 0 };
                let wire_bytes = body.len() as u64;
                let msg = DataflowMsg::decode(&body).ok_or_else(|| {
                    ControllerError::Runtime(format!("malformed message from rank {src_rank}"))
                })?;
                let buf = buffers.get_mut(&msg.dst_task).ok_or_else(|| {
                    ControllerError::Runtime(format!("message for unknown task {}", msg.dst_task))
                })?;
                let dst_pt = plan.task(buf.ix());
                if !buf.deliver(dst_pt, msg.src_task, Payload::Buffer(msg.payload)) {
                    return Err(ControllerError::Runtime(format!(
                        "unexpected delivery {} -> {}",
                        msg.src_task, msg.dst_task
                    )));
                }
                if tracing {
                    sink.record(
                        TraceEvent::span(
                            SpanKind::MsgRecv,
                            recv_start,
                            now_ns(),
                            my_rank,
                            CONTROL_THREAD,
                        )
                        .with_task(msg.dst_task, dst_pt.callback())
                        .with_message(msg.src_task, wire_bytes),
                    );
                }
                progressed = true;
            }
            if progressed {
                last_progress = Instant::now();
                continue;
            }
            let arrival = rel.inbox().recv_timeout(tick);
            match arrival {
                Ok(env) => rel.handle(env),
                Err(RecvTimeoutError::Timeout) => {
                    rel.tick();
                    if last_progress.elapsed() >= timeout {
                        let mut pending: Vec<TaskId> =
                            buffers.iter().filter(|(_, b)| !b.ready()).map(|(&id, _)| id).collect();
                        pending.sort();
                        return Err(ControllerError::Deadlock { pending });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ControllerError::Runtime("world torn down".into()));
                }
            }
        }

        let inputs = buffers.remove(&task_id).expect("scheduled task buffered").take();
        let exec_start = if tracing { now_ns() } else { 0 };
        if tracing {
            // For the blocking baseline, "queue wait" is the blocking-recv
            // phase: time the static schedule stalled on this task's inputs.
            sink.record(
                TraceEvent::span(SpanKind::QueueWait, wait_start, exec_start, my_rank, 0)
                    .with_task(task_id, pt.callback()),
            );
        }
        let cb = registry.get(pt.callback()).expect("preflight checked bindings");
        // Idempotent retry: a panicking callback is re-executed from the
        // same inputs; each attempt gets its own Callback + TaskExec span.
        let mut attempts = 0u32;
        let outs = loop {
            attempts += 1;
            let attempt_start = if tracing { now_ns() } else { 0 };
            stats.perf.payload_clones += inputs.len() as u64;
            let attempt = catch_invoke(cb, inputs.clone(), task_id);
            if tracing {
                let end = now_ns();
                sink.record(
                    TraceEvent::span(SpanKind::Callback, attempt_start, end, my_rank, 0)
                        .with_task(task_id, pt.callback()),
                );
                sink.record(
                    TraceEvent::span(SpanKind::TaskExec, attempt_start, end, my_rank, 0)
                        .with_task(task_id, pt.callback()),
                );
            }
            match attempt {
                Ok(outs) => break outs,
                Err(reason) => {
                    if attempts > MAX_TASK_RETRIES {
                        return Err(ControllerError::TaskError {
                            task: task_id,
                            attempts,
                            reason,
                        });
                    }
                    stats.recovery.retries += 1;
                }
            }
        };
        stats.tasks_executed += 1;
        if outs.len() != pt.fan_out() {
            return Err(ControllerError::BadOutputArity {
                task: task_id,
                expected: pt.fan_out(),
                got: outs.len(),
            });
        }
        for (slot, payload) in outs.into_iter().enumerate() {
            for route in &pt.routes[slot] {
                if route.is_external() {
                    outputs.entry(task_id).or_default().push(payload.clone());
                    stats.perf.payload_clones += 1;
                } else if route.shard == my_shard {
                    let dst = route.dst;
                    let buf = buffers.get_mut(&dst).ok_or_else(|| {
                        ControllerError::Runtime(format!(
                            "local consumer {dst} executed before its producer"
                        ))
                    })?;
                    let dst_pt = plan.task(buf.ix());
                    if !buf.deliver(dst_pt, task_id, payload.clone()) {
                        return Err(ControllerError::Runtime(format!(
                            "unexpected local delivery {} -> {dst}",
                            task_id
                        )));
                    }
                    stats.perf.payload_clones += 1;
                    stats.local_messages += 1;
                    if tracing {
                        let t = now_ns();
                        // In-memory move: no serialization, bytes = 0.
                        sink.record(
                            TraceEvent::span(SpanKind::MsgSend, t, t, my_rank, 0)
                                .with_task(task_id, pt.callback())
                                .with_message(dst, 0),
                        );
                    }
                } else {
                    let send_start = if tracing { now_ns() } else { 0 };
                    let msg = DataflowMsg::from_payload(route.dst, task_id, &payload);
                    let body = msg.encode();
                    stats.remote_messages += 1;
                    stats.remote_bytes += body.len() as u64;
                    let wire_bytes = body.len() as u64;
                    rel.send(route.shard.0 as usize, TAG_DATAFLOW, body);
                    if tracing {
                        sink.record(
                            TraceEvent::span(SpanKind::MsgSend, send_start, now_ns(), my_rank, 0)
                                .with_task(task_id, pt.callback())
                                .with_message(route.dst, wire_bytes),
                        );
                    }
                }
            }
        }
        // One envelope per destination for this task's whole fan-out.
        rel.flush_sends();
        // Ack what arrived while the callback ran now, not when this rank
        // next blocks: a peer's retransmit timer keeps running meanwhile.
        rel.drain_inbox();
    }

    Ok((outputs, stats))
}
