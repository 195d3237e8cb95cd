//! One benchmark invocation: set-up, golden run, interleaved timed runs on
//! every backend, and (when tracing) the fit probe and one traced run per
//! backend for the per-layer split.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use babelflow_core::trace::now_ns;
use babelflow_core::{
    canonical_outputs, Bytes, Controller, RunReport, RunStats, SerialController, ShardPlan,
    SpanKind, TaskId, TraceSink,
};
use babelflow_trace::TraceRecorder;

use crate::kernel::{instrument, KernelProbe, KernelStats};
use crate::spans::{self_ns, total_ns, unattributed_ns};
use crate::stats::{fit, median, Line, Summary};
use crate::workloads::{self, companion_leaves, dispatch_leaves, Scale, Workload};

/// The six controllers, in the order every repetition runs them.
pub const BACKENDS: [&str; 6] = [
    "serial",
    "mpi-async",
    "mpi-blocking",
    "charm",
    "legion-spmd",
    "legion-il",
];

/// What one invocation measures.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name (see [`workloads::NAMES`]).
    pub workload: String,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// How long the interleaved timed runs last.
    pub seconds: f64,
    /// Whether to make the traced runs and report per-layer metrics.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Everything an invocation found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics, measured with tracing off.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (empty unless tracing).
    pub per_layer: Vec<Metric>,
    /// Controller runs made.
    pub attempted: u64,
    /// Runs that returned an error or outputs differing from the golden.
    pub failed: u64,
    /// Every correctness problem found: failed runs, oracle mismatches,
    /// counts that moved between repetitions.
    pub problems: Vec<String>,
    /// Unscored lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every run and check agreed with the golden and the oracle.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Record a correctness problem (the first few are kept verbatim).
    fn problem(&mut self, msg: String) {
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }
}

/// Metric names with their units, in report order.
pub type Catalogue = Vec<(String, &'static str)>;

/// Every metric, end-to-end first: the catalogue `BENCHMARK.json` lists.
pub fn catalogue() -> (Catalogue, Catalogue) {
    let mut e2e: Catalogue = BACKENDS
        .iter()
        .map(|b| (format!("run_ms.{b}"), "ms"))
        .collect();
    e2e.push(("setup_s".into(), "s"));
    e2e.push(("ok_frac".into(), "ratio"));

    let mut layer: Catalogue = [
        ("data.gen_ms", "ms"),
        ("plan.build_ms", "ms"),
        ("plan.tasks", "count"),
        ("kernel.callback_ms", "ms"),
        ("kernel.calls", "count"),
        ("codec.encode_ms", "ms"),
        ("codec.bytes", "bytes"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for (name, unit) in PER_BACKEND {
        layer.extend(
            BACKENDS
                .iter()
                .filter(|b| emitted(name, b))
                .map(|b| (format!("{name}.{b}"), *unit)),
        );
    }
    (e2e, layer)
}

/// Per-backend times whose spans the backend does not emit, so they
/// would read 0 on every run. They are left out of the catalogue.
const NOT_EMITTED: &[(&str, &str)] = &[
    // TaskExec covers exactly the callback here: no self time to split.
    ("exec.task_self_ms", "mpi-async"),
    ("exec.task_self_ms", "mpi-blocking"),
    ("exec.task_self_ms", "charm"),
    // Charm's MsgSend spans are instants; these record no MsgRecv spans.
    ("transport.send_ms", "charm"),
    ("transport.recv_ms", "serial"),
    ("transport.recv_ms", "charm"),
    ("transport.recv_ms", "legion-spmd"),
    ("transport.recv_ms", "legion-il"),
];

fn emitted(name: &str, backend: &str) -> bool {
    !NOT_EMITTED.contains(&(name, backend))
}

const PER_BACKEND: &[(&str, &str)] = &[
    ("exec.task_self_ms", "ms"),
    ("exec.per_task_us", "us"),
    ("exec.payload_clones", "count"),
    ("exec.tasks", "count"),
    ("sched.queue_wait_ms", "ms"),
    ("transport.send_ms", "ms"),
    ("transport.recv_ms", "ms"),
    ("transport.remote_messages", "count"),
    ("transport.remote_bytes", "bytes"),
    ("transport.envelopes", "count"),
    ("transport.batches", "count"),
    ("transport.retransmits", "count"),
    ("lifecycle.unattributed_ms", "ms"),
    ("lifecycle.fixed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Controller `backend` over `workers` cores, reusing `plan` on every run.
pub fn controller(backend: &str, plan: Arc<ShardPlan>, workers: usize) -> Box<dyn Controller> {
    match backend {
        "serial" => Box::new(SerialController::new().with_plan(plan)),
        // One compute worker per rank: ranks equal cores, so compute
        // threads never outnumber them.
        "mpi-async" => Box::new(
            babelflow_mpi::MpiController::new()
                .with_workers(1)
                .with_plan(plan),
        ),
        "mpi-blocking" => Box::new(babelflow_mpi::BlockingMpiController::new().with_plan(plan)),
        "charm" => Box::new(babelflow_charm::CharmController::new(workers).with_plan(plan)),
        "legion-spmd" => {
            Box::new(babelflow_legion::LegionSpmdController::new(workers).with_plan(plan))
        }
        "legion-il" => {
            Box::new(babelflow_legion::LegionIndexLaunchController::new(workers).with_plan(plan))
        }
        other => panic!("unknown backend {other}"),
    }
}

/// Counters that are functions of graph, placement and code path, so
/// every repetition of a backend on a workload must repeat them exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counts {
    tasks: u64,
    remote_messages: u64,
    remote_bytes: u64,
    payload_clones: u64,
    delivery_allocs: u64,
}

impl From<&RunStats> for Counts {
    fn from(s: &RunStats) -> Self {
        Counts {
            tasks: s.tasks_executed,
            remote_messages: s.remote_messages,
            remote_bytes: s.remote_bytes,
            payload_clones: s.perf.payload_clones,
            delivery_allocs: s.perf.delivery_allocs,
        }
    }
}

type Golden = BTreeMap<TaskId, Vec<Bytes>>;

/// A workload with its golden outputs and one reused controller per
/// backend.
struct Bench {
    w: Workload,
    golden: Golden,
    ctls: Vec<Box<dyn Controller>>,
}

impl Bench {
    fn new(w: Workload, golden: Golden, workers: usize) -> Self {
        let ctls = BACKENDS
            .iter()
            .map(|b| controller(b, w.plan.clone(), workers))
            .collect();
        Bench { w, golden, ctls }
    }

    /// One run of backend `b`, timed from call to return with
    /// [`now_ns`]; `None` (and a tallied failure) on an error or on
    /// outputs that differ from the golden.
    fn run(
        &mut self,
        b: usize,
        sink: Option<Arc<dyn TraceSink>>,
        out: &mut Outcome,
    ) -> Option<(u64, u64, RunReport)> {
        let Bench { w, golden, ctls } = self;
        let initial = w.initial.clone();
        let ctl = &mut ctls[b];
        let t0 = now_ns();
        let result = match sink {
            Some(sink) => ctl.run_traced(&*w.graph, &*w.map, &w.registry, initial, sink),
            None => ctl.run(&*w.graph, &*w.map, &w.registry, initial),
        };
        let t1 = now_ns();
        out.attempted += 1;
        let problem = match result {
            Ok(report) if canonical_outputs(&report) == *golden => return Some((t0, t1, report)),
            Ok(_) => format!("{}: outputs differ from the serial golden", BACKENDS[b]),
            Err(e) => format!("{}: {e}", BACKENDS[b]),
        };
        out.failed += 1;
        out.problem(problem);
        None
    }
}

fn ms(t0: u64, t1: u64) -> f64 {
    (t1 - t0) as f64 / 1e6
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Run the serial controller with a probed registry: the golden outputs,
/// checked against the domain oracle, plus the kernel and codec layers.
fn golden(w: &Workload) -> Result<(Golden, KernelStats), String> {
    let probe = Arc::new(KernelProbe::default());
    let registry = instrument(&w.registry, &w.plan, &probe);
    let report = SerialController::new()
        .with_plan(w.plan.clone())
        .run(&*w.graph, &*w.map, &registry, w.initial.clone())
        .map_err(|e| format!("serial golden run failed: {e}"))?;
    (w.oracle)(&report).map_err(|e| format!("serial golden fails the oracle: {e}"))?;
    Ok((canonical_outputs(&report), probe.stats()))
}

const WARMUP_ROUNDS: usize = 2;
const MIN_ROUNDS: usize = 5;
const FIT_ROUNDS: usize = 9;

fn setup_rounds(scale: Scale) -> usize {
    match scale {
        Scale::Full => 5,
        Scale::Tiny => 2,
    }
}

/// Run one benchmark invocation. `Err` means no measurement was possible:
/// an unknown workload, or a golden run that fails its oracle.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let shards = workers as u32;
    let mut out = Outcome::default();

    // Set-up, repeated so its median is steady; the last copy is kept.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..setup_rounds(opts.scale) {
        let (w, times) = workloads::build(&opts.workload, opts.seed, opts.scale, shards)?;
        setups.push(times);
        built = Some(w);
    }
    let w = built.expect("at least one set-up round");
    let setup_ms: Vec<f64> = setups.iter().map(|s| s.total_ms()).collect();
    let gen_ms = median(&setups.iter().map(|s| s.gen_ms).collect::<Vec<_>>());
    let plan_ms = median(&setups.iter().map(|s| s.plan_ms).collect::<Vec<_>>());
    let plan_tasks = w.plan.len();

    let (golden_out, kernel) = golden(&w)?;
    let mut bench = Bench::new(w, golden_out, workers);

    // Warm-up rounds are checked but not timed.
    for _ in 0..WARMUP_ROUNDS {
        for b in 0..BACKENDS.len() {
            bench.run(b, None, &mut out);
        }
    }

    // Timed rounds: every backend once per round, round-robin, so drift
    // hits them all alike.
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); BACKENDS.len()];
    let mut counts: Vec<Option<Counts>> = vec![None; BACKENDS.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        for (b, (times, first)) in samples.iter_mut().zip(&mut counts).enumerate() {
            let Some((t0, t1, report)) = bench.run(b, None, &mut out) else {
                continue;
            };
            times.push(ms(t0, t1));
            let c = Counts::from(&report.stats);
            match *first {
                None => *first = Some(c),
                Some(first) if first != c => out.problem(format!(
                    "{}: exact counts moved between repetitions: {first:?} then {c:?}",
                    BACKENDS[b]
                )),
                Some(_) => {}
            }
        }
        rounds += 1;
    }

    let mut medians = [0.0; BACKENDS.len()];
    for (b, s) in samples.iter().enumerate() {
        if s.is_empty() {
            return Err(format!(
                "{}: every run failed: {:?}",
                BACKENDS[b], out.problems
            ));
        }
        let sum = Summary::of(s);
        medians[b] = sum.median;
        out.end_to_end
            .push(metric(format!("run_ms.{}", BACKENDS[b]), "ms", sum.median));
        out.notes.push(format!(
            "{:<13} median {:>9.3} ms  p90 {:>9.3} ms  n={}",
            BACKENDS[b], sum.median, sum.p90, sum.n
        ));
    }
    out.end_to_end
        .push(metric("setup_s", "s", median(&setup_ms) / 1e3));

    if opts.trace {
        let fits = fit_probe(opts, workers, &mut out)?;
        let layer = traced_layers(&mut bench, &medians, &fits, &mut out);
        out.per_layer.extend([
            metric("data.gen_ms", "ms", gen_ms),
            metric("plan.build_ms", "ms", plan_ms),
            metric("plan.tasks", "count", plan_tasks as f64),
            metric("kernel.callback_ms", "ms", kernel.callback_ms),
            metric("kernel.calls", "count", kernel.calls as f64),
            metric("codec.encode_ms", "ms", kernel.encode_ms),
            metric("codec.bytes", "bytes", kernel.bytes as f64),
        ]);
        out.per_layer.extend(layer);
    }

    let ok = (out.attempted - out.failed) as f64 / out.attempted as f64;
    out.end_to_end.push(metric("ok_frac", "ratio", ok));
    out.notes.push(format!(
        "failed_frac {} ({} of {} runs failed)",
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    ));
    Ok(out)
}

/// Fixed and per-task cost of each backend, fitted from the median run
/// times of two dispatch reductions of different sizes, interleaved.
fn fit_probe(opts: &Options, workers: usize, out: &mut Outcome) -> Result<Vec<Line>, String> {
    let sizes = [companion_leaves(opts.scale), dispatch_leaves(opts.scale)];
    let mut benches = Vec::new();
    for leaves in sizes {
        let (w, _) = workloads::dispatch(opts.seed, leaves, workers as u32);
        let (golden, _) = golden(&w)?;
        benches.push(Bench::new(w, golden, workers));
    }
    let tasks: Vec<f64> = benches.iter().map(|b| b.w.plan.len() as f64).collect();
    // Per backend, the run times at each size.
    let mut samples = vec![[Vec::new(), Vec::new()]; BACKENDS.len()];
    for round in 0..WARMUP_ROUNDS + FIT_ROUNDS {
        for (b, per_size) in samples.iter_mut().enumerate() {
            for (bench, times) in benches.iter_mut().zip(per_size) {
                if let Some((t0, t1, _)) = bench.run(b, None, out) {
                    if round >= WARMUP_ROUNDS {
                        times.push(ms(t0, t1));
                    }
                }
            }
        }
    }
    let lines = BACKENDS
        .iter()
        .zip(&samples)
        .map(|(backend, [small, big])| {
            let (small_ms, big_ms) = (median_or_nan(small), median_or_nan(big));
            let line = fit(tasks[0], small_ms, tasks[1], big_ms);
            out.notes.push(format!(
                "{backend:<13} fit: {:.3} ms fixed + {:.3} us/task (medians {small_ms:.3} ms \
                 at {} tasks, {big_ms:.3} ms at {} tasks, {} runs each)",
                line.fixed,
                line.per_unit * 1e3,
                tasks[0],
                tasks[1],
                big.len()
            ));
            line
        })
        .collect();
    Ok(lines)
}

fn median_or_nan(s: &[f64]) -> f64 {
    if s.is_empty() {
        f64::NAN
    } else {
        median(s)
    }
}

/// One traced run per backend, split by layer.
fn traced_layers(
    bench: &mut Bench,
    untraced_ms: &[f64],
    fits: &[Line],
    out: &mut Outcome,
) -> Vec<Metric> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for (b, &backend) in BACKENDS.iter().enumerate() {
        let recorder = Arc::new(TraceRecorder::new());
        let Some((t0, t1, report)) = bench.run(b, Some(recorder.clone()), out) else {
            rows.push(vec![f64::NAN; PER_BACKEND.len()]);
            continue;
        };
        let trace = recorder.take();
        let ev = trace.events();
        let s = &report.stats;
        let task_spans = trace.of_kind(SpanKind::TaskExec).count() as u64;
        if task_spans != s.tasks_executed {
            out.problem(format!(
                "{backend}: {task_spans} TaskExec spans but {} tasks executed",
                s.tasks_executed
            ));
        }
        let wall = ms(t0, t1);
        rows.push(vec![
            self_ns(ev, SpanKind::TaskExec, SpanKind::Callback) as f64 / 1e6,
            fits[b].per_unit * 1e3,
            s.perf.payload_clones as f64,
            s.tasks_executed as f64,
            total_ns(ev, SpanKind::QueueWait) as f64 / 1e6,
            total_ns(ev, SpanKind::MsgSend) as f64 / 1e6,
            total_ns(ev, SpanKind::MsgRecv) as f64 / 1e6,
            s.remote_messages as f64,
            s.remote_bytes as f64,
            s.perf.envelopes_sent as f64,
            s.perf.batches_sent as f64,
            s.recovery.retransmits as f64,
            unattributed_ns(ev, t0, t1) as f64 / 1e6,
            fits[b].fixed,
            (wall / untraced_ms[b] - 1.0) * 100.0,
        ]);
        out.notes.push(format!(
            "{backend:<13} traced run {wall:.3} ms, {} spans, {:.3} ms unattributed",
            ev.len(),
            unattributed_ns(ev, t0, t1) as f64 / 1e6
        ));
    }
    let mut metrics = Vec::new();
    for (i, (name, unit)) in PER_BACKEND.iter().enumerate() {
        for (b, backend) in BACKENDS.iter().enumerate() {
            if emitted(name, backend) {
                metrics.push(metric(format!("{name}.{backend}"), unit, rows[b][i]));
            }
        }
    }
    metrics
}
