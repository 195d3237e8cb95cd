//! Quickstart: the paper's three-step workflow on a global-statistics
//! reduction.
//!
//! "Changing the callbacks […] one can also compute global statistics or
//! execute any number of reduction-based algorithms." This example builds
//! Listing 1's reduction dataflow, registers three callbacks (leaf:
//! summarize a data block; reduce: merge summaries; root: finalize), and
//! runs it on the serial controller and the MPI-like backend — same code,
//! two runtimes.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Pass `--trace out.json` to record the MPI run and write a Chrome
//! `trace_event` file (open it in `chrome://tracing` or Perfetto).

use std::collections::HashMap;

use babelflow::core::{
    codec::DecodeError, canonical_outputs, run_serial, Controller, Decoder, Encoder, ModuloMap,
    Payload, PayloadData, Registry, TaskGraph,
};
use babelflow::graphs::{reduction, Reduction};
use babelflow::mpi::MpiController;
use babelflow::trace::{check_coverage, parse_json, to_chrome_json, TraceRecorder, TraceSummary};

/// Min/max/sum statistics — the object exchanged between tasks. Step 2 of
/// the paper's workflow: provide its serialization.
#[derive(Debug, Clone, PartialEq)]
struct Stats {
    min: f32,
    max: f32,
    sum: f64,
    count: u64,
}

impl Stats {
    fn of(data: &[f32]) -> Stats {
        Stats {
            min: data.iter().copied().fold(f32::INFINITY, f32::min),
            max: data.iter().copied().fold(f32::NEG_INFINITY, f32::max),
            sum: data.iter().map(|&v| v as f64).sum(),
            count: data.len() as u64,
        }
    }

    fn merge(items: impl Iterator<Item = Stats>) -> Stats {
        items.fold(
            Stats { min: f32::INFINITY, max: f32::NEG_INFINITY, sum: 0.0, count: 0 },
            |a, b| Stats {
                min: a.min.min(b.min),
                max: a.max.max(b.max),
                sum: a.sum + b.sum,
                count: a.count + b.count,
            },
        )
    }
}

impl PayloadData for Stats {
    fn encode_into(&self, e: &mut Encoder) {
        e.put_f32(self.min);
        e.put_f32(self.max);
        e.put_f64(self.sum);
        e.put_u64(self.count);
    }

    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(buf);
        Ok(Stats { min: d.get_f32()?, max: d.get_f32()?, sum: d.get_f64()?, count: d.get_u64()? })
    }
}

/// A raw data block (what the "simulation" hands us).
struct BlockData(Vec<f32>);

impl PayloadData for BlockData {
    fn encode_into(&self, e: &mut Encoder) {
        e.put_f32_slice(&self.0);
    }

    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        Ok(BlockData(Decoder::new(buf).get_f32_vec()?))
    }
}

/// `--trace <path>` from the command line, if present.
fn trace_path() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            let path = args.next().unwrap_or_else(|| {
                eprintln!("--trace needs an output path");
                std::process::exit(2);
            });
            return Some(path);
        }
    }
    None
}

fn main() {
    // Step 3: describe the dataflow — a reduction tree over 16 blocks,
    // valence 4 (Listing 1's `Reduction graph(block_decomp, valence)`).
    let graph = Reduction::new(16, 4);

    // Step 1: implement the tasks and register the callbacks.
    let cb = graph.callback_ids();
    let mut registry = Registry::new();
    registry.register(cb[reduction::LEAF_CB], |inputs, _id| {
        let block = inputs[0].extract::<BlockData>().expect("leaf gets a block");
        vec![Payload::wrap(Stats::of(&block.0))]
    });
    registry.register(cb[reduction::REDUCE_CB], |inputs, _id| {
        let merged = Stats::merge(
            inputs.iter().map(|p| (*p.extract::<Stats>().expect("stats")).clone()),
        );
        vec![Payload::wrap(merged)]
    });
    registry.register(cb[reduction::ROOT_CB], |inputs, _id| {
        let merged = Stats::merge(
            inputs.iter().map(|p| (*p.extract::<Stats>().expect("stats")).clone()),
        );
        vec![Payload::wrap(merged)]
    });

    // Hand off the input data by assigning payloads to the leaf tasks.
    let initial = || -> HashMap<_, _> {
        graph
            .leaf_ids()
            .into_iter()
            .enumerate()
            .map(|(i, id)| {
                let data: Vec<f32> =
                    (0..1000).map(|j| ((i * 1000 + j) as f32).sin()).collect();
                (id, vec![Payload::wrap(BlockData(data))])
            })
            .collect()
    };

    // Run serially (debugging mode)…
    let serial = run_serial(&graph, &registry, initial()).expect("serial run");
    let stats = serial.outputs[&graph.root_id()][0].extract::<Stats>().expect("stats");
    println!(
        "serial   : min={:.4} max={:.4} mean={:.6} over {} samples",
        stats.min,
        stats.max,
        stats.sum / stats.count as f64,
        stats.count
    );

    // …then on the MPI-like runtime over 4 ranks, unchanged. With
    // `--trace`, the same run also records every task/message span.
    let map = ModuloMap::new(4, graph.size() as u64);
    let mut mpi = MpiController::new();
    let recorder = trace_path().map(|path| (path, TraceRecorder::shared()));
    let report = match &recorder {
        Some((_, rec)) => mpi
            .run_traced(&graph, &map, &registry, initial(), rec.clone())
            .expect("mpi run"),
        None => mpi.run(&graph, &map, &registry, initial()).expect("mpi run"),
    };
    let stats = report.outputs[&graph.root_id()][0].extract::<Stats>().expect("stats");
    println!(
        "mpi (4r) : min={:.4} max={:.4} mean={:.6} over {} samples",
        stats.min,
        stats.max,
        stats.sum / stats.count as f64,
        stats.count
    );
    println!(
        "identical outputs: {}",
        canonical_outputs(&serial) == canonical_outputs(&report)
    );
    println!(
        "mpi stats: {} tasks, {} remote messages ({} bytes), {} local",
        report.stats.tasks_executed,
        report.stats.remote_messages,
        report.stats.remote_bytes,
        report.stats.local_messages
    );

    // Export, self-validate, and analyze the recorded trace.
    if let Some((path, rec)) = recorder {
        let trace = rec.take();
        check_coverage(&trace, &graph).expect("every task traced exactly once");
        let json = to_chrome_json(&trace);
        parse_json(&json).expect("export is valid trace_event JSON");
        std::fs::write(&path, &json).expect("write trace file");
        println!(
            "trace    : {} events -> {path} (load in chrome://tracing)",
            trace.len()
        );
        print!("{}", TraceSummary::from_trace(&trace));
    }
}
