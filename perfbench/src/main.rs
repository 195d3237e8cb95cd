//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name and unit, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). Exits 1 on a wrong answer, 2 on bad usage.

use std::process::ExitCode;

use babelflow_perfbench::{run, Metric, Options, Scale};

const USAGE: &str = "usage: perfbench --workload <dispatch|composite|mergetree> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(opts)
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// `null` for a value that could not be measured.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };

    println!(
        "workload {} seed {} ({} s of timed rounds)",
        opts.workload, opts.seed, opts.seconds
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("  {:<34} {:>16} {}", m.name, number(m.value), m.unit);
    }
    for p in &outcome.problems {
        println!("  PROBLEM {p}");
    }
    let reported = if opts.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{}",
        json_line(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            reported
        )
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
