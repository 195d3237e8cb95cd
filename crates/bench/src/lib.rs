//! # babelflow-bench
//!
//! The figure-regeneration harness: one function (and one binary) per
//! figure of the paper's evaluation, writing CSV series to `results/`.
//! See DESIGN.md §5 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured notes.

#![warn(missing_docs)]

pub mod ablations;
pub mod calibrate;
pub mod figures;
pub mod plots;

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Directory figure outputs are written to (`results/` at the workspace
/// root, honoring `BABELFLOW_RESULTS` if set).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("BABELFLOW_RESULTS").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Write a CSV file with a header row.
pub fn write_csv(path: &Path, header: &str, rows: &[Vec<String>]) {
    let mut f = std::fs::File::create(path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for row in rows {
        writeln!(f, "{}", row.join(",")).expect("write row");
    }
    println!("wrote {}", path.display());
}

/// Format seconds with four decimals.
pub fn fmt_s(sec: f64) -> String {
    format!("{sec:.4}")
}
