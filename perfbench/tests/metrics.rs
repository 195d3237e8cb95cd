//! The benchmark's pure metric code, a tiny run of every workload, and
//! the agreement of its metric catalogue with `BENCHMARK.json`.

use babelflow_core::{SpanKind, TraceEvent};
use babelflow_perfbench::spans::{self_ns, total_ns, unattributed_ns, union_ns};
use babelflow_perfbench::stats::{fit, median, quantile, Summary};
use babelflow_perfbench::workloads::NAMES;
use babelflow_perfbench::{catalogue, run, Options, Scale};
use babelflow_trace::json::{parse, Json};

fn span(kind: SpanKind, start: u64, end: u64) -> TraceEvent {
    TraceEvent::span(kind, start, end, 0, 0)
}

#[test]
fn union_counts_disjoint_spans_separately() {
    let ev = [
        span(SpanKind::TaskExec, 10, 20),
        span(SpanKind::MsgSend, 30, 45),
    ];
    assert_eq!(union_ns(&ev, 0, 100), 25);
    assert_eq!(unattributed_ns(&ev, 0, 100), 75);
}

#[test]
fn union_merges_overlapping_spans() {
    let ev = [
        span(SpanKind::QueueWait, 10, 30),
        span(SpanKind::TaskExec, 20, 50),
        span(SpanKind::MsgRecv, 50, 60),
    ];
    assert_eq!(union_ns(&ev, 0, 100), 50);
    assert_eq!(unattributed_ns(&ev, 0, 100), 50);
}

#[test]
fn union_counts_nested_spans_once() {
    let ev = [
        span(SpanKind::TaskExec, 10, 50),
        span(SpanKind::Callback, 15, 40),
        span(SpanKind::MsgSend, 41, 45),
    ];
    assert_eq!(union_ns(&ev, 0, 60), 40);
    assert_eq!(unattributed_ns(&ev, 0, 60), 20);
}

#[test]
fn union_clips_spans_to_the_window() {
    let ev = [
        span(SpanKind::TaskExec, 0, 30),
        span(SpanKind::TaskExec, 90, 200),
    ];
    assert_eq!(union_ns(&ev, 10, 100), 30);
    assert_eq!(unattributed_ns(&ev, 10, 100), 60);
    assert_eq!(unattributed_ns(&[], 10, 100), 90);
}

#[test]
fn self_time_subtracts_only_nested_children_on_the_same_thread() {
    let ev = [
        span(SpanKind::TaskExec, 10, 50),
        span(SpanKind::Callback, 15, 40),
        // Another thread's callback overlaps in time but is not nested.
        TraceEvent::span(SpanKind::Callback, 10, 50, 0, 1),
        TraceEvent::span(SpanKind::TaskExec, 60, 70, 0, 1),
        TraceEvent::span(SpanKind::Callback, 60, 70, 0, 1),
    ];
    assert_eq!(self_ns(&ev, SpanKind::TaskExec, SpanKind::Callback), 15);
    assert_eq!(total_ns(&ev, SpanKind::Callback), 25 + 40 + 10);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn quantiles_match_the_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quantile(&ten, 0.25), 2.75);
    assert_eq!(quantile(&ten, 0.5), 5.5);
    assert_eq!(quantile(&ten, 0.75), 8.25);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quantile(&[2.0, 1.0], 0.25), 0.75);
    assert_eq!(quantile(&[2.0, 1.0], 0.75), 2.25);
    assert_eq!(quantile(&[7.0], 0.9), 7.0);
}

#[test]
fn summary_reports_its_sample_count() {
    let s: Vec<f64> = (1..=100).map(f64::from).collect();
    let sum = Summary::of(&s);
    assert_eq!(sum.n, 100);
    assert_eq!(sum.median, 50.5);
    assert!((sum.p90 - 90.9).abs() < 1e-9, "{}", sum.p90);
}

#[test]
fn two_point_fit_recovers_fixed_and_per_task_cost() {
    // 50 ms fixed + 2 us per task, sampled at 1365 and 5461 tasks.
    let line = fit(1365.0, 50.0 + 1365.0 * 0.002, 5461.0, 50.0 + 5461.0 * 0.002);
    assert!((line.fixed - 50.0).abs() < 1e-9, "{line:?}");
    assert!((line.per_unit - 0.002).abs() < 1e-12, "{line:?}");
}

/// Every workload at tiny size: correct, with exactly the catalogued
/// metrics, none of them missing a value.
#[test]
fn every_workload_runs_correctly_at_tiny_size() {
    let (e2e, layer) = catalogue();
    for name in NAMES {
        let opts = Options {
            workload: name.to_string(),
            seed: 3,
            seconds: 0.0,
            trace: true,
            scale: Scale::Tiny,
        };
        let out = run(&opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(out.correct(), "{name}: {:?}", out.problems);
        assert!(out.attempted > 0 && out.failed == 0, "{name}");
        let names = |ms: &[babelflow_perfbench::Metric]| -> Vec<(String, &'static str)> {
            ms.iter().map(|m| (m.name.clone(), m.unit)).collect()
        };
        assert_eq!(names(&out.end_to_end), e2e, "{name}");
        assert_eq!(names(&out.per_layer), layer, "{name}");
        for m in out.end_to_end.iter().chain(&out.per_layer) {
            assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
        }
    }
}

#[test]
fn an_unknown_workload_is_an_error() {
    let opts = Options {
        workload: "nope".into(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: Scale::Tiny,
    };
    assert!(run(&opts).is_err());
}

/// `BENCHMARK.json` lists exactly the catalogue, in order, with units.
#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect("string field");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    };
    let own = |ms: Vec<(String, &str)>| -> Vec<(String, String)> {
        ms.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    let (e2e, layer) = catalogue();
    assert_eq!(listed("end_to_end"), own(e2e));
    assert_eq!(listed("per_layer"), own(layer));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads is a list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, NAMES);
}
