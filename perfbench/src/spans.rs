//! Time attribution over a traced run's spans.

use babelflow_core::{SpanKind, TraceEvent};

/// Length of the union of every span's interval, clipped to `[lo, hi)`.
/// Overlapping and nested spans count once.
pub fn union_ns(events: &[TraceEvent], lo: u64, hi: u64) -> u64 {
    let mut spans: Vec<(u64, u64)> = events
        .iter()
        .map(|e| (e.start_ns.max(lo), e.end_ns.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    spans.sort_unstable();
    let mut covered = 0;
    let mut open: Option<(u64, u64)> = None;
    for (s, e) in spans {
        open = match open {
            Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
            Some((os, oe)) => {
                covered += oe - os;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    covered + open.map_or(0, |(s, e)| e - s)
}

/// Wall time in `[lo, hi)` that no span accounts for: spawn, quiescence
/// detection, drain and teardown, and any sleep among them.
pub fn unattributed_ns(events: &[TraceEvent], lo: u64, hi: u64) -> u64 {
    hi.saturating_sub(lo) - union_ns(events, lo, hi)
}

/// Summed duration of every span of `kind`.
pub fn total_ns(events: &[TraceEvent], kind: SpanKind) -> u64 {
    events
        .iter()
        .filter(|e| e.kind == kind)
        .map(TraceEvent::duration_ns)
        .sum()
}

/// Self time of every `parent` span: its duration minus the part covered
/// by `child` spans nested in it on the same rank and thread.
pub fn self_ns(events: &[TraceEvent], parent: SpanKind, child: SpanKind) -> u64 {
    let mut children: Vec<(u32, u32, u64, u64)> = events
        .iter()
        .filter(|e| e.kind == child)
        .map(|e| (e.rank, e.thread, e.start_ns, e.end_ns))
        .collect();
    children.sort_unstable();
    let mut total = 0;
    for p in events.iter().filter(|e| e.kind == parent) {
        let key = (p.rank, p.thread);
        let first =
            children.partition_point(|&(r, t, s, _)| (r, t, s) < (key.0, key.1, p.start_ns));
        let mut covered = 0;
        let mut reach = p.start_ns;
        for &(r, t, s, e) in &children[first..] {
            if (r, t) != key || s >= p.end_ns {
                break;
            }
            let (s, e) = (s.max(reach), e.min(p.end_ns));
            if s < e {
                covered += e - s;
                reach = e;
            }
        }
        total += p.duration_ns() - covered;
    }
    total
}
