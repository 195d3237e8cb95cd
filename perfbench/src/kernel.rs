//! Kernel and codec layers, measured by decorating a registry: every
//! callback is timed, and every output payload that feeds another task
//! is serialized once with `Payload::to_buffer`, the call a controller
//! makes for a cross-shard edge.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use babelflow_core::{Callback, Registry, ShardPlan};

/// What the decorated callbacks measured. The counters are statistics
/// that publish no other data, hence `Relaxed`.
#[derive(Debug, Default)]
pub struct KernelProbe {
    callback_ns: AtomicU64,
    calls: AtomicU64,
    encode_ns: AtomicU64,
    bytes: AtomicU64,
}

/// A snapshot of a [`KernelProbe`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelStats {
    /// Time inside user callbacks.
    pub callback_ms: f64,
    /// Callback invocations.
    pub calls: u64,
    /// Time serializing edge payloads.
    pub encode_ms: f64,
    /// Serialized edge-payload bytes.
    pub bytes: u64,
}

impl KernelProbe {
    /// Read the counters.
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            callback_ms: self.callback_ns.load(Ordering::Relaxed) as f64 / 1e6,
            calls: self.calls.load(Ordering::Relaxed),
            encode_ms: self.encode_ns.load(Ordering::Relaxed) as f64 / 1e6,
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// `registry` with every callback wrapped to report into `probe`. `plan`
/// tells which output slots are edges to another task.
pub fn instrument(
    registry: &Registry,
    plan: &Arc<ShardPlan>,
    probe: &Arc<KernelProbe>,
) -> Registry {
    let mut wrapped = Registry::new();
    for (id, cb) in registry.iter() {
        let (cb, plan, probe) = (cb.clone(), plan.clone(), probe.clone());
        let timed: Callback = Arc::new(move |inputs, task| {
            let t = Instant::now();
            let outputs = cb(inputs, task);
            probe
                .callback_ns
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            probe.calls.fetch_add(1, Ordering::Relaxed);
            let routes = plan
                .task_by_id(task)
                .map_or(&[][..], |pt| pt.routes.as_slice());
            for (payload, slot) in outputs.iter().zip(routes) {
                if slot.iter().all(|r| r.dst.is_external()) {
                    continue;
                }
                let t = Instant::now();
                let len = payload.to_buffer().len() as u64;
                probe
                    .encode_ns
                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                probe.bytes.fetch_add(len, Ordering::Relaxed);
            }
            outputs
        });
        wrapped.register_arc(id, timed);
        if let Some((i, o)) = registry.declared_arity(id) {
            wrapped.declare_arity(id, i, o);
        }
    }
    wrapped
}
