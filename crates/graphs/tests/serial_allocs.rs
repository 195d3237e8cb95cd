//! Per-task allocation gate for the serial executor.
//!
//! A fault-free run allocates, per task, what the callback allocates
//! plus the task's input buffer, and nothing else (no per-attempt copy
//! of the inputs, in particular). The gate is the per-task slope of
//! allocations between two sizes of one graph family, so fixed per-run
//! costs (the pending set, the ready queue, the output map) cancel out. Allocations are counted on this thread only, and only
//! inside the executor's run. This file holds one test so no other test
//! runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use babelflow_core::{
    noop_sink, Blob, Controller, InitialInputs, ModuloMap, Payload, Registry, SerialController,
    ShardPlan, TaskGraph,
};
use babelflow_graphs::Reduction;

/// The system allocator, counting this thread's allocations while
/// [`COUNTING`] is set.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also serves threads whose locals are
    // already torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one serial run of `Reduction(leaves, 4)`, and its task
/// count. The plan, its bindings (callbacks and inputs) and the sink are
/// made before counting.
fn run_allocs(leaves: u64) -> (u64, u64) {
    let graph = Reduction::new(leaves, 4);
    let plan = Arc::new(ShardPlan::build(&graph, &ModuloMap::new(1, graph.size() as u64)));
    let mut reg = Registry::new();
    // Every callback forwards its first input: a refcount bump, so the
    // output `Vec` is all it allocates.
    for cb in graph.callback_ids() {
        reg.register(cb, |inputs, _| vec![inputs[0].clone()]);
    }
    let initial: InitialInputs = graph
        .leaf_ids()
        .into_iter()
        .map(|id| (id, vec![Payload::wrap(Blob(id.0.to_le_bytes().to_vec()))]))
        .collect();
    let run = plan.preflight(&reg, initial).expect("bound run");
    let sink = noop_sink();
    let mut serial = SerialController::new();

    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let report = serial.execute(&plan, run, sink);
    COUNTING.with(|on| on.set(false));

    let report = report.expect("serial run");
    assert_eq!(report.stats.tasks_executed, graph.size() as u64);
    (ALLOCS.with(Cell::get), graph.size() as u64)
}

#[test]
fn a_serial_task_allocates_its_output_and_its_input_buffer_only() {
    // Warm up once, so one-time process state is not counted.
    run_allocs(16);
    let (big, big_tasks) = run_allocs(1024);
    let (small, small_tasks) = run_allocs(256);
    let slope = (big - small) / (big_tasks - small_tasks);
    println!(
        "{big} allocations for {big_tasks} tasks, {small} for {small_tasks}: {slope} per task"
    );
    // The callback's output `Vec`, and the input buffer each pending task
    // holds from the start of the run.
    const CALLBACK_OUTPUT: u64 = 1;
    const INPUT_BUFFER: u64 = 1;
    assert_eq!(slope, CALLBACK_OUTPUT + INPUT_BUFFER);
}
