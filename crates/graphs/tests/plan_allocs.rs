//! Per-task allocation gate for the plan build.
//!
//! `ShardPlan::build` queries each task once, and keeps what the query
//! returned. Beyond that it allocates, per task, the task's `routes`: one
//! `Vec` of output slots and one `Vec` of routes per slot, which is two
//! for every task of a reduction. The gate is the per-task slope of the
//! build's allocations between two sizes of one graph family, less the
//! slope of the `task()` queries alone, so fixed per-build costs and the
//! graph's own allocations cancel out. Allocations are counted on this
//! thread only. This file holds one test so no other test runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use babelflow_core::{ModuloMap, ShardPlan, TaskGraph};
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

/// The allocations `f` makes.
fn counted<T>(f: impl FnOnce() -> T) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    drop(out);
    ALLOCS.with(Cell::get)
}

/// For `Reduction(leaves, 4)` over 2 shards: the allocations of one plan
/// build, of one `task()` pass over `ids()`, and the task count.
fn build_allocs(leaves: u64) -> (u64, u64, u64) {
    let graph = Reduction::new(leaves, 4);
    let map = ModuloMap::new(2, graph.size() as u64);
    let build = counted(|| ShardPlan::build(&graph, &map));
    let queries = counted(|| graph.ids().into_iter().map(|id| graph.task(id)).collect::<Vec<_>>());
    (build, queries, graph.size() as u64)
}

#[test]
fn a_plan_allocates_two_route_vecs_per_task() {
    // Warm up once, so one-time process state is not counted.
    build_allocs(16);
    let (big, big_queries, big_tasks) = build_allocs(4096);
    let (small, small_queries, small_tasks) = build_allocs(1024);
    let tasks = (big_tasks - small_tasks) as f64;
    let build = (big - small) as f64 / tasks;
    let queries = (big_queries - small_queries) as f64 / tasks;
    let own = build - queries;
    println!(
        "build: {build:.3} allocations per task, task() queries: {queries:.3}, the plan's own: \
         {own:.3}"
    );
    // The outer `routes` `Vec` and its one output slot's `Vec`, plus the
    // amortized growth of the plan's tables.
    assert!(own <= 2.05, "the plan allocates {own:.3} times per task");
}
