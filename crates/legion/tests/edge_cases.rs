//! Edge-case tests for the Legion-like runtime: deep recursive spawning,
//! wide barriers, and launch-before-attach ordering.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use babelflow_core::{Blob, Payload};
use babelflow_legion::{LegionRuntime, TaskCtx, WaitOutcome};

/// The item these tests launch: a boxed closure, run by [`run`].
struct Body(Closure);

type Closure = Box<dyn FnOnce(&mut TaskCtx<'_, Body>) + Send>;

fn body(f: impl FnOnce(&mut TaskCtx<'_, Body>) + Send + 'static) -> Body {
    Body(Box::new(f))
}

fn run(rt: &LegionRuntime<Body>) -> WaitOutcome {
    rt.wait_all(|_| (), |_, ctx, Body(f)| f(ctx)).0
}

const NONE: [u32; 0] = [];

#[test]
fn deep_recursive_spawn_chain() {
    // Each task spawns its successor; depth 200 must drain on one worker.
    let rt = LegionRuntime::new(1);
    let count = Arc::new(AtomicU64::new(0));

    fn spawn_chain(ctx: &TaskCtx<'_, Body>, depth: u64, count: Arc<AtomicU64>) {
        count.fetch_add(1, Ordering::Relaxed);
        if depth == 0 {
            return;
        }
        ctx.runtime.launch(body(move |ctx| spawn_chain(ctx, depth - 1, count)), NONE, NONE);
    }

    let c = count.clone();
    rt.launch(body(move |ctx| spawn_chain(ctx, 200, c)), NONE, NONE);
    assert!(run(&rt).is_completed());
    assert_eq!(count.load(Ordering::Relaxed), 201);
    assert_eq!(rt.stats().tasks_launched, 201);
}

#[test]
fn wide_barrier_releases_many_waiters() {
    let rt = LegionRuntime::new(4);
    let pb = rt.create_barriers(1, 16);
    let released = Arc::new(AtomicU64::new(0));
    for _ in 0..8 {
        let released = released.clone();
        rt.launch(body(move |_| {
                released.fetch_add(1, Ordering::Relaxed);
            }), NONE, [pb]);
    }
    for _ in 0..16 {
        rt.launch(body(move |ctx| ctx.keep(ctx.runtime.arrive(pb))), NONE, NONE);
    }
    assert!(run(&rt).is_completed());
    assert_eq!(released.load(Ordering::Relaxed), 8);
}

#[test]
fn attach_after_launch_still_releases() {
    // A reader launched before its region exists runs once the region is
    // attached — attachment is an event like any write.
    let rt = LegionRuntime::new(1);
    let r = rt.create_regions(1);
    let got = Arc::new(AtomicU64::new(0));
    let got2 = got.clone();
    rt.launch(
        body(move |ctx| {
            let mut inputs = Vec::new();
            ctx.runtime.take_regions([r], &mut inputs);
            let b = inputs[0].extract::<Blob>().unwrap();
            got2.store(b.0[0] as u64, Ordering::Relaxed);
        }),
        [r],
        NONE,
    );
    rt.attach_regions([(r, Payload::wrap(Blob(vec![42])))]);
    assert!(run(&rt).is_completed());
    assert_eq!(got.load(Ordering::Relaxed), 42);
}

#[test]
fn diamond_of_region_dependences_executes_once_each() {
    // a writes r1, r2; b reads r1 writes r3; c reads r2 writes r4;
    // d reads r3, r4. Launched in reverse order.
    let rt = LegionRuntime::new(2);
    let r1 = rt.create_regions(4);
    let (r2, r3, r4) = (r1 + 1, r1 + 2, r1 + 3);
    let order = Arc::new(babelflow_core::sync::Mutex::new(Vec::<&'static str>::new()));
    let write = |ctx: &TaskCtx<'_, Body>, r: u32, v: u8| {
        ctx.runtime.write_region(r, Payload::wrap(Blob(vec![v])), None);
    };

    let o = order.clone();
    rt.launch(body(move |_| o.lock().push("d")), [r3, r4], NONE);
    let o = order.clone();
    rt.launch(
        body(move |ctx| {
            o.lock().push("c");
            write(ctx, r4, 4);
        }),
        [r2],
        NONE,
    );
    let o = order.clone();
    rt.launch(
        body(move |ctx| {
            o.lock().push("b");
            write(ctx, r3, 3);
        }),
        [r1],
        NONE,
    );
    let o = order.clone();
    rt.launch(
        body(move |ctx| {
            o.lock().push("a");
            write(ctx, r1, 1);
            write(ctx, r2, 2);
        }),
        NONE,
        NONE,
    );

    assert!(run(&rt).is_completed());
    let order = order.lock();
    assert_eq!(order.len(), 4);
    assert_eq!(order[0], "a");
    assert_eq!(order[3], "d");
}
