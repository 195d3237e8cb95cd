//! Edge-case tests for the Legion-like runtime: deep recursive spawning,
//! wide barriers, and launch-before-attach ordering.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use babelflow_core::{Blob, Payload};
use babelflow_legion::{LegionRuntime, TaskLauncher};

#[test]
fn deep_recursive_spawn_chain() {
    // Each task spawns its successor; depth 200 must drain on one worker.
    let rt = LegionRuntime::new(1);
    let count = Arc::new(AtomicU64::new(0));

    fn spawn_chain(ctx: &babelflow_legion::TaskCtx<'_>, depth: u64, count: Arc<AtomicU64>) {
        count.fetch_add(1, Ordering::Relaxed);
        if depth == 0 {
            return;
        }
        ctx.launch(TaskLauncher::new(
            "chain",
            Box::new(move |ctx| spawn_chain(ctx, depth - 1, count)),
        ));
    }

    let c = count.clone();
    rt.launch(TaskLauncher::new(
        "root",
        Box::new(move |ctx| spawn_chain(ctx, 200, c)),
    ));
    assert!(rt.wait_all().is_completed());
    assert_eq!(count.load(Ordering::Relaxed), 201);
    assert_eq!(rt.stats().tasks_launched, 201);
}

#[test]
fn wide_barrier_releases_many_waiters() {
    let rt = LegionRuntime::new(4);
    let pb = rt.create_barrier(16);
    let released = Arc::new(AtomicU64::new(0));
    for _ in 0..8 {
        let released = released.clone();
        rt.launch(
            TaskLauncher::new("waiter", Box::new(move |_| {
                released.fetch_add(1, Ordering::Relaxed);
            }))
            .add_barrier_wait(pb.id),
        );
    }
    for _ in 0..16 {
        rt.launch(TaskLauncher::new("arriver", Box::new(move |ctx| ctx.arrive(pb.id))));
    }
    assert!(rt.wait_all().is_completed());
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
        TaskLauncher::new(
            "reader",
            Box::new(move |ctx| {
                let p = ctx.read_region(r);
                let b = p.extract::<Blob>().unwrap();
                got2.store(b.0[0] as u64, Ordering::Relaxed);
            }),
        )
        .add_read(r),
    );
    rt.attach_region(r, Payload::wrap(Blob(vec![42])));
    assert!(rt.wait_all().is_completed());
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

    let o = order.clone();
    rt.launch(
        TaskLauncher::new("d", Box::new(move |_| o.lock().push("d")))
            .add_read(r3)
            .add_read(r4),
    );
    let o = order.clone();
    rt.launch(
        TaskLauncher::new(
            "c",
            Box::new(move |ctx| {
                o.lock().push("c");
                ctx.write_region(r4, Payload::wrap(Blob(vec![4])));
            }),
        )
        .add_read(r2),
    );
    let o = order.clone();
    rt.launch(
        TaskLauncher::new(
            "b",
            Box::new(move |ctx| {
                o.lock().push("b");
                ctx.write_region(r3, Payload::wrap(Blob(vec![3])));
            }),
        )
        .add_read(r1),
    );
    let o = order.clone();
    rt.launch(TaskLauncher::new(
        "a",
        Box::new(move |ctx| {
            o.lock().push("a");
            ctx.write_region(r1, Payload::wrap(Blob(vec![1])));
            ctx.write_region(r2, Payload::wrap(Blob(vec![2])));
        }),
    ));

    assert!(rt.wait_all().is_completed());
    let order = order.lock();
    assert_eq!(order.len(), 4);
    assert_eq!(order[0], "a");
    assert_eq!(order[3], "d");
}
