//! Property-based tests of the zero-dependency substrate itself: buffer
//! slicing/cloning invariants, channel FIFO under contention, wakeups
//! across pools and channels, and PRNG stream determinism. These are the
//! foundations the runtime controllers sit on, so they get their own
//! adversarial suite.

use std::time::Duration;

use babelflow_core::channel::unbounded;
use babelflow_core::proptest_lite as proptest;
use babelflow_core::proptest_lite::prelude::*;
use babelflow_core::rng::Rng;
use babelflow_core::sync::WorkPool;
use babelflow_core::{Bytes, BytesMut};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn buffer_roundtrips_any_content(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let b = Bytes::from(data.clone());
        prop_assert_eq!(b.len(), data.len());
        prop_assert_eq!(b.as_slice(), data.as_slice());
        prop_assert_eq!(b.to_vec(), data.clone());
        let copied = Bytes::copy_from_slice(&data);
        prop_assert_eq!(&b, &copied);

        let mut m = BytesMut::with_capacity(data.len());
        m.extend_from_slice(&data);
        prop_assert_eq!(m.freeze(), b);
    }

    #[test]
    fn buffer_clone_and_slice_preserve_content(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        cut in 0usize..256,
        width in 0usize..256,
    ) {
        let b = Bytes::from(data.clone());
        let clone = b.clone();
        prop_assert_eq!(&clone, &b);

        // Any in-bounds window equals the same window of the source vec,
        // and slicing a slice composes like slicing the original.
        let start = cut % data.len();
        let end = (start + width).min(data.len());
        let window = b.slice(start..end);
        prop_assert_eq!(window.as_slice(), &data[start..end]);
        if !window.is_empty() {
            let inner = window.slice(1..);
            prop_assert_eq!(inner.as_slice(), &data[start + 1..end]);
        }
        // The original view is unaffected by clones and slices.
        prop_assert_eq!(b.as_slice(), data.as_slice());
    }

    #[test]
    fn channel_is_fifo_for_any_burst(msgs in proptest::collection::vec(any::<u64>(), 0..200)) {
        let (tx, rx) = unbounded();
        for &m in &msgs {
            tx.send(m).unwrap();
        }
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        prop_assert_eq!(got, msgs);
    }

    #[test]
    fn rng_streams_are_deterministic_per_seed(seed in any::<u64>()) {
        let mut a = Rng::seed_from_u64(seed);
        let mut b = Rng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        // A different seed diverges within a few draws.
        let mut c = Rng::seed_from_u64(seed.wrapping_add(1));
        let mut a2 = Rng::seed_from_u64(seed);
        let same = (0..64).filter(|_| a2.next_u32() == c.next_u32()).count();
        prop_assert!(same < 8, "streams for different seeds look identical");
    }

    #[test]
    fn rng_ranges_respect_arbitrary_bounds(
        lo in -1000i64..1000,
        width in 1i64..1000,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..50 {
            let v = rng.random_range(lo..lo + width);
            prop_assert!((lo..lo + width).contains(&v));
            let w = rng.random_range(lo..=lo + width);
            prop_assert!((lo..=lo + width).contains(&w));
        }
    }
}

/// Messages sent from many producer threads while consumers drain through
/// a cloned receiver pool arrive exactly once — no losses, no duplicates.
/// This is the delivery contract the MPI controller's worker pool relies
/// on.
#[test]
fn channel_pool_delivers_exactly_once_under_contention() {
    const PRODUCERS: u64 = 4;
    const CONSUMERS: usize = 4;
    const PER_PRODUCER: u64 = 2000;
    let (tx, rx) = unbounded::<u64>();
    let received: Vec<u64> = std::thread::scope(|s| {
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let rx = rx.clone();
                s.spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in 0..PRODUCERS {
            let tx = tx.clone();
            s.spawn(move || {
                for i in 0..PER_PRODUCER {
                    tx.send(p * PER_PRODUCER + i).unwrap();
                }
            });
        }
        drop(tx);
        drop(rx);
        consumers.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let mut sorted = received;
    sorted.sort_unstable();
    let expected: Vec<u64> = (0..PRODUCERS * PER_PRODUCER).collect();
    assert_eq!(sorted, expected);
}

/// Every handoff in a ring of two pools and two channels parks the next
/// thread and must wake it: 10,000 items travel the ring one at a time
/// with blocking receives and no timer in the loop, so a single lost
/// wakeup hangs the ring (the watchdog outside turns that into a
/// failure).
#[test]
fn ping_pong_through_pools_and_channels_loses_no_wakeup() {
    const ITEMS: u64 = 10_000;
    let (done_tx, done_rx) = unbounded::<u64>();
    std::thread::spawn(move || {
        let pool_a: WorkPool<u64> = WorkPool::new(1);
        let pool_b: WorkPool<u64> = WorkPool::new(2);
        let (tx_x, rx_x) = unbounded::<u64>();
        let (tx_y, rx_y) = unbounded::<u64>();
        std::thread::scope(|s| {
            let a = pool_a.clone();
            s.spawn(move || {
                while let Some(v) = a.recv(0) {
                    tx_x.send(v + 1).unwrap();
                }
            });
            let b = pool_b.clone();
            s.spawn(move || {
                while let Ok(v) = rx_x.recv() {
                    // Pinned to worker 1 while worker 0 is parked too: the
                    // wake must reach the lane's owner.
                    b.push_to(1, v + 1);
                }
            });
            for w in 0..2 {
                let (b, tx_y) = (pool_b.clone(), tx_y.clone());
                s.spawn(move || {
                    while let Some(v) = b.recv(w) {
                        tx_y.send(v + 1).unwrap();
                    }
                });
            }
            drop(tx_y);
            for i in 0..ITEMS {
                pool_a.push(i);
                assert_eq!(rx_y.recv(), Ok(i + 3));
            }
            pool_a.close();
            pool_b.close();
        });
        done_tx.send(ITEMS).unwrap();
    });
    assert_eq!(done_rx.recv_timeout(Duration::from_secs(120)), Ok(ITEMS), "the ring hung");
}
