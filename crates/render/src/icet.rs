//! IceT-like compositing baseline.
//!
//! The paper compares against "IceT, a high-performance, sort-last
//! parallel rendering library", with interlacing and background filtering
//! disabled so that "all tasks will exchange dense images or dense image
//! patches". IceT itself is a C library; this module is the substitute:
//! the same compositing math operating directly on in-memory fragments —
//! no task graph, no payload serialization, no thread handoffs. Exactly
//! the costs the paper says a custom implementation avoids ("the
//! deserialization/serialization of the data structures and the thread
//! management can be avoided in a custom implementation, like IceT").

use crate::image::{binary_swap_region, ImageFragment};
use crate::tasks::assemble;

/// Tree (reduction) compositing of pre-rendered fragments, valence `k`.
///
/// Like IceT, fragments are visibility-ordered first: OVER is associative
/// but not commutative, so tree grouping is only correct when every group
/// is contiguous in global depth order.
pub fn icet_reduce(mut frags: Vec<ImageFragment>, k: usize) -> ImageFragment {
    assert!(!frags.is_empty() && k >= 2);
    frags.sort_by(|a, b| a.depth.partial_cmp(&b.depth).expect("finite depths"));
    while frags.len() > 1 {
        let mut next = Vec::with_capacity(frags.len().div_ceil(k));
        for chunk in frags.chunks(k) {
            let mut group: Vec<&ImageFragment> = chunk.iter().collect();
            group.sort_by(|a, b| a.depth.partial_cmp(&b.depth).expect("finite depths"));
            next.push(assemble(&group));
        }
        frags = next;
    }
    frags.pop().expect("non-empty input")
}

/// Classic binary-swap compositing of `2^r` pre-rendered fragments;
/// returns the assembled full image.
///
/// Fragments are visibility-ordered first (see [`icet_reduce`]); the
/// partner schedule then always composites plane-separated groups.
pub fn icet_binary_swap(mut frags: Vec<ImageFragment>) -> ImageFragment {
    let n = frags.len();
    assert!(n.is_power_of_two() && n >= 1);
    frags.sort_by(|a, b| a.depth.partial_cmp(&b.depth).expect("finite depths"));
    let height = frags[0].full.1;
    let rounds = n.trailing_zeros();

    for round in 1..=rounds {
        let mut next = Vec::with_capacity(n);
        for (i, f) in frags.iter().enumerate() {
            let p = i ^ (1 << (round - 1));
            let keep = binary_swap_region(height, round, i as u64);
            let their_keep = binary_swap_region(height, round, p as u64);
            // We receive our region from the partner; they receive theirs
            // from us. Composite the two halves covering our region.
            let mine = f.crop_rows(keep.0, keep.1);
            let theirs = frags[p].crop_rows(keep.0, keep.1);
            let _ = their_keep;
            next.push(ImageFragment::composite_by_depth(&mine, &theirs));
        }
        frags = next;
    }
    // Gather the tiles.
    assemble(&frags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frag(full: (u32, u32), color: [f32; 4], depth: f32) -> ImageFragment {
        let mut f = ImageFragment::empty(full, (0, 0, full.0, full.1), depth);
        f.rgba.fill(color);
        f
    }

    #[test]
    fn reduce_respects_depth_order() {
        let near = frag((2, 2), [1.0, 0.0, 0.0, 1.0], 0.0);
        let far = frag((2, 2), [0.0, 1.0, 0.0, 1.0], 9.0);
        // Regardless of list order the near (opaque) fragment wins.
        for frags in [vec![near.clone(), far.clone()], vec![far.clone(), near.clone()]] {
            let out = icet_reduce(frags, 2);
            assert_eq!(out.at_absolute(0, 0).unwrap(), [1.0, 0.0, 0.0, 1.0]);
        }
    }

    #[test]
    fn binary_swap_matches_reduce() {
        let frags: Vec<ImageFragment> = (0..4)
            .map(|i| frag((4, 4), [0.2, 0.1 * i as f32, 0.05, 0.3], i as f32))
            .collect();
        let a = icet_reduce(frags.clone(), 2);
        let b = icet_binary_swap(frags);
        for y in 0..4 {
            for x in 0..4 {
                let pa = a.at_absolute(x, y).unwrap();
                let pb = b.at_absolute(x, y).unwrap();
                for c in 0..4 {
                    assert!((pa[c] - pb[c]).abs() < 1e-5, "pixel {x},{y} channel {c}");
                }
            }
        }
    }

    #[test]
    fn single_fragment_passthrough() {
        let f = frag((2, 2), [0.1, 0.2, 0.3, 0.4], 1.0);
        let out = icet_reduce(vec![f.clone()], 4);
        assert_eq!(out, f);
    }
}
