//! The payload wire format, pinned: each bulk encoder must write exactly
//! the bytes of a per-element reference encoder written here, one value
//! at a time, for runs of 0, 1, 7 and 1000+ elements whose floats include
//! NaNs, signed zeros, infinities and subnormals. Every encoding must
//! decode back to a value that re-encodes to the same bytes (bit
//! identity, which `==` cannot check through NaN), and every decoder that
//! knows its length must reject truncated and trailing-garbage input.

use std::sync::Arc;

use babelflow::core::{Blob, PayloadData};
use babelflow::data::{DataNode, Grid3, Idx3, Value};
use babelflow::render::ImageFragment;
use babelflow::topology::MergeTree;

const LENGTHS: [usize; 4] = [0, 1, 7, 1003];

/// `n` floats cycling through the awkward bit patterns, then arbitrary
/// ones.
fn floats(n: usize) -> Vec<f32> {
    const SPECIAL: [u32; 9] = [
        0x7FC0_0000, // quiet NaN
        0x7F80_0001, // signalling NaN
        0xFFC0_1234, // negative NaN with payload
        0x8000_0000, // -0.0
        0x0000_0001, // smallest subnormal
        0x807F_FFFF, // largest negative subnormal
        0x7F80_0000, // +inf
        0xFF80_0000, // -inf
        0x3F80_0000, // 1.0
    ];
    (0..n)
        .map(|i| match SPECIAL.get(i) {
            Some(&bits) => f32::from_bits(bits),
            None => f32::from_bits((i as u32).wrapping_mul(0x9E37_79B9)),
        })
        .collect()
}

fn u64s(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 3)).collect()
}

/// The little-endian reference writer: one `push` per value.
#[derive(Default)]
struct Reference(Vec<u8>);

impl Reference {
    fn u8(&mut self, v: u8) -> &mut Self {
        self.0.push(v);
        self
    }
    fn u32(&mut self, v: u32) -> &mut Self {
        self.0.extend(v.to_le_bytes());
        self
    }
    fn u64(&mut self, v: u64) -> &mut Self {
        self.0.extend(v.to_le_bytes());
        self
    }
    fn f32(&mut self, v: f32) -> &mut Self {
        self.0.extend(v.to_bits().to_le_bytes());
        self
    }
    fn f32s(&mut self, v: &[f32]) -> &mut Self {
        self.u64(v.len() as u64);
        v.iter().for_each(|&x| {
            self.f32(x);
        });
        self
    }
    fn u64s(&mut self, v: &[u64]) -> &mut Self {
        self.u64(v.len() as u64);
        v.iter().for_each(|&x| {
            self.u64(x);
        });
        self
    }
    fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        self.0.extend(s.as_bytes());
        self
    }
}

/// `x` encodes to `reference`, decodes back to itself bit for bit, and
/// (when `strict`) rejects a truncated or extended copy of its bytes.
fn check<T: PayloadData>(x: &T, reference: &[u8], strict: bool) {
    let encoded = x.encode();
    assert_eq!(encoded.as_ref(), reference, "bulk and per-element encoders differ");
    let back = T::decode(reference).expect("decodes");
    assert_eq!(back.encode().as_ref(), reference, "decoded value is not bit-identical");
    if strict {
        for cut in [reference.len() / 2, reference.len().saturating_sub(1)] {
            if cut < reference.len() {
                assert!(T::decode(&reference[..cut]).is_err(), "truncated to {cut} accepted");
            }
        }
        let mut trailing = reference.to_vec();
        trailing.push(0);
        assert!(T::decode(&trailing).is_err(), "trailing garbage accepted");
    }
}

#[test]
fn image_fragment_pixels() {
    for n in LENGTHS {
        let px = floats(4 * n);
        let rgba: Vec<[f32; 4]> = px.chunks_exact(4).map(|c| c.try_into().unwrap()).collect();
        let frag = ImageFragment { full: (2000, 3), rect: (5, 1, n as u32, 1), rgba, depth: -0.0 };
        let mut r = Reference::default();
        r.u32(2000).u32(3).u32(5).u32(1).u32(n as u32).u32(1).f32(-0.0).u64(n as u64);
        px.iter().for_each(|&c| {
            r.f32(c);
        });
        check(&frag, &r.0, true);
    }
}

#[test]
fn grid_samples() {
    for n in LENGTHS {
        let grid = Grid3 { dims: Idx3::new(n, 1, 1), data: floats(n) };
        let mut r = Reference::default();
        r.u64(n as u64).u64(1).u64(1).f32s(&grid.data);
        check(&grid, &r.0, true);
    }
}

#[test]
fn merge_tree_arrays() {
    for n in LENGTHS {
        let tree = MergeTree {
            verts: u64s(n),
            values: floats(n),
            parent: (0..n as u32).map(|i| i.wrapping_sub(1)).collect(),
            flags: (0..n).map(|i| i % 3 == 0).collect(),
        };
        let mut r = Reference::default();
        r.u64s(&tree.verts).f32s(&tree.values).u64(n as u64);
        tree.parent.iter().for_each(|&p| {
            r.u32(p);
        });
        r.u64(n as u64);
        tree.flags.iter().for_each(|&f| {
            r.u8(f as u8);
        });
        check(&tree, &r.0, true);
    }
}

#[test]
fn data_node_arrays() {
    for n in LENGTHS {
        let (f, u) = (floats(n), u64s(n));
        let mut node = DataNode::new();
        node.set_path("f", Value::F32Array(Arc::new(f.clone())));
        node.set_path("u", Value::U64Array(Arc::new(u.clone())));
        // Root: no value, two children in name order, each a leaf.
        let mut r = Reference::default();
        r.u8(0).u64(2);
        r.str("f").u8(4).f32s(&f).u64(0);
        r.str("u").u8(5).u64s(&u).u64(0);
        check(&node, &r.0, true);
    }
}

#[test]
fn blob_bytes() {
    for n in LENGTHS {
        let bytes: Vec<u8> = (0..n).map(|i| (i * 7) as u8).collect();
        // A blob is its whole buffer: any prefix or extension is another
        // valid blob, so only the exact bytes and the round trip apply.
        check(&Blob(bytes.clone()), &bytes, false);
        assert_eq!(Blob::decode(&bytes).unwrap(), Blob(bytes));
    }
}
