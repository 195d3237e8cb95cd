//! Image fragments: the unit of data exchanged by compositing tasks.
//!
//! A fragment covers a rectangle of the final image with premultiplied
//! RGBA samples, plus a representative depth used to order fragments
//! front-to-back. With the Z-slab block decomposition the rendering tasks
//! use, every composite in both the reduction and binary-swap dataflows
//! combines two fragments whose source blocks are separated by a plane, so
//! a single representative depth per fragment orders them correctly.

use babelflow_core::buffer::Recycler;
use babelflow_core::{codec::DecodeError, Decoder, Encoder, PayloadData};

/// Pixel buffers of dropped fragments, for the next fragment to reuse:
/// every fragment's pixels come from here and return here on drop, so a
/// steady-state run touches no new memory (DESIGN.md §12, "Warm
/// buffers").
pub(crate) static PIXELS: Recycler<[f32; 4]> = Recycler::new();

/// A rectangle of the final image: premultiplied RGBA + depth.
#[derive(Debug, PartialEq)]
pub struct ImageFragment {
    /// Full image extent (width, height).
    pub full: (u32, u32),
    /// Covered region: (x0, y0, width, height).
    pub rect: (u32, u32, u32, u32),
    /// Premultiplied RGBA samples, row-major over the rect.
    pub rgba: Vec<[f32; 4]>,
    /// Representative depth (smaller = nearer the camera).
    pub depth: f32,
}

impl ImageFragment {
    /// A fully transparent fragment covering `rect`.
    pub fn empty(full: (u32, u32), rect: (u32, u32, u32, u32), depth: f32) -> Self {
        let n = (rect.2 * rect.3) as usize;
        let mut rgba = PIXELS.take(n);
        rgba.resize(n, [0.0; 4]);
        ImageFragment { full, rect, rgba, depth }
    }

    /// Pixel at rect-relative coordinates.
    #[inline]
    pub fn at(&self, x: u32, y: u32) -> [f32; 4] {
        self.rgba[(y * self.rect.2 + x) as usize]
    }

    /// Pixel at absolute image coordinates, if covered.
    pub fn at_absolute(&self, x: u32, y: u32) -> Option<[f32; 4]> {
        let (x0, y0, w, h) = self.rect;
        if x >= x0 && x < x0 + w && y >= y0 && y < y0 + h {
            Some(self.at(x - x0, y - y0))
        } else {
            None
        }
    }

    /// Total accumulated opacity (for tests).
    pub fn total_alpha(&self) -> f32 {
        self.rgba.iter().map(|p| p[3]).sum()
    }

    /// Row `y` (absolute) as `(absolute x0, samples)`, when covered.
    #[inline]
    fn row(&self, y: u32) -> Option<(u32, &[[f32; 4]])> {
        let (x0, y0, w, h) = self.rect;
        if w == 0 || y < y0 || y >= y0 + h {
            return None;
        }
        let start = ((y - y0) * w) as usize;
        Some((x0, &self.rgba[start..start + w as usize]))
    }

    /// Composite `front` OVER `back` (premultiplied alpha). The result
    /// covers the union of both rects; uncovered area of either input is
    /// treated as transparent. The result's depth is the nearer depth.
    pub fn over(front: &ImageFragment, back: &ImageFragment) -> ImageFragment {
        let (x0, y0, w, h) = union_rect(front, back);
        Self::blend(front, back, (x0, w), (y0, y0 + h))
    }

    /// Composite `front` OVER `back` into image rows `[y0, y0 + h)` only:
    /// exactly `over(front, back).crop_rows(y0, h)`, without building or
    /// copying the rows outside the window (a binary-swap stage's kept
    /// and sent halves).
    pub fn over_rows(front: &ImageFragment, back: &ImageFragment, (y0, h): (u32, u32)) -> ImageFragment {
        let (ux0, uy0, uw, uh) = union_rect(front, back);
        let (lo, hi) = (uy0.max(y0), (uy0 + uh).min(y0 + h));
        if lo >= hi || uw == 0 {
            let depth = front.depth.min(back.depth);
            return ImageFragment::empty(front.full, (ux0, y0, 0, 0), depth);
        }
        Self::blend(front, back, (ux0, uw), (lo, hi))
    }

    /// The one OVER loop: blend rows `[ya, yb)` of columns `[x0, x0 + w)`
    /// into a fragment covering exactly that rectangle.
    ///
    /// Each output row is written once, from at most four contiguous
    /// spans (front-only, back-only, overlap, uncovered), blending whole
    /// slices instead of probing both inputs per pixel.
    fn blend(
        front: &ImageFragment,
        back: &ImageFragment,
        (x0, w): (u32, u32),
        (ya, yb): (u32, u32),
    ) -> ImageFragment {
        debug_assert_eq!(front.full, back.full, "fragments from different images");
        let x1 = x0 + w;
        let mut rgba = PIXELS.take(w as usize * (yb - ya) as usize);
        for y in ya..yb {
            let fr = front.row(y);
            let br = back.row(y);
            // Span boundaries: the row changes character only where an
            // input's coverage starts or ends.
            let (fa, fb) = fr.map_or((x1, x1), |(fx, s)| (fx, fx + s.len() as u32));
            let (ba, bb) = br.map_or((x1, x1), |(bx, s)| (bx, bx + s.len() as u32));
            let mut cuts = [x0, fa.clamp(x0, x1), fb.clamp(x0, x1), ba.clamp(x0, x1), bb.clamp(x0, x1), x1];
            cuts.sort_unstable();
            for pair in cuts.windows(2) {
                let (s, e) = (pair[0], pair[1]);
                if s >= e {
                    continue;
                }
                let f = (s >= fa && e <= fb)
                    .then(|| &fr.expect("span inside front coverage").1[(s - fa) as usize..(e - fa) as usize]);
                let b = (s >= ba && e <= bb)
                    .then(|| &br.expect("span inside back coverage").1[(s - ba) as usize..(e - ba) as usize]);
                match (f, b) {
                    (Some(f), Some(b)) => rgba.extend(f.iter().zip(b).map(|(f, b)| {
                        let t = 1.0 - f[3];
                        [f[0] + t * b[0], f[1] + t * b[1], f[2] + t * b[2], f[3] + t * b[3]]
                    })),
                    // Premultiplied: blending against transparency is the
                    // identity, so sole coverage is a straight copy.
                    (Some(f), None) => rgba.extend_from_slice(f),
                    (None, Some(b)) => rgba.extend_from_slice(b),
                    (None, None) => rgba.resize(rgba.len() + (e - s) as usize, [0.0; 4]),
                }
            }
        }
        debug_assert_eq!(rgba.len(), w as usize * (yb - ya) as usize);
        ImageFragment {
            full: front.full,
            rect: (x0, ya, w, yb - ya),
            rgba,
            depth: front.depth.min(back.depth),
        }
    }

    /// Composite two fragments in depth order (nearer one in front).
    pub fn composite_by_depth(a: &ImageFragment, b: &ImageFragment) -> ImageFragment {
        if a.depth <= b.depth {
            Self::over(a, b)
        } else {
            Self::over(b, a)
        }
    }

    /// Crop to the intersection with image rows `[y0, y0+h)` (binary-swap
    /// exchange unit). The result's rect may be empty.
    pub fn crop_rows(&self, y0: u32, h: u32) -> ImageFragment {
        let (rx0, ry0, rw, rh) = self.rect;
        let lo = ry0.max(y0);
        let hi = (ry0 + rh).min(y0 + h);
        if lo >= hi || rw == 0 {
            return ImageFragment::empty(self.full, (rx0, y0, 0, 0), self.depth);
        }
        let nh = hi - lo;
        let mut rgba = PIXELS.take((rw * nh) as usize);
        for y in lo..hi {
            let row = ((y - ry0) * rw) as usize;
            rgba.extend_from_slice(&self.rgba[row..row + rw as usize]);
        }
        ImageFragment { full: self.full, rect: (rx0, lo, rw, nh), rgba, depth: self.depth }
    }

    /// Render to an 8-bit PPM (P6) over an opaque background.
    pub fn to_ppm(&self, background: [f32; 3]) -> Vec<u8> {
        let (w, h) = self.full;
        let mut out = format!("P6\n{w} {h}\n255\n").into_bytes();
        for y in 0..h {
            for x in 0..w {
                let p = self.at_absolute(x, y).unwrap_or([0.0; 4]);
                let t = 1.0 - p[3];
                for c in 0..3 {
                    let v = (p[c] + t * background[c]).clamp(0.0, 1.0);
                    out.push((v * 255.0 + 0.5) as u8);
                }
            }
        }
        out
    }
}

/// The rect covering both fragments' rects.
fn union_rect(a: &ImageFragment, b: &ImageFragment) -> (u32, u32, u32, u32) {
    let x0 = a.rect.0.min(b.rect.0);
    let y0 = a.rect.1.min(b.rect.1);
    let x1 = (a.rect.0 + a.rect.2).max(b.rect.0 + b.rect.2);
    let y1 = (a.rect.1 + a.rect.3).max(b.rect.1 + b.rect.3);
    (x0, y0, x1 - x0, y1 - y0)
}

impl Clone for ImageFragment {
    fn clone(&self) -> Self {
        let mut rgba = PIXELS.take(self.rgba.len());
        rgba.extend_from_slice(&self.rgba);
        ImageFragment { full: self.full, rect: self.rect, rgba, depth: self.depth }
    }
}

impl Drop for ImageFragment {
    fn drop(&mut self) {
        PIXELS.give(std::mem::take(&mut self.rgba));
    }
}

impl PayloadData for ImageFragment {
    fn encode_into(&self, e: &mut Encoder) {
        e.reserve(36 + self.rgba.len() * 16);
        e.put_u32(self.full.0);
        e.put_u32(self.full.1);
        e.put_u32(self.rect.0);
        e.put_u32(self.rect.1);
        e.put_u32(self.rect.2);
        e.put_u32(self.rect.3);
        e.put_f32(self.depth);
        e.put_usize(self.rgba.len());
        e.put_f32s(self.rgba.as_flattened());
    }

    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(buf);
        let full = (d.get_u32()?, d.get_u32()?);
        let rect = (d.get_u32()?, d.get_u32()?, d.get_u32()?, d.get_u32()?);
        let depth = d.get_f32()?;
        let n = d.get_usize()?;
        if n != (rect.2 as usize) * (rect.3 as usize) {
            return Err(DecodeError { what: "fragment size mismatch" });
        }
        if n.checked_mul(16) != Some(d.remaining()) {
            return Err(DecodeError { what: "fragment pixel bytes" });
        }
        let mut rgba = PIXELS.take(n);
        rgba.resize(n, [0.0; 4]);
        d.get_f32s_into(rgba.as_flattened_mut())?;
        Ok(ImageFragment { full, rect, rgba, depth })
    }
}

/// Split rows `[lo, lo+len)` in two halves (binary-swap region schedule).
/// `upper == false` selects the first half.
pub fn split_rows(lo: u32, len: u32, upper: bool) -> (u32, u32) {
    let first = len / 2;
    if upper {
        (lo + first, len - first)
    } else {
        (lo, first)
    }
}

/// The image-row region task `(round, index)` of an n-leaf binary swap
/// owns, following the bit schedule: at round `j`, bit `j-1` of the index
/// picks the half.
pub fn binary_swap_region(height: u32, round: u32, index: u64) -> (u32, u32) {
    let (mut lo, mut len) = (0u32, height);
    for b in 0..round {
        let upper = (index >> b) & 1 == 1;
        let (nl, nn) = split_rows(lo, len, upper);
        lo = nl;
        len = nn;
    }
    (lo, len)
}

#[cfg(test)]
mod tests {
    use babelflow_core::Bytes;
    use babelflow_data::Idx3;

    use super::*;
    use crate::raycast::tests::{assert_bit_identical, proxy, reference_render};
    use crate::{render_block, render_rows, RenderParams, TransferFunction};

    fn solid(full: (u32, u32), rect: (u32, u32, u32, u32), color: [f32; 4], depth: f32) -> ImageFragment {
        let mut f = ImageFragment::empty(full, rect, depth);
        f.rgba.fill(color);
        f
    }

    #[test]
    fn over_blends_premultiplied() {
        let f = solid((2, 1), (0, 0, 2, 1), [0.5, 0.0, 0.0, 0.5], 0.0);
        let b = solid((2, 1), (0, 0, 2, 1), [0.0, 1.0, 0.0, 1.0], 1.0);
        let o = ImageFragment::over(&f, &b);
        assert_eq!(o.at(0, 0), [0.5, 0.5, 0.0, 1.0]);
        assert_eq!(o.depth, 0.0);
    }

    #[test]
    fn composite_by_depth_orders_inputs() {
        let near = solid((1, 1), (0, 0, 1, 1), [1.0, 0.0, 0.0, 1.0], 0.0);
        let far = solid((1, 1), (0, 0, 1, 1), [0.0, 1.0, 0.0, 1.0], 5.0);
        // Opaque near fragment hides the far one regardless of argument
        // order.
        let a = ImageFragment::composite_by_depth(&near, &far);
        let b = ImageFragment::composite_by_depth(&far, &near);
        assert_eq!(a.at(0, 0), [1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn over_expands_to_union_rect() {
        let a = solid((4, 4), (0, 0, 2, 2), [0.2, 0.0, 0.0, 0.2], 0.0);
        let b = solid((4, 4), (2, 2, 2, 2), [0.0, 0.3, 0.0, 0.3], 1.0);
        let o = ImageFragment::over(&a, &b);
        assert_eq!(o.rect, (0, 0, 4, 4));
        assert_eq!(o.at_absolute(0, 0).unwrap(), [0.2, 0.0, 0.0, 0.2]);
        assert_eq!(o.at_absolute(3, 3).unwrap(), [0.0, 0.3, 0.0, 0.3]);
        assert_eq!(o.at_absolute(0, 3).unwrap(), [0.0; 4]);
    }

    /// The per-pixel formulation the row-sliced `over` replaced; kept as
    /// the oracle for the equivalence test below.
    fn over_reference(front: &ImageFragment, back: &ImageFragment) -> ImageFragment {
        let x0 = front.rect.0.min(back.rect.0);
        let y0 = front.rect.1.min(back.rect.1);
        let x1 = (front.rect.0 + front.rect.2).max(back.rect.0 + back.rect.2);
        let y1 = (front.rect.1 + front.rect.3).max(back.rect.1 + back.rect.3);
        let mut out = ImageFragment::empty(
            front.full,
            (x0, y0, x1 - x0, y1 - y0),
            front.depth.min(back.depth),
        );
        for y in y0..y1 {
            for x in x0..x1 {
                let f = front.at_absolute(x, y).unwrap_or([0.0; 4]);
                let b = back.at_absolute(x, y).unwrap_or([0.0; 4]);
                let t = 1.0 - f[3];
                let i = ((y - y0) * (x1 - x0) + (x - x0)) as usize;
                out.rgba[i] =
                    [f[0] + t * b[0], f[1] + t * b[1], f[2] + t * b[2], f[3] + t * b[3]];
            }
        }
        out
    }

    #[test]
    fn row_sliced_over_matches_per_pixel_reference() {
        // Every overlap shape: nested, offset-overlapping, row-disjoint,
        // column-disjoint, fully disjoint, and empty-width fragments.
        let full = (8, 8);
        let rects: [(u32, u32, u32, u32); 6] =
            [(0, 0, 8, 8), (2, 2, 3, 3), (4, 0, 4, 5), (0, 6, 8, 2), (5, 5, 3, 3), (1, 3, 0, 0)];
        let mut k = 0.0f32;
        for &ra in &rects {
            for &rb in &rects {
                let mut a = ImageFragment::empty(full, ra, 1.0);
                let mut b = ImageFragment::empty(full, rb, 2.0);
                for p in a.rgba.iter_mut() {
                    k += 0.1;
                    *p = [k % 1.0, 0.3, 0.2, 0.5];
                }
                for p in b.rgba.iter_mut() {
                    k += 0.1;
                    *p = [0.1, k % 1.0, 0.4, 0.8];
                }
                let whole = ImageFragment::over(&a, &b);
                assert_eq!(whole, over_reference(&a, &b), "front {ra:?} over back {rb:?}");
                for (y0, h) in [(0, 8), (0, 3), (2, 4), (4, 4), (5, 1), (6, 5), (3, 0), (8, 2), (0, 20)] {
                    assert_bit_identical(
                        &ImageFragment::over_rows(&a, &b, (y0, h)),
                        &whole.crop_rows(y0, h),
                    );
                }
            }
        }
    }

    /// Give the pixel pool a NaN-filled buffer of `n` pixels and the
    /// frame pool a 0xFF-filled one of those pixels' wire size, so the
    /// next take of that size starts from stale bytes.
    fn dirty_pools(n: usize) {
        PIXELS.give(vec![[f32::NAN; 4]; n]);
        drop(Bytes::from(vec![0xFFu8; 36 + 16 * n]));
    }

    #[test]
    fn stale_pool_bytes_never_reach_an_output() {
        // The composite benchmark's frame: 384² image of 4-plane Z slabs
        // of a 64³ proxy, whose fragments are 384² and its row halves.
        let grid = proxy(64);
        let p = RenderParams {
            image: (384, 384),
            world: (64, 64),
            step: 4.0,
            tf: TransferFunction { lo: 0.25, hi: 1.1, density: 0.08 },
        };
        let slab = |z: usize| grid.crop(Idx3::new(0, 0, z), Idx3::new(64, 64, 4));
        let (full, half, quarter) = (384 * 384, 384 * 192, 384 * 96);
        let reference_a = reference_render(&p, (0, 0, 0), &slab(0));
        let reference_b = reference_render(&p, (0, 0, 4), &slab(4));

        dirty_pools(full);
        let a = render_block(&p, (0, 0, 0), &slab(0));
        assert_bit_identical(&a, &reference_a);
        dirty_pools(full);
        let b = render_block(&p, (0, 0, 4), &slab(4));
        assert_bit_identical(&b, &reference_b);
        dirty_pools(half);
        let rows = render_rows(&p, (0, 0, 4), &slab(4), (192, 192));
        assert_bit_identical(&rows, &reference_b.crop_rows(192, 192));

        let reference = over_reference(&a, &b);
        dirty_pools(full);
        let ab = ImageFragment::over(&a, &b);
        assert_bit_identical(&ab, &reference);
        dirty_pools(half);
        assert_bit_identical(&ImageFragment::over_rows(&a, &b, (0, 192)), &reference.crop_rows(0, 192));
        dirty_pools(half);
        assert_bit_identical(&ab.crop_rows(192, 192), &reference.crop_rows(192, 192));

        let reference = over_reference(&a, &rows).crop_rows(96, 96);
        dirty_pools(quarter);
        let tile = ImageFragment::over_rows(&a, &rows, (96, 96));
        assert_bit_identical(&tile, &reference);
        dirty_pools(quarter);
        let wire = tile.encode();
        dirty_pools(quarter);
        assert_bit_identical(&ImageFragment::decode(&wire).expect("round trip"), &tile);
        dirty_pools(quarter);
        assert_bit_identical(&tile.clone(), &tile);
        dirty_pools(quarter);
        let empty = ImageFragment::empty(p.image, (0, 0, 384, 96), 1.0);
        assert!(empty.rgba.iter().all(|px| px.map(f32::to_bits) == [0; 4]));
    }

    #[test]
    fn crop_rows_intersects() {
        let f = solid((2, 4), (0, 1, 2, 3), [0.1, 0.2, 0.3, 0.4], 2.0);
        let c = f.crop_rows(2, 2);
        assert_eq!(c.rect, (0, 2, 2, 2));
        assert_eq!(c.rgba.len(), 4);
        // Disjoint crop is empty.
        let e = f.crop_rows(0, 1);
        assert_eq!(e.rect.3, 0);
        assert!(e.rgba.is_empty());
    }

    #[test]
    fn binary_swap_regions_partition_image() {
        let h = 16u32;
        for round in 0..=3u32 {
            let mut covered = vec![0u32; h as usize];
            let distinct: std::collections::HashSet<(u32, u32)> =
                (0..8u64).map(|i| binary_swap_region(h, round, i)).collect();
            assert_eq!(distinct.len(), 1 << round, "round {round}");
            for &(lo, len) in &distinct {
                for y in lo..lo + len {
                    covered[y as usize] += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "round {round}: {covered:?}");
        }
    }

    #[test]
    fn payload_roundtrip() {
        let f = solid((3, 3), (1, 1, 2, 2), [0.1, 0.2, 0.3, 0.4], 7.5);
        assert_eq!(ImageFragment::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn ppm_has_correct_header_and_size() {
        let f = solid((2, 2), (0, 0, 2, 2), [1.0, 1.0, 1.0, 1.0], 0.0);
        let ppm = f.to_ppm([0.0, 0.0, 0.0]);
        assert!(ppm.starts_with(b"P6\n2 2\n255\n"));
        assert_eq!(ppm.len(), 11 + 12);
        assert_eq!(&ppm[11..14], &[255, 255, 255]);
    }
}
