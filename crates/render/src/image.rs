//! Image fragments: the unit of data exchanged by compositing tasks.
//!
//! A fragment covers a rectangle of the final image with premultiplied
//! RGBA samples, plus a representative depth used to order fragments
//! front-to-back. With the Z-slab block decomposition the rendering tasks
//! use, every composite in both the reduction and binary-swap dataflows
//! combines two fragments whose source blocks are separated by a plane, so
//! a single representative depth per fragment orders them correctly.

use babelflow_core::{codec::DecodeError, Decoder, Encoder, PayloadData};

/// A rectangle of the final image: premultiplied RGBA + depth.
#[derive(Clone, Debug, PartialEq)]
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
        ImageFragment {
            full,
            rect,
            rgba: vec![[0.0; 4]; (rect.2 * rect.3) as usize],
            depth,
        }
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
    ///
    /// The union buffer is written exactly once: each output row is built
    /// from at most four contiguous spans (front-only, back-only, overlap,
    /// uncovered), blending whole slices instead of probing both inputs per
    /// pixel.
    pub fn over(front: &ImageFragment, back: &ImageFragment) -> ImageFragment {
        debug_assert_eq!(front.full, back.full, "fragments from different images");
        let x0 = front.rect.0.min(back.rect.0);
        let y0 = front.rect.1.min(back.rect.1);
        let x1 = (front.rect.0 + front.rect.2).max(back.rect.0 + back.rect.2);
        let y1 = (front.rect.1 + front.rect.3).max(back.rect.1 + back.rect.3);
        let (w, h) = (x1 - x0, y1 - y0);
        let mut rgba: Vec<[f32; 4]> = Vec::with_capacity((w as usize) * (h as usize));
        for y in y0..y1 {
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
        debug_assert_eq!(rgba.len(), (w as usize) * (h as usize));
        ImageFragment {
            full: front.full,
            rect: (x0, y0, w, h),
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
        let mut rgba = Vec::with_capacity((rw * nh) as usize);
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
        let mut rgba = vec![[0.0; 4]; n];
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
    use super::*;

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
                assert_eq!(
                    ImageFragment::over(&a, &b),
                    over_reference(&a, &b),
                    "front {ra:?} over back {rb:?}"
                );
            }
        }
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
