//! Software volume ray-casting.
//!
//! The paper's rendering stage is "implemented using VTK volume rendering
//! (i.e., SmartVolumeMapper with raycasting)". VTK is not available in
//! Rust, so this module is the substitute: an orthographic ray-caster
//! looking down the +Z axis with front-to-back alpha compositing and a
//! configurable color/opacity transfer function. Any renderer whose cost
//! is proportional to rays × samples preserves the stage's embarrassingly
//! parallel scaling (Fig. 10a).

use babelflow_data::Grid3;

use crate::image::{ImageFragment, PIXELS};

/// Piecewise-linear transfer function: scalar value → premultiplied RGBA
/// contribution per unit step.
#[derive(Clone, Debug)]
pub struct TransferFunction {
    /// Scalar mapped to zero contribution.
    pub lo: f32,
    /// Scalar mapped to full contribution.
    pub hi: f32,
    /// Per-sample opacity scale (extinction density).
    pub density: f32,
}

impl Default for TransferFunction {
    fn default() -> Self {
        TransferFunction { lo: 0.2, hi: 1.0, density: 0.15 }
    }
}

impl TransferFunction {
    /// Classify a scalar sample into premultiplied RGBA.
    #[inline]
    pub fn classify(&self, v: f32) -> [f32; 4] {
        let t = ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        if t <= 0.0 {
            return [0.0; 4];
        }
        let alpha = (t * self.density).min(1.0);
        // A fire-like ramp: dark red -> orange -> yellow-white.
        let r = t.min(1.0);
        let g = (t * t).min(1.0) * 0.8;
        let b = (t * t * t).min(1.0) * 0.3;
        [r * alpha, g * alpha, b * alpha, alpha]
    }
}

/// Camera/image plane configuration. Orthographic, looking down +Z: world
/// (x, y) maps linearly onto the image, smaller world z is nearer.
#[derive(Clone, Debug)]
pub struct RenderParams {
    /// Final image extent.
    pub image: (u32, u32),
    /// World (global grid) extent being imaged.
    pub world: (usize, usize),
    /// Ray step in world units (positive).
    pub step: f32,
    /// Transfer function.
    pub tf: TransferFunction,
}

impl RenderParams {
    /// Image pixels per world unit along X and Y.
    fn scale(&self) -> (f32, f32) {
        (self.image.0 as f32 / self.world.0 as f32, self.image.1 as f32 / self.world.1 as f32)
    }
}

/// Ray-cast one block. `origin` is the block's world-space origin; the
/// returned fragment covers the block's XY projection and carries the
/// block's starting Z as its depth.
pub fn render_block(params: &RenderParams, origin: (usize, usize, usize), block: &Grid3) -> ImageFragment {
    let (cols, rows) = projection(params, origin, block);
    cast(params, origin, block, cols, rows)
}

/// Ray-cast only image rows `[y0, y0 + h)` of one block: exactly
/// `render_block(..).crop_rows(y0, h)`, without rendering or copying the
/// rows outside the window.
pub fn render_rows(
    params: &RenderParams,
    origin: (usize, usize, usize),
    block: &Grid3,
    (y0, h): (u32, u32),
) -> ImageFragment {
    let (cols, rows) = projection(params, origin, block);
    let rows = (rows.0.max(y0), rows.1.min(y0 + h));
    if rows.0 >= rows.1 || cols.0 >= cols.1 {
        return ImageFragment::empty(params.image, (cols.0, y0, 0, 0), origin.2 as f32);
    }
    cast(params, origin, block, cols, rows)
}

/// Pixel columns `[px0, px1)` and rows `[py0, py1)` covered by the
/// block's projection.
fn projection(params: &RenderParams, origin: (usize, usize, usize), block: &Grid3) -> ((u32, u32), (u32, u32)) {
    let (sx, sy) = params.scale();
    let px0 = (origin.0 as f32 * sx).floor() as u32;
    let py0 = (origin.1 as f32 * sy).floor() as u32;
    let px1 = (((origin.0 + block.dims.x) as f32) * sx).ceil().min(params.image.0 as f32) as u32;
    let py1 = (((origin.1 + block.dims.y) as f32) * sy).ceil().min(params.image.1 as f32) as u32;
    ((px0, px1), (py0, py1))
}

/// One axis of a trilinear sample at `c`: the two neighbouring lattice
/// indices and the weight of the upper one, computed with the clamp,
/// floor and `min` of [`Grid3::sample_trilinear`].
#[inline]
fn axis(c: f32, n: usize) -> (usize, usize, f32) {
    let c = c.clamp(0.0, (n - 1) as f32);
    let i0 = c.floor() as usize;
    (i0, (i0 + 1).min(n - 1), c - i0 as f32)
}

/// March every ray of pixel columns `cols` and rows `rows` through the
/// block. Sample positions are separable, so each axis's lattice indices
/// and weight are computed once — per column, per row and per z step —
/// and the pixel loop is left with the eight loads and seven lerps of
/// [`Grid3::sample_trilinear`], in the same order, so the result is
/// bit-identical to sampling every position from scratch.
fn cast(
    params: &RenderParams,
    origin: (usize, usize, usize),
    block: &Grid3,
    (px0, px1): (u32, u32),
    (py0, py1): (u32, u32),
) -> ImageFragment {
    assert!(params.step > 0.0, "ray step must be positive");
    let (sx, sy) = params.scale();
    let d = block.dims;
    // Pixel centres in block-local world coordinates, as x indices.
    let xs: Vec<(usize, usize, f32)> = (px0..px1)
        .map(|px| axis((px as f32 + 0.5) / sx - origin.0 as f32, d.x))
        .collect();
    // The z steps every ray takes, as offsets of z planes. `z` grows by
    // repeated addition, exactly as a per-ray march would step it.
    let plane = d.x * d.y;
    let zmax = (d.z - 1) as f32;
    let mut zs = Vec::new();
    let mut z = 0.0f32;
    while z <= zmax {
        let (z0, z1, fz) = axis(z, d.z);
        zs.push((z0 * plane, z1 * plane, fz));
        z += params.step;
    }

    let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
    let data = &block.data;
    let (w, h) = (px1.saturating_sub(px0), py1.saturating_sub(py0));
    let mut rgba = PIXELS.take(w as usize * h as usize);
    for py in py0..py1 {
        let (y0, y1, fy) = axis((py as f32 + 0.5) / sy - origin.1 as f32, d.y);
        let (r0, r1) = (y0 * d.x, y1 * d.x);
        for &(x0, x1, fx) in &xs {
            // Front-to-back march through the block.
            let mut acc = [0.0f32; 4];
            let mut k = 0;
            while k < zs.len() && acc[3] < 0.98 {
                let (p0, p1, fz) = zs[k];
                let c00 = lerp(data[p0 + r0 + x0], data[p0 + r0 + x1], fx);
                let c10 = lerp(data[p0 + r1 + x0], data[p0 + r1 + x1], fx);
                let c01 = lerp(data[p1 + r0 + x0], data[p1 + r0 + x1], fx);
                let c11 = lerp(data[p1 + r1 + x0], data[p1 + r1 + x1], fx);
                let v = lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz);
                let s = params.tf.classify(v);
                let t = 1.0 - acc[3];
                acc[0] += t * s[0];
                acc[1] += t * s[1];
                acc[2] += t * s[2];
                acc[3] += t * s[3];
                k += 1;
            }
            rgba.push(acc);
        }
    }
    ImageFragment { full: params.image, rect: (px0, py0, w, h), rgba, depth: origin.2 as f32 }
}

#[cfg(test)]
pub(crate) mod tests {
    use babelflow_data::{hcci_proxy, HcciParams, Idx3};

    use super::*;

    /// The renderer as it was before its sample positions were hoisted:
    /// one full [`Grid3::sample_trilinear`] per sample. Kept as the
    /// reference the fast loop must match bit for bit.
    pub(crate) fn reference_render(params: &RenderParams, origin: (usize, usize, usize), block: &Grid3) -> ImageFragment {
        let (sx, sy) = params.scale();
        let px0 = (origin.0 as f32 * sx).floor() as u32;
        let py0 = (origin.1 as f32 * sy).floor() as u32;
        let px1 = (((origin.0 + block.dims.x) as f32) * sx).ceil().min(params.image.0 as f32) as u32;
        let py1 = (((origin.1 + block.dims.y) as f32) * sy).ceil().min(params.image.1 as f32) as u32;
        let rect = (px0, py0, px1.saturating_sub(px0), py1.saturating_sub(py0));
        let mut frag = ImageFragment::empty(params.image, rect, origin.2 as f32);
        for py in py0..py1 {
            for px in px0..px1 {
                let wx = ((px as f32 + 0.5) / sx - origin.0 as f32)
                    .clamp(0.0, (block.dims.x - 1) as f32);
                let wy = ((py as f32 + 0.5) / sy - origin.1 as f32)
                    .clamp(0.0, (block.dims.y - 1) as f32);
                let mut acc = [0.0f32; 4];
                let mut z = 0.0f32;
                let zmax = (block.dims.z - 1) as f32;
                while z <= zmax && acc[3] < 0.98 {
                    let s = params.tf.classify(block.sample_trilinear(wx, wy, z));
                    let t = 1.0 - acc[3];
                    acc[0] += t * s[0];
                    acc[1] += t * s[1];
                    acc[2] += t * s[2];
                    acc[3] += t * s[3];
                    z += params.step;
                }
                frag.rgba[((py - py0) * rect.2 + (px - px0)) as usize] = acc;
            }
        }
        frag
    }

    /// Same rect, depth and every channel of every pixel, bit for bit.
    pub(crate) fn assert_bit_identical(got: &ImageFragment, want: &ImageFragment) {
        assert_eq!((got.full, got.rect), (want.full, want.rect));
        assert_eq!(got.depth.to_bits(), want.depth.to_bits());
        assert_eq!(got.rgba.len(), want.rgba.len());
        for (i, (g, w)) in got.rgba.iter().zip(&want.rgba).enumerate() {
            assert_eq!(g.map(f32::to_bits), w.map(f32::to_bits), "pixel {i}: {g:?} vs {w:?}");
        }
    }

    /// Renders `block` both ways, and every row window of it against a
    /// crop of the full render.
    fn check(params: &RenderParams, origin: (usize, usize, usize), block: &Grid3) {
        let full = render_block(params, origin, block);
        assert_bit_identical(&full, &reference_render(params, origin, block));
        let height = params.image.1;
        for (y0, h) in [(0, height), (0, height / 2), (height / 2, height - height / 2), (height / 3, 1), (height, 0)] {
            assert_bit_identical(&render_rows(params, origin, block, (y0, h)), &full.crop_rows(y0, h));
        }
    }

    pub(crate) fn proxy(n: usize) -> Grid3 {
        hcci_proxy(&HcciParams {
            size: n,
            kernels: 40,
            kernel_radius: 0.08,
            noise_amplitude: 0.12,
            noise_scale: 8,
            seed: 7,
        })
    }

    #[test]
    fn matches_reference_on_hcci_slabs() {
        // The composite benchmark's frame: 16 Z slabs of a 64^3 proxy
        // imaged at 384^2 with step 4.
        let grid = proxy(64);
        let p = RenderParams {
            image: (384, 384),
            world: (64, 64),
            step: 4.0,
            tf: TransferFunction { lo: 0.25, hi: 1.1, density: 0.08 },
        };
        for s in 0..16 {
            let slab = grid.crop(Idx3::new(0, 0, 4 * s), Idx3::new(64, 64, 4));
            check(&p, (0, 0, 4 * s), &slab);
        }
    }

    #[test]
    fn matches_reference_off_the_lattice() {
        // A non-integer image scale, offset origins, and a one-plane block.
        let grid = proxy(16);
        let p = RenderParams {
            image: (37, 29),
            world: (16, 16),
            step: 0.7,
            tf: TransferFunction { lo: 0.1, hi: 1.0, density: 0.3 },
        };
        check(&p, (0, 0, 0), &grid);
        check(&p, (5, 3, 2), &grid.crop(Idx3::new(5, 3, 2), Idx3::new(7, 9, 6)));
        check(&p, (9, 11, 4), &grid.crop(Idx3::new(9, 11, 4), Idx3::new(7, 5, 1)));
        check(&p, (0, 0, 15), &grid.crop(Idx3::new(0, 0, 15), Idx3::new(16, 16, 1)));
    }

    #[test]
    fn matches_reference_through_early_termination() {
        // A hot block at step 0.5 saturates alpha a few samples in, so
        // every ray stops mid-block.
        let p = RenderParams {
            step: 0.5,
            tf: TransferFunction { lo: 0.0, hi: 1.0, density: 0.5 },
            ..params(8)
        };
        let f = render_block(&p, (0, 0, 0), &hot_block(8));
        assert!(f.rgba.iter().all(|px| px[3] >= 0.98));
        check(&p, (0, 0, 0), &hot_block(8));
        check(&p, (0, 0, 0), &proxy(8));
    }

    #[test]
    fn row_window_outside_projection_is_empty() {
        let p = RenderParams { image: (16, 16), world: (16, 16), ..params(16) };
        let block = hot_block(8);
        let f = render_rows(&p, (0, 8, 0), &block, (0, 8));
        assert_eq!(f.rect, (0, 0, 0, 0));
        assert!(f.rgba.is_empty());
        assert_bit_identical(&f, &render_block(&p, (0, 8, 0), &block).crop_rows(0, 8));
    }

    fn hot_block(n: usize) -> Grid3 {
        Grid3::from_fn((n, n, n), |_, _, _| 1.0)
    }

    fn cold_block(n: usize) -> Grid3 {
        Grid3::zeros((n, n, n))
    }

    fn params(n: usize) -> RenderParams {
        RenderParams { image: (n as u32, n as u32), world: (n, n), step: 1.0, tf: TransferFunction::default() }
    }

    #[test]
    fn hot_volume_renders_opaque_pixels() {
        let p = RenderParams {
            tf: TransferFunction { lo: 0.0, hi: 1.0, density: 0.5 },
            ..params(8)
        };
        let f = render_block(&p, (0, 0, 0), &hot_block(8));
        assert_eq!(f.rect, (0, 0, 8, 8));
        // All rays accumulate close to full opacity.
        assert!(f.rgba.iter().all(|px| px[3] > 0.9), "alpha too low");
    }

    #[test]
    fn empty_volume_renders_transparent() {
        let p = params(8);
        let f = render_block(&p, (0, 0, 0), &cold_block(8));
        assert!(f.rgba.iter().all(|px| *px == [0.0; 4]));
    }

    #[test]
    fn fragment_covers_projection_only() {
        // A block occupying the second half of X projects onto the right
        // half of the image.
        let p = RenderParams { image: (16, 16), world: (16, 16), ..params(16) };
        let f = render_block(&p, (8, 0, 0), &hot_block(8));
        assert_eq!(f.rect.0, 8);
        assert_eq!(f.rect.2, 8);
        assert_eq!(f.depth, 0.0);
    }

    #[test]
    fn depth_is_block_z_origin() {
        let p = params(8);
        let f = render_block(&p, (0, 0, 24), &hot_block(8));
        assert_eq!(f.depth, 24.0);
    }

    #[test]
    fn transfer_function_clamps() {
        let tf = TransferFunction { lo: 0.0, hi: 1.0, density: 0.5 };
        assert_eq!(tf.classify(-1.0), [0.0; 4]);
        let full = tf.classify(2.0);
        assert!(full[3] <= 0.5 + 1e-6);
        assert!(full[0] > 0.0);
    }

    #[test]
    fn early_termination_matches_saturation() {
        // A deep fully hot block saturates alpha near 0.98+.
        let p = RenderParams { step: 0.5, ..params(8) };
        let f = render_block(&p, (0, 0, 0), &hot_block(8));
        assert!(f.rgba.iter().all(|px| px[3] <= 1.0 + 1e-6));
    }
}
