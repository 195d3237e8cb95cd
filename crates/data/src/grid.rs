//! Dense 3D scalar grids.

use babelflow_core::{codec::DecodeError, Decoder, Encoder, PayloadData};

/// Integer 3D coordinates / extents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Idx3 {
    /// X coordinate (fastest varying).
    pub x: usize,
    /// Y coordinate.
    pub y: usize,
    /// Z coordinate (slowest varying).
    pub z: usize,
}

impl Idx3 {
    /// Construct from components.
    pub fn new(x: usize, y: usize, z: usize) -> Self {
        Idx3 { x, y, z }
    }

    /// Total number of points in an extent.
    pub fn volume(self) -> usize {
        self.x * self.y * self.z
    }
}

impl From<(usize, usize, usize)> for Idx3 {
    fn from((x, y, z): (usize, usize, usize)) -> Self {
        Idx3 { x, y, z }
    }
}

/// A dense 3D scalar field in x-fastest (row-major by z, then y) layout.
#[derive(Clone, Debug, PartialEq)]
pub struct Grid3 {
    /// Extent of the grid.
    pub dims: Idx3,
    /// `dims.volume()` samples, x fastest.
    pub data: Vec<f32>,
}

impl Grid3 {
    /// A zero-filled grid.
    pub fn zeros(dims: impl Into<Idx3>) -> Self {
        let dims = dims.into();
        Grid3 { dims, data: vec![0.0; dims.volume()] }
    }

    /// Build from a function of the (x, y, z) coordinates.
    pub fn from_fn(dims: impl Into<Idx3>, mut f: impl FnMut(usize, usize, usize) -> f32) -> Self {
        let dims = dims.into();
        let mut data = Vec::with_capacity(dims.volume());
        for z in 0..dims.z {
            for y in 0..dims.y {
                for x in 0..dims.x {
                    data.push(f(x, y, z));
                }
            }
        }
        Grid3 { dims, data }
    }

    /// Linear index of (x, y, z).
    #[inline]
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.dims.x && y < self.dims.y && z < self.dims.z);
        (z * self.dims.y + y) * self.dims.x + x
    }

    /// Sample at (x, y, z).
    #[inline]
    pub fn at(&self, x: usize, y: usize, z: usize) -> f32 {
        self.data[self.index(x, y, z)]
    }

    /// Mutable sample at (x, y, z).
    #[inline]
    pub fn at_mut(&mut self, x: usize, y: usize, z: usize) -> &mut f32 {
        let i = self.index(x, y, z);
        &mut self.data[i]
    }

    /// Copy the sub-box `[origin, origin+size)` into a new grid.
    ///
    /// # Panics
    /// If the box exceeds the grid extent.
    pub fn crop(&self, origin: Idx3, size: Idx3) -> Grid3 {
        assert!(origin.x + size.x <= self.dims.x, "crop exceeds X extent");
        assert!(origin.y + size.y <= self.dims.y, "crop exceeds Y extent");
        assert!(origin.z + size.z <= self.dims.z, "crop exceeds Z extent");
        let mut out = Grid3::zeros(size);
        for z in 0..size.z {
            for y in 0..size.y {
                let src0 = self.index(origin.x, origin.y + y, origin.z + z);
                let dst0 = out.index(0, y, z);
                out.data[dst0..dst0 + size.x]
                    .copy_from_slice(&self.data[src0..src0 + size.x]);
            }
        }
        out
    }

    /// Periodic replication: tile this grid `f = (fx, fy, fz)` times.
    ///
    /// The paper inflates the 512³ HCCI dataset to 1024³ this way: "Since
    /// the data is periodic and features are distributed roughly uniformly
    /// […] the inflated data represents a good proxy for a much larger
    /// simulation run."
    pub fn replicate(&self, f: impl Into<Idx3>) -> Grid3 {
        let f = f.into();
        let nd = Idx3::new(self.dims.x * f.x, self.dims.y * f.y, self.dims.z * f.z);
        Grid3::from_fn(nd, |x, y, z| {
            self.at(x % self.dims.x, y % self.dims.y, z % self.dims.z)
        })
    }

    /// Global min and max sample values.
    pub fn min_max(&self) -> (f32, f32) {
        self.data
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
    }

    /// Trilinear sample at fractional coordinates (clamped to the extent).
    pub fn sample_trilinear(&self, x: f32, y: f32, z: f32) -> f32 {
        let cx = x.clamp(0.0, (self.dims.x - 1) as f32);
        let cy = y.clamp(0.0, (self.dims.y - 1) as f32);
        let cz = z.clamp(0.0, (self.dims.z - 1) as f32);
        let (x0, y0, z0) = (cx.floor() as usize, cy.floor() as usize, cz.floor() as usize);
        let (x1, y1, z1) = (
            (x0 + 1).min(self.dims.x - 1),
            (y0 + 1).min(self.dims.y - 1),
            (z0 + 1).min(self.dims.z - 1),
        );
        let (fx, fy, fz) = (cx - x0 as f32, cy - y0 as f32, cz - z0 as f32);
        let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
        let c00 = lerp(self.at(x0, y0, z0), self.at(x1, y0, z0), fx);
        let c10 = lerp(self.at(x0, y1, z0), self.at(x1, y1, z0), fx);
        let c01 = lerp(self.at(x0, y0, z1), self.at(x1, y0, z1), fx);
        let c11 = lerp(self.at(x0, y1, z1), self.at(x1, y1, z1), fx);
        lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz)
    }
}

impl PayloadData for Grid3 {
    fn encode_into(&self, e: &mut Encoder) {
        e.reserve(32 + self.data.len() * 4);
        e.put_usize(self.dims.x);
        e.put_usize(self.dims.y);
        e.put_usize(self.dims.z);
        e.put_f32_slice(&self.data);
    }

    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(buf);
        let dims = Idx3::new(d.get_usize()?, d.get_usize()?, d.get_usize()?);
        let data = d.get_f32_vec()?;
        if data.len() != dims.volume() {
            return Err(DecodeError { what: "grid size mismatch" });
        }
        if !d.is_done() {
            return Err(DecodeError { what: "trailing bytes after grid" });
        }
        Ok(Grid3 { dims, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_x_fastest() {
        let g = Grid3::from_fn((3, 2, 2), |x, y, z| (x + 10 * y + 100 * z) as f32);
        assert_eq!(g.at(0, 0, 0), 0.0);
        assert_eq!(g.at(2, 0, 0), 2.0);
        assert_eq!(g.at(0, 1, 0), 10.0);
        assert_eq!(g.at(0, 0, 1), 100.0);
        assert_eq!(g.data[1], 1.0); // x fastest
    }

    #[test]
    fn crop_extracts_sub_box() {
        let g = Grid3::from_fn((4, 4, 4), |x, y, z| (x + 10 * y + 100 * z) as f32);
        let c = g.crop(Idx3::new(1, 2, 3), Idx3::new(2, 1, 1));
        assert_eq!(c.dims, Idx3::new(2, 1, 1));
        assert_eq!(c.at(0, 0, 0), (1 + 20 + 300) as f32);
        assert_eq!(c.at(1, 0, 0), (2 + 20 + 300) as f32);
    }

    #[test]
    #[should_panic(expected = "crop exceeds")]
    fn crop_out_of_bounds_panics() {
        Grid3::zeros((2, 2, 2)).crop(Idx3::new(1, 0, 0), Idx3::new(2, 1, 1));
    }

    #[test]
    fn replicate_is_periodic() {
        let g = Grid3::from_fn((2, 2, 1), |x, y, _| (x + 2 * y) as f32);
        let r = g.replicate((2, 1, 3));
        assert_eq!(r.dims, Idx3::new(4, 2, 3));
        for z in 0..3 {
            assert_eq!(r.at(0, 0, z), r.at(2, 0, z));
            assert_eq!(r.at(1, 1, z), r.at(3, 1, z));
        }
    }

    #[test]
    fn payload_roundtrip() {
        let g = Grid3::from_fn((3, 3, 3), |x, y, z| (x * y * z) as f32 - 1.5);
        let back = Grid3::decode(&g.encode()).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn corrupt_payload_rejected() {
        let g = Grid3::zeros((2, 2, 2));
        let mut bytes = g.encode().to_vec();
        bytes.truncate(bytes.len() - 4);
        assert!(Grid3::decode(&bytes).is_err());
    }

    #[test]
    fn trilinear_interpolates_midpoints() {
        let g = Grid3::from_fn((2, 2, 2), |x, _, _| x as f32);
        assert_eq!(g.sample_trilinear(0.5, 0.0, 0.0), 0.5);
        assert_eq!(g.sample_trilinear(0.5, 0.5, 0.5), 0.5);
        // Clamping beyond the extent.
        assert_eq!(g.sample_trilinear(5.0, 0.0, 0.0), 1.0);
    }

    #[test]
    fn min_max_scans_all() {
        let g = Grid3::from_fn((2, 2, 2), |x, y, z| (x + y + z) as f32 - 1.0);
        assert_eq!(g.min_max(), (-1.0, 2.0));
    }
}
