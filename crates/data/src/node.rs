//! A Conduit-like hierarchical data model.
//!
//! The paper's outlook: "the system can exploit new data models such as
//! Conduit to transparently access simulation data and further uncouple
//! the implementation of an algorithm from the specific application that
//! uses it." This module implements that uncoupling layer: a
//! path-addressed tree of typed values ([`DataNode`]), with shared
//! (`Arc`ed) array leaves so a simulation can expose its buffers without
//! copying, plus a standard mesh convention mapping blocks to/from the
//! tree (`fields/<name>/values`, `coordsets/origin`, …).
//!
//! Analysis tasks written against `DataNode` payloads work with any host
//! application that fills the conventional paths — they never see the
//! host's concrete data structures.

use std::collections::BTreeMap;
use std::sync::Arc;

use babelflow_core::{codec::DecodeError, Decoder, Encoder, PayloadData};

use crate::grid::{Grid3, Idx3};

/// A typed leaf value.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    /// No value (interior node).
    #[default]
    Empty,
    /// Signed integer.
    I64(i64),
    /// Double-precision scalar.
    F64(f64),
    /// UTF-8 string.
    Str(String),
    /// Shared f32 array (zero-copy between host and tasks).
    F32Array(Arc<Vec<f32>>),
    /// Shared u64 array.
    U64Array(Arc<Vec<u64>>),
}

/// A node of the hierarchy: a value plus named children.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct DataNode {
    value: Value,
    children: BTreeMap<String, DataNode>,
}

impl DataNode {
    /// An empty node.
    pub fn new() -> Self {
        Self::default()
    }

    /// The node at `path` ("a/b/c"), creating interior nodes as needed
    /// (Conduit's `fetch` semantics).
    pub fn fetch(&mut self, path: &str) -> &mut DataNode {
        let mut cur = self;
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            cur = cur.children.entry(seg.to_string()).or_default();
        }
        cur
    }

    /// The node at `path`, if present.
    pub fn get(&self, path: &str) -> Option<&DataNode> {
        let mut cur = self;
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            cur = cur.children.get(seg)?;
        }
        Some(cur)
    }

    /// Set this node's value.
    pub fn set(&mut self, value: Value) -> &mut Self {
        self.value = value;
        self
    }

    /// Set the value at `path` (fetch + set).
    pub fn set_path(&mut self, path: &str, value: Value) -> &mut Self {
        self.fetch(path).value = value;
        self
    }

    /// This node's value.
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// Child names, sorted.
    pub fn child_names(&self) -> Vec<&str> {
        self.children.keys().map(String::as_str).collect()
    }

    /// Integer at `path`, if present and typed so.
    pub fn as_i64(&self, path: &str) -> Option<i64> {
        match self.get(path)?.value {
            Value::I64(v) => Some(v),
            _ => None,
        }
    }

    /// Double at `path`.
    pub fn as_f64(&self, path: &str) -> Option<f64> {
        match self.get(path)?.value {
            Value::F64(v) => Some(v),
            Value::I64(v) => Some(v as f64),
            _ => None,
        }
    }

    /// String at `path`.
    pub fn as_str(&self, path: &str) -> Option<&str> {
        match &self.get(path)?.value {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Shared f32 array at `path` (refcount bump, no copy).
    pub fn as_f32_array(&self, path: &str) -> Option<Arc<Vec<f32>>> {
        match &self.get(path)?.value {
            Value::F32Array(a) => Some(a.clone()),
            _ => None,
        }
    }

    /// Shared u64 array at `path`.
    pub fn as_u64_array(&self, path: &str) -> Option<Arc<Vec<u64>>> {
        match &self.get(path)?.value {
            Value::U64Array(a) => Some(a.clone()),
            _ => None,
        }
    }

    // --- mesh convention ---------------------------------------------------

    /// Publish a block under the standard mesh convention:
    /// `coordsets/origin/{x,y,z}`, `coordsets/dims/{x,y,z}`, and
    /// `fields/<field>/values` (sharing the grid's buffer when the caller
    /// provides an `Arc`).
    pub fn from_block(origin: Idx3, field: &str, values: Arc<Vec<f32>>, dims: Idx3) -> DataNode {
        let mut n = DataNode::new();
        n.set_path("coordsets/origin/x", Value::I64(origin.x as i64));
        n.set_path("coordsets/origin/y", Value::I64(origin.y as i64));
        n.set_path("coordsets/origin/z", Value::I64(origin.z as i64));
        n.set_path("coordsets/dims/x", Value::I64(dims.x as i64));
        n.set_path("coordsets/dims/y", Value::I64(dims.y as i64));
        n.set_path("coordsets/dims/z", Value::I64(dims.z as i64));
        n.set_path(&format!("fields/{field}/values"), Value::F32Array(values));
        n
    }

    /// Recover a grid + origin from the mesh convention. Fails if paths
    /// are missing or the array length disagrees with the dims.
    pub fn to_block(&self, field: &str) -> Option<(Idx3, Grid3)> {
        let origin = Idx3::new(
            self.as_i64("coordsets/origin/x")? as usize,
            self.as_i64("coordsets/origin/y")? as usize,
            self.as_i64("coordsets/origin/z")? as usize,
        );
        let dims = Idx3::new(
            self.as_i64("coordsets/dims/x")? as usize,
            self.as_i64("coordsets/dims/y")? as usize,
            self.as_i64("coordsets/dims/z")? as usize,
        );
        let values = self.as_f32_array(&format!("fields/{field}/values"))?;
        if values.len() != dims.volume() {
            return None;
        }
        Some((origin, Grid3 { dims, data: values.as_ref().clone() }))
    }
}

fn encode_node(n: &DataNode, e: &mut Encoder) {
    match &n.value {
        Value::Empty => e.put_u8(0),
        Value::I64(v) => {
            e.put_u8(1);
            e.put_i64(*v);
        }
        Value::F64(v) => {
            e.put_u8(2);
            e.put_f64(*v);
        }
        Value::Str(s) => {
            e.put_u8(3);
            e.put_str(s);
        }
        Value::F32Array(a) => {
            e.put_u8(4);
            e.put_f32_slice(a);
        }
        Value::U64Array(a) => {
            e.put_u8(5);
            e.put_u64_slice(a);
        }
    }
    e.put_usize(n.children.len());
    for (name, child) in &n.children {
        e.put_str(name);
        encode_node(child, e);
    }
}

fn decode_node(d: &mut Decoder<'_>) -> Result<DataNode, DecodeError> {
    let value = match d.get_u8()? {
        0 => Value::Empty,
        1 => Value::I64(d.get_i64()?),
        2 => Value::F64(d.get_f64()?),
        3 => Value::Str(d.get_str()?.to_string()),
        4 => Value::F32Array(Arc::new(d.get_f32_vec()?)),
        5 => Value::U64Array(Arc::new(d.get_u64_vec()?)),
        _ => return Err(DecodeError { what: "unknown node value tag" }),
    };
    let n = d.get_usize()?;
    let mut children = BTreeMap::new();
    for _ in 0..n {
        let name = d.get_str()?.to_string();
        children.insert(name, decode_node(d)?);
    }
    Ok(DataNode { value, children })
}

impl PayloadData for DataNode {
    fn encode_into(&self, e: &mut Encoder) {
        encode_node(self, e);
    }

    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(buf);
        let n = decode_node(&mut d)?;
        if !d.is_done() {
            return Err(DecodeError { what: "trailing bytes after node" });
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_creates_paths_and_get_reads_them() {
        let mut n = DataNode::new();
        n.set_path("state/cycle", Value::I64(42));
        n.set_path("state/time", Value::F64(1.5));
        n.set_path("meta/name", Value::Str("hcci".into()));
        assert_eq!(n.as_i64("state/cycle"), Some(42));
        assert_eq!(n.as_f64("state/time"), Some(1.5));
        assert_eq!(n.as_str("meta/name"), Some("hcci"));
        assert_eq!(n.as_i64("state/missing"), None);
        assert_eq!(n.get("nope/nested"), None);
        assert_eq!(n.child_names(), vec!["meta", "state"]);
    }

    #[test]
    fn arrays_are_shared_not_copied() {
        let buf = Arc::new(vec![1.0f32, 2.0, 3.0]);
        let mut n = DataNode::new();
        n.set_path("fields/t/values", Value::F32Array(buf.clone()));
        let out = n.as_f32_array("fields/t/values").unwrap();
        assert!(Arc::ptr_eq(&buf, &out));
    }

    #[test]
    fn mesh_convention_roundtrip() {
        let dims = Idx3::new(2, 3, 4);
        let grid = Grid3::from_fn(dims, |x, y, z| (x + 10 * y + 100 * z) as f32);
        let n = DataNode::from_block(
            Idx3::new(5, 6, 7),
            "temperature",
            Arc::new(grid.data.clone()),
            dims,
        );
        let (origin, back) = n.to_block("temperature").unwrap();
        assert_eq!(origin, Idx3::new(5, 6, 7));
        assert_eq!(back, grid);
        // Wrong field name or corrupted dims fail gracefully.
        assert!(n.to_block("pressure").is_none());
        let mut bad = n.clone();
        bad.set_path("coordsets/dims/x", Value::I64(99));
        assert!(bad.to_block("temperature").is_none());
    }

    #[test]
    fn payload_roundtrip_deep_tree() {
        let mut n = DataNode::new();
        n.set_path("a/b/c", Value::I64(-7));
        n.set_path("a/b/d", Value::F32Array(Arc::new(vec![0.5, -0.5])));
        n.set_path("a/e", Value::U64Array(Arc::new(vec![9, 8])));
        n.set_path("s", Value::Str("σ".into()));
        let back = DataNode::decode(&n.encode()).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn corrupt_payload_rejected() {
        let mut n = DataNode::new();
        n.set_path("x", Value::I64(1));
        let bytes = n.encode();
        assert!(DataNode::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut garbled = bytes.to_vec();
        garbled[0] = 99; // unknown tag
        assert!(DataNode::decode(&garbled).is_err());
    }
}
