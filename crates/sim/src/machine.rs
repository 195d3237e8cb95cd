//! Machine and network model.
//!
//! The paper's experiments ran on Shaheen II, "a Cray XC40 system with
//! 6,174 dual socket compute nodes based on 16 cores Intel Haswell
//! processors with Aries Dragonfly connectivity". The simulator models the
//! parts that shape the figures: cores grouped into nodes, a per-message
//! latency + bandwidth network with per-node NIC serialization, and
//! virtual time in nanoseconds.

/// Virtual time in nanoseconds.
pub type Ns = u64;

/// Cluster geometry and network constants.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Compute nodes.
    pub nodes: u32,
    /// Cores per node (Shaheen II: 32 per dual-socket node).
    pub cores_per_node: u32,
    /// Per-message network latency (Aries-like: ~1.5 µs).
    pub latency_ns: Ns,
    /// Network bandwidth in bytes/ns (Aries-like: ~10 GB/s ≈ 10 B/ns).
    pub bytes_per_ns: f64,
    /// NIC injection bandwidth in bytes/ns per node.
    pub nic_bytes_per_ns: f64,
}

impl MachineConfig {
    /// A Shaheen II–like machine with the given core count (32 cores per
    /// node; smaller totals become one partial node so that the simulated
    /// core count always equals the request).
    pub fn shaheen(cores: u32) -> Self {
        assert!(cores > 0, "need at least one core");
        let (nodes, cores_per_node) = if cores <= 32 {
            (1, cores)
        } else {
            assert!(cores.is_multiple_of(32), "multi-node machines must use whole 32-core nodes");
            (cores / 32, 32)
        };
        MachineConfig {
            nodes,
            cores_per_node,
            latency_ns: 1_500,
            bytes_per_ns: 10.0,
            nic_bytes_per_ns: 12.0,
        }
    }

    /// Total cores.
    pub fn cores(&self) -> u32 {
        self.nodes * self.cores_per_node
    }

    /// Node of a core.
    pub fn node_of(&self, core: u32) -> u32 {
        core / self.cores_per_node
    }

    /// Wire time for a message of `bytes` between two cores (0 for same
    /// node beyond a small local latency).
    pub fn wire_ns(&self, from_core: u32, to_core: u32, bytes: u64) -> Ns {
        if self.node_of(from_core) == self.node_of(to_core) {
            // Shared-memory transfer: cheap, bandwidth-bound.
            200 + (bytes as f64 / (4.0 * self.bytes_per_ns)) as Ns
        } else {
            self.latency_ns + (bytes as f64 / self.bytes_per_ns) as Ns
        }
    }

    /// NIC serialization time for `bytes` leaving/entering a node.
    pub fn nic_ns(&self, bytes: u64) -> Ns {
        (bytes as f64 / self.nic_bytes_per_ns) as Ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shaheen_geometry() {
        let m = MachineConfig::shaheen(128);
        assert_eq!(m.nodes, 4);
        assert_eq!(m.cores(), 128);
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(33), 1);
    }

    #[test]
    fn intra_node_cheaper_than_inter_node() {
        let m = MachineConfig::shaheen(64);
        let local = m.wire_ns(0, 1, 1 << 20);
        let remote = m.wire_ns(0, 40, 1 << 20);
        assert!(local < remote);
    }

    #[test]
    fn wire_time_scales_with_bytes() {
        let m = MachineConfig::shaheen(64);
        assert!(m.wire_ns(0, 40, 1 << 20) > m.wire_ns(0, 40, 1 << 10));
        // Latency floor for tiny messages.
        assert!(m.wire_ns(0, 40, 1) >= m.latency_ns);
    }
}
