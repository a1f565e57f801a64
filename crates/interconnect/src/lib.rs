//! 2D-mesh network-on-chip geometry and latency (paper Table 2: 1-cycle
//! links, 4-cycle routers, XY dimension-order routing).
//!
//! [`Mesh`] gives the hop count and the one-way traversal latency between
//! two nodes. The simulator composes every memory-system latency out of
//! these, and times and counts the **RMW-address broadcasts** of the
//! type-2/type-3 deadlock-avoidance scheme (§3.2) with them: each copy
//! reaches its node one traversal latency after it is sent and crosses
//! `hops` links, and so does its ack.
//!
//! ```
//! use interconnect::{Mesh, MeshConfig};
//!
//! let mesh = Mesh::new(MeshConfig::paper_32());
//! // corner to corner on an 8×4 mesh: (7 + 3) hops
//! assert_eq!(mesh.hops(0, 31), 10);
//! assert!(mesh.latency(0, 31) > mesh.latency(0, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Cycle count type used throughout the simulator.
pub type Cycle = u64;

/// Mesh geometry and per-hop latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshConfig {
    /// Number of columns.
    pub width: usize,
    /// Number of rows.
    pub height: usize,
    /// Per-link traversal latency in cycles (paper: 1).
    pub link_latency: Cycle,
    /// Per-router latency in cycles (paper: 4).
    pub router_latency: Cycle,
}

impl MeshConfig {
    /// The paper's 32-core configuration: an 8×4 mesh with 1-cycle links
    /// and 4-cycle routers (Table 2).
    pub fn paper_32() -> Self {
        MeshConfig {
            width: 8,
            height: 4,
            link_latency: 1,
            router_latency: 4,
        }
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.width * self.height
    }
}

/// A 2D mesh with XY routing.
#[derive(Debug, Clone)]
pub struct Mesh {
    config: MeshConfig,
    /// `(x, y)` per node id, precomputed: hop distances sit on the
    /// simulator's hottest paths (every coherence miss and write-buffer
    /// request), where the row-major div/mod would dominate.
    coords: Vec<(u32, u32)>,
}

impl Mesh {
    /// Creates a mesh from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(config: MeshConfig) -> Self {
        assert!(
            config.width > 0 && config.height > 0,
            "mesh dimensions must be nonzero"
        );
        let coords = (0..config.num_nodes())
            .map(|n| ((n % config.width) as u32, (n / config.width) as u32))
            .collect();
        Mesh { config, coords }
    }

    /// The configuration.
    pub fn config(&self) -> MeshConfig {
        self.config
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.config.num_nodes()
    }

    /// `(x, y)` coordinates of a node id (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coords(&self, node: usize) -> (usize, usize) {
        assert!(node < self.num_nodes(), "node {node} out of range");
        let (x, y) = self.coords[node];
        (x as usize, y as usize)
    }

    /// Manhattan hop count between two nodes (XY routing path length).
    pub fn hops(&self, a: usize, b: usize) -> usize {
        let (ax, ay) = self.coords[a];
        let (bx, by) = self.coords[b];
        (ax.abs_diff(bx) + ay.abs_diff(by)) as usize
    }

    /// One-way traversal latency from `a` to `b`: each hop crosses a link
    /// and a router, plus the injection router at the source. A self-send
    /// still pays one router traversal.
    pub fn latency(&self, a: usize, b: usize) -> Cycle {
        let hops = self.hops(a, b) as Cycle;
        self.config.router_latency + hops * (self.config.link_latency + self.config.router_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(MeshConfig::paper_32())
    }

    #[test]
    fn paper_config_geometry() {
        let m = mesh();
        assert_eq!(m.num_nodes(), 32);
        assert_eq!(m.coords(0), (0, 0));
        assert_eq!(m.coords(7), (7, 0));
        assert_eq!(m.coords(8), (0, 1));
        assert_eq!(m.coords(31), (7, 3));
    }

    #[test]
    fn hops_are_manhattan_and_symmetric() {
        let m = mesh();
        assert_eq!(m.hops(0, 0), 0);
        assert_eq!(m.hops(0, 7), 7);
        assert_eq!(m.hops(0, 31), 10);
        for (a, b) in [(0, 5), (3, 28), (12, 19)] {
            assert_eq!(m.hops(a, b), m.hops(b, a));
        }
    }

    #[test]
    fn latency_scales_with_hops() {
        let m = mesh();
        // self-send: one router traversal
        assert_eq!(m.latency(0, 0), 4);
        // one hop: injection router + (link + router)
        assert_eq!(m.latency(0, 1), 4 + 5);
        assert_eq!(m.latency(0, 31), 4 + 10 * 5);
    }

    #[test]
    fn triangle_inequality() {
        let m = mesh();
        for a in 0..32 {
            for b in 0..32 {
                for c in [0usize, 13, 31] {
                    assert!(m.hops(a, b) <= m.hops(a, c) + m.hops(c, b));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coords_bounds_checked() {
        let _ = mesh().coords(32);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_rejected() {
        let _ = Mesh::new(MeshConfig {
            width: 0,
            height: 4,
            link_latency: 1,
            router_latency: 4,
        });
    }
}
