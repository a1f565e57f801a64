//! A small dense directed graph over event indices, with the operations the
//! validity checker needs: acyclicity, reachability, topological order, and
//! a transitive closure that can be kept closed (and acyclic) one edge at a
//! time and restored from a snapshot.
//!
//! Litmus-scale executions have tens of events, so an adjacency-matrix
//! representation (bit rows) is both simple and fast.

/// Dense directed graph over nodes `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    n: usize,
    words_per_row: usize,
    /// Row-major bit matrix: bit `v` of row `u` set ⇔ edge `u → v`.
    rows: Vec<u64>,
}

impl DiGraph {
    /// Creates an edgeless graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64).max(1);
        DiGraph {
            n,
            words_per_row,
            rows: vec![0; n * words_per_row],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds edge `u → v`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    #[inline]
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of range {}",
            self.n
        );
        self.rows[u * self.words_per_row + v / 64] |= 1u64 << (v % 64);
    }

    /// Removes edge `u → v` (no-op if absent).
    #[inline]
    pub fn remove_edge(&mut self, u: usize, v: usize) {
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of range {}",
            self.n
        );
        self.rows[u * self.words_per_row + v / 64] &= !(1u64 << (v % 64));
    }

    /// True if edge `u → v` is present.
    #[inline]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.rows[u * self.words_per_row + v / 64] & (1u64 << (v % 64)) != 0
    }

    /// Successors of `u` as an iterator of node indices.
    pub fn successors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        let base = u * self.words_per_row;
        (0..self.words_per_row).flat_map(move |w| {
            let mut bits = self.rows[base + w];
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(w * 64 + b)
                }
            })
        })
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.rows.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff the graph has no directed cycle (self-loops count as cycles).
    pub fn is_acyclic(&self) -> bool {
        self.topo_order().is_some()
    }

    /// A topological order of the nodes, or `None` if cyclic (Kahn's
    /// algorithm).
    pub fn topo_order(&self) -> Option<Vec<usize>> {
        let mut indeg = vec![0usize; self.n];
        for u in 0..self.n {
            for v in self.successors(u) {
                indeg[v] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..self.n).filter(|&v| indeg[v] == 0).collect();
        // Pop smallest id first so the order is deterministic.
        queue.sort_unstable_by(|a, b| b.cmp(a));
        let mut order = Vec::with_capacity(self.n);
        while let Some(u) = queue.pop() {
            order.push(u);
            let mut newly: Vec<usize> = Vec::new();
            for v in self.successors(u) {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    newly.push(v);
                }
            }
            // keep determinism: maintain queue sorted descending
            for v in newly {
                let pos = queue.partition_point(|&q| q > v);
                queue.insert(pos, v);
            }
        }
        (order.len() == self.n).then_some(order)
    }

    /// True iff `v` is reachable from `u` by a nonempty path.
    pub fn reaches(&self, u: usize, v: usize) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack: Vec<usize> = self.successors(u).collect();
        while let Some(w) = stack.pop() {
            if w == v {
                return true;
            }
            if !seen[w] {
                seen[w] = true;
                stack.extend(self.successors(w));
            }
        }
        false
    }

    /// Adds all edges of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the graphs have different node counts.
    pub fn union_with(&mut self, other: &DiGraph) {
        assert_eq!(self.n, other.n, "graph size mismatch");
        for (a, b) in self.rows.iter_mut().zip(other.rows.iter()) {
            *a |= *b;
        }
    }

    /// The transitive closure as a new graph: bit `v` of row `u` is set iff
    /// `v` is reachable from `u` by a nonempty path, so a cycle shows as a
    /// bit on the diagonal.
    ///
    /// Floyd–Warshall, word-parallel: for each pivot `k`, every row holding
    /// bit `k` ORs in row `k` a word at a time.
    pub fn transitive_closure(&self) -> DiGraph {
        let mut c = self.clone();
        let wpr = c.words_per_row;
        for k in 0..c.n {
            let (kw, kbit) = (k / 64, 1u64 << (k % 64));
            for u in 0..c.n {
                if c.rows[u * wpr + kw] & kbit != 0 {
                    for w in 0..wpr {
                        let bits = c.rows[k * wpr + w];
                        c.rows[u * wpr + w] |= bits;
                    }
                }
            }
        }
        c
    }

    /// Inserts `u → v` into a transitively closed graph and keeps it
    /// closed: `u` and every node reaching `u` now reach `v` and all of
    /// `v`'s successors. If `v` already reached `u`, the new cycle shows as
    /// diagonal bits. Does not allocate.
    ///
    /// The result is only a closure if `self` was one, e.g. the output of
    /// [`DiGraph::transitive_closure`] or of earlier `close_edge` calls.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn close_edge(&mut self, u: usize, v: usize) {
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of range {}",
            self.n
        );
        let wpr = self.words_per_row;
        let (uw, ubit) = (u / 64, 1u64 << (u % 64));
        let (vw, vbit) = (v / 64, 1u64 << (v % 64));
        for x in 0..self.n {
            if x != u && self.rows[x * wpr + uw] & ubit == 0 {
                continue;
            }
            // Row `v` may itself be updated here (when `v` reaches `u`); it
            // then only gains bit `v`, which every updated row gets anyway.
            for w in 0..wpr {
                let own = if w == vw { vbit } else { 0 };
                let bits = self.rows[v * wpr + w] | own;
                self.rows[x * wpr + w] |= bits;
            }
        }
    }

    /// Inserts `u → v` into a transitively closed graph unless the edge
    /// would close a cycle, and keeps the graph closed. Returns false, and
    /// leaves the graph untouched, when `u == v` or `v` already reaches
    /// `u`; an edge already implied (`u` reaches `v`) changes nothing.
    /// Otherwise this is [`DiGraph::close_edge`]. Either way the cycle
    /// test is one bit, so an acyclic closure stays acyclic for the price
    /// of a lookup per refused edge. Does not allocate.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn close_edge_acyclic(&mut self, u: usize, v: usize) -> bool {
        if u == v || self.has_edge(v, u) {
            return false;
        }
        if !self.has_edge(u, v) {
            self.close_edge(u, v);
        }
        true
    }

    /// Overwrites `self` with `other`'s edges without allocating: the undo
    /// step of a search that snapshots a graph before a decision and
    /// restores it after.
    ///
    /// # Panics
    ///
    /// Panics if the graphs have different node counts.
    pub fn copy_from(&mut self, other: &DiGraph) {
        assert_eq!(self.n, other.n, "graph size mismatch");
        self.rows.copy_from_slice(&other.rows);
    }

    /// All edges as `(u, v)` pairs (ascending `u`, then `v`).
    pub fn edges(&self) -> Vec<(usize, usize)> {
        (0..self.n)
            .flat_map(|u| self.successors(u).map(move |v| (u, v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_is_acyclic() {
        let g = DiGraph::new(0);
        assert!(g.is_empty());
        assert!(g.is_acyclic());
        assert_eq!(g.topo_order(), Some(vec![]));
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edges(), vec![(0, 1), (1, 2)]);
        g.remove_edge(0, 1);
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn detects_cycles() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(g.is_acyclic());
        g.add_edge(2, 0);
        assert!(!g.is_acyclic());
        assert_eq!(g.topo_order(), None);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = DiGraph::new(1);
        assert!(g.is_acyclic());
        g.add_edge(0, 0);
        assert!(!g.is_acyclic());
    }

    #[test]
    fn topo_order_is_deterministic_and_consistent() {
        let mut g = DiGraph::new(5);
        g.add_edge(3, 1);
        g.add_edge(1, 0);
        g.add_edge(4, 2);
        let order = g.topo_order().expect("acyclic");
        assert_eq!(order.len(), 5);
        let pos: Vec<usize> = {
            let mut p = vec![0; 5];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        for (u, v) in g.edges() {
            assert!(pos[u] < pos[v], "edge ({u},{v}) violates topo order");
        }
        // deterministic: same input, same order
        assert_eq!(g.topo_order().unwrap(), order);
    }

    #[test]
    fn reachability() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(g.reaches(0, 2));
        assert!(!g.reaches(2, 0));
        assert!(!g.reaches(0, 3));
        // non-empty path required: node does not trivially reach itself
        assert!(!g.reaches(0, 0));
        g.add_edge(2, 0);
        assert!(g.reaches(0, 0));
    }

    #[test]
    fn transitive_closure_contains_paths() {
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let c = g.transitive_closure();
        assert!(c.has_edge(0, 3));
        assert!(c.has_edge(1, 3));
        assert!(!c.has_edge(3, 0));
    }

    #[test]
    fn union_with_merges_edges() {
        let mut a = DiGraph::new(3);
        a.add_edge(0, 1);
        let mut b = DiGraph::new(3);
        b.add_edge(1, 2);
        a.union_with(&b);
        assert!(a.has_edge(0, 1) && a.has_edge(1, 2));
    }

    #[test]
    fn large_graph_bitrows() {
        // Exercise multi-word rows (n > 64).
        let n = 130;
        let mut g = DiGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        assert!(g.is_acyclic());
        assert!(g.reaches(0, n - 1));
        let c = g.transitive_closure();
        assert!(c.has_edge(0, n - 1));
        g.add_edge(n - 1, 0);
        assert!(!g.is_acyclic());
    }

    /// A deterministic xorshift64 graph with up to `n` edges.
    fn random_graph(n: usize, seed: &mut u64) -> DiGraph {
        let mut g = DiGraph::new(n);
        for _ in 0..n {
            let mut next = || {
                *seed ^= *seed << 13;
                *seed ^= *seed >> 7;
                *seed ^= *seed << 17;
                (*seed % n as u64) as usize
            };
            let (u, v) = (next(), next());
            g.add_edge(u, v);
        }
        g
    }

    #[test]
    fn transitive_closure_matches_reachability() {
        let mut seed = 0x9e37_79b9_7f4a_7c15;
        for n in [1, 5, 17, 64, 65, 130] {
            let g = random_graph(n, &mut seed);
            let c = g.transitive_closure();
            for u in 0..n {
                for v in 0..n {
                    assert_eq!(c.has_edge(u, v), g.reaches(u, v), "n={n} ({u},{v})");
                }
            }
        }
    }

    #[test]
    fn close_edge_matches_recomputed_closure() {
        // Insert random edges one at a time into a closed graph (cycles
        // included) and compare against a closure of the whole graph, on
        // single- and multi-word rows. Alongside, the acyclic insert
        // refuses exactly the self-loops and the edges whose target
        // already reaches their source, leaves the graph untouched when it
        // refuses, and otherwise closes the same graph; `copy_from` then
        // restores the snapshot taken before the insert.
        let mut seed = 0x2545_f491_4f6c_dd1d;
        for n in [2, 9, 63, 64, 65, 130] {
            for _ in 0..4 {
                let mut g = random_graph(n, &mut seed);
                let mut closed = g.transitive_closure();
                let mut snapshot = DiGraph::new(n);
                for (u, v) in random_graph(n, &mut seed).edges().into_iter().take(12) {
                    let mut probe = closed.clone();
                    snapshot.copy_from(&probe);
                    let accepted = probe.close_edge_acyclic(u, v);
                    assert_eq!(accepted, u != v && !g.reaches(v, u), "n={n} ({u},{v})");
                    g.add_edge(u, v);
                    closed.close_edge(u, v);
                    assert_eq!(closed, g.transitive_closure(), "n={n} after ({u},{v})");
                    if accepted {
                        assert_eq!(probe, closed, "n={n} accepted ({u},{v})");
                    } else {
                        assert_eq!(probe, snapshot, "n={n} refused ({u},{v})");
                    }
                    probe.copy_from(&snapshot);
                    assert_eq!(probe, snapshot, "n={n} restore after ({u},{v})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut g = DiGraph::new(2);
        g.add_edge(0, 2);
    }
}
