//! Multi-hop entanglement routing: shortest-path route selection over a
//! [`NetworkTopology`] and Werner-fidelity composition under entanglement
//! swapping.
//!
//! A remote gate between non-adjacent nodes cannot consume a direct Bell
//! pair — none exists. Instead one link is consumed per edge of a route
//! and the intermediate nodes splice them with Bell measurements
//! (entanglement swapping), leaving one end-to-end pair whose fidelity is
//! the composition [`swap_chain_fidelity`] of the per-hop fidelities.

use crate::NetworkTopology;
use dqc_types::NodeId;
use std::collections::VecDeque;

/// One selected route between two nodes: the inclusive node sequence
/// `source, …, target`.
///
/// # Examples
///
/// ```
/// use dqc_entanglement::{NetworkTopology, RoutingTable};
/// use dqc_types::NodeId;
///
/// let table = RoutingTable::new(&NetworkTopology::chain(4));
/// let route = table.route(NodeId::new(0), NodeId::new(3)).unwrap();
/// assert_eq!(route.hops(), 3);
/// assert_eq!(route.edges().count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    nodes: Vec<NodeId>,
}

impl Route {
    /// The node sequence, endpoints inclusive.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of links consumed (`nodes − 1`); 0 for the trivial
    /// self-route.
    pub fn hops(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Number of entanglement swaps performed by the intermediate nodes.
    pub fn swaps(&self) -> usize {
        self.hops().saturating_sub(1)
    }

    /// The traversed edges as normalized (`a < b`) node pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.windows(2).map(|w| {
            if w[0] <= w[1] {
                (w[0], w[1])
            } else {
                (w[1], w[0])
            }
        })
    }
}

/// All-pairs shortest routes over a topology, selected deterministically.
///
/// Routes are hop-count-shortest; equal-cost ties are broken by breadth-
/// first discovery order with neighbors scanned in ascending node order,
/// so the same topology always yields the same table — a requirement for
/// the engine's bit-for-bit reproducibility across runs and thread
/// schedules.
///
/// # Examples
///
/// ```
/// use dqc_entanglement::{NetworkTopology, RoutingTable};
/// use dqc_types::NodeId;
///
/// let table = RoutingTable::new(&NetworkTopology::ring(4));
/// // Two 2-hop routes exist between 0 and 2; the tie breaks towards the
/// // lower-numbered intermediate node.
/// let route = table.route(NodeId::new(0), NodeId::new(2)).unwrap();
/// let via: Vec<u16> = route.nodes().iter().map(|n| n.index()).collect();
/// assert_eq!(via, vec![0, 1, 2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingTable {
    num_nodes: usize,
    /// Row-major `[source][target]`; `None` when unreachable.
    routes: Vec<Option<Route>>,
}

impl RoutingTable {
    /// Computes shortest routes between every node pair of `topology`.
    pub fn new(topology: &NetworkTopology) -> Self {
        let n = topology.num_nodes();
        let mut routes = vec![None; n * n];
        for src in 0..n {
            let mut parent: Vec<Option<NodeId>> = vec![None; n];
            let mut dist = vec![usize::MAX; n];
            dist[src] = 0;
            let mut queue = VecDeque::from([NodeId::new(src as u16)]);
            while let Some(v) = queue.pop_front() {
                for u in topology.neighbors(v) {
                    if dist[u.as_usize()] == usize::MAX {
                        dist[u.as_usize()] = dist[v.as_usize()] + 1;
                        parent[u.as_usize()] = Some(v);
                        queue.push_back(u);
                    }
                }
            }
            for dst in 0..n {
                if dist[dst] == usize::MAX {
                    continue;
                }
                let mut nodes = vec![NodeId::new(dst as u16)];
                let mut cursor = dst;
                while let Some(p) = parent[cursor] {
                    nodes.push(p);
                    cursor = p.as_usize();
                }
                nodes.reverse();
                routes[src * n + dst] = Some(Route { nodes });
            }
        }
        Self {
            num_nodes: n,
            routes,
        }
    }

    /// Number of nodes the table covers.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The selected route from `a` to `b`, or `None` when unreachable or
    /// out of range.
    pub fn route(&self, a: NodeId, b: NodeId) -> Option<&Route> {
        if a.as_usize() >= self.num_nodes || b.as_usize() >= self.num_nodes {
            return None;
        }
        self.routes[a.as_usize() * self.num_nodes + b.as_usize()].as_ref()
    }

    /// Hop distance from `a` to `b`, if reachable.
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> Option<usize> {
        self.route(a, b).map(Route::hops)
    }

    /// The all-pairs hop-distance matrix of the selected routes
    /// (`u64::MAX` for unreachable pairs) — the weight matrix consumed by
    /// `dqc-partition`'s topology-aware mode. Deriving it from the table
    /// guarantees the partitioner weights and the executor's routes agree
    /// by construction.
    pub fn hop_distance_matrix(&self) -> Vec<Vec<u64>> {
        (0..self.num_nodes)
            .map(|a| {
                (0..self.num_nodes)
                    .map(|b| {
                        self.hop_distance(NodeId::new(a as u16), NodeId::new(b as u16))
                            .map_or(u64::MAX, |h| h as u64)
                    })
                    .collect()
            })
            .collect()
    }
}

/// Werner fidelity of the end-to-end pair left by swapping a chain of
/// links with the given fidelities: with Werner parameters
/// `pᵢ = (4Fᵢ − 1)/3`, the spliced pair has `p = ∏ pᵢ`, i.e.
/// `F = (1 + 3·∏ pᵢ)/4`.
///
/// The law is cross-validated against an explicit density-matrix
/// simulation of the swap protocol in `dqc-sim`
/// (`entanglement_swap_chain_fidelity`) by the workspace test suite.
/// An empty chain is the identity (fidelity 1); each fidelity is clamped
/// to the Werner range `[0.25, 1]`.
///
/// # Examples
///
/// ```
/// use dqc_entanglement::swap_chain_fidelity;
///
/// // Swapping degrades multiplicatively in the Werner parameter:
/// let two = swap_chain_fidelity(&[0.99, 0.99]);
/// assert!(two < 0.99 && two > 0.97);
/// // One fully mixed link poisons the whole chain:
/// assert!((swap_chain_fidelity(&[0.25, 0.99, 0.99]) - 0.25).abs() < 1e-12);
/// ```
pub fn swap_chain_fidelity(link_fidelities: &[f64]) -> f64 {
    swap_chain_fidelity_of(link_fidelities.iter().copied())
}

/// [`swap_chain_fidelity`] over the link fidelities as they are
/// produced, with the same arithmetic in the same order.
pub fn swap_chain_fidelity_of(link_fidelities: impl IntoIterator<Item = f64>) -> f64 {
    let p: f64 = link_fidelities
        .into_iter()
        .map(|f| (4.0 * f.clamp(0.25, 1.0) - 1.0) / 3.0)
        .product();
    (1.0 + 3.0 * p) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn chain_routes_are_the_chain() {
        let table = RoutingTable::new(&NetworkTopology::chain(5));
        let r = table.route(n(0), n(4)).unwrap();
        assert_eq!(r.nodes(), &[n(0), n(1), n(2), n(3), n(4)]);
        assert_eq!(r.hops(), 4);
        assert_eq!(r.swaps(), 3);
        assert_eq!(table.hop_distance(n(1), n(3)), Some(2));
    }

    #[test]
    fn self_route_is_trivial() {
        let table = RoutingTable::new(&NetworkTopology::chain(3));
        let r = table.route(n(1), n(1)).unwrap();
        assert_eq!(r.hops(), 0);
        assert_eq!(r.swaps(), 0);
        assert_eq!(r.edges().count(), 0);
    }

    #[test]
    fn equal_cost_ties_break_deterministically() {
        // ring(4): 0→2 has routes via 1 and via 3; BFS with ascending
        // neighbor order must pick the one through node 1, always.
        let topo = NetworkTopology::ring(4);
        let table = RoutingTable::new(&topo);
        let r = table.route(n(0), n(2)).unwrap();
        assert_eq!(r.nodes(), &[n(0), n(1), n(2)]);
        // grid2d(2,2): 0→3 via 1 or via 2; same rule.
        let grid = RoutingTable::new(&NetworkTopology::grid2d(2, 2));
        assert_eq!(grid.route(n(0), n(3)).unwrap().nodes(), &[n(0), n(1), n(3)]);
        // Rebuilding the table reproduces it exactly.
        assert_eq!(table, RoutingTable::new(&topo));
    }

    #[test]
    fn table_distances_agree_with_topology_bfs() {
        for topo in [
            NetworkTopology::chain(6),
            NetworkTopology::ring(5),
            NetworkTopology::grid2d(2, 3),
            NetworkTopology::star(5),
            NetworkTopology::heavy_hex(2, 3),
            NetworkTopology::from_edges(4, &[(0, 1), (2, 3)]),
        ] {
            assert_eq!(
                RoutingTable::new(&topo).hop_distance_matrix(),
                topo.hop_distance_matrix(),
                "{topo:?}"
            );
        }
    }

    #[test]
    fn unreachable_and_out_of_range_are_none() {
        let topo = NetworkTopology::from_edges(4, &[(0, 1), (2, 3)]);
        let table = RoutingTable::new(&topo);
        assert!(table.route(n(0), n(2)).is_none());
        assert!(table.route(n(0), n(9)).is_none());
        assert!(table.route(n(0), n(1)).is_some());
    }

    #[test]
    fn route_edges_are_normalized() {
        let table = RoutingTable::new(&NetworkTopology::chain(3));
        let r = table.route(n(2), n(0)).unwrap();
        let edges: Vec<_> = r.edges().collect();
        assert_eq!(edges, vec![(n(1), n(2)), (n(0), n(1))]);
    }

    #[test]
    fn swap_chain_identity_and_single() {
        assert_eq!(swap_chain_fidelity(&[]), 1.0);
        for f in [0.25, 0.5, 0.75, 1.0] {
            assert!((swap_chain_fidelity(&[f]) - f).abs() < 1e-12);
        }
    }

    #[test]
    fn swap_chain_is_monotone_and_bounded() {
        let mut prev = 1.0;
        for hops in 1..=6 {
            let f = swap_chain_fidelity(&vec![0.95; hops]);
            assert!(f < prev, "{hops} hops must be worse than {}", hops - 1);
            assert!(f >= 0.25);
            prev = f;
        }
    }

    #[test]
    fn swap_chain_clamps_inputs() {
        assert_eq!(
            swap_chain_fidelity(&[0.1, 0.9]),
            swap_chain_fidelity(&[0.25, 0.9])
        );
        assert_eq!(
            swap_chain_fidelity(&[1.7, 0.9]),
            swap_chain_fidelity(&[1.0, 0.9])
        );
    }
}
