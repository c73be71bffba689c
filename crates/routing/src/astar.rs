//! A* search with an admissible heuristic.
//!
//! Yen's algorithm (see [`crate::k_shortest_paths`]) runs its "spur"
//! searches on views with a few extra edges removed — only the few
//! spurs whose lower bound reaches the top of its heap, but each of
//! them on a city-sized graph. Removing edges can only lengthen
//! shortest paths, so exact distances-to-target computed once on the
//! *unmodified* view remain admissible lower bounds — A* guided by them
//! explores a small corridor instead of the whole city.

use crate::cancel::{CancelToken, CHECK_STRIDE};
use crate::heap::{HeapEntry, NO_EDGE};
use crate::Path;
use std::collections::BinaryHeap;
use traffic_graph::{EdgeId, GraphView, NodeId};

/// Reusable A* searcher with generation-stamped buffers.
///
/// The heuristic `h(v)` must be *consistent* (monotone): for every edge
/// `(u, v)`, `h(u) ≤ w(u, v) + h(v)`. Consistency implies admissibility
/// and lets the search settle each node exactly once, which this
/// implementation relies on — a merely admissible but inconsistent
/// heuristic can yield suboptimal paths. Every heuristic used in this
/// workspace (straight-line distance over a max speed, exact reverse
/// distances on a supergraph, landmark triangle bounds) is consistent.
/// `f64::INFINITY` prunes a node entirely (useful when the heuristic is
/// an exact distance on a supergraph and the node cannot reach the
/// target at all).
///
/// # Examples
///
/// ```
/// use traffic_graph::{RoadNetworkBuilder, GraphView, Point, RoadClass};
/// use routing::AStar;
///
/// let mut b = RoadNetworkBuilder::new("toy");
/// let a = b.add_node(Point::new(0.0, 0.0));
/// let c = b.add_node(Point::new(100.0, 0.0));
/// b.add_street(a, c, RoadClass::Residential);
/// let net = b.build();
/// let view = GraphView::new(&net);
///
/// let mut astar = AStar::new(net.num_nodes());
/// // straight-line distance is admissible for length weights
/// let p = astar.shortest_path(
///     &view,
///     |e| net.edge_attrs(e).length_m,
///     |v| net.node_point(v).distance(net.node_point(c)),
///     a,
///     c,
/// ).unwrap();
/// assert_eq!(p.total_weight(), 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct AStar {
    dist: Vec<f64>,
    parent_edge: Vec<u32>,
    stamp: Vec<u32>,
    settled: Vec<u32>,
    generation: u32,
    cancel: Option<CancelToken>,
}

impl AStar {
    /// Creates a searcher for networks with up to `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        AStar {
            dist: vec![f64::INFINITY; num_nodes],
            parent_edge: vec![NO_EDGE; num_nodes],
            stamp: vec![0; num_nodes],
            settled: vec![0; num_nodes],
            generation: 0,
            cancel: None,
        }
    }

    /// Installs (or clears) a cancellation token. A cancelled search
    /// stops early and reports the target unreachable; callers sharing
    /// the token must check it rather than trust a `None` result.
    pub fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
    }

    fn fresh(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.parent_edge.resize(n, NO_EDGE);
            self.stamp.resize(n, 0);
            self.settled.resize(n, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.settled.fill(0);
            self.generation = 1;
        }
    }

    #[inline]
    fn touch(&mut self, v: usize) {
        if self.stamp[v] != self.generation {
            self.stamp[v] = self.generation;
            self.dist[v] = f64::INFINITY;
            self.parent_edge[v] = NO_EDGE;
            self.settled[v] = 0;
        }
    }

    /// Shortest path from `source` to `target` under `weight`, guided by
    /// the admissible heuristic `h`.
    ///
    /// Returns `None` when `target` is unreachable. `source == target`
    /// yields a trivial path.
    pub fn shortest_path<F, H>(
        &mut self,
        view: &GraphView<'_>,
        weight: F,
        h: H,
        source: NodeId,
        target: NodeId,
    ) -> Option<Path>
    where
        F: Fn(EdgeId) -> f64,
        H: Fn(NodeId) -> f64,
    {
        self.search(view, weight, h, source, target, None)
    }

    /// [`AStar::shortest_path`] with an extra *pruning* table: `prune_h`
    /// holds exact distances-to-target on a subview of `view` (so it is a
    /// valid lower bound here), and any relaxation whose completion is
    /// provably longer than `bound` — `g + w(e) + prune_h[w] > bound` —
    /// is skipped without touching the heap.
    ///
    /// Crucially the heap is still ordered by `g + h(v)` with the *same*
    /// `h` the unbounded search uses, so among surviving entries the pop
    /// order, tie-breaks, and returned path are identical to
    /// [`AStar::shortest_path`] whenever that path's weight is within
    /// `bound`. Callers that only consume paths at or below a threshold
    /// `≤ bound` therefore observe byte-identical results while the
    /// search settles only the near-optimal corridor. Returns `None` if
    /// every `source → target` path exceeds `bound` (a case those
    /// callers treat the same as a too-long path).
    #[allow(clippy::too_many_arguments)]
    pub fn shortest_path_bounded<F, H>(
        &mut self,
        view: &GraphView<'_>,
        weight: F,
        h: H,
        source: NodeId,
        target: NodeId,
        prune_h: &[f64],
        bound: f64,
    ) -> Option<Path>
    where
        F: Fn(EdgeId) -> f64,
        H: Fn(NodeId) -> f64,
    {
        self.search(view, weight, h, source, target, Some((prune_h, bound)))
    }

    fn search<F, H>(
        &mut self,
        view: &GraphView<'_>,
        weight: F,
        h: H,
        source: NodeId,
        target: NodeId,
        prune: Option<(&[f64], f64)>,
    ) -> Option<Path>
    where
        F: Fn(EdgeId) -> f64,
        H: Fn(NodeId) -> f64,
    {
        if source == target {
            return Some(Path::trivial(source));
        }
        if let Some((pd, bound)) = prune {
            if pd[source.index()] > bound {
                return None;
            }
        }
        let net = view.network();
        let n = net.num_nodes();
        self.fresh(n);

        let h0 = h(source);
        if h0.is_infinite() {
            return None;
        }
        self.touch(source.index());
        self.dist[source.index()] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry {
            dist: h0,
            node: source.index() as u32,
        });

        // Telemetry accumulates in locals; one flush per search keeps
        // the inner loop free of atomics.
        let mut pops: u64 = 0;
        let mut relaxations: u64 = 0;
        let mut prunes: u64 = 0;
        let mut bound_prunes: u64 = 0;
        let mut found = false;

        while let Some(HeapEntry { node: v, .. }) = heap.pop() {
            pops += 1;
            if pops.is_multiple_of(CHECK_STRIDE) {
                if let Some(token) = &self.cancel {
                    if token.is_cancelled() {
                        break;
                    }
                }
            }
            let vi = v as usize;
            if self.settled[vi] == 1 && self.stamp[vi] == self.generation {
                continue;
            }
            self.touch(vi);
            self.settled[vi] = 1;
            if vi == target.index() {
                found = true;
                break;
            }
            let g = self.dist[vi];
            for (e, w) in view.out_neighbors(NodeId::new(vi)) {
                relaxations += 1;
                let we = weight(e);
                debug_assert!(we >= 0.0, "negative edge weight");
                let wi = w.index();
                self.touch(wi);
                let ng = g + we;
                if ng < self.dist[wi] {
                    if let Some((pd, bound)) = prune {
                        if ng + pd[wi] > bound {
                            // Every completion through `w` at this g
                            // provably exceeds the caller's bound.
                            bound_prunes += 1;
                            continue;
                        }
                    }
                    let hw = h(w);
                    if hw.is_infinite() {
                        // Heuristic proves this neighbor useless: the
                        // search never enqueues it.
                        prunes += 1;
                        continue;
                    }
                    self.dist[wi] = ng;
                    self.parent_edge[wi] = e.index() as u32;
                    heap.push(HeapEntry {
                        dist: ng + hw,
                        node: wi as u32,
                    });
                }
            }
        }

        if obs::enabled() {
            // Handles are resolved once per thread: A* runs thousands of
            // times per attack, so per-search name lookups would dominate
            // the enabled-mode overhead.
            thread_local! {
                static STATS: [obs::Counter; 5] = [
                    obs::global().counter("routing.astar.searches"),
                    obs::global().counter("routing.astar.pops"),
                    obs::global().counter("routing.astar.relaxations"),
                    obs::global().counter("routing.astar.heuristic_prunes"),
                    obs::global().counter("routing.astar.bound_prunes"),
                ];
            }
            STATS.with(|[searches, c_pops, c_relax, c_prunes, c_bound]| {
                searches.add(1);
                c_pops.add(pops);
                c_relax.add(relaxations);
                c_prunes.add(prunes);
                c_bound.add(bound_prunes);
            });
            // One trace point per search (not per pop): cheap enough to
            // stay sampling-free, detailed enough to explain a slow
            // request's oracle work in the slow-query log.
            obs::trace::point(
                "astar.search",
                &[
                    ("pops", obs::AttrValue::U64(pops)),
                    ("relaxations", obs::AttrValue::U64(relaxations)),
                ],
            );
        }

        if found {
            self.extract(view, source, target)
        } else {
            None
        }
    }

    fn extract(&self, view: &GraphView<'_>, source: NodeId, target: NodeId) -> Option<Path> {
        let net = view.network();
        let mut edges = Vec::new();
        let mut v = target.index();
        while v != source.index() {
            let pe = self.parent_edge[v];
            if pe == NO_EDGE {
                return None;
            }
            let e = EdgeId::new(pe as usize);
            edges.push(e);
            v = net.edge_source(e).index();
        }
        edges.reverse();
        let mut nodes = Vec::with_capacity(edges.len() + 1);
        nodes.push(source);
        for &e in &edges {
            nodes.push(net.edge_target(e));
        }
        Some(Path::from_parts(nodes, edges, self.dist[target.index()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dijkstra, Direction};
    use traffic_graph::{Point, RoadClass, RoadNetwork, RoadNetworkBuilder};

    /// 4×4 two-way grid with 100 m blocks.
    fn grid4() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new("grid4");
        let mut nodes = Vec::new();
        for y in 0..4 {
            for x in 0..4 {
                nodes.push(b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0)));
            }
        }
        for y in 0..4 {
            for x in 0..4 {
                let i = y * 4 + x;
                if x + 1 < 4 {
                    b.add_street(nodes[i], nodes[i + 1], RoadClass::Residential);
                }
                if y + 1 < 4 {
                    b.add_street(nodes[i], nodes[i + 4], RoadClass::Residential);
                }
            }
        }
        b.build()
    }

    #[test]
    fn astar_matches_dijkstra_with_euclidean_heuristic() {
        let net = grid4();
        let view = GraphView::new(&net);
        let weight = |e: EdgeId| net.edge_attrs(e).length_m;
        let s = NodeId::new(0);
        let t = NodeId::new(15);
        let tp = net.node_point(t);

        let mut astar = AStar::new(net.num_nodes());
        let pa = astar
            .shortest_path(&view, weight, |v| net.node_point(v).distance(tp), s, t)
            .unwrap();
        let mut dij = Dijkstra::new(net.num_nodes());
        let pd = dij.shortest_path(&view, weight, s, t).unwrap();
        assert!((pa.total_weight() - pd.total_weight()).abs() < 1e-9);
        assert_eq!(pa.total_weight(), 600.0);
    }

    #[test]
    fn astar_with_exact_reverse_distances_matches_after_removals() {
        let net = grid4();
        let mut view = GraphView::new(&net);
        let weight = |e: EdgeId| net.edge_attrs(e).length_m;
        let s = NodeId::new(0);
        let t = NodeId::new(15);

        // exact reverse distances on the intact graph
        let mut dij = Dijkstra::new(net.num_nodes());
        let rev = dij.distances(&view, weight, t, Direction::Backward);

        // now remove a couple of edges; rev stays admissible
        let e1 = net.find_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        view.remove_edge(e1);
        let mut astar = AStar::new(net.num_nodes());
        let pa = astar
            .shortest_path(&view, weight, |v| rev[v.index()], s, t)
            .unwrap();
        let pd = dij.shortest_path(&view, weight, s, t).unwrap();
        assert!((pa.total_weight() - pd.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn astar_unreachable_returns_none() {
        let net = grid4();
        let mut view = GraphView::new(&net);
        for e in net.edges() {
            view.remove_edge(e);
        }
        let mut astar = AStar::new(net.num_nodes());
        assert!(astar
            .shortest_path(&view, |_| 1.0, |_| 0.0, NodeId::new(0), NodeId::new(15))
            .is_none());
    }

    #[test]
    fn astar_infinite_heuristic_prunes() {
        let net = grid4();
        let view = GraphView::new(&net);
        let mut astar = AStar::new(net.num_nodes());
        // heuristic says the source itself cannot reach the target
        assert!(astar
            .shortest_path(
                &view,
                |_| 1.0,
                |_| f64::INFINITY,
                NodeId::new(0),
                NodeId::new(15)
            )
            .is_none());
    }

    #[test]
    fn astar_trivial_when_source_is_target() {
        let net = grid4();
        let view = GraphView::new(&net);
        let mut astar = AStar::new(net.num_nodes());
        let p = astar
            .shortest_path(&view, |_| 1.0, |_| 0.0, NodeId::new(3), NodeId::new(3))
            .unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn astar_reusable() {
        let net = grid4();
        let view = GraphView::new(&net);
        let weight = |e: EdgeId| net.edge_attrs(e).length_m;
        let mut astar = AStar::new(net.num_nodes());
        for t in 1..16 {
            let t = NodeId::new(t);
            let tp = net.node_point(t);
            let p = astar
                .shortest_path(
                    &view,
                    weight,
                    |v| net.node_point(v).distance(tp),
                    NodeId::new(0),
                    t,
                )
                .unwrap();
            assert!(p.total_weight() > 0.0);
        }
    }
}
