//! Equivalence proof for lazy spur evaluation in Yen's algorithm.
//!
//! `k_shortest_paths_with` evaluates each spur lazily: the spur enters
//! the B-heap under a lower bound and its A* search runs only when the
//! bound reaches the top. This suite keeps the eager algorithm — every
//! spur of every accepted path searched at once, exactly as the
//! enumeration ran before it went lazy — as a reference that lives only
//! here, and requires the lazy one to return the same paths: the same
//! edge lists, the same `total_weight()` bits, in the same order. The
//! cases aim at the places where the two could drift apart: many ties
//! (small integer weights, zero weights, equal grid blocks), float
//! weights whose sums depend on summation order, caller-removed edges,
//! a reverse table computed on a supergraph, plain Dijkstra spurs, and
//! targets behind a dead end, whose spurs the enumeration proves
//! pathless with a backward scan instead of searching them.
//! A last property cancels the enumeration from inside the weight
//! function and requires a prefix of the uncancelled result.

use proptest::prelude::*;
use routing::{k_shortest_paths_with, AStar, CancelToken, Dijkstra, Direction, YenConfig};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;
use traffic_graph::{
    EdgeAttrs, EdgeId, GraphView, NodeId, Point, RoadClass, RoadNetwork, RoadNetworkBuilder,
};

/// A path of the reference enumeration: edges, nodes and total weight.
#[derive(Debug, Clone)]
struct RefPath {
    edges: Vec<EdgeId>,
    nodes: Vec<NodeId>,
    total: f64,
}

/// Eager B-heap entry, ordered cheapest-first with ties broken by edge
/// count, then edge ids.
struct RefCandidate {
    path: RefPath,
    deviation: usize,
}

impl PartialEq for RefCandidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for RefCandidate {}
impl PartialOrd for RefCandidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RefCandidate {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .path
            .total
            .total_cmp(&self.path.total)
            .then_with(|| other.path.edges.len().cmp(&self.path.edges.len()))
            .then_with(|| other.path.edges.cmp(&self.path.edges))
    }
}

/// Eager Yen with Lawler's optimization: after each acceptance, every
/// spur of the accepted path is searched with A* guided by `rev`.
fn eager_yen<F>(
    view: &GraphView<'_>,
    weight: F,
    source: NodeId,
    target: NodeId,
    k: usize,
    rev: &[f64],
) -> Vec<RefPath>
where
    F: Fn(EdgeId) -> f64,
{
    if k == 0 {
        return Vec::new();
    }
    let net = view.network();
    let Some(first) = Dijkstra::new(net.num_nodes()).shortest_path(view, &weight, source, target)
    else {
        return Vec::new();
    };
    let first = RefPath {
        edges: first.edges().to_vec(),
        nodes: first.nodes().to_vec(),
        total: first.total_weight(),
    };
    if source == target {
        return vec![first];
    }
    let mut astar = AStar::new(net.num_nodes());
    let mut work = view.clone();
    let mut seen: HashSet<Vec<EdgeId>> = HashSet::new();
    seen.insert(first.edges.clone());
    let mut accepted: Vec<(RefPath, usize)> = vec![(first, 0)];
    let mut heap: BinaryHeap<RefCandidate> = BinaryHeap::new();

    while accepted.len() < k {
        let (prev, dev_start) = accepted.last().map(|(p, d)| (p.clone(), *d)).unwrap();
        let lcp: Vec<usize> = accepted
            .iter()
            .map(|(p, _)| {
                p.edges
                    .iter()
                    .zip(&prev.edges)
                    .take_while(|(a, b)| a == b)
                    .count()
            })
            .collect();
        let mut prefix_w = vec![0.0];
        for &e in &prev.edges {
            prefix_w.push(prefix_w.last().unwrap() + weight(e));
        }
        #[allow(clippy::needless_range_loop)] // i indexes nodes, edges and prefix weights together
        for i in dev_start..prev.edges.len() {
            let mut removed = Vec::new();
            for ((p, _), &l) in accepted.iter().zip(&lcp) {
                if l >= i && p.edges.len() > i && work.remove_edge(p.edges[i]) {
                    removed.push(p.edges[i]);
                }
            }
            for &v in &prev.nodes[..i] {
                for e in net.out_edges(v) {
                    if work.remove_edge(e) {
                        removed.push(e);
                    }
                }
            }
            if let Some(spur) =
                astar.shortest_path(&work, &weight, |v| rev[v.index()], prev.nodes[i], target)
            {
                let mut edges = prev.edges[..i].to_vec();
                edges.extend_from_slice(spur.edges());
                if seen.insert(edges.clone()) {
                    let mut nodes = prev.nodes[..=i].to_vec();
                    nodes.extend_from_slice(&spur.nodes()[1..]);
                    heap.push(RefCandidate {
                        path: RefPath {
                            edges,
                            nodes,
                            total: prefix_w[i] + spur.total_weight(),
                        },
                        deviation: i,
                    });
                }
            }
            for e in removed {
                work.restore_edge(e);
            }
        }
        match heap.pop() {
            Some(c) => accepted.push((c.path, c.deviation)),
            None => break,
        }
    }
    accepted.into_iter().map(|(p, _)| p).collect()
}

fn length(net: &RoadNetwork) -> impl Fn(EdgeId) -> f64 + '_ {
    move |e| net.edge_attrs(e).length_m
}

/// Directed network on `n` nodes; each arc's length is
/// `weights[choice % weights.len()]`.
fn digraph(n: usize, arcs: &[(usize, usize, usize)], weights: &[f64]) -> RoadNetwork {
    let mut b = RoadNetworkBuilder::new("digraph");
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| b.add_node(Point::new((i % 4) as f64 * 100.0, (i / 4) as f64 * 100.0)))
        .collect();
    for &(u, v, choice) in arcs {
        let w = weights[choice % weights.len()];
        let mut attrs = EdgeAttrs::from_class(RoadClass::Residential, w);
        attrs.length_m = w;
        b.add_edge(nodes[u % n], nodes[v % n], attrs);
    }
    b.build()
}

/// Two-way `w × h` lattice with equal 100 m blocks.
fn lattice(w: usize, h: usize) -> RoadNetwork {
    lattice_builder(w, h).0.build()
}

/// The unbuilt [`lattice`] and its nodes, row by row.
fn lattice_builder(w: usize, h: usize) -> (RoadNetworkBuilder, Vec<NodeId>) {
    let mut b = RoadNetworkBuilder::new("lattice");
    let nodes: Vec<NodeId> = (0..w * h)
        .map(|i| b.add_node(Point::new((i % w) as f64 * 100.0, (i / w) as f64 * 100.0)))
        .collect();
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            if x + 1 < w {
                b.add_street(nodes[i], nodes[i + 1], RoadClass::Residential);
            }
            if y + 1 < h {
                b.add_street(nodes[i], nodes[i + w], RoadClass::Residential);
            }
        }
    }
    (b, nodes)
}

/// Two-way `w × h` lattice of 100 m blocks with the target at the end
/// of a one-way chain of `chain` arcs hung off lattice node `entry`.
/// Every spur on the chain is cut off from the target; on lattices past
/// the scan limit (256 nodes) the backward scan from the target gives
/// up before it meets a spur node in the lattice.
fn lattice_with_dead_end(w: usize, h: usize, entry: usize, chain: usize) -> (RoadNetwork, NodeId) {
    let (mut b, nodes) = lattice_builder(w, h);
    let mut last = nodes[entry];
    for c in 0..chain {
        let next = b.add_node(Point::new(-100.0 * (c + 1) as f64, -100.0));
        let mut attrs = EdgeAttrs::from_class(RoadClass::Residential, 100.0);
        attrs.length_m = 100.0;
        b.add_edge(last, next, attrs);
        last = next;
    }
    (b.build(), last)
}

/// Three routes from `s` to `t` — `s-a-t` (2000 m), `s-b-t` (2100 m)
/// and `s-a-d-t` (2200 m) — plus a 60 x 60 lattice of 1 m blocks hung
/// off `s` that leads nowhere. A plain spur search from `s` settles the
/// whole lattice before it reaches `t`, passing the searches'
/// cancellation stride several times, so a token cancelled mid-search
/// aborts the search that finds `s-b-t`.
fn routes_past_a_dead_end() -> (RoadNetwork, NodeId, NodeId) {
    let mut b = RoadNetworkBuilder::new("dead-end");
    let arc = |b: &mut RoadNetworkBuilder, u, v, w: f64| {
        let mut attrs = EdgeAttrs::from_class(RoadClass::Residential, w);
        attrs.length_m = w;
        b.add_edge(u, v, attrs);
    };
    let [s, a, bb, d, t] =
        [0.0, 1.0, 2.0, 3.0, 4.0].map(|x| b.add_node(Point::new(x * 1000.0, -1000.0)));
    for (u, v, w) in [
        (s, a, 1000.0),
        (a, t, 1000.0),
        (s, bb, 1000.0),
        (bb, t, 1100.0),
        (a, d, 600.0),
        (d, t, 600.0),
    ] {
        arc(&mut b, u, v, w);
    }
    let side = 60;
    let cells: Vec<NodeId> = (0..side * side)
        .map(|i| b.add_node(Point::new((i % side) as f64, (i / side) as f64)))
        .collect();
    arc(&mut b, s, cells[0], 1.0);
    for i in 0..side * side {
        for j in [i + 1, i + side] {
            if j < side * side && (j != i + 1 || j % side != 0) {
                arc(&mut b, cells[i], cells[j], 1.0);
                arc(&mut b, cells[j], cells[i], 1.0);
            }
        }
    }
    (b.build(), s, t)
}

fn backward(view: &GraphView<'_>, target: NodeId) -> Vec<f64> {
    let net = view.network();
    Dijkstra::new(net.num_nodes()).distances(view, length(net), target, Direction::Backward)
}

/// Runs lazy Yen under `config` and the eager reference under `rev`,
/// and requires identical paths, in the same order.
fn assert_same_paths(
    view: &GraphView<'_>,
    s: NodeId,
    t: NodeId,
    k: usize,
    config: &YenConfig,
    rev: &[f64],
) -> Result<(), TestCaseError> {
    let net = view.network();
    let lazy = k_shortest_paths_with(view, length(net), s, t, k, config);
    let eager = eager_yen(view, length(net), s, t, k, rev);
    prop_assert_eq!(lazy.len(), eager.len(), "path counts differ");
    for (i, (l, e)) in lazy.iter().zip(&eager).enumerate() {
        prop_assert_eq!(l.edges(), e.edges.as_slice(), "path {} edges differ", i);
        prop_assert_eq!(
            l.total_weight().to_bits(),
            e.total.to_bits(),
            "path {} total {} vs {}",
            i,
            l.total_weight(),
            e.total
        );
    }
    Ok(())
}

/// (node count, arcs as (from, to, weight choice), removal mask, k).
/// A mask value of 0 (one in five) removes the edge.
type Instance = (usize, Vec<(usize, usize, usize)>, Vec<u8>, usize);

fn instances() -> impl Strategy<Value = Instance> {
    (4usize..16).prop_flat_map(|n| {
        (
            Just(n),
            prop::collection::vec((0..n, 0..n, 0usize..3), n..5 * n),
            prop::collection::vec(0u8..5, 5 * n),
            1usize..=150,
        )
    })
}

fn removed_view<'a>(net: &'a RoadNetwork, mask: &[u8]) -> GraphView<'a> {
    let mut view = GraphView::new(net);
    for e in net.edges() {
        if mask[e.index() % mask.len()] == 0 {
            view.remove_edge(e);
        }
    }
    view
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn integer_weight_digraphs((n, arcs, _, k) in instances()) {
        let net = digraph(n, &arcs, &[1.0, 2.0, 3.0]);
        let view = GraphView::new(&net);
        let (s, t) = (NodeId::new(0), NodeId::new(n - 1));
        assert_same_paths(&view, s, t, k, &YenConfig::default(), &backward(&view, t))?;
    }

    #[test]
    fn fractional_weight_digraphs((n, arcs, _, k) in instances()) {
        // Sums of tenths round differently forward and backward.
        let net = digraph(n, &arcs, &[0.1, 0.2, 0.7]);
        let view = GraphView::new(&net);
        let (s, t) = (NodeId::new(0), NodeId::new(n - 1));
        assert_same_paths(&view, s, t, k, &YenConfig::default(), &backward(&view, t))?;
    }

    #[test]
    fn zero_weight_digraphs((n, arcs, _, k) in instances()) {
        // Zero-weight arcs make bounds equal to exact totals, so a
        // pending spur and a found candidate can share a key.
        let net = digraph(n, &arcs, &[0.0, 0.0, 1.0]);
        let view = GraphView::new(&net);
        let (s, t) = (NodeId::new(0), NodeId::new(n - 1));
        assert_same_paths(&view, s, t, k, &YenConfig::default(), &backward(&view, t))?;
    }

    #[test]
    fn equal_block_lattices(
        w in 2usize..6,
        h in 2usize..6,
        ends in (0usize..36, 0usize..36),
        k in 1usize..=150,
    ) {
        let net = lattice(w, h);
        let view = GraphView::new(&net);
        let s = NodeId::new(ends.0 % (w * h));
        let t = NodeId::new(ends.1 % (w * h));
        assert_same_paths(&view, s, t, k, &YenConfig::default(), &backward(&view, t))?;
    }

    #[test]
    fn dead_end_targets(
        w in 2usize..24,
        h in 10usize..24,
        ends in (0usize..576, 0usize..576),
        chain in 1usize..4,
        k in 1usize..=40,
    ) {
        let (net, t) = lattice_with_dead_end(w, h, ends.1 % (w * h), chain);
        let view = GraphView::new(&net);
        let s = NodeId::new(ends.0 % (w * h));
        assert_same_paths(&view, s, t, k, &YenConfig::default(), &backward(&view, t))?;
    }

    #[test]
    fn caller_removed_edges((n, arcs, mask, k) in instances()) {
        let net = digraph(n, &arcs, &[1.0, 2.0, 3.0]);
        let view = removed_view(&net, &mask);
        let (s, t) = (NodeId::new(0), NodeId::new(n - 1));
        assert_same_paths(&view, s, t, k, &YenConfig::default(), &backward(&view, t))?;
    }

    #[test]
    fn shared_reverse_table_from_a_supergraph((n, arcs, mask, k) in instances()) {
        let net = digraph(n, &arcs, &[1.0, 2.0, 3.0]);
        let t = NodeId::new(n - 1);
        let rev = backward(&GraphView::new(&net), t);
        let view = removed_view(&net, &mask);
        let config = YenConfig {
            shared_reverse: Some(Arc::new(rev.clone())),
            ..YenConfig::default()
        };
        assert_same_paths(&view, NodeId::new(0), t, k, &config, &rev)?;
    }

    #[test]
    fn plain_dijkstra_spurs((n, arcs, mask, k) in instances()) {
        let net = digraph(n, &arcs, &[1.0, 2.0, 3.0]);
        let view = removed_view(&net, &mask);
        let config = YenConfig {
            reverse_heuristic: false,
            ..YenConfig::default()
        };
        let zeros = vec![0.0; net.num_nodes()];
        assert_same_paths(&view, NodeId::new(0), NodeId::new(n - 1), k, &config, &zeros)?;
    }

    #[test]
    fn cancellation_returns_a_prefix(m in 0usize..50_000, k in 1usize..=6, heuristic in 0u8..2) {
        let (net, s, t) = routes_past_a_dead_end();
        let view = GraphView::new(&net);
        let config = YenConfig {
            reverse_heuristic: heuristic == 1,
            ..YenConfig::default()
        };
        let full = k_shortest_paths_with(&view, length(&net), s, t, k, &config);

        let token = CancelToken::new();
        let calls = Cell::new(0usize);
        let weight = |e: EdgeId| {
            calls.set(calls.get() + 1);
            if calls.get() == m {
                token.cancel();
            }
            net.edge_attrs(e).length_m
        };
        let config = YenConfig {
            cancel: Some(token.clone()),
            ..config
        };
        let cut = k_shortest_paths_with(&view, weight, s, t, k, &config);
        prop_assert!(cut.len() <= full.len());
        for (i, (c, f)) in cut.iter().zip(&full).enumerate() {
            prop_assert_eq!(c.edges(), f.edges(), "path {} differs", i);
            prop_assert_eq!(c.total_weight().to_bits(), f.total_weight().to_bits());
        }
        if !token.is_cancelled() {
            prop_assert_eq!(cut.len(), full.len());
        }
    }
}
