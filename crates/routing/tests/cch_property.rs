//! Property tests for the customizable contraction hierarchy: on random
//! directed networks with integer-valued weights, CCH point queries and
//! PHAST one-to-all sweeps must be bit-identical to plain Dijkstra —
//! including disconnected pairs (`f64::INFINITY`) — and partial
//! re-customization after removals, restores, and overlay deltas must
//! land on exactly the distances a from-scratch customization yields.
//!
//! Integer weights make the equality exact rather than approximate:
//! every path sum stays below 2^53, so `f64` addition is exact and the
//! minimum is independent of association order.

use proptest::prelude::*;
use routing::{CchSearch, Dijkstra, Direction, WeightOverlay};
use traffic_graph::{
    EdgeAttrs, EdgeId, FrozenGraph, GraphView, NodeId, Point, RoadClass, RoadNetwork,
    RoadNetworkBuilder,
};

fn network_from(n_nodes: usize, arcs: &[(usize, usize, u32)]) -> RoadNetwork {
    let mut b = RoadNetworkBuilder::new("prop");
    let nodes: Vec<NodeId> = (0..n_nodes)
        .map(|i| b.add_node(Point::new((i % 5) as f64 * 100.0, (i / 5) as f64 * 100.0)))
        .collect();
    for &(u, v, w) in arcs {
        let len = (1 + w) as f64;
        let mut attrs = EdgeAttrs::from_class(RoadClass::Residential, len);
        attrs.length_m = len;
        b.add_edge(nodes[u % n_nodes], nodes[v % n_nodes], attrs);
    }
    b.build()
}

fn weight(net: &RoadNetwork) -> impl Fn(EdgeId) -> f64 + '_ {
    move |e| net.edge_attrs(e).length_m
}

/// Fresh backward sweep on the view — the ground truth.
fn fresh_backward(net: &RoadNetwork, view: &GraphView<'_>, target: NodeId) -> Vec<f64> {
    Dijkstra::new(net.num_nodes())
        .distances_and_parents(view, weight(net), target, Direction::Backward)
        .0
}

/// (node count, arc list, removal sequence, overlay deltas).
type Instance = (
    usize,
    Vec<(usize, usize, u32)>,
    Vec<usize>,
    Vec<(usize, u32)>,
);

fn instances() -> impl Strategy<Value = Instance> {
    (3usize..14).prop_flat_map(|n| {
        let arcs = prop::collection::vec((0..n, 0..n, 0u32..400), 1..48);
        arcs.prop_flat_map(move |arcs| {
            let m = arcs.len();
            let removals = prop::collection::vec(0..m, 0..m.min(10) + 1);
            let deltas = prop::collection::vec((0..m, 0u32..200), 0..6);
            (Just(n), Just(arcs), removals, deltas)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn queries_and_sweeps_match_dijkstra_bits((n, arcs, _, _) in instances()) {
        let net = network_from(n, &arcs);
        let frozen = FrozenGraph::freeze(&net);
        let cch = routing::Cch::build(&frozen);
        let metric = cch.customize(weight(&net));
        let view = GraphView::new(&net);
        let mut search = CchSearch::new();
        let mut dij = Dijkstra::new(n);
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        for t in 0..n {
            let target = NodeId::new(t);
            let fresh = fresh_backward(&net, &view, target);
            cch.reverse_distances(&metric, target, &mut out, &mut scratch);
            for s in 0..n {
                prop_assert_eq!(
                    out[s].to_bits(),
                    fresh[s].to_bits(),
                    "PHAST {}->{} diverged: {} != {}", s, t, out[s], fresh[s]
                );
                let got = search.query(&cch, &metric, NodeId::new(s), target);
                let want = dij
                    .shortest_path(&view, weight(&net), NodeId::new(s), target)
                    .map_or(f64::INFINITY, |p| p.total_weight());
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "query {}->{} diverged: {} != {}", s, t, got, want
                );
            }
        }
    }

    #[test]
    fn recustomization_tracks_removals_and_overlays(
        (n, arcs, removals, deltas) in instances()
    ) {
        let net = network_from(n, &arcs);
        let frozen = FrozenGraph::freeze(&net);
        let cch = routing::Cch::build(&frozen);
        let mut metric = cch.customize(weight(&net));
        let mut view = GraphView::new(&net);
        let (mut out, mut scratch) = (Vec::new(), Vec::new());

        // Removal = INF seed weight on the dirty edge; after each step
        // the incrementally repaired metric must yield the same sweeps
        // as a from-scratch customization of the masked weight.
        for (step, &r) in removals.iter().enumerate() {
            let e = EdgeId::new(r);
            view.remove_edge(e);
            let masked = |e: EdgeId| {
                if view.is_removed(e) { f64::INFINITY } else { weight(&net)(e) }
            };
            cch.recustomize(&mut metric, masked, [e]);
            for t in 0..n {
                let target = NodeId::new(t);
                let fresh = fresh_backward(&net, &view, target);
                cch.reverse_distances(&metric, target, &mut out, &mut scratch);
                for s in 0..n {
                    prop_assert_eq!(
                        out[s].to_bits(),
                        fresh[s].to_bits(),
                        "step {} target {} node {}: {} != {}", step, t, s, out[s], fresh[s]
                    );
                }
            }
        }

        // Restore everything, then layer positive overlay deltas on: the
        // re-customized metric must match a full customization of the
        // composed weight, checked through every one-to-all sweep.
        view.reset();
        let restored: Vec<EdgeId> = removals.iter().map(|&r| EdgeId::new(r)).collect();
        cch.recustomize(&mut metric, weight(&net), restored);
        let mut overlay = WeightOverlay::new(net.num_edges());
        for &(i, d) in &deltas {
            overlay.set(EdgeId::new(i), d as f64);
        }
        let composed = overlay.compose(weight(&net));
        let dirty: Vec<EdgeId> = overlay.perturbed_edges().map(|(e, _)| e).collect();
        cch.recustomize(&mut metric, &composed, dirty);
        let full = cch.customize(&composed);
        for t in 0..n {
            let target = NodeId::new(t);
            cch.reverse_distances(&metric, target, &mut out, &mut scratch);
            let incremental = out.clone();
            cch.reverse_distances(&full, target, &mut out, &mut scratch);
            for s in 0..n {
                prop_assert_eq!(
                    incremental[s].to_bits(),
                    out[s].to_bits(),
                    "overlay target {} node {}: {} != {}", t, s, incremental[s], out[s]
                );
            }
        }
    }
}
