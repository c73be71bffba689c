//! The benchmark's own exclusivity certificate.
//!
//! It shares nothing with the pruning stack that produced an answer: no
//! Yen, no A*, no repaired tables, no hierarchy. Two plain
//! [`routing::Dijkstra`] sweeps on the mutated graph — forward from `s`,
//! backward from `t` — decide whether `p*` is the exclusive shortest
//! path:
//!
//! - `d_s(t) = w(p*)`, and
//! - every live arc `(u, v)` off `p*` has `d_s(u) + w + d_t(v)` beyond
//!   `w(p*)` by more than the problem's tie margin.
//!
//! The tie margin is the library's own definition
//! ([`pathattack::AttackProblem::tie_margin`]), passed in by the caller,
//! so "exclusive" means the same thing on both sides.
//!
//! Every other `s`–`t` path uses some arc off `p*`, so the second
//! condition bounds all of them at once.

use routing::{Dijkstra, Direction, Path, WeightOverlay};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use traffic_graph::{EdgeId, GraphView, RoadNetwork};

static RUNS: AtomicU64 = AtomicU64::new(0);
static NANOS: AtomicU64 = AtomicU64::new(0);

/// (exclusivity tests run, total milliseconds) in this process.
pub fn spent() -> (u64, f64) {
    (
        RUNS.load(Ordering::Relaxed),
        NANOS.load(Ordering::Relaxed) as f64 / 1e6,
    )
}

/// Certifies a cut answer: `removed` leaves `p*` intact and makes it the
/// exclusive shortest path, alternatives within `margin` of `w(p*)`
/// counting as ties. With `costs`, also re-adds the cut's cost and
/// compares it to the reported total.
pub fn check_cut(
    net: &RoadNetwork,
    weights: &[f64],
    costs: Option<(&[f64], f64)>,
    pstar: &Path,
    removed: &[EdgeId],
    margin: f64,
) -> Result<(), String> {
    let mut view = GraphView::new(net);
    for &e in removed {
        if e.index() >= net.num_edges() {
            return Err(format!("cut edge {e} does not exist"));
        }
        if pstar.contains_edge(e) {
            return Err(format!("cut edge {e} lies on p*"));
        }
        if !view.remove_edge(e) {
            return Err(format!("cut edge {e} listed twice"));
        }
    }
    if let Some((costs, reported)) = costs {
        let total: f64 = removed.iter().map(|e| costs[e.index()]).sum();
        if (total - reported).abs() > 1e-6 * total.max(1.0) {
            return Err(format!("cut cost {total} differs from reported {reported}"));
        }
    }
    check_exclusive(&view, |e| weights[e.index()], pstar, margin)
}

/// Certifies a perturbation answer: non-negative increases on arcs off
/// `p*` after which `p*` is the exclusive shortest path under `w + δ`,
/// with the tie `margin` of [`check_cut`].
pub fn check_perturb(
    net: &RoadNetwork,
    weights: &[f64],
    pstar: &Path,
    perturbed: &[(EdgeId, f64)],
    margin: f64,
) -> Result<(), String> {
    let mut overlay = WeightOverlay::new(net.num_edges());
    for &(e, delta) in perturbed {
        if e.index() >= net.num_edges() {
            return Err(format!("perturbed edge {e} does not exist"));
        }
        if pstar.contains_edge(e) {
            return Err(format!("perturbed edge {e} lies on p*"));
        }
        if !(delta.is_finite() && delta >= 0.0) {
            return Err(format!("edge {e} has invalid increase {delta}"));
        }
        overlay.set(e, delta);
    }
    let weight = overlay.compose(|e| weights[e.index()]);
    check_exclusive(&GraphView::new(net), weight, pstar, margin)
}

/// The two-sweep exclusivity test on an already mutated view.
pub fn check_exclusive<F>(
    view: &GraphView<'_>,
    weight: F,
    pstar: &Path,
    margin: f64,
) -> Result<(), String>
where
    F: Fn(EdgeId) -> f64,
{
    let started = Instant::now();
    let verdict = exclusive(view, weight, pstar, margin);
    RUNS.fetch_add(1, Ordering::Relaxed);
    NANOS.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    verdict
}

fn exclusive<F>(view: &GraphView<'_>, weight: F, pstar: &Path, margin: f64) -> Result<(), String>
where
    F: Fn(EdgeId) -> f64,
{
    let net = view.network();
    if let Some(&e) = pstar.edges().iter().find(|&&e| view.is_removed(e)) {
        return Err(format!("p* edge {e} is not in the graph"));
    }
    let w_pstar: f64 = pstar.edges().iter().map(|&e| weight(e)).sum();
    let mut dij = Dijkstra::new(net.num_nodes());
    let from_s = dij.distances(view, &weight, pstar.source(), Direction::Forward);
    let to_t = dij.distances(view, &weight, pstar.target(), Direction::Backward);
    let d_st = from_s[pstar.target().index()];
    if (d_st - w_pstar).abs() > margin {
        return Err(format!("d_s(t) = {d_st} but w(p*) = {w_pstar}"));
    }
    let on_pstar = {
        let mut mask = vec![false; net.num_edges()];
        for &e in pstar.edges() {
            mask[e.index()] = true;
        }
        mask
    };
    for e in net.edges() {
        if on_pstar[e.index()] || view.is_removed(e) {
            continue;
        }
        let (u, v) = net.edge_endpoints(e);
        let through = from_s[u.index()] + weight(e) + to_t[v.index()];
        if through <= w_pstar + margin {
            return Err(format!(
                "arc {e} closes an alternative of weight {through} <= w(p*) = {w_pstar}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathattack::{AttackAlgorithm, AttackProblem, CostType, GreedyPathCover, WeightType};
    use traffic_graph::{EdgeAttrs, NodeId, Point, RoadClass, RoadNetworkBuilder};

    /// s → a → t (10) is p*; s → b → t (4) and s → c → t (6) undercut
    /// it. Returns the network, p*, and the arcs s→b, b→t, s→c, c→t.
    fn two_detours() -> (RoadNetwork, Path, [EdgeId; 4]) {
        let mut b = RoadNetworkBuilder::new("detours");
        let s = b.add_node(Point::new(0.0, 0.0));
        let a = b.add_node(Point::new(1.0, 2.0));
        let nb = b.add_node(Point::new(1.0, 0.0));
        let nc = b.add_node(Point::new(1.0, -2.0));
        let t = b.add_node(Point::new(2.0, 0.0));
        let arcs = [
            (s, a, 5.0),
            (a, t, 5.0),
            (s, nb, 2.0),
            (nb, t, 2.0),
            (s, nc, 3.0),
            (nc, t, 3.0),
        ];
        for (from, to, len) in arcs {
            b.add_edge(from, to, EdgeAttrs::from_class(RoadClass::Primary, len));
        }
        let net = b.build();
        let e = |from, to| net.find_edge(from, to).unwrap();
        let detours = [e(s, nb), e(nb, t), e(s, nc), e(nc, t)];
        let pstar =
            Path::from_edges(&net, vec![e(s, a), e(a, t)], |e| net.edge_attrs(e).length_m).unwrap();
        (net, pstar, detours)
    }

    /// Tie margin for the hand-built `p*` of weight 10.
    const MARGIN: f64 = 1e-8;

    fn lengths(net: &RoadNetwork) -> Vec<f64> {
        net.edges().map(|e| net.edge_attrs(e).length_m).collect()
    }

    #[test]
    fn exact_cut_is_accepted_and_every_one_edge_drop_rejected() {
        let (net, pstar, [sb, _, sc, _]) = two_detours();
        let w = lengths(&net);
        let cut = [sb, sc];
        check_cut(&net, &w, None, &pstar, &cut, MARGIN).unwrap();
        for drop in 0..cut.len() {
            let mut partial = cut.to_vec();
            partial.remove(drop);
            assert!(check_cut(&net, &w, None, &pstar, &partial, MARGIN).is_err());
        }
    }

    #[test]
    fn a_tie_is_not_exclusive() {
        let (net, pstar, [sb, bt, sc, _]) = two_detours();
        let w = lengths(&net);
        // Raising both detours to exactly w(p*) = 10 leaves two ties.
        let tie = [(sb, 3.0), (bt, 3.0), (sc, 4.0)];
        assert!(check_perturb(&net, &w, &pstar, &tie, MARGIN).is_err());
        let strict = [(sb, 3.5), (bt, 3.0), (sc, 4.5)];
        check_perturb(&net, &w, &pstar, &strict, MARGIN).unwrap();
    }

    #[test]
    fn cuts_on_pstar_and_wrong_costs_are_rejected() {
        let (net, pstar, [sb, _, sc, _]) = two_detours();
        let w = lengths(&net);
        let cut = [sb, sc];
        assert!(check_cut(&net, &w, None, &pstar, &[pstar.edges()[0]], MARGIN).is_err());
        let ones = vec![1.0; net.num_edges()];
        check_cut(&net, &w, Some((&ones, 2.0)), &pstar, &cut, MARGIN).unwrap();
        assert!(check_cut(&net, &w, Some((&ones, 3.0)), &pstar, &cut, MARGIN).is_err());
    }

    #[test]
    fn real_attack_passes_and_dropping_a_needed_cut_fails() {
        let net = citygen::CityPreset::Boston.build(citygen::Scale::Small, 42);
        let hospital = net
            .pois_of_kind(traffic_graph::PoiKind::Hospital)
            .next()
            .unwrap()
            .node;
        let problem = AttackProblem::with_path_rank(
            &net,
            WeightType::Time,
            CostType::Uniform,
            NodeId::new(3),
            hospital,
            8,
        )
        .unwrap();
        let out = GreedyPathCover.attack(&problem);
        assert!(out.is_success() && !out.removed.is_empty());
        let costs = CostType::Uniform.compute(&net);
        check_cut(
            &net,
            problem.weights(),
            Some((&costs, out.total_cost)),
            problem.pstar(),
            &out.removed,
            problem.tie_margin(),
        )
        .unwrap();
        // Each one-edge drop must agree with the library's own verifier,
        // and at least one cut edge is needed.
        let mut rejected = 0;
        for drop in 0..out.removed.len() {
            let mut partial = out.clone();
            partial.removed.remove(drop);
            partial.total_cost = partial.removed.len() as f64;
            let ours = check_cut(
                &net,
                problem.weights(),
                None,
                problem.pstar(),
                &partial.removed,
                problem.tie_margin(),
            );
            assert_eq!(
                ours.is_ok(),
                partial.verify(&problem).is_ok(),
                "drop {drop}"
            );
            rejected += usize::from(ours.is_err());
        }
        assert!(rejected > 0);
    }
}
