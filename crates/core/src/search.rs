//! The violating-path oracle shared by all four attack algorithms.
//!
//! Every algorithm in the paper iterates "find a path that is still at
//! least as short as `p*`, then cut something on it". The oracle answers
//! that query efficiently:
//!
//! - the main s→t query runs A\* guided by exact distances-to-target
//!   computed once on the pre-attack view (removals only lengthen paths,
//!   so the heuristic stays admissible for the entire attack);
//! - when the shortest path *is* `p*` itself, exclusivity still requires
//!   checking for ties, so the oracle computes the best path distinct
//!   from `p*` with a Yen-style spur pass along `p*`.

use crate::{faults, AttackProblem};
use routing::{acquire_scratch, CancelToken, Direction, Path, RepairTable, ScratchGuard};
use std::sync::Arc;
use traffic_graph::GraphView;

/// Reusable search state for one attack run.
///
/// The oracle also enforces the problem's [`crate::RunLimits`]: the
/// deadline clock starts at [`Oracle::new`] and is shared with every
/// inner search via a [`CancelToken`], and the oracle-call cap trips
/// after that many [`Oracle::next_violating`] queries. A tripped limit
/// makes `next_violating` return `None` — exactly the shape of a
/// successful attack — so every caller must check
/// [`Oracle::interrupted`] before treating `None` as success.
#[derive(Debug)]
pub struct Oracle {
    scratch: ScratchGuard,
    /// Exact distance from every node to the target on the pre-attack
    /// view (admissible heuristic for all later views). Shared with the
    /// problem's [`crate::TargetContext`] when one matches, owned
    /// otherwise.
    rev: Arc<Vec<f64>>,
    /// Decrementally repaired exact distances on the *current* mutated
    /// view (present when the problem enables repair), or the intact
    /// baseline once a removal orphans too much of it. The intact table
    /// `rev` stays the A\* ordering heuristic — same expansion order,
    /// same tie-breaks — while the repaired table prunes relaxations
    /// that provably cannot finish within the violating bound.
    repair: Option<RepairTable>,
    cancel: Option<CancelToken>,
    max_calls: Option<u64>,
    calls: u64,
    exhausted: bool,
}

impl Oracle {
    /// Builds the oracle for `problem`. When the problem carries a
    /// matching [`crate::TargetContext`], its reverse-distance table is
    /// reused (`pathattack.reuse.rev_dij.hit`); otherwise one backward
    /// Dijkstra runs here (`pathattack.reuse.rev_dij.miss`). If the
    /// problem has a deadline, its clock starts here (an owned backward
    /// sweep counts against it).
    pub fn new(problem: &AttackProblem<'_>) -> Self {
        let _timer = obs::span("pathattack.oracle.build");
        let limits = problem.limits();
        let cancel = limits.deadline.map(CancelToken::deadline_in);
        let net = problem.network();
        let mut scratch = acquire_scratch(net.num_nodes());
        let (rev, rev_parent) = match problem.target_context().filter(|c| c.matches(problem)) {
            Some(ctx) => {
                obs::inc("pathattack.reuse.rev_dij.hit");
                obs::trace::point(
                    "oracle.rev_table",
                    &[("outcome", obs::AttrValue::Str("hit".into()))],
                );
                (ctx.rev().clone(), ctx.rev_parent().clone())
            }
            None => {
                obs::inc("pathattack.reuse.rev_dij.miss");
                obs::trace::point(
                    "oracle.rev_table",
                    &[("outcome", obs::AttrValue::Str("miss".into()))],
                );
                scratch.dijkstra.set_cancel(cancel.clone());
                let (d, p) = scratch.dijkstra.distances_and_parents(
                    problem.base_view(),
                    |e| problem.weight_of(e),
                    problem.target(),
                    Direction::Backward,
                );
                (Arc::new(d), Arc::new(p))
            }
        };
        // The repair baseline may include the base view's pre-attack
        // removals; syncing to views that keep those removals treats
        // them as non-tree no-ops, so the table stays exact. (A baseline
        // truncated by an already-expired deadline is fine too: every
        // later search is cancelled by the same token.) A removal that
        // orphans more than the table's threshold demotes it to that
        // baseline instead of costing a full sweep: the oracle only
        // prunes with the table, and the baseline still lower-bounds
        // every attack view.
        let repair = problem.repair().then(|| {
            RepairTable::new(problem.target(), rev.clone(), rev_parent, net.num_edges())
                .demote_on_overflow()
        });
        scratch.astar.set_cancel(cancel.clone());
        Oracle {
            scratch,
            rev,
            repair,
            cancel,
            max_calls: limits.max_oracle_calls,
            calls: 0,
            exhausted: false,
        }
    }

    /// Whether a run limit has fired. After a `None` from
    /// [`Oracle::next_violating`], this distinguishes "the attack
    /// succeeded" (`false`) from "the run must end with
    /// [`crate::AttackStatus::TimedOut`]" (`true`).
    pub fn interrupted(&self) -> bool {
        self.exhausted || self.cancel.as_ref().is_some_and(|t| t.is_cancelled())
    }

    /// Number of [`Oracle::next_violating`] queries issued so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Shortest s→t path in `view` under the problem's weights.
    pub fn shortest(&mut self, problem: &AttackProblem<'_>, view: &GraphView<'_>) -> Option<Path> {
        let rev = &self.rev;
        self.scratch.astar.shortest_path(
            view,
            |e| problem.weight_of(e),
            |v| rev[v.index()],
            problem.source(),
            problem.target(),
        )
    }

    /// Cheapest s→t path in `view` that differs from `p*` in at least
    /// one edge. `None` when `p*` is the only remaining s→t path.
    ///
    /// With repair enabled, searches are additionally pruned with exact
    /// distances on `view` (repaired decrementally, not re-swept), and
    /// any alternative strictly beyond the violating threshold may come
    /// back as `None` instead of a too-long path. Every caller treats
    /// the two identically — a too-long alternative and no alternative
    /// both mean "`p*` is exclusively shortest" — so attack records and
    /// CSVs are byte-identical with repair on or off.
    pub fn best_alternative(
        &mut self,
        problem: &AttackProblem<'_>,
        view: &GraphView<'_>,
    ) -> Option<Path> {
        // Prune bound: one tie margin beyond the violating threshold
        // (`pstar_weight + tie_margin`), so float noise in the pruning
        // sums can never touch a path any caller would accept.
        let bound = problem.pstar_weight() + 2.0 * problem.tie_margin();
        if let Some(rep) = self.repair.as_mut().filter(|r| !r.is_demoted()) {
            let out = rep.sync(view, |e| problem.weight_of(e));
            if out.demoted {
                obs::inc("pathattack.reuse.repair.demoted");
                obs::trace::point(
                    "oracle.repair",
                    &[("outcome", obs::AttrValue::Str("demoted".into()))],
                );
            } else if out.rebuilt {
                obs::inc("pathattack.reuse.repair.full_fallback");
                obs::trace::point(
                    "oracle.repair",
                    &[("outcome", obs::AttrValue::Str("full_fallback".into()))],
                );
            } else {
                obs::inc("pathattack.reuse.repair.hit");
                obs::trace::point(
                    "oracle.repair",
                    &[("outcome", obs::AttrValue::Str("hit".into()))],
                );
            }
        }
        let Oracle {
            scratch,
            repair,
            rev,
            ..
        } = self;
        // Current-view distances used only to prune: exact for the
        // synced view, or a lower bound once the table demoted, so the
        // records cannot depend on them.
        let prune: Option<&[f64]> = repair.as_ref().map(|rep| rep.dist());

        let shortest = match prune {
            Some(dist) => scratch.astar.shortest_path_bounded(
                view,
                |e| problem.weight_of(e),
                |v| rev[v.index()],
                problem.source(),
                problem.target(),
                dist,
                bound,
            )?,
            None => scratch.astar.shortest_path(
                view,
                |e| problem.weight_of(e),
                |v| rev[v.index()],
                problem.source(),
                problem.target(),
            )?,
        };
        if shortest.edges() != problem.pstar().edges() {
            return Some(shortest);
        }
        // Shortest == p*: find the best deviation with a spur pass.
        let pstar = problem.pstar().clone();
        let net = problem.network();
        let mut work = view.clone();
        let mut best: Option<Path> = None;

        let mut prefix_w = Vec::with_capacity(pstar.len() + 1);
        prefix_w.push(0.0);
        for &e in pstar.edges() {
            prefix_w.push(prefix_w.last().unwrap() + problem.weight_of(e));
        }
        let mut spur_searches: u64 = 0;
        let mut spur_skips: u64 = 0;

        #[allow(clippy::needless_range_loop)] // i indexes nodes, edges and prefix weights together
        for i in 0..pstar.len() {
            let spur_node = pstar.nodes()[i];
            if let Some(dist) = prune {
                // The prune distance lower-bounds any spur completion
                // (the spur view only removes more edges), and
                // `best` is only ever replaced by a strictly cheaper
                // path — so once the bound says this spur cannot beat
                // `best`, the search's outcome is already decided and it
                // can be skipped without touching the records.
                let decided = best
                    .as_ref()
                    .is_some_and(|b| prefix_w[i] + dist[spur_node.index()] >= b.total_weight());
                if decided {
                    spur_skips += 1;
                    continue;
                }
            }
            // Pooled buffer instead of a per-spur allocation.
            let mut removed = std::mem::take(&mut scratch.spur_removed);
            removed.clear();
            // force a deviation at index i
            if work.remove_edge(pstar.edges()[i]) {
                removed.push(pstar.edges()[i]);
            }
            // keep the deviation simple: no re-entry into the prefix
            for &v in &pstar.nodes()[..i] {
                for e in net.out_edges(v) {
                    if work.remove_edge(e) {
                        removed.push(e);
                    }
                }
            }
            spur_searches += 1;
            let spur = match prune {
                Some(dist) => scratch.astar.shortest_path_bounded(
                    &work,
                    |e| problem.weight_of(e),
                    |v| rev[v.index()],
                    spur_node,
                    problem.target(),
                    dist,
                    bound - prefix_w[i],
                ),
                None => scratch.astar.shortest_path(
                    &work,
                    |e| problem.weight_of(e),
                    |v| rev[v.index()],
                    spur_node,
                    problem.target(),
                ),
            };
            if let Some(spur) = spur {
                let total = prefix_w[i] + spur.total_weight();
                if best.as_ref().is_none_or(|b| total < b.total_weight()) {
                    let mut edges = pstar.edges()[..i].to_vec();
                    edges.extend_from_slice(spur.edges());
                    let joined = Path::from_edges(net, edges, |e| problem.weight_of(e))
                        .expect("prefix + spur is contiguous");
                    best = Some(joined);
                }
            }
            for &e in &removed {
                work.restore_edge(e);
            }
            scratch.spur_removed = removed;
        }
        obs::add("pathattack.oracle.spur_searches", spur_searches);
        obs::add("pathattack.oracle.spur_skips", spur_skips);
        best
    }

    /// The next violating path: the cheapest s→t path distinct from `p*`
    /// whose weight does not exceed `w(p*)` (within the tie margin).
    /// `None` means the attack has succeeded — `p*` is the exclusive
    /// shortest path.
    pub fn next_violating(
        &mut self,
        problem: &AttackProblem<'_>,
        view: &GraphView<'_>,
    ) -> Option<Path> {
        faults::before_oracle_call();
        self.calls += 1;
        if let Some(max) = self.max_calls {
            if self.calls > max {
                self.exhausted = true;
                if let Some(t) = &self.cancel {
                    t.cancel();
                }
                return None;
            }
        }
        if self.interrupted() {
            return None;
        }
        obs::inc("pathattack.oracle.calls");
        obs::trace::point("oracle.call", &[("call", obs::AttrValue::U64(self.calls))]);
        let alt = self.best_alternative(problem, view)?;
        problem.is_violating(&alt).then_some(alt)
    }

    /// Distance from `node` to the target on the pre-attack view.
    pub fn reverse_distance(&self, node: traffic_graph::NodeId) -> f64 {
        self.rev[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostType, WeightType};
    use traffic_graph::{EdgeAttrs, NodeId, Point, RoadClass, RoadNetwork, RoadNetworkBuilder};

    /// Three parallel routes a→d with weights 4, 6, 10.
    fn three_routes() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new("three");
        let a = b.add_node(Point::new(0.0, 0.0));
        let m1 = b.add_node(Point::new(1.0, 2.0));
        let m2 = b.add_node(Point::new(1.0, 0.0));
        let m3 = b.add_node(Point::new(1.0, -2.0));
        let d = b.add_node(Point::new(2.0, 0.0));
        let mut arc = |from, to, len: f64| {
            b.add_edge(from, to, EdgeAttrs::from_class(RoadClass::Primary, len));
        };
        arc(a, m1, 2.0);
        arc(m1, d, 2.0); // 4
        arc(a, m2, 3.0);
        arc(m2, d, 3.0); // 6
        arc(a, m3, 5.0);
        arc(m3, d, 5.0); // 10
        b.build()
    }

    fn problem(net: &RoadNetwork) -> AttackProblem<'_> {
        // p* = the middle route (weight 6)
        AttackProblem::with_path_rank(
            net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(4),
            2,
        )
        .unwrap()
    }

    #[test]
    fn next_violating_finds_shorter_route() {
        let net = three_routes();
        let p = problem(&net);
        assert_eq!(p.pstar_weight(), 6.0);
        let mut oracle = Oracle::new(&p);
        let view = p.base_view().clone();
        let v = oracle.next_violating(&p, &view).expect("route 4 violates");
        assert_eq!(v.total_weight(), 4.0);
    }

    #[test]
    fn no_violating_after_cutting_shorter_route() {
        let net = three_routes();
        let p = problem(&net);
        let mut oracle = Oracle::new(&p);
        let mut view = p.base_view().clone();
        // cut the 4-route's first edge
        let e = net.find_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        view.remove_edge(e);
        assert!(oracle.next_violating(&p, &view).is_none());
    }

    #[test]
    fn best_alternative_when_shortest_is_pstar() {
        let net = three_routes();
        let p = problem(&net).with_repair(false);
        let mut oracle = Oracle::new(&p);
        let mut view = p.base_view().clone();
        let e = net.find_edge(NodeId::new(0), NodeId::new(1)).unwrap();
        view.remove_edge(e);
        // shortest is now p* (6); best alternative must be the 10-route
        let alt = oracle.best_alternative(&p, &view).unwrap();
        assert_eq!(alt.total_weight(), 10.0);
        assert_ne!(alt.edges(), p.pstar().edges());

        // With repair on, the 10-route lies beyond the violating bound
        // and may be pruned to None — the documented equivalence: every
        // caller treats "too long" and "no alternative" identically, as
        // next_violating shows for both modes.
        let p_rep = problem(&net);
        let mut oracle_rep = Oracle::new(&p_rep);
        assert!(oracle_rep.best_alternative(&p_rep, &view).is_none());
        assert!(oracle_rep.next_violating(&p_rep, &view).is_none());
        assert!(oracle.next_violating(&p, &view).is_none());
    }

    #[test]
    fn best_alternative_none_when_pstar_unique() {
        let net = three_routes();
        let p = problem(&net);
        let mut oracle = Oracle::new(&p);
        let mut view = p.base_view().clone();
        for (u, v) in [(0usize, 1usize), (0, 3)] {
            view.remove_edge(net.find_edge(NodeId::new(u), NodeId::new(v)).unwrap());
        }
        assert!(oracle.best_alternative(&p, &view).is_none());
    }

    #[test]
    fn call_cap_zero_interrupts_first_query() {
        let net = three_routes();
        let p = problem(&net).with_limits(crate::RunLimits::default().with_max_oracle_calls(0));
        let mut oracle = Oracle::new(&p);
        assert!(!oracle.interrupted());
        let view = p.base_view().clone();
        // There IS a violating route, but the cap makes the query return
        // None — interrupted() is what keeps this from looking like
        // success.
        assert!(oracle.next_violating(&p, &view).is_none());
        assert!(oracle.interrupted());
        assert_eq!(oracle.calls(), 1);
    }

    #[test]
    fn expired_deadline_interrupts() {
        let net = three_routes();
        let p = problem(&net)
            .with_limits(crate::RunLimits::default().with_deadline(std::time::Duration::ZERO));
        let mut oracle = Oracle::new(&p);
        let view = p.base_view().clone();
        assert!(oracle.next_violating(&p, &view).is_none());
        assert!(oracle.interrupted());
    }

    #[test]
    fn unlimited_oracle_never_interrupts() {
        let net = three_routes();
        let p = problem(&net);
        let mut oracle = Oracle::new(&p);
        let view = p.base_view().clone();
        assert!(oracle.next_violating(&p, &view).is_some());
        assert!(!oracle.interrupted());
    }

    #[test]
    fn shared_context_oracle_matches_owned_sweep() {
        let net = three_routes();
        let ctx = Arc::new(crate::TargetContext::build(
            &net,
            WeightType::Length,
            NodeId::new(4),
        ));
        let p_owned = problem(&net);
        let p_shared = AttackProblem::with_path_rank_in(
            &net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(4),
            2,
            &ctx,
        )
        .unwrap();
        assert_eq!(p_owned.pstar().edges(), p_shared.pstar().edges());
        assert!(ctx.matches(&p_shared));

        let mut owned = Oracle::new(&p_owned);
        let mut shared = Oracle::new(&p_shared);
        // The shared table must be bitwise identical to the owned sweep.
        for v in 0..5 {
            assert_eq!(
                owned.reverse_distance(NodeId::new(v)).to_bits(),
                shared.reverse_distance(NodeId::new(v)).to_bits(),
            );
        }
        let view_o = p_owned.base_view().clone();
        let view_s = p_shared.base_view().clone();
        let a = owned.next_violating(&p_owned, &view_o).unwrap();
        let b = shared.next_violating(&p_shared, &view_s).unwrap();
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.total_weight().to_bits(), b.total_weight().to_bits());
    }

    #[test]
    fn ties_count_as_violating() {
        // two disjoint routes of identical weight; p* = rank-2 (tied)
        let mut b = RoadNetworkBuilder::new("tie");
        let a = b.add_node(Point::new(0.0, 0.0));
        let m1 = b.add_node(Point::new(1.0, 1.0));
        let m2 = b.add_node(Point::new(1.0, -1.0));
        let d = b.add_node(Point::new(2.0, 0.0));
        let mut arc = |from, to, len: f64| {
            b.add_edge(from, to, EdgeAttrs::from_class(RoadClass::Primary, len));
        };
        arc(a, m1, 2.0);
        arc(m1, d, 2.0);
        arc(a, m2, 2.0);
        arc(m2, d, 2.0);
        let net = b.build();
        let p = AttackProblem::with_path_rank(
            &net,
            WeightType::Length,
            CostType::Uniform,
            NodeId::new(0),
            NodeId::new(3),
            2,
        )
        .unwrap();
        let mut oracle = Oracle::new(&p);
        let view = p.base_view().clone();
        // the tied sibling must be reported as violating
        let v = oracle.next_violating(&p, &view).expect("tie violates");
        assert_eq!(v.total_weight(), p.pstar_weight());
    }
}
