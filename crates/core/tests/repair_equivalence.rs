//! Repair-on vs repair-off must be observationally identical.
//!
//! The decremental repair layer prunes oracle searches with exact
//! distances on the mutated view; the contract is that every attack
//! algorithm removes the same edges, in the same order, at the same
//! cost, with the same status either way. This pins that contract at
//! the algorithm level on a real city (the experiment-level CSV pin
//! lives in `crates/experiments/tests/repair_determinism.rs`).

use citygen::{CityPreset, Scale};
use pathattack::{all_algorithms_extended, AttackProblem, CostType, TargetContext, WeightType};
use routing::Dijkstra;
use std::sync::Arc;
use traffic_graph::{GraphView, NodeId, PoiKind, Point, RoadClass, RoadNetworkBuilder};

fn problems<'a>(
    city: &'a traffic_graph::RoadNetwork,
    ctx: &Arc<TargetContext>,
    hospital: NodeId,
    repair: bool,
) -> Vec<AttackProblem<'a>> {
    let sources = [NodeId::new(3), NodeId::new(41)];
    sources
        .iter()
        .filter_map(|&s| {
            AttackProblem::with_path_rank_in(
                city,
                WeightType::Time,
                CostType::Uniform,
                s,
                hospital,
                20,
                ctx,
            )
            .ok()
            .map(|p| p.with_repair(repair))
        })
        .collect()
}

#[test]
fn all_algorithms_identical_with_and_without_repair() {
    let city = CityPreset::Chicago.build(Scale::Small, 7);
    let hospital = city
        .pois_of_kind(PoiKind::Hospital)
        .next()
        .expect("preset has a hospital")
        .node;
    let ctx = Arc::new(TargetContext::build(&city, WeightType::Time, hospital));

    let with = problems(&city, &ctx, hospital, true);
    let without = problems(&city, &ctx, hospital, false);
    assert!(!with.is_empty());

    for (p_on, p_off) in with.iter().zip(&without) {
        assert_eq!(p_on.pstar().edges(), p_off.pstar().edges());
        for alg in all_algorithms_extended() {
            let a = alg.attack(p_on);
            let b = alg.attack(p_off);
            assert_eq!(a.removed, b.removed, "{} removed set diverged", alg.name());
            assert_eq!(
                a.total_cost.to_bits(),
                b.total_cost.to_bits(),
                "{} cost diverged",
                alg.name()
            );
            assert_eq!(a.iterations, b.iterations, "{} iterations", alg.name());
            assert_eq!(a.status, b.status, "{} status", alg.name());
        }
    }
}

#[test]
fn repair_equivalence_holds_without_shared_context_too() {
    // The owned-sweep oracle path (no matching TargetContext) builds its
    // repair baseline from its own backward sweep; results must still
    // match the repair-off run. `with_path_rank` attaches a context, so
    // the problems are rebuilt context-less from its rank-10 p*.
    let city = CityPreset::Boston.build(Scale::Small, 11);
    let hospital = city
        .pois_of_kind(PoiKind::Hospital)
        .next()
        .expect("preset has a hospital")
        .node;
    let pstar = AttackProblem::with_path_rank(
        &city,
        WeightType::Time,
        CostType::Lanes,
        NodeId::new(5),
        hospital,
        10,
    )
    .unwrap()
    .pstar()
    .clone();
    let make = |repair: bool| {
        let p = AttackProblem::new(
            GraphView::new(&city),
            WeightType::Time,
            CostType::Lanes,
            NodeId::new(5),
            hospital,
            pstar.clone(),
        )
        .unwrap()
        .with_repair(repair);
        assert!(p.target_context().is_none());
        p
    };
    let p_on = make(true);
    let p_off = make(false);
    for alg in all_algorithms_extended() {
        let a = alg.attack(&p_on);
        let b = alg.attack(&p_off);
        assert_eq!(a.removed, b.removed, "{} removed set diverged", alg.name());
        assert_eq!(a.status, b.status, "{} status", alg.name());
    }
}

#[test]
fn demoted_repair_tables_keep_records_identical() {
    // A 12x12 two-way grid with 100 m blocks; the target hangs off two
    // corners: a short road from the far corner that nearly every
    // shortest path takes, and a long one from the origin. p* takes the
    // long road, so the attack must cut the short one, which orphans
    // most of the oracle's repair table and demotes it.
    let mut b = RoadNetworkBuilder::new("dead-end");
    let side = 12;
    let mut grid = Vec::new();
    for y in 0..side {
        for x in 0..side {
            grid.push(b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0)));
        }
    }
    for y in 0..side {
        for x in 0..side {
            let i = y * side + x;
            if x + 1 < side {
                b.add_street(grid[i], grid[i + 1], RoadClass::Residential);
            }
            if y + 1 < side {
                b.add_street(grid[i], grid[i + side], RoadClass::Residential);
            }
        }
    }
    let target = b.add_node(Point::new(side as f64 * 100.0, side as f64 * 100.0));
    let corner = grid[side * side - 1];
    b.add_street(corner, target, RoadClass::Residential);
    b.add_street(grid[0], target, RoadClass::Residential);
    let net = b.build();
    let source = grid[side - 1];

    let weights = WeightType::Time.compute(&net);
    let mut long_only = GraphView::new(&net);
    for e in net.out_edges(corner) {
        if net.edge_target(e) == target {
            long_only.remove_edge(e);
        }
    }
    let pstar = Dijkstra::new(net.num_nodes())
        .shortest_path(&long_only, |e| weights[e.index()], source, target)
        .expect("the long road reaches the target");
    let make = |repair: bool| {
        AttackProblem::new(
            GraphView::new(&net),
            WeightType::Time,
            CostType::Uniform,
            source,
            target,
            pstar.clone(),
        )
        .unwrap()
        .with_repair(repair)
    };
    let (p_on, p_off) = (make(true), make(false));

    obs::set_enabled(true);
    let demoted = || {
        obs::global()
            .counter("pathattack.reuse.repair.demoted")
            .get()
    };
    let before = demoted();
    for alg in all_algorithms_extended() {
        let a = alg.attack(&p_on);
        let b = alg.attack(&p_off);
        assert!(a.is_success(), "{} failed", alg.name());
        assert_eq!(a.removed, b.removed, "{} removed set diverged", alg.name());
        assert_eq!(
            a.total_cost.to_bits(),
            b.total_cost.to_bits(),
            "{} cost diverged",
            alg.name()
        );
        assert_eq!(a.iterations, b.iterations, "{} iterations", alg.name());
        assert_eq!(a.status, b.status, "{} status", alg.name());
    }
    assert!(demoted() > before, "no repair table demoted");
}
