//! One backward sweep per victim.
//!
//! `AttackProblem::with_path_rank` builds a private `TargetContext`, so
//! Yen's spur heuristic, the attack's oracle and `verify`'s oracle all
//! share its one backward Dijkstra. Sharing must never change a result:
//! every algorithm attacks a context-carrying problem exactly as it
//! attacks a context-less one with the same `p*`.
//!
//! This file is its own test binary, so the global `obs` counters count
//! its work alone; a lock keeps its two tests from counting into each
//! other.

use citygen::{CityPreset, Scale};
use pathattack::{
    all_algorithms_extended, AttackAlgorithm, AttackProblem, CostType, GreedyPathCover, WeightType,
};
use std::sync::Mutex;
use traffic_graph::{GraphView, NodeId, PoiKind, RoadNetwork};

static SERIAL: Mutex<()> = Mutex::new(());

fn first_hospital(city: &RoadNetwork) -> NodeId {
    city.pois_of_kind(PoiKind::Hospital)
        .next()
        .expect("preset has a hospital")
        .node
}

#[test]
fn path_rank_attack_and_verify_share_one_backward_sweep() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let city = CityPreset::Chicago.build(Scale::Small, 7);
    let hospital = first_hospital(&city);

    obs::set_enabled(true);
    let before = obs::global().snapshot();
    let problem = AttackProblem::with_path_rank(
        &city,
        WeightType::Time,
        CostType::Uniform,
        NodeId::new(3),
        hospital,
        20,
    )
    .unwrap();
    let outcome = GreedyPathCover.attack(&problem);
    let verified = outcome.verify(&problem);
    let after = obs::global().snapshot();
    obs::set_enabled(false);

    assert!(outcome.is_success(), "{:?}", outcome.status);
    verified.unwrap();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    // The context build is the only backward sweep; Yen, the attack's
    // oracle and verify's oracle each reuse it.
    assert_eq!(delta("pathattack.reuse.rev_dij.miss"), 1);
    assert!(delta("pathattack.reuse.rev_dij.hit") >= 3);
    // That sweep plus Yen's forward first-path search.
    assert_eq!(delta("routing.dijkstra.sweeps"), 2);
}

#[test]
fn shared_and_owned_reverse_tables_attack_identically() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (preset, seed) in [(CityPreset::Chicago, 7), (CityPreset::Boston, 11)] {
        let city = preset.build(Scale::Small, seed);
        let hospital = first_hospital(&city);
        for weight in [WeightType::Time, WeightType::Length] {
            let shared = AttackProblem::with_path_rank(
                &city,
                weight,
                CostType::Lanes,
                NodeId::new(5),
                hospital,
                10,
            )
            .unwrap();
            assert!(shared.target_context().is_some_and(|c| c.matches(&shared)));
            let owned = AttackProblem::new(
                GraphView::new(&city),
                weight,
                CostType::Lanes,
                NodeId::new(5),
                hospital,
                shared.pstar().clone(),
            )
            .unwrap();
            assert!(owned.target_context().is_none());
            for alg in all_algorithms_extended() {
                let a = alg.attack(&shared);
                let b = alg.attack(&owned);
                let what = format!("{} on {preset:?} {weight:?}", alg.name());
                assert_eq!(a.removed, b.removed, "{what}: removed set diverged");
                assert_eq!(a.status, b.status, "{what}: status diverged");
                assert_eq!(
                    a.total_cost.to_bits(),
                    b.total_cost.to_bits(),
                    "{what}: cost diverged"
                );
            }
        }
    }
}
