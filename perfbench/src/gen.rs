//! Seed-deterministic workload inputs.
//!
//! The benchmark takes its seed as an argument; the program sees only
//! what is generated here. The same seed always gives the same inputs.

use pathattack::{CostType, WeightType};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serve::{Request, RequestKind};

/// Kind shares of the `serve` mix. Route is the cheapest kind, so with
/// 70 % routes the median falls inside route; attack is the slowest, so
/// the p99 falls inside attack's 25 %. Neither sits on a boundary
/// between kinds.
pub const SERVE_SHARES: [(RequestKind, f64); 3] = [
    (RequestKind::Route, 0.70),
    (RequestKind::Attack, 0.25),
    (RequestKind::Perturb, 0.05),
];

/// An independent generator for one `stream` of one seed.
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Draws up to `count` distinct node indices below `num_nodes` that
/// `accept` admits, in draw order.
pub fn draw_nodes(
    rng: &mut SmallRng,
    count: usize,
    num_nodes: usize,
    mut accept: impl FnMut(usize) -> bool,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0;
    while out.len() < count && attempts < 1000 * count.max(1) {
        attempts += 1;
        let v = rng.gen_range(0..num_nodes);
        if !out.contains(&v) && accept(v) {
            out.push(v);
        }
    }
    out
}

/// `count` positions of `shares` kinds in exact proportion (the last
/// kind takes the rounding remainder), in a seed-shuffled order.
fn shuffled_kinds<K: Clone>(rng: &mut SmallRng, count: usize, shares: &[(K, f64)]) -> Vec<K> {
    let mut kinds = Vec::with_capacity(count);
    for (i, (kind, share)) in shares.iter().enumerate() {
        let n = if i + 1 == shares.len() {
            count - kinds.len()
        } else {
            (share * count as f64).round() as usize
        };
        kinds.extend(std::iter::repeat_n(kind.clone(), n));
    }
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..=i));
    }
    kinds
}

/// The `serve` request list: `count` requests on `city` with ids
/// `0..count`, kinds in [`SERVE_SHARES`] proportions, hospitals and
/// weights uniform, sources from `pools[hospital]`, path rank `rank`.
/// Attacks run `greedy-pathcover`; every request uses uniform cost.
pub fn request_mix(
    seed: u64,
    city: &str,
    count: usize,
    pools: &[Vec<usize>],
    rank: usize,
) -> Vec<Request> {
    let mut rng = rng(seed, 1);
    let kinds = shuffled_kinds(&mut rng, count, &SERVE_SHARES);
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let hospital = rng.gen_range(0..pools.len());
            let pool = &pools[hospital];
            let mut r = Request::new(i as u64, kind, city);
            r.hospital = hospital;
            r.source = pool[rng.gen_range(0..pool.len())];
            r.weight = WeightType::ALL[rng.gen_range(0..WeightType::ALL.len())];
            r.cost = CostType::Uniform;
            r.rank = rank;
            r.algorithm = "greedy-pathcover".to_string();
            r
        })
        .collect()
}

/// Share of each [`SERVE_SHARES`] kind among `kinds`.
pub fn kind_shares<'a>(kinds: impl IntoIterator<Item = &'a RequestKind>) -> [f64; 3] {
    let mut counts = [0.0; 3];
    let mut total = 0.0;
    for kind in kinds {
        total += 1.0;
        if let Some(i) = SERVE_SHARES.iter().position(|(k, _)| k == kind) {
            counts[i] += 1.0;
        }
    }
    counts.map(|c| if total > 0.0 { c / total } else { 0.0 })
}

/// `count` metro victims as `(hospital, source)`: hospitals visited in
/// seed-shuffled rounds so all of them recur evenly, each source drawn
/// from that hospital's pool.
pub fn victims(seed: u64, count: usize, pools: &[Vec<usize>]) -> Vec<(usize, usize)> {
    let mut rng = rng(seed, 2);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut round: Vec<usize> = (0..pools.len()).collect();
        for i in (1..round.len()).rev() {
            round.swap(i, rng.gen_range(0..=i));
        }
        for h in round.into_iter().take(count - out.len()) {
            let pool = &pools[h];
            out.push((h, pool[rng.gen_range(0..pool.len())]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> Vec<Vec<usize>> {
        (0..4)
            .map(|h| (0..6).map(|i| 100 * h + i).collect())
            .collect()
    }

    #[test]
    fn same_seed_same_requests() {
        let a = request_mix(7, "boston", 200, &pools(), 5);
        let b = request_mix(7, "boston", 200, &pools(), 5);
        let payloads = |rs: &[Request]| rs.iter().map(Request::to_payload).collect::<Vec<_>>();
        assert_eq!(payloads(&a), payloads(&b));
        let c = request_mix(8, "boston", 200, &pools(), 5);
        assert_ne!(payloads(&a), payloads(&c));
    }

    #[test]
    fn kind_shares_are_exact_and_requests_well_formed() {
        let reqs = request_mix(3, "boston", 400, &pools(), 5);
        let shares = kind_shares(reqs.iter().map(|r| &r.kind));
        for ((_, want), got) in SERVE_SHARES.iter().zip(shares) {
            assert!((want - got).abs() < 1e-9, "{want} vs {got}");
        }
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(pools()[r.hospital].contains(&r.source));
            assert_eq!(r.rank, 5);
        }
        let hospitals: std::collections::BTreeSet<_> = reqs.iter().map(|r| r.hospital).collect();
        let weights: std::collections::BTreeSet<_> = reqs.iter().map(|r| r.weight.name()).collect();
        assert_eq!((hospitals.len(), weights.len()), (4, 2));
    }

    #[test]
    fn victims_are_deterministic_and_cover_hospitals() {
        let a = victims(11, 8, &pools());
        assert_eq!(a, victims(11, 8, &pools()));
        assert_ne!(a, victims(12, 8, &pools()));
        for h in 0..4 {
            assert_eq!(a.iter().filter(|v| v.0 == h).count(), 2);
        }
        assert!(a.iter().all(|&(h, s)| pools()[h].contains(&s)));
    }

    #[test]
    fn drawn_nodes_are_distinct_and_accepted() {
        let mut r = rng(5, 0);
        let nodes = draw_nodes(&mut r, 10, 50, |v| v % 2 == 0);
        assert_eq!(nodes.len(), 10);
        assert!(nodes.iter().all(|v| v % 2 == 0));
        let mut sorted = nodes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        let mut again = rng(5, 0);
        assert_eq!(nodes, draw_nodes(&mut again, 10, 50, |v| v % 2 == 0));
    }
}
