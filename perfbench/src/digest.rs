//! Canonical digests of a workload's answers.
//!
//! Equal seeds must give equal digests across runs and processes, so a
//! digest covers only what the program answered — never how long it
//! took. Timing fields (`runtime_s`, `AttackOutcome::runtime`) are left
//! out of the canonical lines on purpose.

use experiments::ExperimentRecord;
use pathattack::AttackOutcome;

/// Order-sensitive FNV-1a (64-bit) digest over canonical items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one item, followed by a separator byte, into the digest.
    pub fn add(&mut self, item: &[u8]) {
        for &b in item.iter().chain(std::iter::once(&0xffu8)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Digest of `items` in the given order.
    pub fn of<I: IntoIterator<Item = T>, T: AsRef<[u8]>>(items: I) -> Digest {
        let mut d = Digest::default();
        for item in items {
            d.add(item.as_ref());
        }
        d
    }

    /// Sixteen hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Canonical line of one experiment record: every field except
/// `runtime_s`, floats by their exact bits.
pub fn record_line(r: &ExperimentRecord) -> String {
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{:016x}|{}|{}",
        r.city,
        r.weight.name(),
        r.cost.name(),
        r.algorithm,
        r.hospital,
        r.source,
        r.iterations,
        r.edges_removed,
        r.cost_removed.to_bits(),
        r.status.name(),
        r.degraded.name(),
    )
}

/// Digest of a sweep's records, independent of their order and of every
/// runtime field.
pub fn records_digest(records: &[ExperimentRecord]) -> Digest {
    let mut lines: Vec<String> = records.iter().map(record_line).collect();
    lines.sort();
    Digest::of(lines)
}

/// Canonical line of one attack outcome: everything except `runtime`.
pub fn outcome_line(o: &AttackOutcome) -> String {
    let removed: Vec<String> = o.removed.iter().map(|e| e.index().to_string()).collect();
    format!(
        "{}|{}|{:016x}|{}|{}|{}",
        o.algorithm,
        removed.join(","),
        o.total_cost.to_bits(),
        o.iterations,
        o.status.name(),
        o.degraded.name(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathattack::{AttackStatus, CostType, Degradation, WeightType};
    use std::time::Duration;
    use traffic_graph::EdgeId;

    fn record(runtime_s: f64) -> ExperimentRecord {
        ExperimentRecord {
            city: "Chicago".to_string(),
            weight: WeightType::Time,
            cost: CostType::Lanes,
            algorithm: "GreedyPathCover".to_string(),
            hospital: "H1".to_string(),
            source: 17,
            runtime_s,
            iterations: 4,
            edges_removed: 3,
            cost_removed: 7.0,
            status: AttackStatus::Success,
            degraded: Degradation::None,
        }
    }

    #[test]
    fn record_digest_ignores_runtime_and_order() {
        let mut other = record(0.5);
        other.source = 18;
        let a = records_digest(&[record(0.001), other.clone()]);
        let b = records_digest(&[other, record(9.75)]);
        assert_eq!(a, b);
    }

    #[test]
    fn record_digest_sees_answers() {
        let mut changed = record(0.001);
        changed.cost_removed = 7.000000001;
        assert_ne!(records_digest(&[record(0.001)]), records_digest(&[changed]));
    }

    #[test]
    fn outcome_line_ignores_runtime() {
        let outcome = |ms| AttackOutcome {
            algorithm: "GreedyPathCover".to_string(),
            removed: vec![EdgeId::new(3), EdgeId::new(9)],
            total_cost: 2.0,
            iterations: 2,
            runtime: Duration::from_millis(ms),
            status: AttackStatus::Success,
            degraded: Degradation::None,
        };
        assert_eq!(outcome_line(&outcome(1)), outcome_line(&outcome(700)));
    }

    #[test]
    fn digest_is_order_sensitive_and_separated() {
        assert_ne!(Digest::of(["ab", "c"]), Digest::of(["a", "bc"]));
        assert_ne!(Digest::of(["a", "b"]), Digest::of(["b", "a"]));
        assert_eq!(Digest::of(["x"]).hex().len(), 16);
    }
}
