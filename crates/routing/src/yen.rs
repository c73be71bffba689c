//! Yen's k-shortest simple paths (with Lawler's optimization).
//!
//! The paper sets the attacker's chosen alternative route `p*` to the
//! *100th* shortest path between source and destination ("path rank"),
//! and Table X reports the travel-time gap between the 1st and the
//! 100th/200th shortest paths. Both need an efficient k-shortest-simple-
//! paths enumerator on city-scale graphs.
//!
//! Three implementation notes that matter at this scale:
//!
//! - **Lawler's optimization**: spur paths are only computed from the
//!   deviation index of the parent path onward, avoiding re-deriving
//!   candidates that are already in the heap.
//! - **Reverse-distance A\***: every spur search runs on a view with a
//!   handful of extra edges removed. Removal only increases distances,
//!   so exact distances-to-target on the *caller's* view (computed once
//!   by a backward Dijkstra) stay admissible, and each spur search
//!   explores a thin corridor instead of the whole city.
//! - **Lazy spur evaluation**: a rank-100 query on a city makes a few
//!   thousand spurs, but only the few whose candidates reach the top of
//!   the B-heap matter. Each spur first enters the heap under a cheap
//!   lower bound — the root-prefix weight plus the cheapest allowed
//!   first spur edge `(u, v)` plus the reverse distance `rev[v]` — and
//!   its A\* search runs only when that bound reaches the top. The same
//!   reverse distances make the bound valid: removing edges only makes
//!   distances longer. The accepted paths are exactly the eager
//!   algorithm's (same edges, same total-weight bits, same order); the
//!   rules that keep them so are listed at the heap entry's `Ord`.
//!   Before a spur's search runs, a short backward scan from the target
//!   checks that the spur has a path at all (`TargetScan`): a search
//!   that has none would settle the whole city before giving up.

use crate::{acquire_scratch, CancelToken, Direction, Path};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use traffic_graph::{EdgeId, GraphView, NodeId};

/// Relative amount by which each spur lower bound is shaded down.
///
/// A bound sums weights backward through the reverse-distance table,
/// a candidate's total sums them forward through the A\* search, and
/// two copies of one path split the same sum at different spur nodes.
/// These float sums differ by a few ulps per edge, far below this
/// margin, so a shaded bound never exceeds any total of the candidate
/// it stands for.
const BOUND_SHADE: f64 = 1e-9;

/// Generation sequence of the first path and of every accepted path:
/// below every spur's, so no later copy can displace an accepted path.
const ACCEPTED: u64 = 0;

/// Entry of Yen's B-heap: a spur not yet searched, keyed by a lower
/// bound, or a candidate path, keyed by its exact total.
#[derive(Debug)]
struct Entry {
    key: f64,
    /// Generation sequence: the order in which eager Yen runs this spur
    /// search (by accepted path, then by spur index).
    seq: u64,
    spur: Spur,
}

#[derive(Debug)]
enum Spur {
    /// Spur search not run yet.
    Pending {
        /// Index of the accepted path the spur deviates from.
        parent: usize,
        /// Spur index: the spur leaves `parent` at its `index`-th node.
        index: usize,
        /// Weight of `parent`'s first `index` edges.
        prefix_weight: f64,
        /// Blocked edges, recorded when the entry was made: a range of
        /// the enumeration's blocked-edge arena.
        blocked: Range<usize>,
    },
    /// Searched candidate.
    Found {
        path: Path,
        /// Index at which this candidate deviates from its parent (Lawler).
        deviation: usize,
    },
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reversed for a min-heap. Lazy Yen accepts exactly what eager Yen
/// accepts because of these rules:
///
/// 1. A candidate is accepted only when it is at the top of the heap,
///    so every pending spur left has a bound above its total, and the
///    spur's own candidate can only be heavier still.
/// 2. At equal keys a pending spur pops before a found candidate: its
///    candidate may tie and then win on edge count or edge ids.
/// 3. Each bound is shaded down by [`BOUND_SHADE`], so it never exceeds
///    the A\* total of its candidate, nor the total of a duplicate copy
///    of that path summed at another spur node.
/// 4. A pending spur records its blocked edges when it is made, not when
///    it is searched, with its parent and spur index: its A\* search
///    then runs on the same view as eager Yen's and finds the same path.
/// 5. Duplicates resolve by generation sequence: the copy made first
///    wins, as in eager Yen, keeping its `deviation` and total. A later
///    copy searched earlier is left in the heap as a stale entry and
///    skipped when popped. By rule 3 the earlier copy's bound pops
///    before the later copy can be accepted.
/// 6. Edges into root-path nodes are excluded from the bound's minimum
///    (those nodes are dead ends in the spur search). A spur whose
///    minimum is infinite gets no entry: its search would find nothing.
///
/// Found candidates tie-break by edge count, then edge ids, as in eager
/// Yen, so results are deterministic.
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| match (&self.spur, &other.spur) {
                (Spur::Pending { .. }, Spur::Found { .. }) => Ordering::Greater,
                (Spur::Found { .. }, Spur::Pending { .. }) => Ordering::Less,
                (Spur::Pending { .. }, Spur::Pending { .. }) => Ordering::Equal,
                (Spur::Found { path: a, .. }, Spur::Found { path: b, .. }) => {
                    b.len().cmp(&a.len()).then_with(|| b.edges().cmp(a.edges()))
                }
            })
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Nodes a [`TargetScan`] may reach before it gives up.
const SCAN_LIMIT: usize = 256;

/// Backward scan from the target that finds spurs with no path at all.
///
/// A spur search that cannot reach the target settles every node it can
/// reach before it gives up: on a city, nearly the whole city. That
/// happens when a target is reached through a dead end (a hospital on a
/// single access road) and the spur's blocked edges close it off. The
/// nodes that still reach the target are then few, so a short backward
/// scan from the target runs out of them and proves the search would
/// return `None`. A scan that meets the spur node, or more than
/// [`SCAN_LIMIT`] nodes, proves nothing and leaves the spur to A\*.
#[derive(Default)]
struct TargetScan {
    seen: HashSet<NodeId>,
    stack: Vec<NodeId>,
}

impl TargetScan {
    /// True when the scan proves that no path leads from `from` to
    /// `target` in `view`; false when one does or the scan gave up.
    fn cut_off(&mut self, view: &GraphView<'_>, from: NodeId, target: NodeId) -> bool {
        if from == target {
            return false;
        }
        self.seen.clear();
        self.stack.clear();
        self.seen.insert(target);
        self.stack.push(target);
        while let Some(x) = self.stack.pop() {
            for (_, w) in view.in_neighbors(x) {
                if w == from {
                    return false;
                }
                if self.seen.insert(w) {
                    if self.seen.len() > SCAN_LIMIT {
                        return false;
                    }
                    self.stack.push(w);
                }
            }
        }
        true
    }
}

/// State of one enumeration: the accepted paths and Yen's B-heap.
struct Enumeration {
    /// Accepted paths with their deviation index, cheapest first.
    accepted: Vec<(Path, usize)>,
    heap: BinaryHeap<Entry>,
    /// Arena of the edges every pending spur blocks.
    blocked: Vec<EdgeId>,
    /// Edge list of every path produced so far, mapped to the sequence
    /// of the copy that counts ([`ACCEPTED`] once accepted).
    seen: HashMap<Vec<EdgeId>, u64>,
    next_seq: u64,
}

impl Enumeration {
    fn new(first: Path) -> Self {
        let mut seen = HashMap::new();
        seen.insert(first.edges().to_vec(), ACCEPTED);
        Enumeration {
            accepted: vec![(first, 0)],
            heap: BinaryHeap::new(),
            blocked: Vec::new(),
            seen,
            next_seq: ACCEPTED + 1,
        }
    }

    /// Pushes one pending entry per spur of the last accepted path, from
    /// its deviation index on (Lawler), each under its lower bound.
    fn push_spurs<F>(&mut self, view: &GraphView<'_>, weight: &F, rev: &[f64])
    where
        F: Fn(EdgeId) -> f64,
    {
        let parent = self.accepted.len() - 1;
        let (prev, dev_start) = &self.accepted[parent];

        // Longest common prefix (in edges) of each accepted path with
        // `prev`, so the per-spur prefix test is O(1).
        let lcp: Vec<usize> = self
            .accepted
            .iter()
            .map(|(p, _)| {
                p.edges()
                    .iter()
                    .zip(prev.edges())
                    .take_while(|(a, b)| a == b)
                    .count()
            })
            .collect();

        // Root-path nodes of the spur being bounded.
        let mut roots: HashSet<NodeId> = prev.nodes()[..*dev_start].iter().copied().collect();
        let mut prefix_weight = 0.0;
        for (i, &e) in prev.edges().iter().enumerate() {
            if i >= *dev_start {
                let spur_node = prev.nodes()[i];
                // Block the next edge of every accepted path sharing the
                // first `i` edges with prev.
                let start = self.blocked.len();
                for ((p, _), &l) in self.accepted.iter().zip(&lcp) {
                    if l >= i && p.len() > i {
                        let b = p.edges()[i];
                        if !view.is_removed(b) && !self.blocked[start..].contains(&b) {
                            self.blocked.push(b);
                        }
                    }
                }
                let blocked = &self.blocked[start..];
                let cheapest = view
                    .out_neighbors(spur_node)
                    .filter(|&(e, v)| !blocked.contains(&e) && !roots.contains(&v))
                    .map(|(e, v)| weight(e) + rev[v.index()])
                    .fold(f64::INFINITY, f64::min);
                if cheapest.is_finite() {
                    let bound = prefix_weight + cheapest;
                    self.heap.push(Entry {
                        key: bound - bound.abs() * BOUND_SHADE,
                        seq: self.next_seq,
                        spur: Spur::Pending {
                            parent,
                            index: i,
                            prefix_weight,
                            blocked: start..self.blocked.len(),
                        },
                    });
                    self.next_seq += 1;
                } else {
                    self.blocked.truncate(start);
                }
                roots.insert(spur_node);
            }
            prefix_weight += weight(e);
        }
    }
}

/// Computes up to `k` shortest *simple* paths from `source` to `target`,
/// cheapest first.
///
/// Returns fewer than `k` paths when the graph does not contain that many
/// distinct simple paths, and an empty vector when `target` is
/// unreachable. Edges already removed from `view` are respected (and
/// never enumerated).
///
/// `weight` must be non-negative on live edges.
///
/// # Examples
///
/// ```
/// use traffic_graph::{RoadNetworkBuilder, GraphView, Point, RoadClass};
/// use routing::k_shortest_paths;
///
/// // a 2×2 block: two equally plausible routes around it
/// let mut b = RoadNetworkBuilder::new("block");
/// let p00 = b.add_node(Point::new(0.0, 0.0));
/// let p10 = b.add_node(Point::new(100.0, 0.0));
/// let p01 = b.add_node(Point::new(0.0, 100.0));
/// let p11 = b.add_node(Point::new(100.0, 100.0));
/// b.add_street(p00, p10, RoadClass::Residential);
/// b.add_street(p00, p01, RoadClass::Residential);
/// b.add_street(p10, p11, RoadClass::Residential);
/// b.add_street(p01, p11, RoadClass::Residential);
/// let net = b.build();
/// let view = GraphView::new(&net);
///
/// let paths = k_shortest_paths(&view, |e| net.edge_attrs(e).length_m, p00, p11, 5);
/// assert_eq!(paths.len(), 2); // the two ways around the block
/// assert_eq!(paths[0].total_weight(), 200.0);
/// ```
pub fn k_shortest_paths<F>(
    view: &GraphView<'_>,
    weight: F,
    source: NodeId,
    target: NodeId,
    k: usize,
) -> Vec<Path>
where
    F: Fn(EdgeId) -> f64,
{
    k_shortest_paths_with(view, weight, source, target, k, &YenConfig::default())
}

/// Tuning knobs for [`k_shortest_paths_with`].
///
/// The default enables the reverse-distance A\* heuristic for spur
/// searches; disabling it (plain Dijkstra spurs, the textbook variant)
/// exists for the workspace's ablation benches.
#[derive(Debug, Clone)]
pub struct YenConfig {
    /// Guide spur searches with exact distances-to-target computed once
    /// on the caller's view.
    pub reverse_heuristic: bool,
    /// Precomputed exact distances-to-target, shared across calls.
    ///
    /// Must be indexed by node id, cover every node of the network, and
    /// hold exact shortest distances to `target` under the same `weight`
    /// on a view whose live-edge set is a **superset** of the search
    /// view's (removals only lengthen shortest paths, so such a table
    /// stays a consistent A\* heuristic). When set, it takes precedence
    /// over `reverse_heuristic` and saves the per-call backward Dijkstra
    /// — the main cross-run reuse win for repeated enumerations toward
    /// one target.
    pub shared_reverse: Option<Arc<Vec<f64>>>,
    /// Cooperative cancellation: checked before every spur search and
    /// propagated into the inner Dijkstra/A* loops. A cancelled
    /// enumeration returns the paths accepted so far (possibly fewer
    /// than `k`); callers sharing the token must check it rather than
    /// interpret a short result as path exhaustion.
    pub cancel: Option<CancelToken>,
}

impl Default for YenConfig {
    fn default() -> Self {
        YenConfig {
            reverse_heuristic: true,
            shared_reverse: None,
            cancel: None,
        }
    }
}

/// [`k_shortest_paths`] with explicit [`YenConfig`].
pub fn k_shortest_paths_with<F>(
    view: &GraphView<'_>,
    weight: F,
    source: NodeId,
    target: NodeId,
    k: usize,
    config: &YenConfig,
) -> Vec<Path>
where
    F: Fn(EdgeId) -> f64,
{
    if k == 0 {
        return Vec::new();
    }
    let _timer = obs::span("routing.yen.shortest_path");
    let net = view.network();
    let n = net.num_nodes();

    let mut scratch = acquire_scratch(n);
    scratch.dijkstra.set_cancel(config.cancel.clone());
    let Some(first) = scratch
        .dijkstra
        .shortest_path(view, &weight, source, target)
    else {
        return Vec::new();
    };
    if source == target {
        return vec![first];
    }

    // Flushed once at the end of the enumeration.
    let mut spur_searches: u64 = 0;
    let mut dead_end_spurs: u64 = 0;
    let mut candidates_generated: u64 = 0;
    let mut duplicate_candidates: u64 = 0;

    // Admissible heuristic: a caller-shared distance table, exact
    // distances to target on the caller's view, or the trivial zero
    // heuristic (degrading A* to Dijkstra).
    let owned_rev: Vec<f64>;
    let rev: &[f64] = if let Some(shared) = &config.shared_reverse {
        debug_assert!(shared.len() >= n, "shared reverse table too short");
        shared
    } else if config.reverse_heuristic {
        owned_rev = scratch
            .dijkstra
            .distances(view, &weight, target, Direction::Backward);
        &owned_rev
    } else {
        owned_rev = vec![0.0; n];
        &owned_rev
    };
    scratch.astar.set_cancel(config.cancel.clone());

    // Working view: caller's removals plus temporary spur removals.
    let mut work = view.clone();

    let mut scan = TargetScan::default();
    let mut yen = Enumeration::new(first);
    if k > 1 {
        yen.push_spurs(view, &weight, rev);
    }

    while yen.accepted.len() < k {
        if let Some(token) = &config.cancel {
            if token.is_cancelled() {
                break;
            }
        }
        let Some(entry) = yen.heap.pop() else {
            break;
        };
        match entry.spur {
            Spur::Pending {
                parent,
                index,
                prefix_weight,
                blocked,
            } => {
                let prev = &yen.accepted[parent].0;

                // Pooled buffer instead of a per-spur allocation: taken
                // out of the scratch for the duration of the spur and
                // put back (cleared) below.
                let mut removed = std::mem::take(&mut scratch.spur_removed);
                removed.clear();
                for &e in &yen.blocked[blocked] {
                    if work.remove_edge(e) {
                        removed.push(e);
                    }
                }
                // Remove the root-path nodes (all their out-edges) so
                // spur paths cannot re-enter the prefix and stay simple.
                for &v in &prev.nodes()[..index] {
                    for e in net.out_edges(v) {
                        if work.remove_edge(e) {
                            removed.push(e);
                        }
                    }
                }

                let spur_node = prev.nodes()[index];
                let spur = if scan.cut_off(&work, spur_node, target) {
                    dead_end_spurs += 1;
                    None
                } else {
                    spur_searches += 1;
                    scratch.astar.shortest_path(
                        &work,
                        &weight,
                        |v| rev[v.index()],
                        spur_node,
                        target,
                    )
                };

                for &e in &removed {
                    work.restore_edge(e);
                }
                scratch.spur_removed = removed;

                let Some(spur) = spur else {
                    continue;
                };
                let mut edges = prev.edges()[..index].to_vec();
                edges.extend_from_slice(spur.edges());
                // Membership test on the borrowed slice first: cloning
                // the edge list for an already-seen candidate would be
                // pure allocator churn on the hottest Yen branch.
                match yen.seen.get_mut(edges.as_slice()) {
                    Some(first) if *first < entry.seq => {
                        duplicate_candidates += 1;
                        continue;
                    }
                    Some(first) => {
                        // This copy was made before the one already
                        // found, which is now stale (rule 5).
                        duplicate_candidates += 1;
                        *first = entry.seq;
                    }
                    None => {
                        yen.seen.insert(edges.clone(), entry.seq);
                        candidates_generated += 1;
                    }
                }
                let mut nodes = prev.nodes()[..=index].to_vec();
                nodes.extend_from_slice(&spur.nodes()[1..]);
                let total = prefix_weight + spur.total_weight();
                yen.heap.push(Entry {
                    key: total,
                    seq: entry.seq,
                    spur: Spur::Found {
                        path: Path::from_parts(nodes, edges, total),
                        deviation: index,
                    },
                });
            }
            Spur::Found { path, deviation } => {
                let winner = yen
                    .seen
                    .get_mut(path.edges())
                    .expect("every found candidate is recorded as seen");
                if *winner != entry.seq {
                    continue; // stale copy (rule 5)
                }
                *winner = ACCEPTED;
                yen.accepted.push((path, deviation));
                if yen.accepted.len() < k {
                    yen.push_spurs(view, &weight, rev);
                }
            }
        }
    }

    let spur_skips = yen
        .heap
        .iter()
        .filter(|e| matches!(e.spur, Spur::Pending { .. }))
        .count();
    obs::add("routing.yen.queries", 1);
    obs::add("routing.yen.spur_searches", spur_searches);
    obs::add("routing.yen.spur_skips", spur_skips as u64);
    obs::add("routing.yen.dead_end_spurs", dead_end_spurs);
    obs::add("routing.yen.duplicate_candidates", duplicate_candidates);
    obs::record_value("routing.yen.candidates_per_query", candidates_generated);
    obs::record_value("routing.yen.paths_per_query", yen.accepted.len() as u64);

    yen.accepted.into_iter().map(|(p, _)| p).collect()
}

/// Convenience wrapper returning only the `rank`-th shortest path
/// (1-based: `rank == 1` is the shortest). The paper's experiments use
/// `rank == 100` as the attacker's chosen alternative route `p*`.
///
/// Returns `None` if fewer than `rank` simple paths exist.
pub fn kth_shortest_path<F>(
    view: &GraphView<'_>,
    weight: F,
    source: NodeId,
    target: NodeId,
    rank: usize,
) -> Option<Path>
where
    F: Fn(EdgeId) -> f64,
{
    if rank == 0 {
        return None;
    }
    let mut paths = k_shortest_paths(view, weight, source, target, rank);
    if paths.len() < rank {
        return None;
    }
    Some(paths.swap_remove(rank - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic_graph::{EdgeAttrs, Point, RoadClass, RoadNetwork, RoadNetworkBuilder};

    fn len(net: &RoadNetwork) -> impl Fn(EdgeId) -> f64 + '_ {
        move |e| net.edge_attrs(e).length_m
    }

    /// Classic Yen example graph (directed, from the original paper).
    fn yen_example() -> (RoadNetwork, Vec<NodeId>) {
        // c → d → f → h with extra arcs; known 3 shortest paths:
        // c-e-f-h (5), c-e-g-h (7), c-d-f-h (8)
        let mut b = RoadNetworkBuilder::new("yen");
        let c = b.add_node(Point::new(0.0, 0.0));
        let d = b.add_node(Point::new(1.0, 1.0));
        let e = b.add_node(Point::new(1.0, -1.0));
        let f = b.add_node(Point::new(2.0, 1.0));
        let g = b.add_node(Point::new(2.0, -1.0));
        let h = b.add_node(Point::new(3.0, 0.0));
        let mut arc = |from, to, w: f64| {
            let mut a = EdgeAttrs::from_class(RoadClass::Primary, w);
            a.length_m = w;
            b.add_edge(from, to, a);
        };
        arc(c, d, 3.0);
        arc(c, e, 2.0);
        arc(d, f, 4.0);
        arc(e, d, 1.0);
        arc(e, f, 2.0);
        arc(e, g, 3.0);
        arc(f, g, 2.0);
        arc(f, h, 1.0);
        arc(g, h, 2.0);
        (b.build(), vec![c, d, e, f, g, h])
    }

    #[test]
    fn yen_classic_example() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        let paths = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 3);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].total_weight(), 5.0);
        assert_eq!(paths[1].total_weight(), 7.0);
        assert_eq!(paths[2].total_weight(), 8.0);
    }

    #[test]
    fn paths_are_sorted_simple_and_distinct() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        let paths = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 10);
        for w in paths.windows(2) {
            assert!(w[0].total_weight() <= w[1].total_weight() + 1e-12);
            assert_ne!(w[0].edges(), w[1].edges());
        }
        for p in &paths {
            assert!(p.is_simple(), "{p}");
            assert_eq!(p.source(), nodes[0]);
            assert_eq!(p.target(), nodes[5]);
        }
    }

    #[test]
    fn exhausts_finite_path_count() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        let paths = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 1000);
        // The graph has a small finite number of simple c→h paths.
        assert!(paths.len() < 20);
        assert!(paths.len() >= 3);
        // Asking for more must not change the set.
        let again = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 2000);
        assert_eq!(paths.len(), again.len());
    }

    #[test]
    fn grid_path_counts() {
        // 3×3 grid: simple monotone paths 0→8 include all 6 lattice
        // paths of length 400; more with detours.
        let mut b = RoadNetworkBuilder::new("grid3");
        let mut nodes = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                nodes.push(b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0)));
            }
        }
        for y in 0..3 {
            for x in 0..3 {
                let i = y * 3 + x;
                if x + 1 < 3 {
                    b.add_street(nodes[i], nodes[i + 1], RoadClass::Residential);
                }
                if y + 1 < 3 {
                    b.add_street(nodes[i], nodes[i + 3], RoadClass::Residential);
                }
            }
        }
        let net = b.build();
        let view = GraphView::new(&net);
        let paths = k_shortest_paths(&view, len(&net), nodes[0], nodes[8], 6);
        assert_eq!(paths.len(), 6);
        for p in &paths {
            assert_eq!(p.total_weight(), 400.0, "first six are monotone");
        }
    }

    #[test]
    fn respects_caller_removals() {
        let (net, nodes) = yen_example();
        let mut view = GraphView::new(&net);
        // remove e→f (the spine of the shortest path)
        let ef = net.find_edge(nodes[2], nodes[3]).unwrap();
        view.remove_edge(ef);
        let paths = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 5);
        assert!(!paths.is_empty());
        for p in &paths {
            assert!(!p.contains_edge(ef));
        }
        assert_eq!(paths[0].total_weight(), 7.0); // c-e-g-h
    }

    #[test]
    fn unreachable_gives_empty() {
        let (net, nodes) = yen_example();
        let mut view = GraphView::new(&net);
        for e in net.edges() {
            view.remove_edge(e);
        }
        assert!(k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 3).is_empty());
    }

    #[test]
    fn k_zero_gives_empty() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        assert!(k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 0).is_empty());
    }

    #[test]
    fn kth_shortest_path_rank() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        let p1 = kth_shortest_path(&view, len(&net), nodes[0], nodes[5], 1).unwrap();
        assert_eq!(p1.total_weight(), 5.0);
        let p3 = kth_shortest_path(&view, len(&net), nodes[0], nodes[5], 3).unwrap();
        assert_eq!(p3.total_weight(), 8.0);
        assert!(kth_shortest_path(&view, len(&net), nodes[0], nodes[5], 9999).is_none());
        assert!(kth_shortest_path(&view, len(&net), nodes[0], nodes[5], 0).is_none());
    }

    #[test]
    fn source_equals_target() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        let paths = k_shortest_paths(&view, len(&net), nodes[0], nodes[0], 5);
        assert_eq!(paths.len(), 1);
        assert!(paths[0].is_empty());
    }

    #[test]
    fn heuristic_and_plain_variants_agree() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        let fast = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 8);
        let plain = k_shortest_paths_with(
            &view,
            len(&net),
            nodes[0],
            nodes[5],
            8,
            &YenConfig {
                reverse_heuristic: false,
                ..YenConfig::default()
            },
        );
        assert_eq!(fast.len(), plain.len());
        for (a, b) in fast.iter().zip(&plain) {
            assert!((a.total_weight() - b.total_weight()).abs() < 1e-9);
        }
    }

    #[test]
    fn shared_reverse_table_matches_owned_computation() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        // The table the enumeration would compute for itself, shared.
        let mut dij = crate::Dijkstra::new(net.num_nodes());
        let rev = dij.distances(&view, len(&net), nodes[5], Direction::Backward);
        let shared = k_shortest_paths_with(
            &view,
            len(&net),
            nodes[0],
            nodes[5],
            8,
            &YenConfig {
                shared_reverse: Some(Arc::new(rev)),
                ..YenConfig::default()
            },
        );
        let owned = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 8);
        assert_eq!(shared.len(), owned.len());
        for (a, b) in shared.iter().zip(&owned) {
            assert_eq!(a.edges(), b.edges());
            assert_eq!(a.total_weight(), b.total_weight());
        }
    }

    #[test]
    fn shared_supergraph_table_stays_admissible_after_removals() {
        let (net, nodes) = yen_example();
        // Table computed on the intact graph...
        let intact = GraphView::new(&net);
        let mut dij = crate::Dijkstra::new(net.num_nodes());
        let rev = Arc::new(dij.distances(&intact, len(&net), nodes[5], Direction::Backward));
        // ...used on a view with an edge removed (distances only grew).
        let mut view = GraphView::new(&net);
        let ef = net.find_edge(nodes[2], nodes[3]).unwrap();
        view.remove_edge(ef);
        let shared = k_shortest_paths_with(
            &view,
            len(&net),
            nodes[0],
            nodes[5],
            5,
            &YenConfig {
                shared_reverse: Some(rev),
                ..YenConfig::default()
            },
        );
        let owned = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 5);
        assert_eq!(shared.len(), owned.len());
        for (a, b) in shared.iter().zip(&owned) {
            assert_eq!(a.edges(), b.edges());
        }
    }

    #[test]
    fn cancelled_enumeration_returns_prefix() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        let token = CancelToken::new();
        token.cancel();
        let config = YenConfig {
            cancel: Some(token),
            ..YenConfig::default()
        };
        // The initial Dijkstra on this tiny graph completes before the
        // first stride check, so the shortest path is accepted; the
        // enumeration then sees the cancelled token before its first
        // spur search and stops.
        let paths = k_shortest_paths_with(&view, len(&net), nodes[0], nodes[5], 8, &config);
        assert!(paths.len() <= 1);
    }

    #[test]
    fn working_view_restored_between_calls() {
        let (net, nodes) = yen_example();
        let view = GraphView::new(&net);
        let a = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 4);
        let b = k_shortest_paths(&view, len(&net), nodes[0], nodes[5], 4);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.edges(), y.edges());
        }
        assert_eq!(view.removed_count(), 0);
    }
}
