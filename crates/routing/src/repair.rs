//! Decremental repair of reverse distance tables (Ramalingam–Reps).
//!
//! The attack loops in this workspace remove a handful of edges from a
//! city, re-query shortest paths toward a fixed target, and repeat.
//! PR 3's reuse layer shares one backward Dijkstra table per
//! `(network, weight, target)` — but only for *unmodified* views, so
//! every query on a mutated view still pays a full sweep. This module
//! closes that gap: a [`RepairTable`] keeps the distance table **and**
//! its shortest-path-tree parent edges, and on edge removal re-settles
//! only the subtree hanging off the deleted edge (the "orphans")
//! instead of the whole city.
//!
//! # Algorithm
//!
//! The table stores, for every node `v`, the exact distance `dist[v]`
//! from `v` to the target and the out-edge `parent[v]` that starts `v`'s
//! shortest path toward it. [`RepairTable::sync`] diffs the table's
//! removal set against a [`GraphView`] and applies each new removal `e`:
//!
//! 1. If `parent[src(e)] != e` the edge is not in the tree — no distance
//!    can change, and the removal is free.
//! 2. Otherwise collect the orphaned subtree (every node whose parent
//!    chain passes through `e`) by following parent pointers inward,
//!    reset the orphans to `∞`, seed them from their live non-orphan
//!    out-neighbors (`w(f) + dist[b]`), and run a bounded Dijkstra that
//!    relaxes only within the orphan set.
//! 3. If the orphan count exceeds the fallback threshold the dirty
//!    region is no longer "small" and the table is rebuilt with a full
//!    backward sweep instead — or, for a table built with
//!    [`RepairTable::demote_on_overflow`], *demotes*: it falls back to
//!    the intact baseline for good.
//!
//! Restored edges (a shrinking removal set) are handled by resetting to
//! the intact baseline — kept as shared [`Arc`]s, so the reset is a pair
//! of `memcpy`s — and re-applying the current removals decrementally.
//!
//! # Exactness and bit-identity
//!
//! Repaired distances are *exact* for the synced view, and bit-identical
//! to a fresh backward [`crate::Dijkstra`] sweep on that view: both
//! compute each `dist[v]` as the same minimum over the same candidate
//! sums `w(e) + dist[succ]`, accumulated target-outward in the same
//! association order, and equal `f64` values from non-negative weights
//! are bit-equal. The property test in `tests/repair_property.rs` pins
//! this after every step of random removal sequences, including
//! disconnection (`f64::INFINITY`) and forced fallbacks.
//!
//! A demoted table is no longer exact, but its baseline distances stay
//! a lower bound on every later view (removals only lengthen paths).
//! Callers that use the table only to prune a search, like the attack
//! oracle, stay exact with it: they prune less. They stop paying for
//! syncs, too: a cut at a bottleneck that every path to the target
//! funnels through (a hospital on one access road) orphans most of the
//! city, and each further cut there would cost one more full sweep.

use crate::heap::{HeapEntry, NO_EDGE};
use std::collections::BinaryHeap;
use std::sync::Arc;
use traffic_graph::{EdgeId, GraphView, NodeId};

/// What a [`RepairTable::sync`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// The removal set differed from the previous sync (any work done).
    pub changed: bool,
    /// The table was reset to the intact baseline first (an edge was
    /// restored since the previous sync).
    pub reset: bool,
    /// A removal's dirty region exceeded the fallback threshold and the
    /// table was rebuilt with a full backward sweep.
    pub rebuilt: bool,
    /// A removal's dirty region exceeded the fallback threshold and the
    /// table demoted (see [`RepairTable::demote_on_overflow`]).
    pub demoted: bool,
    /// Nodes re-settled by the decremental repairs (excludes full
    /// rebuilds, which are accounted by `rebuilt`).
    pub resettled: u64,
}

/// Decrementally-repaired reverse distance table for one
/// `(network, weight, target)` triple.
///
/// Construct with the intact-view table from
/// [`crate::Dijkstra::distances_and_parents`] (backward sweep from the
/// target), then call [`RepairTable::sync`] with each mutated view
/// before reading distances. See the [module docs](self) for the
/// algorithm and its guarantees.
#[derive(Clone)]
pub struct RepairTable {
    target: NodeId,
    base_dist: Arc<Vec<f64>>,
    base_parent: Arc<Vec<u32>>,
    dist: Vec<f64>,
    parent: Vec<u32>,
    removed: Vec<bool>,
    removed_list: Vec<EdgeId>,
    fallback_threshold: usize,
    demote_on_overflow: bool,
    demoted: bool,
    // scratch (kept across syncs to stay allocation-free in the loop)
    pending: Vec<EdgeId>,
    orphans: Vec<u32>,
    stack: Vec<u32>,
    mark: Vec<u32>,
    settled: Vec<u32>,
    generation: u32,
    heap: BinaryHeap<HeapEntry>,
}

impl std::fmt::Debug for RepairTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairTable")
            .field("target", &self.target)
            .field("nodes", &self.dist.len())
            .field("removed", &self.removed_list.len())
            .field("fallback_threshold", &self.fallback_threshold)
            .finish()
    }
}

impl RepairTable {
    /// Creates a table from the intact-view baseline.
    ///
    /// `base_dist`/`base_parent` must come from a backward
    /// [`crate::Dijkstra::distances_and_parents`] sweep from `target` on
    /// a view whose removals are permanent (they will never be restored
    /// while this table lives — the unmodified base view in practice).
    /// `num_edges` sizes the removal mask.
    ///
    /// The default fallback threshold is `max(64, n / 2)` orphans: a
    /// full rebuild settles all `n` nodes, so the decremental path wins
    /// until the orphan region covers about half the graph (measured in
    /// `perf_repair` — an `n / 8` threshold rebuilds an order of
    /// magnitude more often and loses its whole wall-clock advantage).
    pub fn new(
        target: NodeId,
        base_dist: Arc<Vec<f64>>,
        base_parent: Arc<Vec<u32>>,
        num_edges: usize,
    ) -> Self {
        let n = base_dist.len();
        debug_assert_eq!(n, base_parent.len());
        RepairTable {
            target,
            dist: base_dist.as_ref().clone(),
            parent: base_parent.as_ref().clone(),
            base_dist,
            base_parent,
            removed: vec![false; num_edges],
            removed_list: Vec::new(),
            fallback_threshold: (n / 2).max(64),
            demote_on_overflow: false,
            demoted: false,
            pending: Vec::new(),
            orphans: Vec::new(),
            stack: Vec::new(),
            mark: vec![0; n],
            settled: vec![0; n],
            generation: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Overrides the orphan-count threshold above which a removal
    /// triggers a full rebuild instead of a decremental repair.
    pub fn with_fallback_threshold(mut self, threshold: usize) -> Self {
        self.fallback_threshold = threshold;
        self
    }

    /// Makes a removal past the fallback threshold demote the table
    /// instead of rebuilding it: the table then holds the intact
    /// baseline, a lower bound on distances in every view whose
    /// removals include the baseline view's, and later syncs do nothing.
    /// For callers that only prune with the table.
    pub fn demote_on_overflow(mut self) -> Self {
        self.demote_on_overflow = true;
        self
    }

    /// Whether the table has demoted to the intact baseline.
    pub fn is_demoted(&self) -> bool {
        self.demoted
    }

    /// The target node this table measures distances to.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// The current distance table: exact for the last synced view, or
    /// the intact baseline once demoted.
    pub fn dist(&self) -> &[f64] {
        &self.dist
    }

    /// Distance from `node` to the target on the last synced view
    /// (`f64::INFINITY` when disconnected).
    pub fn distance(&self, node: NodeId) -> f64 {
        self.dist[node.index()]
    }

    /// Heap bytes owned by this table (the shared baseline `Arc`s are
    /// not counted — they live once per target context).
    pub fn bytes_resident(&self) -> usize {
        8 * self.dist.len()
            + 4 * (self.parent.len() + self.mark.len() + self.settled.len())
            + self.removed.len()
    }

    /// Brings the table in sync with `view`'s removal set and returns
    /// what that took. `weight` must match the baseline sweep's weight
    /// function. No-op (and cheap: `O(removals)`) when the set is
    /// unchanged, and on a demoted table.
    pub fn sync<F>(&mut self, view: &GraphView<'_>, weight: F) -> RepairOutcome
    where
        F: Fn(EdgeId) -> f64,
    {
        let mut out = RepairOutcome::default();
        if self.demoted {
            return out;
        }
        let dropped = self.removed_list.iter().any(|&e| !view.is_removed(e));
        if !dropped && view.removed_count() == self.removed_list.len() {
            // Same size and ours ⊆ view's — identical sets.
            return out;
        }
        out.changed = true;

        if dropped {
            // An edge came back: decremental-only tables can't handle
            // incremental updates, so restart from the intact baseline
            // (two memcpys) and re-apply the survivors below.
            self.dist.copy_from_slice(&self.base_dist);
            self.parent.copy_from_slice(&self.base_parent);
            for e in self.removed_list.drain(..) {
                self.removed[e.index()] = false;
            }
            out.reset = true;
        }

        // `view` already carries the *final* removal mask while we apply
        // its removals one at a time, so repairs never relax through an
        // edge that a later step deletes; any node whose frontier value
        // goes stale because of that sits in the later edge's orphaned
        // subtree and is re-settled when that step runs.
        let mut pending = std::mem::take(&mut self.pending);
        pending.clear();
        pending.extend(view.removed_edges().filter(|e| !self.removed[e.index()]));
        for &e in &pending {
            self.removed[e.index()] = true;
            self.removed_list.push(e);
            self.apply_removal(view, &weight, e, &mut out);
            if self.demoted {
                break;
            }
        }
        self.pending = pending;

        if obs::enabled() {
            thread_local! {
                static STATS: [obs::Counter; 2] = [
                    obs::global().counter("routing.repair.syncs"),
                    obs::global().counter("routing.repair.nodes_resettled"),
                ];
            }
            STATS.with(|[syncs, resettled]| {
                syncs.add(1);
                resettled.add(out.resettled);
            });
        }
        out
    }

    fn bump_generation(&mut self) -> u32 {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.mark.fill(0);
            self.settled.fill(0);
            self.generation = 1;
        }
        self.generation
    }

    /// Applies one removal that is already present in `view`'s mask.
    fn apply_removal<F>(
        &mut self,
        view: &GraphView<'_>,
        weight: &F,
        e: EdgeId,
        out: &mut RepairOutcome,
    ) where
        F: Fn(EdgeId) -> f64,
    {
        let net = view.network();
        let src = net.edge_source(e).index();
        if self.parent[src] != e.index() as u32 {
            // Not a tree edge: no shortest path in the table uses it.
            return;
        }

        // Orphan collection: the subtree rooted at src under the
        // current parent tree. A node's children are exactly the nodes
        // whose parent edge points at it, found via the in-edge lists of
        // the *network* (a parent edge is live by construction).
        let gen = self.bump_generation();
        self.stack.clear();
        self.orphans.clear();
        self.stack.push(src as u32);
        self.mark[src] = gen;
        while let Some(x) = self.stack.pop() {
            self.orphans.push(x);
            if self.orphans.len() > self.fallback_threshold {
                break; // the full list is not needed past the threshold
            }
            for f in net.in_edges(NodeId::new(x as usize)) {
                let y = net.edge_source(f).index();
                if self.parent[y] == f.index() as u32 && self.mark[y] != gen {
                    self.mark[y] = gen;
                    self.stack.push(y as u32);
                }
            }
        }

        if self.orphans.len() > self.fallback_threshold {
            if self.demote_on_overflow {
                self.dist.copy_from_slice(&self.base_dist);
                self.parent.copy_from_slice(&self.base_parent);
                self.demoted = true;
                out.demoted = true;
            } else {
                self.full_rebuild(view, weight);
                out.rebuilt = true;
            }
            return;
        }

        // Seed each orphan from its best live non-orphan out-neighbor;
        // orphan neighbors are skipped (their distances are stale until
        // the bounded sweep below settles them).
        for &x in &self.orphans {
            let xi = x as usize;
            self.dist[xi] = f64::INFINITY;
            self.parent[xi] = NO_EDGE;
        }
        self.heap.clear();
        for i in 0..self.orphans.len() {
            let xi = self.orphans[i] as usize;
            for (f, b) in view.out_neighbors(NodeId::new(xi)) {
                if self.mark[b.index()] == gen {
                    continue;
                }
                let cand = weight(f) + self.dist[b.index()];
                if cand < self.dist[xi] {
                    self.dist[xi] = cand;
                    self.parent[xi] = f.index() as u32;
                }
            }
            if self.dist[xi].is_finite() {
                self.heap.push(HeapEntry {
                    dist: self.dist[xi],
                    node: xi as u32,
                });
            }
        }

        // Bounded Dijkstra confined to the orphan set.
        while let Some(HeapEntry { dist: d, node: x }) = self.heap.pop() {
            let xi = x as usize;
            if self.settled[xi] == gen || d > self.dist[xi] {
                continue;
            }
            self.settled[xi] = gen;
            out.resettled += 1;
            for (g, y) in view.in_neighbors(NodeId::new(xi)) {
                let yi = y.index();
                if self.mark[yi] != gen || self.settled[yi] == gen {
                    continue;
                }
                let cand = weight(g) + self.dist[xi];
                if cand < self.dist[yi] {
                    self.dist[yi] = cand;
                    self.parent[yi] = g.index() as u32;
                    self.heap.push(HeapEntry {
                        dist: cand,
                        node: yi as u32,
                    });
                }
            }
        }
        // Orphans the sweep never reached stay at ∞ — disconnected from
        // the target on this view.
    }

    /// Full backward sweep over `view`, mirroring
    /// [`crate::Dijkstra::sweep`] so the rebuilt table stays bit-identical
    /// to a fresh one.
    fn full_rebuild<F>(&mut self, view: &GraphView<'_>, weight: &F)
    where
        F: Fn(EdgeId) -> f64,
    {
        let gen = self.bump_generation();
        self.dist.fill(f64::INFINITY);
        self.parent.fill(NO_EDGE);
        self.heap.clear();
        let t = self.target.index();
        self.dist[t] = 0.0;
        self.heap.push(HeapEntry {
            dist: 0.0,
            node: t as u32,
        });
        while let Some(HeapEntry { dist: d, node: v }) = self.heap.pop() {
            let vi = v as usize;
            if self.settled[vi] == gen {
                continue;
            }
            self.settled[vi] = gen;
            for (e, w) in view.in_neighbors(NodeId::new(vi)) {
                let wi = w.index();
                let nd = d + weight(e);
                if nd < self.dist[wi] {
                    self.dist[wi] = nd;
                    self.parent[wi] = e.index() as u32;
                    self.heap.push(HeapEntry {
                        dist: nd,
                        node: wi as u32,
                    });
                }
            }
        }
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

    fn table_for(net: &RoadNetwork, target: NodeId) -> RepairTable {
        let view = GraphView::new(net);
        let weight = |e: EdgeId| net.edge_attrs(e).travel_time_s();
        let mut dij = Dijkstra::new(net.num_nodes());
        let (d, p) = dij.distances_and_parents(&view, weight, target, Direction::Backward);
        RepairTable::new(target, Arc::new(d), Arc::new(p), net.num_edges())
    }

    fn assert_matches_fresh(net: &RoadNetwork, view: &GraphView<'_>, table: &RepairTable) {
        let weight = |e: EdgeId| net.edge_attrs(e).travel_time_s();
        let mut dij = Dijkstra::new(net.num_nodes());
        let fresh = dij.distances(view, weight, table.target(), Direction::Backward);
        for (v, (&a, &b)) in table.dist().iter().zip(fresh.iter()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "node {v}: repaired {a} != fresh {b}"
            );
        }
    }

    #[test]
    fn unchanged_view_is_a_noop() {
        let net = grid4();
        let view = GraphView::new(&net);
        let weight = |e: EdgeId| net.edge_attrs(e).travel_time_s();
        let mut table = table_for(&net, NodeId::new(15));
        let out = table.sync(&view, weight);
        assert_eq!(out, RepairOutcome::default());
        assert_matches_fresh(&net, &view, &table);
    }

    #[test]
    fn nontree_removal_changes_nothing() {
        let net = grid4();
        let mut view = GraphView::new(&net);
        let weight = |e: EdgeId| net.edge_attrs(e).travel_time_s();
        let mut table = table_for(&net, NodeId::new(15));
        let before = table.dist().to_vec();
        // Find an edge that is not anyone's parent.
        let nontree = net
            .edges()
            .find(|e| {
                let s = net.edge_source(*e).index();
                table.parent[s] != e.index() as u32
            })
            .expect("grid has non-tree edges");
        view.remove_edge(nontree);
        let out = table.sync(&view, weight);
        assert!(out.changed && !out.rebuilt && out.resettled == 0);
        assert_eq!(before, table.dist());
        assert_matches_fresh(&net, &view, &table);
    }

    #[test]
    fn tree_removal_repairs_subtree_only() {
        let net = grid4();
        let mut view = GraphView::new(&net);
        let weight = |e: EdgeId| net.edge_attrs(e).travel_time_s();
        let mut table = table_for(&net, NodeId::new(15));
        // Remove node 0's parent edge: its subtree must be re-settled.
        let tree_edge = EdgeId::new(table.parent[0] as usize);
        view.remove_edge(tree_edge);
        let out = table.sync(&view, weight);
        assert!(out.changed && out.resettled > 0);
        assert!(
            (out.resettled as usize) < net.num_nodes(),
            "repair must not touch the whole grid"
        );
        assert_matches_fresh(&net, &view, &table);
    }

    #[test]
    fn restore_resets_and_reapplies() {
        let net = grid4();
        let mut view = GraphView::new(&net);
        let weight = |e: EdgeId| net.edge_attrs(e).travel_time_s();
        let mut table = table_for(&net, NodeId::new(15));
        let e0 = EdgeId::new(table.parent[0] as usize);
        view.remove_edge(e0);
        table.sync(&view, weight);
        let e1 = EdgeId::new(table.parent[5] as usize);
        view.restore_edge(e0);
        view.remove_edge(e1);
        let out = table.sync(&view, weight);
        assert!(out.reset, "restoring an edge must reset to the baseline");
        assert_matches_fresh(&net, &view, &table);
    }

    #[test]
    fn fallback_threshold_forces_full_rebuild() {
        let net = grid4();
        let mut view = GraphView::new(&net);
        let weight = |e: EdgeId| net.edge_attrs(e).travel_time_s();
        let mut table = table_for(&net, NodeId::new(15)).with_fallback_threshold(0);
        let tree_edge = EdgeId::new(table.parent[0] as usize);
        view.remove_edge(tree_edge);
        let out = table.sync(&view, weight);
        assert!(out.rebuilt && out.resettled == 0);
        assert_matches_fresh(&net, &view, &table);
    }

    #[test]
    fn overflow_demotes_to_the_baseline_lower_bound() {
        let net = grid4();
        let mut view = GraphView::new(&net);
        let weight = |e: EdgeId| net.edge_attrs(e).travel_time_s();
        let baseline = table_for(&net, NodeId::new(15));
        let mut table = table_for(&net, NodeId::new(15))
            .with_fallback_threshold(0)
            .demote_on_overflow();
        view.remove_edge(EdgeId::new(table.parent[0] as usize));
        let out = table.sync(&view, weight);
        assert!(out.demoted && !out.rebuilt && table.is_demoted());
        assert_eq!(table.dist(), baseline.dist());

        // Later syncs do nothing (here: node 0 loses its other out-edge
        // too), and the baseline stays a lower bound.
        let outs: Vec<EdgeId> = net.out_edges(NodeId::new(0)).collect();
        for e in outs {
            view.remove_edge(e);
        }
        assert_eq!(table.sync(&view, weight), RepairOutcome::default());
        let mut dij = Dijkstra::new(net.num_nodes());
        let exact = dij.distances(&view, weight, NodeId::new(15), Direction::Backward);
        assert!(table.dist().iter().zip(&exact).all(|(a, b)| a <= b));
        assert!(exact[0].is_infinite() && table.distance(NodeId::new(0)).is_finite());
    }

    #[test]
    fn disconnection_goes_infinite() {
        let net = grid4();
        let mut view = GraphView::new(&net);
        let weight = |e: EdgeId| net.edge_attrs(e).travel_time_s();
        let mut table = table_for(&net, NodeId::new(15));
        // Cut node 0 off entirely: remove both of its out-edges.
        let outs: Vec<EdgeId> = net.out_edges(NodeId::new(0)).collect();
        for e in outs {
            view.remove_edge(e);
        }
        table.sync(&view, weight);
        assert!(table.distance(NodeId::new(0)).is_infinite());
        assert_matches_fresh(&net, &view, &table);
    }
}
