//! Customizable contraction hierarchies (CCH) over the frozen CSR
//! substrate.
//!
//! The classic [`crate::ContractionHierarchy`] in `ch.rs` bakes the
//! metric into the contraction: witness searches decide which shortcuts
//! exist, so changing a single edge weight — or removing an edge, the
//! attack primitive of this workspace — invalidates the whole hierarchy.
//! At the `mega` scale tier (~1.3 M nodes) a re-contraction costs
//! minutes, which makes the hierarchy useless inside an attack loop that
//! mutates the graph thousands of times.
//!
//! A *customizable* CH (Dibbelt, Strasser & Wagner, "Customizable
//! Contraction Hierarchies") splits the work in two:
//!
//! 1. **Metric-independent preprocessing** ([`Cch::build`], once per
//!    city): a nested-dissection order computed from node coordinates,
//!    followed by a chordal completion of the graph along that order.
//!    The result is pure topology — ranks, the up-arc/down-arc CSR of
//!    the chordal supergraph, the elimination tree, and the mapping
//!    between original edges and chordal arcs. No weights anywhere.
//! 2. **Customization** ([`Cch::customize`], once per weight function):
//!    seed every arc from its original edges, then relax all lower
//!    triangles in ascending rank order. Output is a [`CchMetric`] —
//!    two `f64` columns (`w_up`, `w_down`) over the fixed topology.
//!
//! Because the topology never changes, an edge removal (weight → ∞) or
//! a [`crate::WeightOverlay`] perturbation (weight + δ) is a *partial*
//! re-customization ([`Cch::recustomize`]): only triangles reachable
//! from the changed arcs are re-relaxed, ordered by lower-endpoint rank
//! so every arc is finalized before anything above it reads it. The
//! attack loop's mutate–query cycle therefore costs milliseconds
//! instead of a rebuild.
//!
//! Queries come in two shapes:
//!
//! - [`CchSearch::query`] — point-to-point via the elimination tree: no
//!   priority queue, just two ancestor-path sweeps and a merge.
//! - [`Cch::reverse_distances`] — PHAST-style one-to-all *into* a
//!   target: an upward pass along the target's ancestor path and a
//!   single descending sweep over all up-arcs.
//!
//! The attack oracles do not use the hierarchy: keeping a one-to-all
//! table exact under removals by re-customization measured 5–32× slower
//! than decremental Dijkstra repair ([`crate::RepairTable`]), because a
//! removal near a high-rank separator cascades through a large share of
//! the chordal arcs even when few final distances change.
//!
//! Distances are exact for the customized weight function, including
//! `f64::INFINITY` for disconnected pairs. The property test in
//! `tests/cch_property.rs` pins bit-equality against backward Dijkstra
//! on integer-valued weights (where `f64` sums are associative).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashSet;
use traffic_graph::{EdgeId, FrozenGraph, NodeId};

/// Sentinel for "no parent" / "no arc".
const NONE: u32 = u32::MAX;

/// Leaf size at which nested dissection stops splitting.
const ND_LEAF: usize = 32;

/// Metric-independent part of a customizable contraction hierarchy:
/// rank order, chordal arc topology, elimination tree, and the mapping
/// between original edges and chordal arcs.
///
/// Build once per city with [`Cch::build`]; customize per weight
/// function with [`Cch::customize`]. All arc-level state is stored in
/// *rank space* (node `x` here means "the node with rank `x`"), which
/// makes ascending-rank processing a plain array walk.
#[derive(Debug, Clone)]
pub struct Cch {
    n: usize,
    /// node index → rank.
    rank: Vec<u32>,
    /// rank → node index.
    order: Vec<u32>,
    /// Up-arc CSR by lower-endpoint rank; heads ascending within a node.
    up_start: Vec<u32>,
    up_head: Vec<u32>,
    /// Down-arc CSR by upper-endpoint rank; tails ascending, with the
    /// owning arc id alongside.
    down_start: Vec<u32>,
    down_tail: Vec<u32>,
    down_arc: Vec<u32>,
    /// Elimination-tree parent (rank space); `NONE` for roots.
    parent: Vec<u32>,
    /// Arc → contributing original edges, packed `(edge << 1) | dir`
    /// where `dir = 1` means the edge travels lower→upper rank (feeds
    /// `w_up`).
    arc_edges_start: Vec<u32>,
    arc_edges: Vec<u32>,
    /// Edge → arc id (`NONE` for self-loops, which never affect
    /// shortest paths under non-negative weights).
    edge_arc: Vec<u32>,
}

impl Cch {
    /// Builds the metric-independent hierarchy for `g`: nested-dissection
    /// order from node coordinates, chordal completion, elimination
    /// tree, and edge↔arc maps. `O(m log n)` ordering plus fill-bounded
    /// elimination; no weights are read.
    pub fn build(g: &FrozenGraph) -> Cch {
        let n = g.num_nodes();
        let order = nested_dissection_order(g);
        let mut rank = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v as usize] = r as u32;
        }

        // Initial (pre-fill) up-neighbor lists in rank space.
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(g.num_edges());
        for v in 0..n {
            let rv = rank[v];
            g.out_arcs(NodeId::new(v)).for_each(|(_, h)| {
                let rh = rank[h.index()];
                if rv != rh {
                    pairs.push((rv.min(rh), rv.max(rh)));
                }
            });
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut init_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (lo, hi) in pairs {
            init_lists[lo as usize].push(hi);
        }

        // Chordal completion via the elimination-tree recurrence: the
        // final up-neighborhood of x is its original up-neighbors plus
        // the final up-neighborhoods of its elimination-tree children,
        // minus x itself (symbolic Cholesky column structure). Each
        // child list is read exactly once, so total work and memory are
        // bounded by the fill.
        let mut final_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut parent = vec![NONE; n];
        let mut total_arcs: usize = 0;
        for x in 0..n {
            let mut gathered = std::mem::take(&mut init_lists[x]);
            for c in std::mem::take(&mut children[x]) {
                gathered.extend(
                    final_lists[c as usize]
                        .iter()
                        .copied()
                        .filter(|&q| q != x as u32),
                );
            }
            gathered.sort_unstable();
            gathered.dedup();
            if let Some(&p) = gathered.first() {
                parent[x] = p;
                children[p as usize].push(x as u32);
            }
            total_arcs += gathered.len();
            final_lists[x] = gathered;
        }
        assert!(
            total_arcs < NONE as usize,
            "chordal fill exceeds u32 arc ids"
        );

        let mut up_start = Vec::with_capacity(n + 1);
        let mut up_head = Vec::with_capacity(total_arcs);
        up_start.push(0u32);
        for list in &final_lists {
            up_head.extend_from_slice(list);
            up_start.push(up_head.len() as u32);
        }
        drop(final_lists);

        // Down-arc CSR: counting sort by head. Arc ids ascend with the
        // lower endpoint, so the per-head tail lists come out sorted.
        let mut down_start = vec![0u32; n + 1];
        for &h in &up_head {
            down_start[h as usize + 1] += 1;
        }
        for i in 0..n {
            down_start[i + 1] += down_start[i];
        }
        let mut cursor = down_start.clone();
        let mut down_tail = vec![0u32; total_arcs];
        let mut down_arc = vec![0u32; total_arcs];
        for x in 0..n {
            let s = up_start[x] as usize;
            let e = up_start[x + 1] as usize;
            for (i, &h) in up_head[s..e].iter().enumerate() {
                let slot = cursor[h as usize] as usize;
                down_tail[slot] = x as u32;
                down_arc[slot] = (s + i) as u32;
                cursor[h as usize] += 1;
            }
        }

        let mut cch = Cch {
            n,
            rank,
            order,
            up_start,
            up_head,
            down_start,
            down_tail,
            down_arc,
            parent,
            arc_edges_start: Vec::new(),
            arc_edges: Vec::new(),
            edge_arc: Vec::new(),
        };

        // Edge ↔ arc maps. Direction bit: 1 when the edge travels from
        // the lower-ranked endpoint to the upper-ranked one.
        let mut edge_arc = vec![NONE; g.num_edges()];
        let mut counts = vec![0u32; total_arcs + 1];
        let mut packed: Vec<(u32, u32)> = Vec::with_capacity(g.num_edges());
        for v in 0..n {
            let rv = cch.rank[v];
            g.out_arcs(NodeId::new(v)).for_each(|(e, h)| {
                let rh = cch.rank[h.index()];
                if rv == rh {
                    return; // self-loop
                }
                let (lo, hi, dir) = if rv < rh { (rv, rh, 1) } else { (rh, rv, 0) };
                let a = cch
                    .arc_between(lo, hi)
                    .expect("original edge must map to a chordal arc");
                debug_assert!(e.index() < (NONE as usize) >> 1);
                edge_arc[e.index()] = a;
                counts[a as usize + 1] += 1;
                packed.push((a, (e.index() as u32) << 1 | dir));
            });
        }
        for i in 0..total_arcs {
            counts[i + 1] += counts[i];
        }
        let mut cursor = counts.clone();
        let mut arc_edges = vec![0u32; packed.len()];
        for (a, p) in packed {
            arc_edges[cursor[a as usize] as usize] = p;
            cursor[a as usize] += 1;
        }
        cch.arc_edges_start = counts;
        cch.arc_edges = arc_edges;
        cch.edge_arc = edge_arc;
        cch
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of chordal arcs (original plus fill shortcuts).
    pub fn num_arcs(&self) -> usize {
        self.up_head.len()
    }

    /// Heap bytes held by the topology arenas.
    pub fn bytes_resident(&self) -> usize {
        4 * (self.rank.len()
            + self.order.len()
            + self.up_start.len()
            + self.up_head.len()
            + self.down_start.len()
            + self.down_tail.len()
            + self.down_arc.len()
            + self.parent.len()
            + self.arc_edges_start.len()
            + self.arc_edges.len()
            + self.edge_arc.len())
    }

    /// The rank of `node` in the elimination order.
    pub fn rank_of(&self, node: NodeId) -> u32 {
        self.rank[node.index()]
    }

    #[inline]
    fn up_range(&self, x: u32) -> (usize, usize) {
        (
            self.up_start[x as usize] as usize,
            self.up_start[x as usize + 1] as usize,
        )
    }

    #[inline]
    fn down_range(&self, x: u32) -> (usize, usize) {
        (
            self.down_start[x as usize] as usize,
            self.down_start[x as usize + 1] as usize,
        )
    }

    /// The arc id of chordal arc `{lo, hi}` (`lo < hi` in rank space).
    #[inline]
    fn arc_between(&self, lo: u32, hi: u32) -> Option<u32> {
        let (s, e) = self.up_range(lo);
        self.up_head[s..e]
            .binary_search(&hi)
            .ok()
            .map(|i| (s + i) as u32)
    }

    /// Seeds every arc's `w_up`/`w_down` from its original edges.
    fn init_metric<F>(&self, weight: &F) -> CchMetric
    where
        F: Fn(EdgeId) -> f64,
    {
        let arcs = self.num_arcs();
        let mut m = CchMetric {
            w_up: vec![f64::INFINITY; arcs],
            w_down: vec![f64::INFINITY; arcs],
        };
        for a in 0..arcs {
            let (u, d) = self.arc_seed(a as u32, weight);
            m.w_up[a] = u;
            m.w_down[a] = d;
        }
        m
    }

    /// The `(w_up, w_down)` contribution of arc `a`'s original edges
    /// (infinite for pure fill arcs).
    #[inline]
    fn arc_seed<F>(&self, a: u32, weight: &F) -> (f64, f64)
    where
        F: Fn(EdgeId) -> f64,
    {
        let s = self.arc_edges_start[a as usize] as usize;
        let e = self.arc_edges_start[a as usize + 1] as usize;
        let mut up = f64::INFINITY;
        let mut down = f64::INFINITY;
        for &p in &self.arc_edges[s..e] {
            let w = weight(EdgeId::new((p >> 1) as usize));
            debug_assert!(w >= 0.0, "negative edge weight");
            if p & 1 == 1 {
                up = up.min(w);
            } else {
                down = down.min(w);
            }
        }
        (up, down)
    }

    /// Full customization: seeds arcs from `weight` and relaxes every
    /// lower triangle in ascending rank order. `O(total triangles)`.
    ///
    /// Removal masks and overlays are expressed through `weight`
    /// (`∞` for removed edges, `base + δ` for perturbed ones).
    pub fn customize<F>(&self, weight: F) -> CchMetric
    where
        F: Fn(EdgeId) -> f64,
    {
        let mut m = self.init_metric(&weight);
        let CchMetric { w_up, w_down } = &mut m;
        for x in 0..self.n as u32 {
            let (s, e) = self.up_range(x);
            let heads = &self.up_head[s..e];
            for i in 0..heads.len() {
                let ai = s + i;
                let (di, ui) = (w_down[ai], w_up[ai]);
                if di == f64::INFINITY && ui == f64::INFINITY {
                    continue;
                }
                let yi = heads[i];
                let (ys, _) = self.up_range(yi);
                let yi_heads = &self.up_head[ys..];
                let mut t = 0usize;
                for (j, &yj) in heads.iter().enumerate().skip(i + 1) {
                    let aj = s + j;
                    // Chordality guarantees {yi, yj} is an arc; the
                    // merge scan lands on it without binary search.
                    while yi_heads[t] < yj {
                        t += 1;
                    }
                    debug_assert_eq!(yi_heads[t], yj);
                    let am = ys + t;
                    let up = di + w_up[aj]; // yi → x → yj
                    if up < w_up[am] {
                        w_up[am] = up;
                    }
                    let down = w_down[aj] + ui; // yj → x → yi
                    if down < w_down[am] {
                        w_down[am] = down;
                    }
                }
            }
        }
        if obs::enabled() {
            thread_local! {
                static STATS: obs::Counter = obs::global().counter("routing.cch.customizations");
            }
            STATS.with(|c| c.add(1));
        }
        m
    }

    /// Partial re-customization after the weights of `dirty_edges`
    /// changed (removal, restore, or overlay delta). `weight` must be
    /// the *current* weight function; `metric` must be consistent with
    /// the previous one. Returns the number of arcs recomputed.
    ///
    /// Arcs are processed from a min-heap keyed by
    /// `(lower rank, upper rank)`: every lower triangle of a popped arc
    /// is already final, and changed arcs push only strictly higher
    /// keys, so a single pass suffices.
    pub fn recustomize<F, I>(&self, metric: &mut CchMetric, weight: F, dirty_edges: I) -> u64
    where
        F: Fn(EdgeId) -> f64,
        I: IntoIterator<Item = EdgeId>,
    {
        let CchMetric { w_up, w_down } = metric;
        let mut queue: BinaryHeap<Reverse<(u32, u32, u32)>> = BinaryHeap::new();
        let mut queued: HashSet<u32> = HashSet::new();
        for e in dirty_edges {
            let a = self.edge_arc[e.index()];
            if a != NONE && queued.insert(a) {
                queue.push(Reverse((self.arc_tail(a), self.up_head[a as usize], a)));
            }
        }
        let mut recomputed = 0u64;
        while let Some(Reverse((x, y, a))) = queue.pop() {
            queued.remove(&a);
            recomputed += 1;
            let (mut nu, mut nd) = self.arc_seed(a, &weight);
            // Lower triangles: common down-neighbors of x and y.
            let (xs, xe) = self.down_range(x);
            let (ys, ye) = self.down_range(y);
            let (mut i, mut j) = (xs, ys);
            while i < xe && j < ye {
                match self.down_tail[i].cmp(&self.down_tail[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let ax = self.down_arc[i] as usize; // (z, x)
                        let ay = self.down_arc[j] as usize; // (z, y)
                        let up = w_down[ax] + w_up[ay]; // x → z → y
                        if up < nu {
                            nu = up;
                        }
                        let down = w_down[ay] + w_up[ax]; // y → z → x
                        if down < nd {
                            nd = down;
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
            let a = a as usize;
            if nu != w_up[a] || nd != w_down[a] {
                w_up[a] = nu;
                w_down[a] = nd;
                // Every triangle rooted at x that contains {x, y}
                // pairs it with another up-neighbor w of x; the third
                // side {y, w} exists by chordality and must re-check.
                let (s, e) = self.up_range(x);
                for &w in &self.up_head[s..e] {
                    if w == y {
                        continue;
                    }
                    let (lo, hi) = (y.min(w), y.max(w));
                    let t = self
                        .arc_between(lo, hi)
                        .expect("up-neighbors of x form a clique");
                    if queued.insert(t) {
                        queue.push(Reverse((lo, hi, t)));
                    }
                }
            }
        }
        if obs::enabled() {
            thread_local! {
                static STATS: [obs::Counter; 2] = [
                    obs::global().counter("routing.cch.recustomizations"),
                    obs::global().counter("routing.cch.arcs_recomputed"),
                ];
            }
            STATS.with(|[runs, arcs]| {
                runs.add(1);
                arcs.add(recomputed);
            });
        }
        recomputed
    }

    /// The lower-endpoint rank of arc `a` (binary search over the CSR
    /// offsets — arcs are grouped by tail).
    #[inline]
    fn arc_tail(&self, a: u32) -> u32 {
        (self.up_start.partition_point(|&s| s <= a) - 1) as u32
    }

    /// One-to-all reverse distances: `out[v] = dist(v → target)` for
    /// every node, exact for the customized metric, `∞` when
    /// disconnected. PHAST-style: an ascending pass over the target's
    /// ancestor path (pure descents into the target live entirely on
    /// it), then one descending sweep relaxing every up-arc. `O(n + m)`
    /// after customization — no priority queue.
    ///
    /// `scratch` is a rank-indexed buffer kept by the caller so repeated
    /// sweeps stay allocation-free.
    pub fn reverse_distances(
        &self,
        metric: &CchMetric,
        target: NodeId,
        out: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
    ) {
        let n = self.n;
        scratch.resize(n, f64::INFINITY);
        scratch.fill(f64::INFINITY);
        let rt = self.rank[target.index()];
        scratch[rt as usize] = 0.0;
        // Ascending pass: distances of pure descents into the target.
        // Walking the ancestor path in rank order finalizes each tail
        // before any higher path node reads it.
        let mut x = self.parent[rt as usize];
        while x != NONE {
            let (s, e) = self.down_range(x);
            let mut best = f64::INFINITY;
            for i in s..e {
                let w = scratch[self.down_tail[i] as usize];
                if w < f64::INFINITY {
                    let cand = metric.w_down[self.down_arc[i] as usize] + w;
                    if cand < best {
                        best = cand;
                    }
                }
            }
            scratch[x as usize] = best;
            x = self.parent[x as usize];
        }
        // Descending sweep: prepend an ascent of any length.
        for x in (0..n).rev() {
            let (s, e) = self.up_range(x as u32);
            let mut best = scratch[x];
            for i in s..e {
                let cand = metric.w_up[i] + scratch[self.up_head[i] as usize];
                if cand < best {
                    best = cand;
                }
            }
            scratch[x] = best;
        }
        out.resize(n, f64::INFINITY);
        for v in 0..n {
            out[v] = scratch[self.rank[v] as usize];
        }
    }
}

/// Customized weights over a [`Cch`] topology: `w_up[a]` is the travel
/// weight lower→upper rank along arc `a`, `w_down[a]` the reverse.
#[derive(Debug, Clone)]
pub struct CchMetric {
    w_up: Vec<f64>,
    w_down: Vec<f64>,
}

impl CchMetric {
    /// Heap bytes held by the two weight columns.
    pub fn bytes_resident(&self) -> usize {
        8 * (self.w_up.len() + self.w_down.len())
    }

    /// Resets this metric to a copy of `base` (two `memcpy`s).
    pub fn copy_from(&mut self, base: &CchMetric) {
        self.w_up.copy_from_slice(&base.w_up);
        self.w_down.copy_from_slice(&base.w_down);
    }
}

/// Reusable scratch for elimination-tree point-to-point queries.
///
/// # Examples
///
/// ```
/// use routing::{Cch, CchSearch};
/// use traffic_graph::{FrozenGraph, Point, RoadClass, RoadNetworkBuilder};
///
/// let mut b = RoadNetworkBuilder::new("line");
/// let a = b.add_node(Point::new(0.0, 0.0));
/// let c = b.add_node(Point::new(100.0, 0.0));
/// b.add_street(a, c, RoadClass::Residential);
/// let net = b.build();
/// let frozen = FrozenGraph::freeze(&net);
/// let cch = Cch::build(&frozen);
/// let metric = cch.customize(|e| net.edge_attrs(e).length_m);
/// let mut search = CchSearch::new();
/// assert_eq!(search.query(&cch, &metric, a, c), 100.0);
/// ```
#[derive(Debug, Default)]
pub struct CchSearch {
    fdist: Vec<f64>,
    fstamp: Vec<u32>,
    bdist: Vec<f64>,
    bstamp: Vec<u32>,
    generation: u32,
    fpath: Vec<u32>,
    bpath: Vec<u32>,
}

impl CchSearch {
    /// An empty search; buffers size lazily on first use.
    pub fn new() -> Self {
        CchSearch::default()
    }

    fn fresh(&mut self, n: usize) -> u32 {
        if self.fdist.len() < n {
            self.fdist.resize(n, f64::INFINITY);
            self.fstamp.resize(n, 0);
            self.bdist.resize(n, f64::INFINITY);
            self.bstamp.resize(n, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.fstamp.fill(0);
            self.bstamp.fill(0);
            self.generation = 1;
        }
        self.generation
    }

    /// Exact point-to-point distance under `metric`, `∞` when
    /// disconnected. No priority queue: both endpoints sweep their
    /// elimination-tree ancestor paths (every up-neighbor of a path
    /// node is itself on the path), then the paths are merged.
    pub fn query(&mut self, cch: &Cch, metric: &CchMetric, source: NodeId, target: NodeId) -> f64 {
        if source == target {
            return 0.0;
        }
        let generation = self.fresh(cch.n);
        let rs = cch.rank[source.index()];
        let rt = cch.rank[target.index()];

        self.fpath.clear();
        let mut x = rs;
        while x != NONE {
            self.fpath.push(x);
            x = cch.parent[x as usize];
        }
        self.fdist[rs as usize] = 0.0;
        self.fstamp[rs as usize] = generation;
        for &x in &self.fpath {
            if self.fstamp[x as usize] != generation {
                continue; // never reached going up
            }
            let dx = self.fdist[x as usize];
            if dx == f64::INFINITY {
                continue;
            }
            let (s, e) = cch.up_range(x);
            for i in s..e {
                let w = metric.w_up[i];
                if w == f64::INFINITY {
                    continue;
                }
                let h = cch.up_head[i] as usize;
                let cand = dx + w;
                if self.fstamp[h] != generation {
                    self.fstamp[h] = generation;
                    self.fdist[h] = cand;
                } else if cand < self.fdist[h] {
                    self.fdist[h] = cand;
                }
            }
        }

        self.bpath.clear();
        let mut x = rt;
        while x != NONE {
            self.bpath.push(x);
            x = cch.parent[x as usize];
        }
        self.bdist[rt as usize] = 0.0;
        self.bstamp[rt as usize] = generation;
        for &x in &self.bpath {
            if self.bstamp[x as usize] != generation {
                continue;
            }
            let dx = self.bdist[x as usize];
            if dx == f64::INFINITY {
                continue;
            }
            let (s, e) = cch.up_range(x);
            for i in s..e {
                let w = metric.w_down[i];
                if w == f64::INFINITY {
                    continue;
                }
                let h = cch.up_head[i] as usize;
                let cand = dx + w;
                if self.bstamp[h] != generation {
                    self.bstamp[h] = generation;
                    self.bdist[h] = cand;
                } else if cand < self.bdist[h] {
                    self.bdist[h] = cand;
                }
            }
        }

        let mut best = f64::INFINITY;
        for &x in &self.fpath {
            // Both stamps must be current: a path node left unreached by
            // one of the sweeps still holds a distance from an earlier
            // generation.
            if self.fstamp[x as usize] == generation && self.bstamp[x as usize] == generation {
                let cand = self.fdist[x as usize] + self.bdist[x as usize];
                if cand < best {
                    best = cand;
                }
            }
        }
        best
    }
}

/// Geometric nested-dissection elimination order: recursively split on
/// the median coordinate (alternating axes), order both halves first
/// and the separator — boundary nodes of the upper half — last. Leaves
/// are ordered by node id for determinism. Returns `order[rank] = node`.
fn nested_dissection_order(g: &FrozenGraph) -> Vec<u32> {
    let n = g.num_nodes();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    // 0 = outside the current subproblem, 1 = lower half, 2 = upper.
    let mut side = vec![0u8; n];

    enum Work {
        Split(Vec<u32>, usize),
        Emit(Vec<u32>),
    }
    let mut stack = vec![Work::Split((0..n as u32).collect(), 0)];
    while let Some(work) = stack.pop() {
        match work {
            Work::Emit(mut sep) => {
                sep.sort_unstable();
                order.extend_from_slice(&sep);
            }
            Work::Split(mut items, depth) => {
                if items.len() <= ND_LEAF {
                    items.sort_unstable();
                    order.extend_from_slice(&items);
                    continue;
                }
                let mid = items.len() / 2;
                let coord = |v: u32| {
                    let p = g.node_point(NodeId::new(v as usize));
                    if depth % 2 == 0 {
                        p.x
                    } else {
                        p.y
                    }
                };
                items.select_nth_unstable_by(mid, |&a, &b| {
                    coord(a).total_cmp(&coord(b)).then(a.cmp(&b))
                });
                let upper = items.split_off(mid);
                let lower = items;
                for &v in &lower {
                    side[v as usize] = 1;
                }
                for &v in &upper {
                    side[v as usize] = 2;
                }
                // Separator: upper-half nodes adjacent to the lower
                // half. Removing them cuts every lower↔upper arc.
                let mut sep = Vec::new();
                let mut rest = Vec::new();
                for &v in &upper {
                    let node = NodeId::new(v as usize);
                    let mut boundary = false;
                    g.out_arcs(node).for_each(|(_, h)| {
                        boundary |= side[h.index()] == 1;
                    });
                    if !boundary {
                        g.in_arcs(node).for_each(|(_, t)| {
                            boundary |= side[t.index()] == 1;
                        });
                    }
                    if boundary {
                        sep.push(v);
                    } else {
                        rest.push(v);
                    }
                }
                for &v in &lower {
                    side[v as usize] = 0;
                }
                for &v in &upper {
                    side[v as usize] = 0;
                }
                // Emission order: lower, upper-minus-separator, then
                // the separator (highest ranks). Stack pops reverse.
                stack.push(Work::Emit(sep));
                stack.push(Work::Split(rest, depth + 1));
                stack.push(Work::Split(lower, depth + 1));
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dijkstra, Direction, WeightOverlay};
    use traffic_graph::{GraphView, Point, RoadClass, RoadNetwork, RoadNetworkBuilder};

    /// 5×5 two-way grid with deterministic pseudo-random lengths.
    fn grid5() -> RoadNetwork {
        let mut b = RoadNetworkBuilder::new("grid5");
        let mut nodes = Vec::new();
        for y in 0..5 {
            for x in 0..5 {
                nodes.push(b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0)));
            }
        }
        let mut salt = 0u64;
        let mut len = || {
            salt = salt
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((salt >> 33) % 400 + 50) as f64
        };
        for y in 0..5 {
            for x in 0..5 {
                let i = y * 5 + x;
                if x + 1 < 5 {
                    let attrs = traffic_graph::EdgeAttrs::from_class(RoadClass::Residential, len());
                    b.add_two_way(nodes[i], nodes[i + 1], attrs);
                }
                if y + 1 < 5 {
                    let attrs = traffic_graph::EdgeAttrs::from_class(RoadClass::Residential, len());
                    b.add_two_way(nodes[i], nodes[i + 5], attrs);
                }
            }
        }
        b.build()
    }

    fn lengths(net: &RoadNetwork) -> impl Fn(EdgeId) -> f64 + '_ {
        |e| net.edge_attrs(e).length_m
    }

    #[test]
    fn order_is_a_permutation_and_heads_ascend() {
        let net = grid5();
        let frozen = FrozenGraph::freeze(&net);
        let cch = Cch::build(&frozen);
        let mut seen = vec![false; cch.num_nodes()];
        for r in 0..cch.num_nodes() {
            let v = cch.order[r] as usize;
            assert!(!seen[v]);
            seen[v] = true;
            assert_eq!(cch.rank[v] as usize, r);
        }
        for x in 0..cch.num_nodes() as u32 {
            let (s, e) = cch.up_range(x);
            let heads = &cch.up_head[s..e];
            assert!(heads.windows(2).all(|w| w[0] < w[1]), "heads must ascend");
            assert!(heads.iter().all(|&h| h > x), "up arcs go up");
            if let Some(&first) = heads.first() {
                assert_eq!(cch.parent[x as usize], first, "parent = lowest up-neighbor");
            } else {
                assert_eq!(cch.parent[x as usize], NONE);
            }
        }
    }

    #[test]
    fn up_neighbors_are_elimination_tree_ancestors() {
        let net = grid5();
        let frozen = FrozenGraph::freeze(&net);
        let cch = Cch::build(&frozen);
        for x in 0..cch.num_nodes() as u32 {
            let (s, e) = cch.up_range(x);
            for &h in &cch.up_head[s..e] {
                let mut a = cch.parent[x as usize];
                while a != NONE && a < h {
                    a = cch.parent[a as usize];
                }
                assert_eq!(a, h, "up-neighbor {h} of {x} must be an ancestor");
            }
        }
    }

    #[test]
    fn queries_match_dijkstra_bits() {
        let net = grid5();
        let frozen = FrozenGraph::freeze(&net);
        let cch = Cch::build(&frozen);
        let metric = cch.customize(lengths(&net));
        let view = GraphView::new(&net);
        let mut dij = Dijkstra::new(net.num_nodes());
        let mut search = CchSearch::new();
        for s in 0..net.num_nodes() {
            let source = NodeId::new(s);
            dij.sweep(&view, lengths(&net), source, None, Direction::Forward);
            for t in 0..net.num_nodes() {
                let want = dij.distance(NodeId::new(t)).unwrap_or(f64::INFINITY);
                let got = search.query(&cch, &metric, source, NodeId::new(t));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "dist({s} → {t}): cch {got} vs dijkstra {want}"
                );
            }
        }
    }

    #[test]
    fn reverse_distances_match_backward_dijkstra() {
        let net = grid5();
        let frozen = FrozenGraph::freeze(&net);
        let cch = Cch::build(&frozen);
        let metric = cch.customize(lengths(&net));
        let view = GraphView::new(&net);
        let mut dij = Dijkstra::new(net.num_nodes());
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        for t in [0usize, 7, 24] {
            let target = NodeId::new(t);
            let want = dij.distances(&view, lengths(&net), target, Direction::Backward);
            cch.reverse_distances(&metric, target, &mut out, &mut scratch);
            for v in 0..net.num_nodes() {
                assert_eq!(
                    out[v].to_bits(),
                    want[v].to_bits(),
                    "rev dist({v} → {t}): cch {} vs dijkstra {}",
                    out[v],
                    want[v]
                );
            }
        }
    }

    #[test]
    fn recustomize_matches_full_customization() {
        let net = grid5();
        let frozen = FrozenGraph::freeze(&net);
        let cch = Cch::build(&frozen);
        let base = cch.customize(lengths(&net));

        // Remove a few edges one at a time; after each step the
        // incrementally-updated metric must equal a from-scratch
        // customization of the masked weight function.
        let mut view = GraphView::new(&net);
        let mut metric = base.clone();
        for victim in [0usize, 9, 20] {
            let e = EdgeId::new(victim);
            view.remove_edge(e);
            let masked = |e: EdgeId| {
                if view.is_removed(e) {
                    f64::INFINITY
                } else {
                    net.edge_attrs(e).length_m
                }
            };
            let recomputed = cch.recustomize(&mut metric, masked, [e]);
            assert!(recomputed >= 1);
            let full = cch.customize(masked);
            assert_eq!(metric.w_up, full.w_up, "after removing e{victim}");
            assert_eq!(metric.w_down, full.w_down, "after removing e{victim}");
        }
    }

    #[test]
    fn overlay_recustomization_matches_full() {
        let net = grid5();
        let frozen = FrozenGraph::freeze(&net);
        let cch = Cch::build(&frozen);
        let mut metric = cch.customize(lengths(&net));
        let mut overlay = WeightOverlay::new(net.num_edges());
        overlay.set(EdgeId::new(3), 250.0);
        overlay.set(EdgeId::new(17), 75.0);
        let perturbed = overlay.compose(lengths(&net));
        let dirty = overlay.perturbed_edges().map(|(e, _)| e);
        cch.recustomize(&mut metric, &perturbed, dirty);
        let full = cch.customize(&perturbed);
        assert_eq!(metric.w_up, full.w_up);
        assert_eq!(metric.w_down, full.w_down);
    }

    #[test]
    fn disconnection_is_infinite() {
        let mut b = RoadNetworkBuilder::new("two-islands");
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        let d = b.add_node(Point::new(500.0, 0.0));
        let e = b.add_node(Point::new(600.0, 0.0));
        b.add_edge(
            a,
            c,
            traffic_graph::EdgeAttrs::from_class(RoadClass::Residential, 100.0),
        );
        b.add_street(d, e, RoadClass::Residential);
        let net = b.build();
        let frozen = FrozenGraph::freeze(&net);
        let cch = Cch::build(&frozen);
        let metric = cch.customize(lengths(&net));
        let mut search = CchSearch::new();
        assert!(search.query(&cch, &metric, a, d).is_infinite());
        assert!(search.query(&cch, &metric, c, a).is_infinite(), "one-way");
        assert_eq!(search.query(&cch, &metric, a, c), 100.0);
    }
}
