//! Shortest-path algorithms for metropolitan road networks.
//!
//! This crate provides the routing substrate used by the `pathattack`
//! attack algorithms and the experiment harness of the `metro-attack`
//! workspace (a reproduction of *"Alternative Route-Based Attacks in
//! Metropolitan Traffic Systems"*, DSN 2022):
//!
//! - [`Dijkstra`] — reusable single-source searcher with generation-
//!   stamped buffers (the attack inner loop).
//! - [`AStar`] — heuristic-guided point-to-point search; paired with
//!   exact reverse distances it accelerates Yen's spur searches.
//! - [`bidirectional_shortest_path`] — meet-in-the-middle point queries.
//! - [`k_shortest_paths`] / [`kth_shortest_path`] — Yen's algorithm with
//!   Lawler's optimization, used to pick the paper's alternative route
//!   `p*` (the 100th shortest path) and the Table X thresholds.
//! - [`Path`] — immutable path values with weight accounting.
//!
//! # Examples
//!
//! ```
//! use traffic_graph::{RoadNetworkBuilder, GraphView, Point, RoadClass};
//! use routing::{Dijkstra, k_shortest_paths};
//!
//! let mut b = RoadNetworkBuilder::new("block");
//! let p00 = b.add_node(Point::new(0.0, 0.0));
//! let p10 = b.add_node(Point::new(100.0, 0.0));
//! let p11 = b.add_node(Point::new(100.0, 100.0));
//! let p01 = b.add_node(Point::new(0.0, 100.0));
//! b.add_street(p00, p10, RoadClass::Residential);
//! b.add_street(p10, p11, RoadClass::Residential);
//! b.add_street(p00, p01, RoadClass::Residential);
//! b.add_street(p01, p11, RoadClass::Residential);
//! let net = b.build();
//! let view = GraphView::new(&net);
//!
//! let weight = |e| net.edge_attrs(e).travel_time_s();
//! let mut dij = Dijkstra::new(net.num_nodes());
//! let best = dij.shortest_path(&view, weight, p00, p11).unwrap();
//! let all = k_shortest_paths(&view, weight, p00, p11, 10);
//! assert_eq!(best.total_weight(), all[0].total_weight());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alt;
mod astar;
mod bidirectional;
mod cancel;
mod cch;
mod ch;
mod dijkstra;
mod heap;
mod overlay;
mod path;
mod repair;
mod scratch;
mod turns;
mod yen;

pub use alt::Landmarks;
pub use astar::AStar;
pub use bidirectional::bidirectional_shortest_path;
pub use cancel::{CancelToken, CHECK_STRIDE};
pub use cch::{Cch, CchMetric, CchSearch};
pub use ch::ContractionHierarchy;
pub use dijkstra::{Dijkstra, Direction};
pub use heap::{HeapEntry, NO_EDGE};
pub use overlay::WeightOverlay;
pub use path::{BrokenPathError, Path};
pub use repair::{RepairOutcome, RepairTable};
pub use scratch::{acquire_scratch, ScratchGuard, SearchScratch};
pub use turns::{standard_turn_model, turn_aware_shortest_path, TurnPenalty};
pub use yen::{k_shortest_paths, k_shortest_paths_with, kth_shortest_path, YenConfig};
