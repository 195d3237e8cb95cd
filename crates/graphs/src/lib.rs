//! # babelflow-graphs
//!
//! The library of prototypical task graphs BabelFlow ships: "We currently
//! provide a set of common dataflow graphs for reductions, broadcasts,
//! binary swaps, neighbor and k-way merge dataflows. The user can utilize
//! any of the provided graphs or derive new extensions as needed."
//!
//! | Graph | Paper use |
//! |---|---|
//! | [`Reduction`] | image compositing, global statistics (Listing 1/2) |
//! | [`Broadcast`] | scatter patterns; overlay inside the merge dataflow |
//! | [`BinarySwap`] | binary-swap compositing (Fig. 7) |
//! | [`KWayMerge`] | segmented merge trees (Fig. 5) |
//! | [`NeighborGraph`] | brain-volume registration (Fig. 8) |
//!
//! Every graph is procedural — `task(id)` is computed, never stored — so
//! million-task graphs cost nothing to "instantiate", and any subgraph can
//! be queried shard-locally as the paper requires.

#![warn(missing_docs)]

pub mod binary_swap;
pub mod broadcast;
pub mod error;
pub mod kway_merge;
pub mod neighbor;
pub mod reduction;

pub use binary_swap::BinarySwap;
pub use error::GraphError;
pub use broadcast::Broadcast;
pub use kway_merge::{BroadcastMode, KWayMerge, MergeRole, MergeTreeMap};
pub use neighbor::{GridEdge, NeighborGraph, NeighborRole};
pub use reduction::Reduction;

#[cfg(test)]
/// Assert a family instance lints clean with every task on one shard.
fn assert_lints_clean(g: &dyn babelflow_core::TaskGraph) {
    let map = babelflow_core::ModuloMap::new(1, g.size() as u64);
    let rep = babelflow_core::lint_graph(g, &map);
    assert!(rep.is_empty(), "{rep}");
}
