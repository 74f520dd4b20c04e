//! # disc-diversity
//!
//! A full reproduction of *DisC Diversity: Result Diversification based on
//! Dissimilarity and Coverage* (Drosou & Pitoura, VLDB 2013).
//!
//! This facade crate re-exports the workspace crates so applications can
//! depend on a single crate:
//!
//! * [`metric`] — points, metrics, datasets, analytical bounds,
//! * [`mtree`] — the M-tree spatial index with node-access accounting,
//! * [`graph`] — the stratified unit-disk graph every selection reads,
//!   and the O(n²) reference graph and exact solvers that test it,
//! * [`datasets`] — the paper's four workloads (Uniform, Clustered, Cities,
//!   Cameras),
//! * [`core`] — the DisC heuristics and zooming operators,
//! * [`baselines`] — MaxMin, MaxSum and k-medoids comparison models,
//! * [`eval`] — the experiment harness that regenerates every table and
//!   figure of the paper,
//! * [`store`] — fail-closed snapshot persistence for dataset + graph
//!   pairs (versioned, checksummed, fault-injectable),
//! * [`cli`] — the `disc` operator binary (`build`/`zoom`/`serve`/
//!   `doctor`) and the hardened serving core behind it (worker pool,
//!   bounded admission, deadlines, panic isolation).
//!
//! ## Quickstart
//!
//! ```
//! use disc_diversity::prelude::*;
//!
//! // A small clustered dataset, indexed by an M-tree.
//! let data = disc_diversity::datasets::synthetic::clustered(500, 2, 5, 7);
//! let tree = MTree::build(&data, MTreeConfig::default());
//!
//! // Compute an r-DisC diverse subset with the greedy heuristic.
//! let result = greedy_disc(&tree, 0.1, GreedyVariant::Grey, true);
//! assert!(verify_disc(&data, &result.solution, 0.1).is_valid());
//!
//! // Every object now has a representative within r = 0.1, and the
//! // representatives are pairwise more than 0.1 apart.
//! ```

pub use disc_baselines as baselines;
pub use disc_cli as cli;
pub use disc_core as core;
pub use disc_datasets as datasets;
pub use disc_eval as eval;
pub use disc_graph as graph;
pub use disc_metric as metric;
pub use disc_mtree as mtree;
pub use disc_store as store;

/// Commonly used items, importable in one line.
pub mod prelude {
    pub use disc_core::{
        basic_disc, fast_c, fast_c_graph, greedy_c, greedy_c_graph, greedy_disc, greedy_disc_graph,
        greedy_zoom_in, greedy_zoom_in_graph, greedy_zoom_out, local_zoom, multi_radius_graph,
        verify_disc, zoom_in, zoom_in_graph, zoom_out, zoom_out_graph, BasicOrder, DiscResult,
        GreedyVariant, ZoomOutVariant,
    };
    pub use disc_graph::{StratifiedDiskGraph, StratifiedView};
    pub use disc_metric::{Dataset, Metric, ObjId, Point};
    pub use disc_mtree::{MTree, MTreeConfig, PartitionPolicy, PromotePolicy, SplitPolicy};
}
