//! Unit-disk graph substrate for DisC diversity.
//!
//! Section 2.2 of the paper formalises the Minimum r-DisC Diverse Subset
//! Problem as the **Minimum Independent Dominating Set** problem on the
//! graph `G_{P,r}` that connects two objects iff they are within distance
//! `r` (a unit-disk graph under the Euclidean metric). This crate builds
//! that graph view and provides:
//!
//! * [`StratifiedDiskGraph`] — the one graph representation: the edge
//!   set at the largest radius of interest with exact distances and
//!   per-row `(distance, id)`-sorted adjacency, so the induced subgraph
//!   at any smaller radius is a zero-cost prefix view
//!   ([`StratifiedDiskGraph::view`]) — the substrate every selection in
//!   `disc-core` reads. It is assembled from distance-annotated
//!   self-join edge slices ([`StratifiedDiskGraph::from_dist_edges`]),
//! * [`NeighborSource`] — the adjacency interface those runners read,
//!   implemented by the prefix view and by the reference graph,
//! * [`sets`] — the coverage/dominance and dissimilarity/independence
//!   predicates of Definition 1,
//! * [`exact`] — an exact branch-and-bound solver for the minimum
//!   independent dominating set, tractable for the small instances tests
//!   use to validate the Theorem 1/2 approximation bounds,
//! * [`mod@reference`] — the test oracle: the id-sorted
//!   [`reference::UnitDiskGraph`], built only by its O(n²) scan or by
//!   copying a view, plus index-free reference implementations of
//!   Basic-DisC, Greedy-DisC and Greedy-C with the same deterministic
//!   tie-breaking as the M-tree implementations in `disc-core`, used for
//!   cross-validation,
//! * [`jaccard`] — the Jaccard distance between solutions, the similarity
//!   measure of the zooming experiments (Figures 13 and 16).

mod csr;
pub mod error;
pub mod exact;
pub mod jaccard;
pub mod reference;
pub mod sets;
pub mod source;
pub mod stratified;
pub mod stream;

pub use error::GraphError;
pub use exact::minimum_independent_dominating_set;
pub use jaccard::jaccard_distance;
pub use sets::{is_dominating, is_independent, is_independent_dominating};
pub use source::NeighborSource;
pub use stratified::{AssemblyBreakdown, StratifiedDiskGraph, StratifiedView};
pub use stream::{InsertReceipt, RemoveReceipt, StreamError, StreamingCatalog};
