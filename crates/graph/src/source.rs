//! The adjacency interface the graph-resident selection runners read.
//!
//! Greedy-DisC, Greedy-C and Fast-C only need the vertex count, the
//! rows, external ids and the radius. Two representations provide them:
//!
//! * [`StratifiedView`] — the serving path: the prefix view of a
//!   [`crate::StratifiedDiskGraph`] at `r' ≤ r_max`, rows in
//!   `(distance, id)` order;
//! * [`UnitDiskGraph`] — the id-sorted CSR, the reference the oracles
//!   and property tests compare against.
//!
//! Row order is not part of the contract: the runners' counts depend
//! only on row membership and their heap breaks ties by external id, so
//! the same edge set gives byte-identical solutions through either.

use disc_metric::ObjId;

use crate::graph::UnitDiskGraph;
use crate::stratified::StratifiedView;

/// Read-only adjacency of `G_{P,r}` in internal vertex ids. See the
/// [module docs](self).
pub trait NeighborSource {
    /// Number of vertices.
    fn len(&self) -> usize;

    /// Whether the graph has no vertices.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The open neighbourhood `N_r(v)`, in an implementation-defined
    /// order.
    fn neighbors(&self, v: ObjId) -> &[ObjId];

    /// `|N_r(v)|`.
    fn degree(&self, v: ObjId) -> usize {
        self.neighbors(v).len()
    }

    /// External id of vertex `v` (identity without a permutation).
    fn external_id(&self, v: ObjId) -> ObjId;

    /// The radius `r` the adjacency stands for.
    fn radius(&self) -> f64;
}

impl NeighborSource for UnitDiskGraph {
    fn len(&self) -> usize {
        UnitDiskGraph::len(self)
    }

    #[inline]
    fn neighbors(&self, v: ObjId) -> &[ObjId] {
        UnitDiskGraph::neighbors(self, v)
    }

    #[inline]
    fn external_id(&self, v: ObjId) -> ObjId {
        UnitDiskGraph::external_id(self, v)
    }

    fn radius(&self) -> f64 {
        UnitDiskGraph::radius(self)
    }
}

impl NeighborSource for StratifiedView<'_> {
    fn len(&self) -> usize {
        StratifiedView::len(self)
    }

    #[inline]
    fn neighbors(&self, v: ObjId) -> &[ObjId] {
        StratifiedView::neighbors(self, v)
    }

    #[inline]
    fn external_id(&self, v: ObjId) -> ObjId {
        StratifiedView::external_id(self, v)
    }

    fn radius(&self) -> f64 {
        StratifiedView::radius(self)
    }
}
