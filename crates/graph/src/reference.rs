//! Index-free reference implementations: the graph `G_{P,r}` built by
//! the O(n²) all-pairs scan, and the paper's heuristics over it.
//!
//! [`UnitDiskGraph`] is the **oracle**, not a production graph: every
//! selection in the serving path reads a [`crate::StratifiedView`]
//! prefix of the [`crate::StratifiedDiskGraph`]. The reference graph
//! has exactly two ways in, neither of which shares code with the
//! production build:
//!
//! * [`UnitDiskGraph::build`] — the all-pairs scan, filling id-sorted
//!   rows directly;
//! * [`crate::StratifiedView::to_unit_disk_graph`] — a copy of a view
//!   with its rows re-sorted by id, so property tests can compare a
//!   production view against an independently built graph with `==`.
//!
//! The heuristics ([`basic_disc_ref`], [`greedy_disc_ref`],
//! [`greedy_c_ref`]) use the same deterministic tie-breaking as the
//! M-tree implementations in `disc-core` (largest white neighbourhood
//! first, smallest id on ties), so the integration tests can assert
//! *identical* solutions between the two implementations — a strong
//! cross-validation of the much more intricate index-based code.

use std::sync::Arc;

use disc_metric::{Dataset, IdPermutation, ObjId};

/// Undirected graph over the objects of a dataset, with an edge `(i, j)`
/// iff `dist(i, j) ≤ r` and `i ≠ j`. Stored as CSR (`offsets` plus one
/// flat `neighbors` array); adjacency rows are sorted by id.
///
/// Vertex ids are the dataset's *internal* ids (see `disc_metric::ids`);
/// a graph built from a renumbered dataset carries the dataset's
/// [`IdPermutation`] so [`UnitDiskGraph::external_id`] can translate
/// back to external numbering.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitDiskGraph {
    radius: f64,
    /// Row boundaries: `n + 1` entries, `offsets[0] == 0`.
    offsets: Vec<usize>,
    /// Concatenated id-sorted adjacency rows (each undirected edge
    /// appears twice, once per endpoint).
    neighbors: Vec<ObjId>,
    /// Internal↔external id bijection; `None` = identity.
    perm: Option<Arc<IdPermutation>>,
}

impl UnitDiskGraph {
    /// Materialises `G_{P,r}` by examining all `n(n−1)/2` pairs.
    ///
    /// # Panics
    ///
    /// Panics when `radius` is NaN or negative.
    pub fn build(data: &Dataset, radius: f64) -> Self {
        assert!(radius >= 0.0, "radius must be non-negative");
        let n = data.len();
        // Pairs are scanned in ascending `(i, j)` order, so every row
        // receives its neighbours in ascending id order.
        let mut rows: Vec<Vec<ObjId>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if data.dist(i, j) <= radius {
                    rows[i].push(j);
                    rows[j].push(i);
                }
            }
        }
        Self::from_rows(radius, n, |v| &rows[v], data.permutation().cloned())
    }

    /// Concatenates the `n` rows `row(v)` into the CSR, sorting each by
    /// id as it is copied in. An identity permutation normalizes to
    /// `None`.
    pub(crate) fn from_rows<'a>(
        radius: f64,
        n: usize,
        row: impl Fn(ObjId) -> &'a [ObjId],
        perm: Option<Arc<IdPermutation>>,
    ) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut neighbors = Vec::new();
        for v in 0..n {
            let start = neighbors.len();
            neighbors.extend_from_slice(row(v));
            neighbors[start..].sort_unstable();
            offsets.push(neighbors.len());
        }
        Self {
            radius,
            offsets,
            neighbors,
            perm: perm.filter(|p| !p.is_identity()),
        }
    }

    /// External id of vertex `v` (identity without a permutation).
    #[inline]
    pub fn external_id(&self, v: ObjId) -> ObjId {
        match &self.perm {
            Some(p) => p.external(v),
            None => v,
        }
    }

    /// The radius the graph was built for.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Neighbours of `v` (the open neighbourhood `N_r(v)`), sorted by id.
    #[inline]
    pub fn neighbors(&self, v: ObjId) -> &[ObjId] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v` (`|N_r(v)|`).
    #[inline]
    pub fn degree(&self, v: ObjId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Maximum degree `Δ`, the Theorem 2 parameter.
    pub fn max_degree(&self) -> usize {
        (0..self.len()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Whether `u` and `v` are adjacent (binary search on the sorted
    /// adjacency row).
    pub fn adjacent(&self, u: ObjId, v: ObjId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = ObjId> + '_ {
        0..self.len()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum C {
    White,
    Grey,
    Black,
}

/// Basic-DisC (Section 2.3): process objects in the given order; every
/// still-white object is selected and its neighbours greyed. The result is
/// a maximal independent set, hence an r-DisC diverse subset (Lemma 1).
pub fn basic_disc_ref(g: &UnitDiskGraph, order: &[ObjId]) -> Vec<ObjId> {
    assert_eq!(order.len(), g.len(), "order must cover every vertex");
    let mut color = vec![C::White; g.len()];
    let mut solution = Vec::new();
    for &v in order {
        if color[v] == C::White {
            color[v] = C::Black;
            solution.push(v);
            for &u in g.neighbors(v) {
                if color[u] == C::White {
                    color[u] = C::Grey;
                }
            }
        }
    }
    solution
}

/// Greedy-DisC (Algorithm 1): repeatedly select the white object with the
/// largest number of white neighbours (ties to the smallest id), colour it
/// black and its white neighbours grey.
pub fn greedy_disc_ref(g: &UnitDiskGraph) -> Vec<ObjId> {
    let n = g.len();
    let mut color = vec![C::White; n];
    // |N^W_r(v)| for every v; exact maintenance.
    let mut white_nb: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut remaining_white = n;
    let mut solution = Vec::new();
    while remaining_white > 0 {
        // Select the white object with the largest white neighbourhood.
        let pick = match (0..n)
            .filter(|&v| color[v] == C::White)
            .max_by(|&a, &b| white_nb[a].cmp(&white_nb[b]).then(b.cmp(&a)))
        {
            Some(v) => v,
            None => unreachable!("remaining_white > 0 implies a white object"),
        };
        color[pick] = C::Black;
        remaining_white -= 1;
        for &u in g.neighbors(pick) {
            if color[u] == C::White {
                white_nb[u] -= 1; // pick is no longer white
            }
        }
        // Grey the white neighbours, updating their neighbours' counts.
        let newly_grey: Vec<ObjId> = g
            .neighbors(pick)
            .iter()
            .copied()
            .filter(|&u| color[u] == C::White)
            .collect();
        for &u in &newly_grey {
            color[u] = C::Grey;
            remaining_white -= 1;
            for &w in g.neighbors(u) {
                if color[w] == C::White {
                    white_nb[w] -= 1;
                }
            }
        }
        solution.push(pick);
    }
    solution
}

/// Greedy-C (Section 2.3): like Greedy-DisC but the candidate pool also
/// contains grey objects, so the selection maximises the number of newly
/// covered objects even when the best candidate is already covered. The
/// result is an r-C diverse subset (covering, not necessarily
/// independent).
///
/// Selection key: white neighbours, plus one if the candidate itself is
/// still white (selecting a white object also covers the object itself —
/// without this term the greedy loop could stall on isolated white
/// objects).
pub fn greedy_c_ref(g: &UnitDiskGraph) -> Vec<ObjId> {
    let n = g.len();
    let mut color = vec![C::White; n];
    let mut white_nb: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut remaining_white = n;
    let mut solution = Vec::new();
    while remaining_white > 0 {
        let gain = |v: usize, color: &[C], white_nb: &[usize]| {
            white_nb[v] + usize::from(color[v] == C::White)
        };
        let pick = match (0..n).filter(|&v| color[v] != C::Black).max_by(|&a, &b| {
            gain(a, &color, &white_nb)
                .cmp(&gain(b, &color, &white_nb))
                .then(b.cmp(&a))
        }) {
            Some(v) => v,
            None => unreachable!("white objects remain, so candidates exist"),
        };
        if color[pick] == C::White {
            remaining_white -= 1;
            // Grey objects remain candidates in Greedy-C, so their counts
            // must be maintained too (unlike Greedy-DisC).
            for &u in g.neighbors(pick) {
                white_nb[u] = white_nb[u].saturating_sub(usize::from(color[u] != C::Black));
            }
        }
        color[pick] = C::Black;
        let newly_grey: Vec<ObjId> = g
            .neighbors(pick)
            .iter()
            .copied()
            .filter(|&u| color[u] == C::White)
            .collect();
        for &u in &newly_grey {
            color[u] = C::Grey;
            remaining_white -= 1;
        }
        for &u in &newly_grey {
            for &w in g.neighbors(u) {
                if color[w] != C::Black {
                    white_nb[w] -= 1;
                }
            }
        }
        solution.push(pick);
    }
    solution
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sets::{is_dominating, is_independent, is_independent_dominating};
    use crate::StratifiedDiskGraph;
    use disc_metric::{Metric, Point};
    use disc_mtree::{MTree, MTreeConfig, SelfJoinConfig};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt as _, SeedableRng};

    /// The Figure 3 configuration of the paper: seven objects forming the
    /// depicted graph (v1..v7 as ids 0..6). Edges: (v1,v2), (v2,v3),
    /// (v3,v4), (v4,v5), (v5,v6), (v5,v7), (v6,v7).
    fn figure3() -> Dataset {
        // Coordinates engineered so that exactly the listed pairs are
        // within distance 1.0.
        Dataset::new(
            "figure3",
            Metric::Euclidean,
            vec![
                Point::new2(0.0, 0.0),  // v1
                Point::new2(0.9, 0.0),  // v2
                Point::new2(1.8, 0.0),  // v3
                Point::new2(2.7, 0.0),  // v4
                Point::new2(3.6, 0.0),  // v5
                Point::new2(4.2, 0.6),  // v6
                Point::new2(4.2, -0.3), // v7
            ],
        )
    }

    /// Random data under any of the four metrics; Hamming gets
    /// categorical codes so ties and exact matches actually occur.
    fn random_data_metric(n: usize, seed: u64, metric: Metric) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| {
                if metric == Metric::Hamming {
                    Point::categorical(&[
                        rng.random_range(0..4u32),
                        rng.random_range(0..4u32),
                        rng.random_range(0..4u32),
                        rng.random_range(0..4u32),
                    ])
                } else {
                    Point::new2(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0))
                }
            })
            .collect();
        Dataset::new("random", metric, pts)
    }

    /// The reference graph's undirected edges as sorted `(u, v)` pairs
    /// with `u < v`.
    fn edge_list(g: &UnitDiskGraph) -> Vec<(ObjId, ObjId)> {
        g.vertices()
            .flat_map(|v| {
                g.neighbors(v)
                    .iter()
                    .filter(move |&&u| v < u)
                    .map(move |&u| (v, u))
            })
            .collect()
    }

    /// The plain `(ObjId, ObjId)` self-join's edges, oriented `u < v`
    /// and sorted — comparable with [`edge_list`].
    fn sorted_join(tree: &MTree<'_>, r: f64, threads: usize) -> Vec<(ObjId, ObjId)> {
        let edges: Vec<(ObjId, ObjId)> = tree
            .range_self_join(r, SelfJoinConfig::with_threads(threads))
            .expect("valid radius");
        let mut edges: Vec<_> = edges
            .into_iter()
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        edges.sort_unstable();
        edges
    }

    #[test]
    fn figure3_edges() {
        let g = UnitDiskGraph::build(&figure3(), 1.0);
        assert_eq!(g.len(), 7);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1, 3]);
        assert_eq!(g.neighbors(3), &[2, 4]);
        assert_eq!(g.neighbors(4), &[3, 5, 6]);
        assert_eq!(g.neighbors(5), &[4, 6]);
        assert_eq!(g.neighbors(6), &[4, 5]);
        assert_eq!(g.edge_count(), 7);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = UnitDiskGraph::build(&figure3(), 1.0);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(g.adjacent(u, v), g.adjacent(v, u));
            }
        }
    }

    #[test]
    fn zero_radius_yields_no_edges_for_distinct_points() {
        let g = UnitDiskGraph::build(&figure3(), 0.0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn large_radius_yields_complete_graph() {
        let data = figure3();
        let g = UnitDiskGraph::build(&data, 100.0);
        for v in g.vertices() {
            assert_eq!(g.degree(v), data.len() - 1);
        }
    }

    #[test]
    fn radius_accessor() {
        let g = UnitDiskGraph::build(&figure3(), 0.5);
        assert_eq!(g.radius(), 0.5);
        assert!(!g.is_empty());
    }

    #[test]
    fn view_conversion_sorts_rows_by_id() {
        // At r = 2 the view row of v5 is in distance order (v7, v6, v4,
        // v3), not id order; the conversion re-sorts each row and lands
        // exactly on the scan.
        let data = figure3();
        let strat = StratifiedDiskGraph::build(&data, 2.0);
        let view = strat.view(2.0);
        assert_ne!(view.neighbors(4), &[2, 3, 5, 6]);
        let g = view.to_unit_disk_graph();
        assert_eq!(g.neighbors(4), &[2, 3, 5, 6]);
        assert_eq!(g, UnitDiskGraph::build(&data, 2.0));
    }

    #[test]
    fn isolated_vertices_and_empty_graph() {
        let g = UnitDiskGraph::build(&figure3(), 0.5);
        assert_eq!(g.len(), 7);
        assert_eq!(g.edge_count(), 0);
        assert!(g.neighbors(1).is_empty());
        let empty = StratifiedDiskGraph::from_csr_parts(0.5, vec![0], Vec::new(), Vec::new())
            .expect("empty CSR is valid");
        let empty = empty.view(0.5).to_unit_disk_graph();
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn all_duplicate_points_build_complete_graph_at_radius_zero() {
        // Degenerate dataset: every point identical, so at r = 0 the
        // graph is complete, and the plain self-join finds every pair at
        // every thread count.
        let n = 24;
        let data = Dataset::new(
            "all-dups",
            Metric::Euclidean,
            vec![Point::new2(0.4, 0.6); n],
        );
        let reference = UnitDiskGraph::build(&data, 0.0);
        for v in reference.vertices() {
            assert_eq!(reference.degree(v), n - 1);
        }
        let tree = MTree::build(&data, MTreeConfig::with_capacity(3));
        for threads in [1, 2, 3, 8] {
            assert_eq!(sorted_join(&tree, 0.0, threads), edge_list(&reference));
        }
    }

    #[test]
    fn radius_at_least_diameter_matches_reference_complete_graph() {
        let data = random_data_metric(60, 12, Metric::Euclidean);
        // Unit-square diameter is √2 < 2.0: complete graph.
        let reference = UnitDiskGraph::build(&data, 2.0);
        for v in reference.vertices() {
            assert_eq!(reference.degree(v), data.len() - 1);
        }
        let tree = MTree::build(&data, MTreeConfig::with_capacity(5));
        for threads in [1, 2, 3, 8] {
            assert_eq!(sorted_join(&tree, 2.0, threads), edge_list(&reference));
        }
    }

    #[test]
    fn plain_self_join_matches_scan_on_figure3() {
        let data = figure3();
        let tree = MTree::build(&data, MTreeConfig::with_capacity(3));
        for r in [0.0, 0.5, 1.0, 2.0] {
            assert_eq!(
                sorted_join(&tree, r, 1),
                edge_list(&UnitDiskGraph::build(&data, r)),
                "r={r}"
            );
        }
    }

    fn random_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        Dataset::new(
            "rnd",
            Metric::Euclidean,
            (0..n)
                .map(|_| Point::new2(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
                .collect(),
        )
    }

    #[test]
    fn basic_disc_produces_independent_dominating_set() {
        let data = random_data(80, 1);
        let g = UnitDiskGraph::build(&data, 0.2);
        let order: Vec<usize> = (0..80).collect();
        let s = basic_disc_ref(&g, &order);
        assert!(is_independent_dominating(&g, &s));
    }

    #[test]
    fn basic_disc_respects_order() {
        let data = random_data(50, 2);
        let g = UnitDiskGraph::build(&data, 0.15);
        let forward: Vec<usize> = (0..50).collect();
        let backward: Vec<usize> = (0..50).rev().collect();
        let a = basic_disc_ref(&g, &forward);
        let b = basic_disc_ref(&g, &backward);
        // First element of each must be the first of its order.
        assert_eq!(a[0], 0);
        assert_eq!(b[0], 49);
    }

    #[test]
    fn greedy_disc_first_pick_has_max_degree() {
        let data = random_data(60, 3);
        let g = UnitDiskGraph::build(&data, 0.25);
        let s = greedy_disc_ref(&g);
        let max_deg = g.max_degree();
        assert_eq!(g.degree(s[0]), max_deg);
        assert!(is_independent_dominating(&g, &s));
    }

    #[test]
    fn greedy_ties_break_to_smallest_id() {
        // Two isolated vertices: both degree 0; greedy must pick id 0
        // first.
        let data = Dataset::new(
            "iso",
            Metric::Euclidean,
            vec![Point::new2(0.0, 0.0), Point::new2(1.0, 1.0)],
        );
        let g = UnitDiskGraph::build(&data, 0.1);
        let s = greedy_disc_ref(&g);
        assert_eq!(s, vec![0, 1]);
    }

    #[test]
    fn greedy_c_covers_everything() {
        let data = random_data(70, 4);
        let g = UnitDiskGraph::build(&data, 0.2);
        let s = greedy_c_ref(&g);
        assert!(is_dominating(&g, &s));
    }

    #[test]
    fn greedy_c_terminates_on_isolated_vertices() {
        let data = Dataset::new(
            "iso3",
            Metric::Euclidean,
            vec![
                Point::new2(0.0, 0.0),
                Point::new2(5.0, 0.0),
                Point::new2(0.0, 5.0),
            ],
        );
        let g = UnitDiskGraph::build(&data, 0.5);
        let s = greedy_c_ref(&g);
        assert_eq!(s.len(), 3);
        assert!(is_dominating(&g, &s));
    }

    #[test]
    fn greedy_c_can_beat_independence_constrained_greedy() {
        // Figure 4 shape (double star with adjacent hubs): Greedy-C may
        // select the second hub even though it is grey, reaching coverage
        // with 2 objects where DisC needs 3.
        let data = Dataset::new(
            "fig4",
            Metric::Euclidean,
            vec![
                Point::new2(0.2, 0.0),
                Point::new2(1.0, 0.0),
                Point::new2(1.2, 0.9),
                Point::new2(2.8, 0.3),
                Point::new2(2.0, 0.0),
                Point::new2(2.2, -0.9),
            ],
        );
        let g = UnitDiskGraph::build(&data, 1.0);
        let c = greedy_c_ref(&g);
        let d = greedy_disc_ref(&g);
        assert!(is_dominating(&g, &c));
        assert!(is_independent_dominating(&g, &d));
        assert!(c.len() <= d.len(), "C {c:?} vs DisC {d:?}");
    }

    const ALL_METRICS: [Metric; 4] = [
        Metric::Euclidean,
        Metric::Manhattan,
        Metric::Chebyshev,
        Metric::Hamming,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The plain self-join's edge set equals the O(n²) reference
        /// graph's on all four metrics across random radii and tree
        /// capacities, with and without parent-distance pruning (mirror
        /// of the mtree crate's
        /// `all_variants_match_linear_scan_on_every_metric`).
        #[test]
        fn self_join_graph_matches_reference_on_every_metric(
            seed in 0u64..500,
            frac in 0.0..1.05f64,
            cap in 2usize..10,
            metric_idx in 0usize..4,
        ) {
            let metric = ALL_METRICS[metric_idx];
            let data = random_data_metric(90, seed, metric);
            let r = frac * metric.max_range(data.dim());
            let r = if metric.is_discrete() { r.floor() } else { r };
            let reference = edge_list(&UnitDiskGraph::build(&data, r));
            let tree = MTree::build(&data, MTreeConfig::with_capacity(cap));
            prop_assert_eq!(&sorted_join(&tree, r, 0), &reference, "{:?} r={}", metric, r);
            let plain = MTree::build(
                &data,
                MTreeConfig::with_capacity(cap).with_parent_pruning(false),
            );
            prop_assert_eq!(
                &sorted_join(&plain, r, 0),
                &reference,
                "no lemma, {:?} r={}",
                metric,
                r
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Every heuristic returns a covering set; the DisC ones are also
        /// independent; and Theorem 1 holds relative to Basic-DisC in any
        /// order (both are maximal independent sets, so each is at most
        /// B times the other's size).
        #[test]
        fn heuristics_valid_on_random_inputs(seed in 0u64..5_000, r in 0.05..0.6f64, n in 5usize..60) {
            let data = random_data(n, seed);
            let g = UnitDiskGraph::build(&data, r);
            let order: Vec<usize> = (0..n).collect();

            let basic = basic_disc_ref(&g, &order);
            prop_assert!(is_independent_dominating(&g, &basic));

            let greedy = greedy_disc_ref(&g);
            prop_assert!(is_independent_dominating(&g, &greedy));
            prop_assert!(is_independent(&g, &greedy));

            let cover = greedy_c_ref(&g);
            prop_assert!(is_dominating(&g, &cover));

            // Theorem 1 with B = 5 (Euclidean, d = 2) between the two
            // maximal independent sets.
            prop_assert!(basic.len() <= 5 * greedy.len());
            prop_assert!(greedy.len() <= 5 * basic.len());
        }
    }
}
