//! Exact minimum independent dominating set by branch and bound.
//!
//! The problem is NP-hard (Garey & Johnson; hard even on unit-disk graphs,
//! Clark et al.), so this solver targets the small instances used by tests
//! to validate the heuristics' approximation behaviour (Theorem 1 and
//! Theorem 2 of the paper). It enumerates maximal independent sets with a
//! standard scheme: repeatedly pick the lowest-id uncovered vertex `v` and
//! branch on every non-blocked dominator in `N⁺[v]` — `v` itself is always
//! a candidate, so no branch dead-ends — pruning with a covering lower
//! bound.

use disc_metric::ObjId;

use crate::reference::{greedy_disc_ref, UnitDiskGraph};
use crate::sets::is_independent_dominating;

/// Computes a minimum independent dominating set of `g` (equivalently, a
/// minimum r-DisC diverse subset of the underlying objects).
///
/// Runtime is exponential in the worst case; keep instances small
/// (≲ 60 vertices at moderate densities).
pub fn minimum_independent_dominating_set(g: &UnitDiskGraph) -> Vec<ObjId> {
    if g.is_empty() {
        return Vec::new();
    }
    // Seed the bound with the deterministic greedy solution.
    let mut best = greedy_disc_ref(g);
    debug_assert!(is_independent_dominating(g, &best));

    let mut state = State {
        g,
        chosen: Vec::new(),
        // cover_count[v]: how many chosen vertices dominate v.
        cover_count: vec![0u32; g.len()],
        // block_count[v]: how many chosen vertices are adjacent to v
        // (v cannot be chosen while > 0).
        block_count: vec![0u32; g.len()],
        uncovered: g.len(),
        best_len: best.len(),
        best: &mut best,
    };
    state.search();
    best
}

struct State<'a> {
    g: &'a UnitDiskGraph,
    chosen: Vec<ObjId>,
    cover_count: Vec<u32>,
    block_count: Vec<u32>,
    uncovered: usize,
    best_len: usize,
    best: &'a mut Vec<ObjId>,
}

impl State<'_> {
    fn search(&mut self) {
        if self.uncovered == 0 {
            if self.chosen.len() < self.best_len {
                self.best_len = self.chosen.len();
                *self.best = self.chosen.clone();
                self.best.sort_unstable();
            }
            return;
        }
        // Lower bound: each further chosen vertex covers at most Δ+1
        // uncovered vertices.
        let max_cover = self.g.max_degree() + 1;
        let lb = self.chosen.len() + self.uncovered.div_ceil(max_cover);
        if lb >= self.best_len {
            return;
        }
        // Branch on the lowest-id uncovered vertex.
        let v = match (0..self.g.len()).find(|&u| self.cover_count[u] == 0) {
            Some(u) => u,
            None => unreachable!("uncovered > 0 implies an uncovered vertex"),
        };
        // Candidates: v and its neighbours, skipping blocked ones. v itself
        // is never blocked (otherwise it would be covered).
        let mut candidates: Vec<ObjId> = Vec::with_capacity(self.g.degree(v) + 1);
        candidates.push(v);
        candidates.extend(
            self.g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| self.block_count[u] == 0),
        );
        for u in candidates {
            self.choose(u);
            self.search();
            self.unchoose(u);
        }
    }

    fn choose(&mut self, u: ObjId) {
        self.chosen.push(u);
        if self.cover_count[u] == 0 {
            self.uncovered -= 1;
        }
        self.cover_count[u] += 1;
        for &w in self.g.neighbors(u) {
            if self.cover_count[w] == 0 {
                self.uncovered -= 1;
            }
            self.cover_count[w] += 1;
            self.block_count[w] += 1;
        }
    }

    fn unchoose(&mut self, u: ObjId) {
        let popped = self.chosen.pop();
        debug_assert_eq!(popped, Some(u));
        self.cover_count[u] -= 1;
        if self.cover_count[u] == 0 {
            self.uncovered += 1;
        }
        for &w in self.g.neighbors(u) {
            self.cover_count[w] -= 1;
            if self.cover_count[w] == 0 {
                self.uncovered += 1;
            }
            self.block_count[w] -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sets::{is_independent, is_independent_dominating};
    use disc_metric::{Dataset, Metric, Point};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt as _, SeedableRng};

    fn hexagon() -> Dataset {
        let pts: Vec<Point> = (0..6)
            .map(|i| {
                let a = std::f64::consts::TAU * i as f64 / 6.0;
                Point::new2(a.cos(), a.sin())
            })
            .collect();
        Dataset::new("hexagon", Metric::Euclidean, pts)
    }

    #[test]
    fn hexagon_minimum_is_two() {
        let data = hexagon();
        let g = UnitDiskGraph::build(&data, 1.01);
        let s = minimum_independent_dominating_set(&g);
        assert_eq!(s.len(), 2, "opposite vertices dominate a 6-cycle: {s:?}");
        assert!(is_independent_dominating(&g, &s));
    }

    #[test]
    fn path_graph_minimum() {
        // A path of 7 vertices spaced 1 apart: minimum IDS has size 3
        // (e.g. {1, 4, 6}).
        let data = Dataset::new(
            "path7",
            Metric::Euclidean,
            (0..7).map(|i| Point::new2(i as f64, 0.0)).collect(),
        );
        let g = UnitDiskGraph::build(&data, 1.0);
        let s = minimum_independent_dominating_set(&g);
        assert_eq!(s.len(), 3, "{s:?}");
        assert!(is_independent_dominating(&g, &s));
    }

    #[test]
    fn complete_graph_minimum_is_one() {
        let data = hexagon();
        let g = UnitDiskGraph::build(&data, 10.0);
        let s = minimum_independent_dominating_set(&g);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn empty_graph_needs_every_vertex() {
        let data = hexagon();
        let g = UnitDiskGraph::build(&data, 0.0);
        let s = minimum_independent_dominating_set(&g);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn figure4_star_example() {
        // The paper's Figure 4: minimum dominating set of size 2 exists
        // but the minimum INDEPENDENT dominating set has size 3. Build the
        // depicted graph: v2 adjacent to v1, v3, v5; v5 adjacent to v4,
        // v6, v2 — a "double star" whose centres are adjacent.
        // Realise it geometrically on a line with two hubs.
        //   v1(0)  v2(1)  v3(2): hub v2 at x=1
        //   v4(3)  v5(4)  v6(5): hub v5 at x=2.0
        // Coordinates: v1=(0.2,0), v2=(1,0), v3=(1.2,0.9),
        //              v5=(2.0,0), v4=(2.8,0.3), v6=(2.2,-0.9)
        let data = Dataset::new(
            "figure4",
            Metric::Euclidean,
            vec![
                Point::new2(0.2, 0.0),  // v1
                Point::new2(1.0, 0.0),  // v2
                Point::new2(1.2, 0.9),  // v3
                Point::new2(2.8, 0.3),  // v4
                Point::new2(2.0, 0.0),  // v5
                Point::new2(2.2, -0.9), // v6
            ],
        );
        let g = UnitDiskGraph::build(&data, 1.0);
        // Check the intended topology: {v2, v5} dominates everything.
        assert!(crate::sets::is_dominating(&g, &[1, 4]));
        assert!(
            g.adjacent(1, 4),
            "hubs are adjacent, so {{v2,v5}} is not independent"
        );
        let s = minimum_independent_dominating_set(&g);
        assert_eq!(s.len(), 3, "paper's example needs 3: {s:?}");
        assert!(is_independent_dominating(&g, &s));
    }

    #[test]
    fn exact_never_larger_than_greedy() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let pts = (0..24)
                .map(|_| Point::new2(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
                .collect();
            let data = Dataset::new("rnd", Metric::Euclidean, pts);
            let g = UnitDiskGraph::build(&data, 0.25);
            let exact = minimum_independent_dominating_set(&g);
            let greedy = greedy_disc_ref(&g);
            assert!(exact.len() <= greedy.len());
            assert!(is_independent_dominating(&g, &exact));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]
        /// The exact solution is a valid independent dominating set and is
        /// minimal among a sample of random maximal independent sets.
        #[test]
        fn exact_solution_valid_and_minimum(seed in 0u64..5_000, r in 0.1..0.5f64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pts = (0..18)
                .map(|_| Point::new2(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
                .collect();
            let data = Dataset::new("prop", Metric::Euclidean, pts);
            let g = UnitDiskGraph::build(&data, r);
            let exact = minimum_independent_dominating_set(&g);
            prop_assert!(is_independent_dominating(&g, &exact));
            prop_assert!(is_independent(&g, &exact));

            // Build random maximal independent sets; none may be smaller.
            for s in 0..20u64 {
                let mut order: Vec<usize> = (0..g.len()).collect();
                // Cheap deterministic shuffle.
                let mut rr = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(s));
                for i in (1..order.len()).rev() {
                    let j = rr.random_range(0..=i);
                    order.swap(i, j);
                }
                let mis = crate::reference::basic_disc_ref(&g, &order);
                prop_assert!(mis.len() >= exact.len());
            }
        }
    }
}
