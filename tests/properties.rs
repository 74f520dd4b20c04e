//! Workspace-level property-based tests: paper invariants that must hold
//! for arbitrary datasets, radii and index configurations.

use disc_diversity::datasets::synthetic;
use disc_diversity::graph::jaccard_distance;
use disc_diversity::graph::reference::UnitDiskGraph;
use disc_diversity::metric::bounds::max_independent_neighbors;
use disc_diversity::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Definition 1 holds for every heuristic on random inputs, and the
    /// two maximal-independent-set heuristics bound each other by B
    /// (Theorem 1 applied in both directions).
    #[test]
    fn definition1_and_theorem1(seed in 0u64..3_000, r in 0.03..0.4f64, cap in 4usize..16) {
        let data = synthetic::uniform(150, 2, seed);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(cap));
        tree.reset_node_accesses();

        let basic = basic_disc(&tree, r, BasicOrder::LeafOrder, true);
        let greedy = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        prop_assert!(verify_disc(&data, &basic.solution, r).is_valid());
        prop_assert!(verify_disc(&data, &greedy.solution, r).is_valid());

        let b = max_independent_neighbors(data.metric(), data.dim()).unwrap() as usize;
        prop_assert!(basic.size() <= b * greedy.size());
        prop_assert!(greedy.size() <= b * basic.size());
    }

    /// Lemma 1 consequence: a DisC solution is maximal — adding any
    /// non-member breaks independence.
    #[test]
    fn solutions_are_maximal_independent_sets(seed in 0u64..3_000, r in 0.05..0.35f64) {
        let data = synthetic::clustered(120, 2, 4, seed);
        let tree = MTree::build(&data, MTreeConfig::default());
        tree.reset_node_accesses();
        let res = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        let g = UnitDiskGraph::build(&data, r);
        for v in g.vertices() {
            if res.solution.contains(&v) {
                continue;
            }
            prop_assert!(
                res.solution.iter().any(|&s| g.adjacent(s, v)),
                "object {} could be added without breaking independence", v
            );
        }
    }

    /// Lemma 5: zoom-in produces a superset whose size obeys the
    /// NI-bound growth factor.
    #[test]
    fn lemma5_zoom_in_bounds(seed in 0u64..3_000, r in 0.15..0.35f64, shrink in 0.3..0.8f64) {
        let data = synthetic::uniform(120, 2, seed);
        let tree = MTree::build(&data, MTreeConfig::default());
        tree.reset_node_accesses();
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        let r_new = r * shrink;
        let z = greedy_zoom_in(&tree, &prev, r_new);
        // (i) superset
        for s in &prev.solution {
            prop_assert!(z.result.solution.contains(s));
        }
        // (ii) growth bounded by |S^r| * NI_{r', r} (loose but must hold)
        let ni = disc_diversity::metric::bounds::ni_bound(
            data.metric(), data.dim(), r_new, r,
        ).unwrap();
        prop_assert!(
            (z.result.size() as u64) <= (prev.size() as u64) * ni.max(1) + prev.size() as u64,
            "zoomed {} vs prev {} (NI {})", z.result.size(), prev.size(), ni
        );
        // valid for the new radius
        prop_assert!(verify_disc(&data, &z.result.solution, r_new).is_valid());
    }

    /// Zooming (both directions) never strays farther from the seen
    /// result than recomputation, measured by Jaccard distance.
    #[test]
    fn zooming_preserves_continuity(seed in 0u64..3_000) {
        let data = synthetic::clustered(150, 2, 5, seed);
        let tree = MTree::build(&data, MTreeConfig::default());
        tree.reset_node_accesses();
        let r = 0.1;
        let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);

        let zin = greedy_zoom_in(&tree, &prev, r / 2.0);
        let fresh_in = greedy_disc(&tree, r / 2.0, GreedyVariant::Grey, true);
        prop_assert!(
            jaccard_distance(&prev.solution, &zin.result.solution)
                <= jaccard_distance(&prev.solution, &fresh_in.solution) + 1e-9
        );

        let zout = greedy_zoom_out(&tree, &prev, r * 2.0, ZoomOutVariant::GreedyB);
        prop_assert!(verify_disc(&data, &zout.result.solution, r * 2.0).is_valid());
    }

    /// The M-tree is irrelevant to *what* is selected (only to cost):
    /// any capacity yields the same greedy solution.
    #[test]
    fn index_agnostic_solutions(seed in 0u64..3_000, cap_a in 4usize..12, cap_b in 12usize..40) {
        let data = synthetic::uniform(100, 2, seed);
        let r = 0.1;
        let run = |cap: usize| {
            let tree = MTree::build(&data, MTreeConfig::with_capacity(cap));
            tree.reset_node_accesses();
            greedy_disc(&tree, r, GreedyVariant::Grey, true).solution
        };
        prop_assert_eq!(run(cap_a), run(cap_b));
    }
}
