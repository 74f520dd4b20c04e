//! End-to-end integration tests spanning every crate: datasets → M-tree →
//! DisC heuristics → graph-based verification → baselines.

use disc_diversity::baselines::{coverage_fraction, fmin};
use disc_diversity::datasets::{camera_catalog, greek_cities, synthetic};
use disc_diversity::graph::reference::UnitDiskGraph;
use disc_diversity::graph::{
    is_independent_dominating, jaccard_distance, minimum_independent_dominating_set,
};
use disc_diversity::metric::bounds::respects_theorem1;
use disc_diversity::prelude::*;

#[test]
fn full_pipeline_on_clustered_data() {
    let data = synthetic::clustered(1_000, 2, 6, 1);
    let tree = MTree::build(&data, MTreeConfig::default());
    tree.reset_node_accesses();
    let r = 0.06;

    let result = greedy_disc(&tree, r, GreedyVariant::Grey, true);
    assert!(verify_disc(&data, &result.solution, r).is_valid());

    // Graph view agrees with the brute-force verifier.
    let g = UnitDiskGraph::build(&data, r);
    assert!(is_independent_dominating(&g, &result.solution));

    // The DisC solution covers 100% of the dataset at radius r.
    assert!((coverage_fraction(&data, &result.solution, r) - 1.0).abs() < 1e-12);
    // And its fMin exceeds r by the dissimilarity condition.
    assert!(fmin(&data, &result.solution) > r);
}

#[test]
fn every_heuristic_agrees_on_validity_across_workloads() {
    let cameras = camera_catalog();
    let workloads: Vec<(disc_diversity::metric::Dataset, f64)> = vec![
        (synthetic::uniform(600, 2, 2), 0.08),
        (synthetic::clustered(600, 2, 5, 3), 0.08),
        (cameras.dataset.clone(), 3.0),
    ];
    for (data, r) in &workloads {
        let tree = MTree::build(data, MTreeConfig::default());
        tree.reset_node_accesses();
        for pruned in [false, true] {
            let b = basic_disc(&tree, *r, BasicOrder::LeafOrder, pruned);
            assert!(
                verify_disc(data, &b.solution, *r).is_valid(),
                "{} basic pruned={pruned}",
                data.name()
            );
        }
        for v in [
            GreedyVariant::Grey,
            GreedyVariant::White,
            GreedyVariant::LazyGrey,
            GreedyVariant::LazyWhite,
        ] {
            let res = greedy_disc(&tree, *r, v, true);
            assert!(
                verify_disc(data, &res.solution, *r).is_valid(),
                "{} {v:?}",
                data.name()
            );
        }
        let c = greedy_c(&tree, *r);
        assert!(disc_diversity::core::verify_coverage(data, &c.solution, *r).is_empty());
        let f = fast_c(&tree, *r);
        assert!(disc_diversity::core::verify_coverage(data, &f.solution, *r).is_empty());
    }
}

#[test]
fn theorem1_against_exact_solver_on_small_instances() {
    for seed in 0..5u64 {
        let data = synthetic::uniform(24, 2, seed);
        let r = 0.3;
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        tree.reset_node_accesses();
        let heuristic = greedy_disc(&tree, r, GreedyVariant::Grey, true);
        let g = UnitDiskGraph::build(&data, r);
        let optimal = minimum_independent_dominating_set(&g);
        assert!(
            respects_theorem1(data.metric(), data.dim(), heuristic.size(), optimal.len()),
            "seed {seed}: heuristic {} vs optimal {}",
            heuristic.size(),
            optimal.len()
        );
        assert!(heuristic.size() >= optimal.len());
    }
}

#[test]
fn zooming_round_trip_keeps_solutions_valid_and_close() {
    let data = greek_cities();
    // Work on a subsample to keep the test quick in debug builds.
    let ids: Vec<usize> = (0..data.len()).step_by(6).collect();
    let data = data.restrict(&ids);
    let tree = MTree::build(&data, MTreeConfig::default());
    tree.reset_node_accesses();

    let r = 0.05;
    let initial = greedy_disc(&tree, r, GreedyVariant::Grey, true);
    let zin = greedy_zoom_in(&tree, &initial, r / 2.0);
    assert!(verify_disc(&data, &zin.result.solution, r / 2.0).is_valid());

    let zout = greedy_zoom_out(&tree, &initial, r * 2.0, ZoomOutVariant::GreedyB);
    assert!(verify_disc(&data, &zout.result.solution, r * 2.0).is_valid());

    // The adapted solutions stay closer to the seen result than
    // from-scratch recomputations (the paper's Figures 13/16 finding).
    let fresh_in = greedy_disc(&tree, r / 2.0, GreedyVariant::Grey, true);
    let d_zoom = jaccard_distance(&initial.solution, &zin.result.solution);
    let d_fresh = jaccard_distance(&initial.solution, &fresh_in.solution);
    assert!(d_zoom <= d_fresh + 1e-9, "{d_zoom} vs {d_fresh}");
}

#[test]
fn local_zoom_on_camera_catalog() {
    let catalog = camera_catalog();
    let tree = MTree::build(&catalog.dataset, MTreeConfig::default());
    tree.reset_node_accesses();
    let overview = greedy_disc(&tree, 4.0, GreedyVariant::Grey, true);
    let center = overview.solution[0];
    let local = local_zoom(&tree, &overview, center, 2.0);
    assert!(local.solution.contains(&center));
    // All additions are close variants of the centre.
    for &a in &local.added {
        assert!(catalog.dataset.dist(a, center) <= 4.0);
    }
}

#[test]
fn radius_extremes_match_theory() {
    // Radius 0: every object selected; radius >= diameter: one object.
    let data = synthetic::uniform(120, 2, 9);
    let tree = MTree::build(&data, MTreeConfig::default());
    tree.reset_node_accesses();
    assert_eq!(
        basic_disc(&tree, 0.0, BasicOrder::LeafOrder, true).size(),
        120
    );
    assert_eq!(greedy_disc(&tree, 2.0, GreedyVariant::Grey, true).size(), 1);
}
