//! Selection on stratified prefixes, checked against independent
//! oracles.
//!
//! The fixed-radius runners (`greedy_disc_graph`, `greedy_c_graph`,
//! `fast_c_graph`) read a `StratifiedView` directly in production. For
//! random data, all four metrics and random `r ≤ r_max`, each runner
//! over `strat.view(r)` must equal:
//!
//! 1. the same runner over the id-sorted reference copy
//!    `strat.view(r).to_unit_disk_graph()` (row order is invisible);
//! 2. the tree-backed heuristic on the original numbering
//!    (`greedy_disc` with the Grey variant, `greedy_c`), which derives
//!    neighbourhoods from M-tree range queries and shares no adjacency
//!    code with the graph.
//!
//! Every output is also checked against Definition 1 on the raw
//! distances: Greedy-DisC must be an r-DisC diverse subset
//! (`verify_disc`: independent and covering), and the coverage
//! heuristics, which solve the r-C problem and may select adjacent
//! objects, must cover (`verify_coverage`).
//!
//! Both graph numberings are exercised: an identity-numbered graph
//! straight from the M-tree, and the canonically renumbered graph of
//! the sharded build `disc build` runs, whose solutions must still come
//! out in the input's external ids.

use disc_core::{
    build_sharded_with, fast_c_graph, greedy_c, greedy_c_graph, greedy_disc, greedy_disc_graph,
    verify_coverage, verify_disc, GreedyVariant, ShardedBuildConfig,
};
use disc_graph::StratifiedDiskGraph;
use disc_metric::{Dataset, Metric, ObjId, Point};
use disc_mtree::{MTree, MTreeConfig, SelfJoinConfig};
use proptest::prelude::*;
use rand::{rngs::StdRng, RngExt as _, SeedableRng};

const METRICS: [Metric; 4] = [
    Metric::Euclidean,
    Metric::Manhattan,
    Metric::Chebyshev,
    Metric::Hamming,
];

/// `n` random points under `metric` and the build radius `r_max`:
/// clumpy points on the unit square for the continuous metrics (so
/// rows hold many ties and long prefixes), a small categorical
/// alphabet for Hamming (integer distances, many duplicates).
fn dataset(metric: Metric, n: usize, seed: u64) -> (Dataset, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    if metric == Metric::Hamming {
        let pts = (0..n)
            .map(|_| {
                Point::categorical(&[
                    rng.random_range(0..3u32),
                    rng.random_range(0..4u32),
                    rng.random_range(0..4u32),
                ])
            })
            .collect();
        return (Dataset::new("view-parity-hamming", metric, pts), 2.0);
    }
    let centres: Vec<(f64, f64)> = (0..4)
        .map(|_| (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
        .collect();
    let pts = (0..n)
        .map(|i| {
            let (cx, cy) = centres[i % centres.len()];
            Point::new2(
                cx + rng.random_range(-0.15..0.15),
                cy + rng.random_range(-0.15..0.15),
            )
        })
        .collect();
    (Dataset::new("view-parity", metric, pts), 0.25)
}

/// Runs the three fixed-radius runners over `strat.view(r)` and over
/// its reference conversion, asserting pairwise equality, and returns
/// the view outputs `[greedy_disc, greedy_c, fast_c]`.
fn view_outputs(strat: &StratifiedDiskGraph, r: f64) -> Result<[Vec<ObjId>; 3], TestCaseError> {
    let view = strat.view(r);
    let reference = view.to_unit_disk_graph();
    let disc = greedy_disc_graph(&view);
    prop_assert_eq!(&disc, &greedy_disc_graph(&reference));
    let cover = greedy_c_graph(&view);
    prop_assert_eq!(&cover, &greedy_c_graph(&reference));
    let lazy = fast_c_graph(&view);
    prop_assert_eq!(&lazy, &fast_c_graph(&reference));
    prop_assert_eq!(disc.radius, r);
    prop_assert_eq!(disc.node_accesses, 0);
    Ok([disc.solution, cover.solution, lazy.solution])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn view_runners_match_reference_tree_and_definition(
        metric_ix in 0usize..4,
        seed in 0u64..10_000,
        frac in 0.0..1.0f64,
        on_edge in 0usize..2,
        cap in 4usize..12,
    ) {
        let metric = METRICS[metric_ix];
        let (data, r_max) = dataset(metric, 160, seed);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(cap));

        // Identity numbering: vertex ids are the dataset's ids.
        let plain = StratifiedDiskGraph::from_mtree(&tree, r_max, SelfJoinConfig::default()).expect("valid radius");
        prop_assert!(plain.permutation().is_none());

        // Half the cases put r exactly on a stored edge distance, so the
        // `d ≤ r` boundary of every row cutoff is exercised, not only
        // radii that fall between distances.
        let stored = plain.dists_flat();
        let r = if on_edge == 1 && !stored.is_empty() {
            stored[(frac * stored.len() as f64) as usize % stored.len()]
        } else {
            frac * r_max
        };

        // Canonical renumbering of the sharded build; a small partition
        // stop forces real shards (and a non-identity order) at n = 160.
        let config = ShardedBuildConfig { threads: 2, stop: 16, ..ShardedBuildConfig::default() };
        let sharded = build_sharded_with(&data, r_max, 3, config, None)
            .map_err(|e| TestCaseError::fail(format!("sharded build: {e}")))?;
        prop_assert!(
            sharded.graph.permutation().is_some(),
            "the sharded build should renumber this dataset"
        );

        let tree_disc = greedy_disc(&tree, r, GreedyVariant::Grey, true).solution;
        let tree_cover = greedy_c(&tree, r).solution;
        prop_assert!(verify_disc(&data, &tree_disc, r).is_valid());

        for strat in [&plain, &sharded.graph] {
            let [disc, cover, lazy] = view_outputs(strat, r)?;
            prop_assert_eq!(&disc, &tree_disc, "{:?} r={}", metric, r);
            prop_assert_eq!(&cover, &tree_cover, "{:?} r={}", metric, r);
            prop_assert_eq!(&lazy, &tree_cover, "{:?} r={}", metric, r);
            let report = verify_disc(&data, &disc, r);
            prop_assert!(report.is_valid(), "{:?} r={}: {:?}", metric, r, report);
            prop_assert!(verify_coverage(&data, &cover, r).is_empty());
            prop_assert!(verify_coverage(&data, &lazy, r).is_empty());
        }
    }
}

/// The full radius range at its ends: `r = 0` (only exact duplicates
/// are adjacent) and `r = r_max` (the whole stored row), on the sharded
/// graph under every metric.
#[test]
fn view_runners_hold_at_zero_and_full_radius() {
    for metric in METRICS {
        let (data, r_max) = dataset(metric, 120, 404);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let built = build_sharded_with(
            &data,
            r_max,
            2,
            ShardedBuildConfig {
                stop: 16,
                ..ShardedBuildConfig::default()
            },
            None,
        )
        .expect("clean dataset builds");
        for r in [0.0, r_max] {
            let [disc, cover, lazy] =
                view_outputs(&built.graph, r).expect("view equals its reference");
            assert_eq!(
                disc,
                greedy_disc(&tree, r, GreedyVariant::Grey, true).solution,
                "{metric:?} r={r}"
            );
            let tree_cover = greedy_c(&tree, r).solution;
            assert_eq!(cover, tree_cover, "{metric:?} r={r}");
            assert_eq!(lazy, tree_cover, "{metric:?} r={r}");
            assert!(verify_disc(&data, &disc, r).is_valid(), "{metric:?} r={r}");
        }
    }
}
