//! Renumbering transparency: the production build's canonical
//! renumbering (`build_sharded`) is an internal cache-layout change, so
//! every graph-resident runner must produce byte-identical solutions —
//! in *external* ids — before and after it, and the renumbered snapshot
//! must round-trip byte-identically, under all four metrics and every
//! build thread count CI pins (1, 2, 3, 8).
//!
//! Runners that read a tree's leaf order (plain zoom-out, basic
//! multi-radius) follow whichever tree they are handed, and a tree over
//! the renumbered dataset has its own leaf order. Those are pinned
//! against the tree-backed runner over the *same* tree instead,
//! translated to external ids.

use disc_core::{
    build_sharded_with, greedy_c_graph, greedy_disc_graph, greedy_zoom_in_graph, greedy_zoom_out,
    multi_radius_basic_disc, multi_radius_graph, zoom_out_graph, DiscResult, ShardedBuildConfig,
    ZoomOutVariant,
};
use disc_graph::StratifiedDiskGraph;
use disc_metric::{Dataset, Metric, Point};
use disc_mtree::{MTree, MTreeConfig, SelfJoinConfig};

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn point(metric: Metric, i: usize) -> Point {
    if metric == Metric::Hamming {
        Point::categorical(&[(i % 7) as u32, (i % 3) as u32, (i / 5 % 4) as u32])
    } else {
        // A deterministic scatter over [0, 1)²; the co-prime strides
        // keep duplicates rare without an RNG.
        Point::new2((i * 37 % 100) as f64 * 0.01, (i * 61 % 100) as f64 * 0.01)
    }
}

/// (r_max, zoom-in target) per metric: Hamming distances are small
/// integers, the continuous metrics live on the unit square.
fn radii(metric: Metric) -> (f64, f64) {
    if metric == Metric::Hamming {
        (2.0, 1.0)
    } else {
        (0.2, 0.12)
    }
}

/// Solutions of the runners that never read a tree's leaf order
/// (they leave the runners in external ids regardless of the graph's
/// numbering).
fn tree_free_outputs(tree: &MTree<'_>, strat: &StratifiedDiskGraph) -> Vec<Vec<usize>> {
    let (r_max, r_small) = radii(tree.data().metric());
    let mut outputs = Vec::new();

    let at_max = greedy_disc_graph(&strat.view(r_max));
    outputs.push(at_max.solution.clone());
    outputs.push(greedy_c_graph(&strat.view(r_max)).solution);
    outputs.push(
        greedy_zoom_in_graph(strat, &at_max, r_small)
            .result
            .solution,
    );

    let at_small = greedy_disc_graph(&strat.view(r_small));
    for variant in [
        ZoomOutVariant::GreedyA,
        ZoomOutVariant::GreedyB,
        ZoomOutVariant::GreedyC,
    ] {
        outputs.push(
            zoom_out_graph(tree, strat, &at_small, r_max, variant)
                .result
                .solution,
        );
    }
    outputs.push(multi_radius_graph(tree, strat, &per_object(tree), true).solution);
    outputs
}

/// Per-object radii, indexed by external id.
fn per_object(tree: &MTree<'_>) -> Vec<f64> {
    let (r_max, r_small) = radii(tree.data().metric());
    (0..tree.len())
        .map(|external| if external % 2 == 0 { r_small } else { r_max })
        .collect()
}

/// The leaf-order runners on `(tree, strat)`, each paired with the
/// tree-backed runner over the same tree translated to external ids.
fn leaf_order_outputs(
    tree: &MTree<'_>,
    strat: &StratifiedDiskGraph,
) -> Vec<(Vec<usize>, Vec<usize>)> {
    let data = tree.data();
    let (r_max, r_small) = radii(data.metric());
    let external =
        |ids: Vec<usize>| -> Vec<usize> { ids.into_iter().map(|v| data.external_id(v)).collect() };
    let at_small = greedy_disc_graph(&strat.view(r_small));
    let at_small_internal = DiscResult {
        solution: at_small
            .solution
            .iter()
            .map(|&e| data.internal_id(e))
            .collect(),
        ..at_small.clone()
    };
    let plain = ZoomOutVariant::Plain;
    let radii_external = per_object(tree);
    let radii_internal: Vec<f64> = data
        .ids()
        .map(|v| radii_external[data.external_id(v)])
        .collect();
    vec![
        (
            zoom_out_graph(tree, strat, &at_small, r_max, plain)
                .result
                .solution,
            external(
                greedy_zoom_out(tree, &at_small_internal, r_max, plain)
                    .result
                    .solution,
            ),
        ),
        (
            multi_radius_graph(tree, strat, &radii_external, false).solution,
            external(multi_radius_basic_disc(tree, &radii_internal, true).solution),
        ),
    ]
}

#[test]
fn renumbering_preserves_every_runner_and_the_snapshot_round_trip() {
    for metric in [
        Metric::Euclidean,
        Metric::Manhattan,
        Metric::Chebyshev,
        Metric::Hamming,
    ] {
        let data = Dataset::new(
            "renumbering-parity",
            metric,
            (0..300).map(|i| point(metric, i)).collect(),
        );
        let (r_max, _) = radii(metric);
        let tree = MTree::build(&data, MTreeConfig::default());

        let mut snapshots: Vec<Vec<u8>> = Vec::new();
        for threads in THREAD_COUNTS {
            let strat = StratifiedDiskGraph::from_mtree(
                &tree,
                r_max,
                SelfJoinConfig::with_threads(threads),
            )
            .expect("original build");
            let config = ShardedBuildConfig {
                threads,
                ..ShardedBuildConfig::default()
            };
            let build = build_sharded_with(&data, r_max, 1, config, None).expect("sharded build");
            let (data2, strat2) = (&build.data, &build.graph);
            let tree2 = MTree::build(data2, MTreeConfig::default());
            assert!(
                strat2.permutation().is_some(),
                "{metric:?}: the canonical order left the corpus unrenumbered"
            );

            assert_eq!(
                tree_free_outputs(&tree, &strat),
                tree_free_outputs(&tree2, strat2),
                "{metric:?} threads={threads}: a runner's external-id \
                 solution changed under renumbering"
            );
            for (t, s) in [(&tree, &strat), (&tree2, strat2)] {
                for (graph, tree_backed) in leaf_order_outputs(t, s) {
                    assert_eq!(
                        graph, tree_backed,
                        "{metric:?} threads={threads}: a leaf-order runner \
                         diverged from the tree-backed one"
                    );
                }
            }

            // The renumbered snapshot round-trips byte-identically and
            // the loaded pair reproduces the same external solutions.
            let bytes = disc_store::encode(data2, strat2).expect("encode");
            let (loaded_data, loaded_graph) = disc_store::decode(&bytes).expect("decode");
            assert_eq!(
                disc_store::encode(&loaded_data, &loaded_graph).expect("re-encode"),
                bytes,
                "{metric:?} threads={threads}: snapshot round trip not byte-identical"
            );
            assert_eq!(
                tree_free_outputs(&tree2, &loaded_graph),
                tree_free_outputs(&tree2, strat2),
                "{metric:?} threads={threads}: loaded graph diverged from built graph"
            );
            assert_eq!(
                leaf_order_outputs(&tree2, &loaded_graph),
                leaf_order_outputs(&tree2, strat2),
                "{metric:?} threads={threads}: loaded graph diverged from built graph"
            );
            snapshots.push(bytes);
        }
        assert!(
            snapshots.windows(2).all(|w| w[0] == w[1]),
            "{metric:?}: snapshot bytes differ across build thread counts"
        );
    }
}
