//! Concurrency test tier: the one self-join entry point and the one
//! stratified CSR assembly are pinned **deterministic** — byte-identical
//! to their serial counterparts and to the O(n²) reference — across
//! metrics, thread/worker counts, edge slicings and degenerate inputs.
//!
//! The graph-resident runners are byte-identical to the exact
//! tree-backed variants; that pin is only as strong as the graph build
//! feeding them. This tier therefore checks, for counts 1, 2, 3 and 8
//! (forced via [`SelfJoinConfig::threads`] and the `workers` parameter
//! of [`StratifiedDiskGraph::from_dist_edges`], independent of the
//! host's core count):
//!
//! * parallel self-join edge list ≡ serial self-join ≡ O(n²) scan, on
//!   all four metrics — as *ordered* lists, not just sets;
//! * exact `distance_computations()` and `node_accesses()` parity
//!   between the parallel and serial traversals (lost or double-counted
//!   per-worker counters would break every future hot-path claim pinned
//!   on the counter);
//! * the same guarantees for the **distance-annotated** production edge
//!   type: edge lists byte-identical *including the f64 annotations*,
//!   and the stratified CSR byte-identical (`offsets`, `neighbors`
//!   **and** `dists`) for every worker count and every slicing of the
//!   edge list, and equal to the O(n²) [`StratifiedDiskGraph::build`];
//! * thread-count-independent graph-resident selection and zooming on
//!   top;
//! * degenerate inputs: single object, all-duplicate points, r = 0 and
//!   r ≥ diameter.

use disc_diversity::graph::reference::UnitDiskGraph;
use disc_diversity::graph::StratifiedDiskGraph;
use disc_diversity::metric::{Dataset, Metric, ObjId, Point};
use disc_diversity::mtree::{DistEdge, MTree, MTreeConfig, SelfJoinConfig};
use disc_diversity::prelude::*;
use rand::{rngs::StdRng, RngExt as _, SeedableRng};

/// Thread/shard counts every assertion runs under (1 pins the
/// single-worker path through the parallel machinery; 8 exceeds the
/// dev container's core count).
const COUNTS: [usize; 4] = [1, 2, 3, 8];

const ALL_METRICS: [Metric; 4] = [
    Metric::Euclidean,
    Metric::Manhattan,
    Metric::Chebyshev,
    Metric::Hamming,
];

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

/// Brute-force edge list (sorted by construction).
fn scan_edges(data: &Dataset, r: f64) -> Vec<(ObjId, ObjId)> {
    let mut edges = Vec::new();
    for i in 0..data.len() {
        for j in (i + 1)..data.len() {
            if data.dist(i, j) <= r {
                edges.push((i, j));
            }
        }
    }
    edges
}

fn sorted(mut edges: Vec<(ObjId, ObjId)>) -> Vec<(ObjId, ObjId)> {
    edges.sort_unstable();
    edges
}

/// Per-metric radii that exercise empty, sparse, dense and complete
/// graphs.
fn radii_for(metric: Metric) -> Vec<f64> {
    if metric == Metric::Hamming {
        vec![0.0, 1.0, 2.0, 4.0]
    } else {
        vec![0.0, 0.05, 0.15, 2.0]
    }
}

/// The plain reference join at a forced thread count.
fn plain(tree: &MTree<'_>, r: f64, threads: usize) -> Vec<(ObjId, ObjId)> {
    tree.range_self_join(r, SelfJoinConfig::with_threads(threads))
        .expect("valid radius")
}

/// The annotated production join at a forced thread count.
fn annotated(tree: &MTree<'_>, r: f64, threads: usize) -> Vec<DistEdge> {
    tree.range_self_join(r, SelfJoinConfig::with_threads(threads))
        .expect("valid radius")
}

/// The one stratified assembly over `slices` with `workers` sort
/// workers.
fn assemble(n: usize, r: f64, slices: &[&[DistEdge]], workers: usize) -> StratifiedDiskGraph {
    StratifiedDiskGraph::from_dist_edges(n, r, slices, workers, None)
        .expect("valid radius")
        .0
}

/// Byte equality of the three CSR arrays.
fn assert_same_csr(got: &StratifiedDiskGraph, want: &StratifiedDiskGraph, what: &str) {
    assert_eq!(got.offsets(), want.offsets(), "{what}: offsets");
    assert_eq!(
        got.neighbors_flat(),
        want.neighbors_flat(),
        "{what}: neighbors"
    );
    let bits = |g: &StratifiedDiskGraph| -> Vec<u64> {
        g.dists_flat().iter().map(|d| d.to_bits()).collect()
    };
    assert_eq!(bits(got), bits(want), "{what}: dists");
}

#[test]
fn parallel_self_join_equals_serial_equals_scan_on_all_metrics() {
    for metric in ALL_METRICS {
        let data = random_data_metric(160, 41, metric);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
        for r in radii_for(metric) {
            let serial = plain(&tree, r, 1);
            assert_eq!(
                sorted(serial.clone()),
                scan_edges(&data, r),
                "{metric:?} r={r}: serial self-join vs O(n²) scan"
            );
            for threads in COUNTS {
                let par = plain(&tree, r, threads);
                // Byte-identical: same edges in the same order.
                assert_eq!(par, serial, "{metric:?} r={r} threads={threads}");
            }
        }
    }
}

#[test]
fn csr_is_byte_identical_across_shard_counts_on_all_metrics() {
    // Every worker count and every slicing of one edge list assembles
    // the O(n²) oracle's bytes.
    for metric in ALL_METRICS {
        let data = random_data_metric(140, 42, metric);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(7));
        for r in radii_for(metric) {
            let reference = StratifiedDiskGraph::build(&data, r);
            assert_eq!(
                reference.view(r).to_unit_disk_graph(),
                UnitDiskGraph::build(&data, r),
                "{metric:?} r={r}: stratified oracle vs id-sorted oracle"
            );
            let edges = annotated(&tree, r, 1);
            let (a, rest) = edges.split_at(edges.len() / 3);
            let (b, c) = rest.split_at(rest.len() / 2);
            for workers in COUNTS {
                let what = format!("{metric:?} r={r} workers={workers}");
                assert_same_csr(
                    &assemble(data.len(), r, &[&edges], workers),
                    &reference,
                    &what,
                );
                assert_same_csr(
                    &assemble(data.len(), r, &[c, a, b], workers),
                    &reference,
                    &format!("{what} sliced"),
                );
            }
        }
    }
}

#[test]
fn parallel_self_join_charges_exact_distance_computations() {
    // Fixed-seed workload; each metric and thread count must charge
    // exactly the serial traversal's totals.
    for metric in ALL_METRICS {
        let data = random_data_metric(220, 43, metric);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let r = if metric == Metric::Hamming { 2.0 } else { 0.1 };

        tree.reset_distance_computations();
        tree.reset_node_accesses();
        let serial = plain(&tree, r, 1);
        let serial_dc = tree.reset_distance_computations();
        let serial_acc = tree.reset_node_accesses();
        assert!(serial_dc > 0, "{metric:?}: self-join computed no distances");

        for threads in COUNTS {
            let par = plain(&tree, r, threads);
            let par_dc = tree.reset_distance_computations();
            let par_acc = tree.reset_node_accesses();
            assert_eq!(par, serial, "{metric:?} threads={threads}");
            assert_eq!(
                par_dc, serial_dc,
                "{metric:?} threads={threads}: distance computations"
            );
            assert_eq!(
                par_acc, serial_acc,
                "{metric:?} threads={threads}: node accesses"
            );
        }
    }
}

#[test]
fn degenerate_inputs_are_deterministic_across_thread_counts() {
    // Single object: no edges, whatever the radius or thread count.
    let one = Dataset::new("one", Metric::Euclidean, vec![Point::new2(0.5, 0.5)]);
    let tree = MTree::build(&one, MTreeConfig::default());
    for threads in COUNTS {
        assert!(plain(&tree, 10.0, threads).is_empty());
    }

    // All-duplicate points: complete graph even at r = 0.
    let n = 30;
    let dups = Dataset::new("dups", Metric::Euclidean, vec![Point::new2(0.2, 0.8); n]);
    let tree = MTree::build(&dups, MTreeConfig::with_capacity(3));
    let serial = plain(&tree, 0.0, 1);
    assert_eq!(serial.len(), n * (n - 1) / 2);
    let serial_d = annotated(&tree, 0.0, 1);
    for threads in COUNTS {
        assert_eq!(plain(&tree, 0.0, threads), serial);
        assert_same_csr(
            &assemble(n, 0.0, &[&serial_d], threads),
            &StratifiedDiskGraph::build(&dups, 0.0),
            &format!("dups workers={threads}"),
        );
    }

    // r = 0 on distinct points: no edges; r ≥ diameter: complete graph.
    let data = random_data_metric(90, 44, Metric::Euclidean);
    let tree = MTree::build(&data, MTreeConfig::with_capacity(5));
    for (r, want_edges) in [(0.0, 0), (2.0, 90 * 89 / 2)] {
        let serial = plain(&tree, r, 1);
        assert_eq!(serial.len(), want_edges, "r={r}");
        for threads in COUNTS {
            assert_eq!(plain(&tree, r, threads), serial, "r={r} threads={threads}");
        }
    }

    // Empty CSR assemblies (a Dataset cannot be empty, but the edge-list
    // constructors accept n = 0).
    for workers in COUNTS {
        assert!(assemble(0, 1.0, &[], workers).is_empty());
    }
}

#[test]
fn stratified_csr_is_byte_identical_across_thread_and_shard_counts() {
    // The distance-annotated pipeline (annotated self-join → stratified
    // CSR with distance-sorted rows) is deterministic too: for every
    // forced thread/worker count, edges (annotations included), offsets,
    // neighbors *and* dists arrays equal the serial build's, on all four
    // metrics.
    for metric in ALL_METRICS {
        let data = random_data_metric(140, 46, metric);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(7));
        for r in radii_for(metric) {
            let serial_edges = annotated(&tree, r, 1);
            let serial = assemble(data.len(), r, &[&serial_edges], 1);
            for threads in COUNTS {
                let par_edges = annotated(&tree, r, threads);
                // Byte-identical: same edges, same order, same f64
                // distance annotations.
                assert_eq!(
                    par_edges, serial_edges,
                    "{metric:?} r={r} threads={threads}"
                );
                assert_same_csr(
                    &assemble(data.len(), r, &[&par_edges], threads),
                    &serial,
                    &format!("{metric:?} r={r} workers={threads}"),
                );
            }
        }
    }
}

#[test]
fn stratified_csr_byte_identical_on_duplicate_heavy_rows() {
    // A regular grid maximises duplicated edge distances (every row is
    // full of exact ties), stressing the radix row sort's id
    // tie-breaking: every worker count must stay byte-identical to the
    // one-worker assembly — dists included.
    let mut pts = Vec::new();
    for i in 0..12 {
        for j in 0..12 {
            pts.push(Point::new2(i as f64 / 12.0, j as f64 / 12.0));
        }
    }
    let data = Dataset::new("grid", Metric::Euclidean, pts);
    let tree = MTree::build(&data, MTreeConfig::with_capacity(6));
    for r in [0.1, 0.3, 2.0] {
        let edges = annotated(&tree, r, 1);
        let serial = assemble(data.len(), r, &[&edges], 1);
        // Rows must be strictly (dist, id)-sorted despite the ties.
        for v in 0..data.len() {
            let (ids, ds) = (serial.neighbors(v), serial.dists(v));
            for k in 1..ids.len() {
                assert!(
                    (ds[k - 1], ids[k - 1]) < (ds[k], ids[k]),
                    "row {v} not strictly (dist, id)-sorted at {k} (r={r})"
                );
            }
        }
        for workers in COUNTS {
            assert_same_csr(
                &assemble(data.len(), r, &[&edges], workers),
                &serial,
                &format!("r={r} workers={workers}"),
            );
        }
    }
}

#[test]
fn annotated_self_join_charges_exact_counters_across_thread_counts() {
    // Counter exactness for the annotated traversal: every forced
    // thread count charges exactly the serial annotated traversal's
    // distance computations and node accesses.
    for metric in ALL_METRICS {
        let data = random_data_metric(200, 47, metric);
        let tree = MTree::build(&data, MTreeConfig::with_capacity(8));
        let r = if metric == Metric::Hamming { 2.0 } else { 0.1 };

        tree.reset_distance_computations();
        tree.reset_node_accesses();
        let serial = annotated(&tree, r, 1);
        let serial_dc = tree.reset_distance_computations();
        let serial_acc = tree.reset_node_accesses();
        assert!(
            serial_dc > 0,
            "{metric:?}: annotated join computed no distances"
        );

        for threads in COUNTS {
            let par = annotated(&tree, r, threads);
            let par_dc = tree.reset_distance_computations();
            let par_acc = tree.reset_node_accesses();
            assert_eq!(par, serial, "{metric:?} threads={threads}");
            assert_eq!(
                par_dc, serial_dc,
                "{metric:?} threads={threads}: distance computations"
            );
            assert_eq!(
                par_acc, serial_acc,
                "{metric:?} threads={threads}: node accesses"
            );
        }
    }
}

#[test]
fn stratified_zooming_is_thread_count_independent() {
    // End-to-end: stratified graphs built at every thread count feed
    // the graph-resident zoom runners identically, and the solutions
    // match the tree-backed operators.
    let data = random_data_metric(220, 48, Metric::Euclidean);
    let tree = MTree::build(&data, MTreeConfig::default());
    let (r, r_new) = (0.12, 0.06);
    let prev = greedy_disc(&tree, r, GreedyVariant::Grey, true);
    let want = greedy_zoom_in(&tree, &prev, r_new).result.solution;
    for threads in COUNTS {
        let graph =
            StratifiedDiskGraph::from_mtree(&tree, r, SelfJoinConfig::with_threads(threads))
                .expect("valid radius");
        assert_eq!(
            greedy_zoom_in_graph(&graph, &prev, r_new).result.solution,
            want,
            "threads={threads}"
        );
    }
}

#[test]
fn graph_resident_solutions_are_thread_count_independent() {
    // End-to-end: the full graph pipeline (parallel self-join →
    // multi-worker CSR → graph-resident selection) picks the same
    // solutions as the O(n²) reference graph and the tree-backed exact
    // runners.
    let data = random_data_metric(250, 45, Metric::Euclidean);
    let tree = MTree::build(&data, MTreeConfig::default());
    let r = 0.1;
    let serial_graph = UnitDiskGraph::build(&data, r);
    let want_disc = greedy_disc_graph(&serial_graph).solution;
    let want_c = greedy_c_graph(&serial_graph).solution;
    assert_eq!(
        want_disc,
        greedy_disc(&tree, r, GreedyVariant::Grey, true).solution
    );
    for threads in COUNTS {
        let graph =
            StratifiedDiskGraph::from_mtree(&tree, r, SelfJoinConfig::with_threads(threads))
                .expect("valid radius");
        let view = graph.view(r);
        assert_eq!(
            greedy_disc_graph(&view).solution,
            want_disc,
            "threads={threads}"
        );
        assert_eq!(greedy_c_graph(&view).solution, want_c, "threads={threads}");
        assert!(verify_disc(&data, &want_disc, r).is_valid());
    }
}
