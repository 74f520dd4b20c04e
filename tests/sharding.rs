//! Sharded-build parity suite: the sharded pipeline's one contract is
//! that shard count and worker count are *invisible* in the output —
//! the stratified CSR, the attached permutation, and therefore the
//! encoded snapshot are byte-identical at every `shards ≥ 1`, and the
//! distance/node counters are exact (identical at every worker count
//! for a fixed shard count). This suite pins that contract across all
//! four metrics, the shard counts CI runs (1/2/3/8), and the
//! degenerate shapes: more shards than objects (empty shards), every
//! point identical (one shard absorbs everything), and duplicate
//! points straddling a shard boundary.
//!
//! Byte equality between shard counts cannot catch a bug both sides
//! share, so the suite also checks every sharded build against an
//! independent oracle: the Definition 1 verifiers over the *original*
//! dataset, run on solutions selected from the sharded graph.

use disc_diversity::core::{
    build_sharded, build_sharded_with, fast_c_graph, greedy_c_graph, greedy_disc_graph,
    verify_coverage, verify_disc, ShardedBuildConfig,
};
use disc_diversity::datasets::synthetic::clustered;
use disc_diversity::metric::{Dataset, Metric};

/// Encoded snapshot bytes of one sharded build — the strongest
/// equality: dataset bytes, permutation bytes, CSR bytes, checksums.
fn sharded_snapshot(data: &Dataset, r: f64, shards: usize) -> (Vec<u8>, u64, usize) {
    let built = build_sharded(data, r, shards).expect("clean dataset builds");
    let bytes = disc_diversity::store::encode(&built.data, &built.graph).expect("snapshot encodes");
    (
        bytes,
        built.stats.distance_computations(),
        built.stats.edges,
    )
}

/// The clustered fixture re-expressed under `metric`; Hamming gets its
/// coordinates quantised to a small categorical alphabet first.
fn fixture(metric: Metric) -> (Dataset, f64) {
    let base = clustered(400, 2, 6, 13);
    match metric {
        Metric::Hamming => {
            let flat: Vec<f64> = base
                .flat_coords()
                .iter()
                .map(|c| (c * 4.0).round())
                .collect();
            let data = Dataset::from_flat("sharding-hamming", metric, 2, flat);
            (data, 1.5)
        }
        _ => {
            let data =
                Dataset::from_flat("sharding-fixture", metric, 2, base.flat_coords().to_vec());
            (data, 0.08)
        }
    }
}

#[test]
fn snapshots_are_byte_identical_at_every_shard_count_for_every_metric() {
    for metric in [
        Metric::Euclidean,
        Metric::Manhattan,
        Metric::Chebyshev,
        Metric::Hamming,
    ] {
        let (data, r) = fixture(metric);
        let (reference, _, ref_edges) = sharded_snapshot(&data, r, 1);
        assert!(ref_edges > 0, "{metric:?} fixture must produce edges");
        for shards in [2, 3, 8] {
            let (bytes, dc, edges) = sharded_snapshot(&data, r, shards);
            assert_eq!(
                bytes, reference,
                "{metric:?}: snapshot at shards={shards} diverged from the \
                 unsharded build"
            );
            assert_eq!(edges, ref_edges, "{metric:?} shards={shards} edge count");
            assert!(dc > 0, "{metric:?} shards={shards} must count distances");
        }
    }
}

#[test]
fn sharded_graphs_select_valid_solutions_on_the_original_dataset() {
    // Solutions leave the runners in external ids, i.e. the original
    // dataset's numbering, so the O(n²) verifiers read `data` directly —
    // no part of the sharded pipeline is on the checking side.
    for metric in [
        Metric::Euclidean,
        Metric::Manhattan,
        Metric::Chebyshev,
        Metric::Hamming,
    ] {
        let (data, r_max) = fixture(metric);
        for shards in [1, 2, 3, 8] {
            let built = build_sharded(&data, r_max, shards).expect("clean dataset builds");
            for r in [r_max, r_max / 2.0] {
                let view = built.graph.view(r);
                let what = format!("{metric:?} shards={shards} r={r}");
                let disc = greedy_disc_graph(&view).solution;
                assert!(
                    verify_disc(&data, &disc, r).is_valid(),
                    "{what}: Greedy-DisC is not an r-DisC diverse subset"
                );
                // Greedy-C and Fast-C only promise coverage: they may
                // select adjacent objects.
                for (name, cover) in [
                    ("Greedy-C", greedy_c_graph(&view).solution),
                    ("Fast-C", fast_c_graph(&view).solution),
                ] {
                    assert_eq!(
                        verify_coverage(&data, &cover, r),
                        Vec::<usize>::new(),
                        "{what}: {name} leaves objects uncovered"
                    );
                }
            }
        }
    }
}

#[test]
fn counters_and_bytes_are_exact_across_worker_counts() {
    let (data, r) = fixture(Metric::Euclidean);
    let mut reference: Option<(Vec<u8>, u64, u64)> = None;
    for threads in [1, 2, 8] {
        let config = ShardedBuildConfig {
            threads,
            ..ShardedBuildConfig::default()
        };
        let built = build_sharded_with(&data, r, 3, config, None).expect("clean build");
        let bytes =
            disc_diversity::store::encode(&built.data, &built.graph).expect("snapshot encodes");
        let key = (
            bytes,
            built.stats.distance_computations(),
            built.stats.node_accesses,
        );
        match &reference {
            None => reference = Some(key),
            Some(r) => assert_eq!(
                r, &key,
                "threads={threads} changed the bytes or the exact counters"
            ),
        }
    }
}

#[test]
fn more_shards_than_objects_leaves_empty_shards_and_identical_bytes() {
    let tiny = clustered(5, 2, 2, 7);
    let (reference, _, _) = sharded_snapshot(&tiny, 0.4, 1);
    let built = build_sharded(&tiny, 0.4, 8).expect("tiny build");
    assert!(built.stats.shards >= 1, "plan must exist");
    let bytes = disc_diversity::store::encode(&built.data, &built.graph).expect("snapshot encodes");
    assert_eq!(
        bytes, reference,
        "8 shards over 5 objects diverged from the unsharded build"
    );
}

#[test]
fn all_identical_points_collapse_into_one_shard_without_divergence() {
    // Every point equal: any median split cuts straight through ties,
    // so every shard boundary is a duplicate boundary and the r-disk
    // graph is complete.
    let n = 40;
    let data = Dataset::from_flat("all-dup", Metric::Euclidean, 2, vec![0.25; n * 2]);
    let (reference, _, ref_edges) = sharded_snapshot(&data, 0.1, 1);
    assert_eq!(ref_edges, n * (n - 1) / 2, "complete graph over duplicates");
    for shards in [2, 3, 8] {
        let (bytes, _, edges) = sharded_snapshot(&data, 0.1, shards);
        assert_eq!(bytes, reference, "shards={shards} over pure duplicates");
        assert_eq!(edges, ref_edges);
    }
}

#[test]
fn duplicates_straddling_a_shard_boundary_stay_byte_identical() {
    // Two tight clusters plus a block of exact duplicates sitting at
    // the midpoint: the first median split lands inside the duplicate
    // block, so the same coordinates appear on both sides of the
    // boundary and every cross-pair is found by the boundary join.
    let mut flat = Vec::new();
    for i in 0..30 {
        flat.extend_from_slice(&[0.1 + (i as f64) * 1e-3, 0.1]);
        flat.extend_from_slice(&[0.9 - (i as f64) * 1e-3, 0.9]);
    }
    for _ in 0..20 {
        flat.extend_from_slice(&[0.5, 0.5]);
    }
    let data = Dataset::from_flat("straddle", Metric::Euclidean, 2, flat);
    let (reference, _, ref_edges) = sharded_snapshot(&data, 0.12, 1);
    assert!(
        ref_edges >= 20 * 19 / 2,
        "duplicate block must form a clique"
    );
    for shards in [2, 3, 8] {
        let (bytes, _, edges) = sharded_snapshot(&data, 0.12, shards);
        assert_eq!(
            bytes, reference,
            "shards={shards} with duplicates straddling the boundary"
        );
        assert_eq!(edges, ref_edges);
    }
}
