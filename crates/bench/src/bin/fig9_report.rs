//! fig9 perf report: pins the query-hot-path optimisations on the
//! Figure 9 scaling workload (clustered, n ≥ 10k, Greedy-DisC and
//! Greedy-C) and writes the numbers to `BENCH_fig9.json` so the perf
//! trajectory accumulates across PRs.
//!
//! Reported:
//!
//! * **distance computations** of the count-seeding pass and of the full
//!   Greedy-DisC / Greedy-C runs, with the M-tree parent-distance lemma
//!   off vs on (`MTreeConfig::parent_pruning`) — the ratio is the
//!   index-layer saving;
//! * **wall-clock** of the count-seeding pass, serial vs threaded
//!   (`disc-core`'s `parallel` feature; on a single-core host both sides
//!   coincide, so the thread count is recorded alongside);
//! * **graph-resident vs tree-backed Greedy-DisC** — the production
//!   build (`StratifiedDiskGraph::from_mtree`: one annotated
//!   `MTree::range_self_join` plus the stratified CSR assembly)
//!   materialises the neighbourhood graph (distance computations
//!   recorded against the O(n²) pair count), then selection runs on its
//!   prefix view with zero index queries; build + select
//!   wall-clock and distance computations for both pipelines (see the
//!   `fig_graph_vs_tree` binary for the gated CI companion);
//! * **snapshot persistence** — save/load wall-clock and on-disk size of
//!   the fail-closed `disc-store` snapshot of the stratified build, with
//!   the round trip pinned byte-identical.
//!
//! Usage: `cargo run --release -p disc-bench --features parallel --bin
//! fig9_report [-- <output-path>]` (default output `BENCH_fig9.json`).
//! `FIG9_N` overrides the object count (the acceptance workload is
//! 10_000; lower it only for smoke runs, which mark the JSON
//! accordingly).

use std::time::Instant;

use disc_bench::BENCH_SEED;
use disc_core::{fast_c, greedy_c, greedy_disc, par, GreedyVariant};
use disc_datasets::synthetic::clustered;
use disc_mtree::{MTree, MTreeConfig};

/// Figure 9's default radius for the clustered workload.
const RADIUS: f64 = 0.04;

struct PruningRow {
    label: &'static str,
    off: u64,
    on: u64,
}

impl PruningRow {
    fn ratio(&self) -> f64 {
        self.off as f64 / self.on.max(1) as f64
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fig9.json".to_string());
    let n: usize = std::env::var("FIG9_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let smoke = n < 10_000;

    eprintln!("fig9_report: clustered n={n} dim=2 clusters=8 seed={BENCH_SEED} r={RADIUS}");
    let data = clustered(n, 2, 8, BENCH_SEED);
    let tree_on = MTree::build(&data, MTreeConfig::default());
    let tree_off = MTree::build(&data, MTreeConfig::default().with_parent_pruning(false));

    // ---------------------------------------------------------------
    // Distance computations: parent-distance lemma off vs on.
    // ---------------------------------------------------------------
    // The seeding pass is measured exactly as the heuristics run it:
    // object-only queries (counting needs no distances).
    let seeding_dc = |tree: &MTree<'_>| {
        tree.reset_distance_computations();
        let counts = par::seed_counts_serial(data.len(), |id, scratch: &mut Vec<usize>| {
            tree.range_query_objs_into(id, RADIUS, scratch);
            (scratch.len() - 1) as u32
        });
        assert!(!counts.is_empty());
        tree.reset_distance_computations()
    };
    let full_dc = |tree: &MTree<'_>, algo: &dyn Fn(&MTree<'_>)| {
        tree.reset_distance_computations();
        algo(tree);
        tree.reset_distance_computations()
    };

    let rows = vec![
        PruningRow {
            label: "count_seeding",
            off: seeding_dc(&tree_off),
            on: seeding_dc(&tree_on),
        },
        PruningRow {
            label: "greedy_disc_full",
            off: full_dc(&tree_off, &|t| {
                greedy_disc(t, RADIUS, GreedyVariant::Grey, true);
            }),
            on: full_dc(&tree_on, &|t| {
                greedy_disc(t, RADIUS, GreedyVariant::Grey, true);
            }),
        },
        PruningRow {
            label: "greedy_c_full",
            off: full_dc(&tree_off, &|t| {
                greedy_c(t, RADIUS);
            }),
            on: full_dc(&tree_on, &|t| {
                greedy_c(t, RADIUS);
            }),
        },
        PruningRow {
            label: "fast_c_full",
            off: full_dc(&tree_off, &|t| {
                fast_c(t, RADIUS);
            }),
            on: full_dc(&tree_on, &|t| {
                fast_c(t, RADIUS);
            }),
        },
    ];
    for row in &rows {
        eprintln!(
            "  dist comps {:<18} off={:>12} on={:>12} ratio={:.2}x",
            row.label,
            row.off,
            row.on,
            row.ratio()
        );
    }

    // ---------------------------------------------------------------
    // Count-seeding wall clock: serial vs threaded fan-out.
    // ---------------------------------------------------------------
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let time_seeding = |run: &dyn Fn() -> Vec<u32>| {
        let _warmup = run();
        let reps = 3;
        let start = Instant::now();
        for _ in 0..reps {
            let counts = run();
            std::hint::black_box(&counts);
        }
        start.elapsed().as_secs_f64() * 1_000.0 / f64::from(reps)
    };
    let serial_ms = time_seeding(&|| {
        par::seed_counts_serial(data.len(), |id, scratch: &mut Vec<usize>| {
            tree_on.range_query_objs_into(id, RADIUS, scratch);
            (scratch.len() - 1) as u32
        })
    });
    #[cfg(feature = "parallel")]
    let parallel_ms = time_seeding(&|| {
        par::seed_counts_parallel(data.len(), |id, scratch: &mut Vec<usize>| {
            tree_on.range_query_objs_into(id, RADIUS, scratch);
            (scratch.len() - 1) as u32
        })
    });
    #[cfg(not(feature = "parallel"))]
    let parallel_ms = f64::NAN;
    // The threaded fan-out short-circuits to the serial loop when only
    // one worker is available or the corpus is below its parallel
    // floor; a "speedup" there would compare the serial code against
    // itself, so it is reported as null with the marker instead.
    let seeding_effective_threads = if threads <= 1 || data.len() < 2_048 {
        1
    } else {
        threads
    };
    let seeding_short_circuited = !cfg!(feature = "parallel") || seeding_effective_threads <= 1;
    let speedup = serial_ms / parallel_ms;
    eprintln!(
        "  seeding wall-clock serial={serial_ms:.1}ms parallel={parallel_ms:.1}ms \
         speedup={speedup:.2}x (threads={threads}, effective={seeding_effective_threads}, \
         short_circuited={seeding_short_circuited}, parallel feature {})",
        cfg!(feature = "parallel")
    );

    // ---------------------------------------------------------------
    // Scalar vs batched one-to-many distance kernel (the leaf-block
    // sweep primitive of the self-join); bitwise identity is asserted.
    // ---------------------------------------------------------------
    let kernel = disc_bench::measure_kernel(&data, 20);
    assert!(
        kernel.identical,
        "batched distance kernel diverged bitwise from the scalar kernel"
    );
    eprintln!(
        "  kernel (dim {}): scalar {:.2}ns/dist, batched {:.2}ns/dist, {:.2}x",
        kernel.dim,
        kernel.scalar_ns_per_dist(),
        kernel.batch_ns_per_dist(),
        kernel.speedup()
    );

    // ---------------------------------------------------------------
    // Graph-resident vs tree-backed Greedy-DisC (build + select),
    // shared with the gated `fig_graph_vs_tree` binary.
    // ---------------------------------------------------------------
    let gvt = disc_bench::measure_graph_vs_tree(&tree_on, RADIUS);
    eprintln!(
        "  graph vs tree: self-join {} dc ({:.1}% of {} pairs), \
         graph {:.1}ms end-to-end vs tree {:.1}ms / {} dc",
        gvt.self_join_dc,
        100.0 * gvt.self_join_dc as f64 / gvt.pairs_all as f64,
        gvt.pairs_all,
        gvt.build_ms + gvt.disc_select_ms,
        gvt.disc_tree_ms,
        gvt.disc_tree_dc
    );

    // ---------------------------------------------------------------
    // Graph-resident vs tree-backed zooming: a chained zoom-in sweep
    // over four radii, one stratified build vs per-step tree queries
    // (shared with the gated `zoom_graph_vs_tree` binary).
    // ---------------------------------------------------------------
    let zg = disc_bench::measure_zoom_graph_vs_tree(
        &tree_on,
        0.08,
        &[0.06, RADIUS, 0.02],
        disc_bench::self_join_threads_from_env(),
    );
    assert!(
        zg.parity(),
        "graph-resident zooming diverged from tree-backed (solutions_identical={}, \
         dc {} vs {}, edges_identical={}, csr_identical={})",
        zg.solutions_identical,
        zg.annotated_serial_dc,
        zg.annotated_parallel_dc,
        zg.annotated_edges_identical,
        zg.stratified_csr_identical
    );
    eprintln!(
        "  zoom graph vs tree: sweep sizes {:?}, graph {} dc total (extra {}) vs \
         tree {} dc, build {:.1}ms + sweep {:.1}ms vs tree {:.1}ms",
        zg.sizes,
        zg.graph_total_dc(),
        zg.graph_sweep_extra_dc,
        zg.tree_sweep_dc,
        zg.strat_build_ms,
        zg.graph_sweep_ms,
        zg.tree_sweep_ms
    );
    // ---------------------------------------------------------------
    // Snapshot persistence: save/load wall-clock and size for the
    // stratified build the zooming section just measured, with the
    // round trip pinned byte-identical (fail-closed store).
    // ---------------------------------------------------------------
    let (store, _loaded_data, loaded_graph) = disc_bench::measure_store(&zg.data, &zg.strat);
    assert!(
        store.round_trip_identical,
        "snapshot round trip was not byte-identical"
    );
    assert!(
        loaded_graph.offsets() == zg.strat.offsets()
            && loaded_graph.neighbors_flat() == zg.strat.neighbors_flat()
            && loaded_graph.dists_flat() == zg.strat.dists_flat(),
        "loaded stratified CSR diverged from the built graph"
    );
    drop(loaded_graph);
    eprintln!(
        "  store: snapshot {} bytes, save {:.1}ms, load {:.1}ms, round trip byte-identical",
        store.snapshot_bytes, store.save_ms, store.load_ms
    );

    // Only the JSON (scalar fields) is needed past this point; free the
    // carried stratified graph before the wall-clock-sensitive
    // self-join timing below so its resident set cannot skew the
    // serial-vs-parallel numbers.
    let zoom_graph_json = zg.to_json();
    drop(zg);

    // ---------------------------------------------------------------
    // Serial vs parallel self-join build (SELF_JOIN_THREADS forces the
    // worker count; parity of counters/edges/CSR/solutions must hold).
    // ---------------------------------------------------------------
    let sj = disc_bench::measure_selfjoin_par(
        &tree_on,
        RADIUS,
        disc_bench::self_join_threads_from_env(),
    );
    assert!(
        sj.parity(),
        "parallel self-join diverged from serial (dc {} vs {}, edges_identical={}, \
         csr_identical={}, solutions_identical={})",
        sj.parallel_dc,
        sj.serial_dc,
        sj.edges_identical,
        sj.csr_identical,
        sj.solutions_identical
    );
    eprintln!(
        "  self-join build serial={:.1}ms parallel={:.1}ms speedup={:.2}x \
         (threads={}{}, dc parity {} == {})",
        sj.serial_ms,
        sj.parallel_ms,
        sj.speedup(),
        sj.threads,
        if sj.forced { " forced" } else { "" },
        sj.serial_dc,
        sj.parallel_dc
    );

    // ---------------------------------------------------------------
    // Hand-rolled JSON (no serde in the environment).
    // ---------------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"workload\": {{\"dataset\": \"clustered\", \"n\": {n}, \"dim\": 2, \
         \"clusters\": 8, \"seed\": {BENCH_SEED}, \"radius\": {RADIUS}, \"smoke\": {smoke}}},\n"
    ));
    json.push_str("  \"distance_computations\": {\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"parent_pruning_off\": {}, \"parent_pruning_on\": {}, \
             \"ratio\": {:.3}}}{}\n",
            row.label,
            row.off,
            row.on,
            row.ratio(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    // A build without the `parallel` feature has no threaded side to
    // measure: record the reason instead of a null the downstream JSON
    // consumers would have to special-case (NaN is not valid JSON
    // either way).
    let threaded_side = if !cfg!(feature = "parallel") {
        "\"skipped\": \"parallel feature disabled\"".to_string()
    } else if seeding_short_circuited {
        // Serial code on both sides: no speedup to report.
        format!("\"parallel_ms\": {parallel_ms:.3}, \"speedup\": null")
    } else {
        format!("\"parallel_ms\": {parallel_ms:.3}, \"speedup\": {speedup:.3}")
    };
    json.push_str(&format!(
        "  \"count_seeding_wall_clock\": {{\"serial_ms\": {serial_ms:.3}, \
         {threaded_side}, \"threads\": {threads}, \
         \"effective_threads\": {seeding_effective_threads}, \
         \"short_circuited\": {seeding_short_circuited}, \"parallel_feature\": {}}},\n",
        cfg!(feature = "parallel")
    ));
    json.push_str(&format!("  \"kernel\": {},\n", kernel.to_json()));
    json.push_str(&format!(
        "  \"graph_vs_tree\": {{\"pairs_all\": {}, \
         \"self_join\": {{\"distance_computations\": {}, \"edges\": {}, \
         \"build_ms\": {:.3}}}, \
         \"greedy_disc_graph\": {{\"total_distance_computations\": {}, \
         \"build_plus_select_ms\": {:.3}}}, \
         \"greedy_disc_tree_pruned\": {{\"distance_computations\": {}, \
         \"total_ms\": {:.3}}}, \"solution_size\": {}}},\n",
        gvt.pairs_all,
        gvt.self_join_dc,
        gvt.edges,
        gvt.build_ms,
        gvt.self_join_dc,
        gvt.build_ms + gvt.disc_select_ms,
        gvt.disc_tree_dc,
        gvt.disc_tree_ms,
        gvt.disc_size
    ));
    json.push_str(&format!("  \"zoom_graph\": {zoom_graph_json},\n"));
    json.push_str(&format!("  \"store\": {},\n", store.to_json()));
    json.push_str(&format!("  \"selfjoin_par\": {}\n", sj.to_json()));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_fig9.json");
    eprintln!("fig9_report: wrote {out_path}");
    println!("{json}");
}
