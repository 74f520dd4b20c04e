//! Graph-resident vs tree-backed pipeline comparison, with regression
//! gates — the CI companion of the `graph_vs_tree` section that
//! `fig9_report` records into `BENCH_fig9.json`.
//!
//! Two ways to run Greedy-DisC / Greedy-C on the fig9 clustered
//! workload:
//!
//! * **tree-backed** — the pruned M-tree runners (range queries in the
//!   selection loop);
//! * **graph-resident** — the production build,
//!   `StratifiedDiskGraph::from_mtree` (one distance-annotated
//!   `MTree::range_self_join` plus the stratified CSR assembly),
//!   materialises the neighbourhood graph, then the selection loop runs
//!   on its prefix view at `r` with zero index queries.
//!
//! The binary *fails* (non-zero exit) when the bulk materialisation
//! stops paying for itself:
//!
//! 1. the annotated self-join's `distance_computations()` must stay
//!    below the O(n²) all-pairs count `n(n−1)/2`;
//! 2. the graph-resident end-to-end run (self-join build + select) must
//!    not exceed the tree-backed pruned run's distance computations;
//! 3. graph-resident solutions must equal the tree-backed exact ones;
//! 4. **parallel/serial parity** — the parallel distance-annotated
//!    self-join (the production traversal) must charge exactly the
//!    serial traversal's `distance_computations()`, emit a
//!    byte-identical edge list, assemble a byte-identical stratified
//!    CSR at the parallel worker count, and select the same solution
//!    (the `selfjoin_par` section).
//!
//! Usage: `cargo run --release -p disc-bench --bin fig_graph_vs_tree
//! [-- <output-path>]` (default `BENCH_graph_vs_tree.json`). `GRAPH_N`
//! overrides the object count: CI's smoke gate runs at `GRAPH_N=2000`;
//! the acceptance workload is 10_000. `SELF_JOIN_THREADS` forces the
//! parallel side's worker count (CI runs a 1/2/3/8 matrix of these).

use disc_bench::{
    measure_graph_vs_tree, measure_selfjoin_par, self_join_threads_from_env, BENCH_SEED,
};
use disc_datasets::synthetic::clustered;
use disc_mtree::{MTree, MTreeConfig};

const RADIUS: f64 = 0.04;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_graph_vs_tree.json".to_string());
    let n: usize = std::env::var("GRAPH_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let smoke = n < 10_000;

    eprintln!("fig_graph_vs_tree: clustered n={n} dim=2 clusters=8 seed={BENCH_SEED} r={RADIUS}");
    let data = clustered(n, 2, 8, BENCH_SEED);
    let tree = MTree::build(&data, MTreeConfig::default());

    // Shared measurement (also asserts graph-resident solutions equal
    // the tree-backed exact ones).
    let m = measure_graph_vs_tree(&tree, RADIUS);

    eprintln!(
        "  self-join: {} edges, {} distance comps ({:.1}% of n(n-1)/2={}), build {:.1}ms",
        m.edges,
        m.self_join_dc,
        100.0 * m.self_join_dc as f64 / m.pairs_all as f64,
        m.pairs_all,
        m.build_ms
    );
    eprintln!(
        "  greedy_disc: graph build+select {:.1}ms / {} dc vs tree {:.1}ms / {} dc (|S|={})",
        m.build_ms + m.disc_select_ms,
        m.self_join_dc,
        m.disc_tree_ms,
        m.disc_tree_dc,
        m.disc_size
    );
    eprintln!(
        "  greedy_c:    graph build+select {:.1}ms / {} dc vs tree {:.1}ms / {} dc (|S|={})",
        m.build_ms + m.c_select_ms,
        m.self_join_dc,
        m.c_tree_ms,
        m.c_tree_dc,
        m.c_size
    );

    // ---------------------------------------------------------------
    // Serial vs parallel self-join build.
    // ---------------------------------------------------------------
    let sj = measure_selfjoin_par(&tree, RADIUS, self_join_threads_from_env());
    eprintln!(
        "  self-join par: serial {:.1}ms vs parallel {:.1}ms ({:.2}x, threads={}{}), \
         dc {} vs {}",
        sj.serial_ms,
        sj.parallel_ms,
        sj.speedup(),
        sj.threads,
        if sj.forced { " forced" } else { "" },
        sj.serial_dc,
        sj.parallel_dc
    );

    // ---------------------------------------------------------------
    // Gates (solution equality is asserted inside the measurement).
    // ---------------------------------------------------------------
    assert!(
        m.self_join_dc < m.pairs_all,
        "self-join regressed above the O(n²) pair count: {} >= {}",
        m.self_join_dc,
        m.pairs_all
    );
    assert!(
        m.self_join_dc <= m.disc_tree_dc,
        "graph pipeline (self-join {} dc) no longer beats the tree-backed \
         pruned Greedy-DisC ({} dc)",
        m.self_join_dc,
        m.disc_tree_dc
    );
    assert_eq!(
        sj.parallel_dc, sj.serial_dc,
        "parallel self-join lost or double-counted distance computations"
    );
    assert!(
        sj.edges_identical,
        "parallel self-join edge list diverged from the serial traversal"
    );
    assert!(
        sj.csr_identical,
        "multi-worker CSR assembly diverged from the one-worker assembly"
    );
    assert!(
        sj.solutions_identical,
        "greedy_disc_graph solutions diverged between serial and parallel builds"
    );

    let json = format!(
        "{{\n  \"workload\": {{\"dataset\": \"clustered\", \"n\": {n}, \"dim\": 2, \
         \"clusters\": 8, \"seed\": {BENCH_SEED}, \"radius\": {RADIUS}, \"smoke\": {smoke}}},\n\
         \x20 \"pairs_all\": {},\n\
         \x20 \"self_join\": {{\"distance_computations\": {}, \"edges\": {}, \
         \"build_ms\": {:.3}}},\n\
         \x20 \"greedy_disc\": {{\"graph\": {{\"total_distance_computations\": {}, \
         \"build_plus_select_ms\": {:.3}}}, \"tree_pruned\": {{\"distance_computations\": \
         {}, \"total_ms\": {:.3}}}, \"solution_size\": {}}},\n\
         \x20 \"greedy_c\": {{\"graph\": {{\"total_distance_computations\": {}, \
         \"build_plus_select_ms\": {:.3}}}, \"tree\": {{\"distance_computations\": {}, \
         \"total_ms\": {:.3}}}, \"solution_size\": {}}},\n\
         \x20 \"selfjoin_par\": {}\n}}\n",
        m.pairs_all,
        m.self_join_dc,
        m.edges,
        m.build_ms,
        m.self_join_dc,
        m.build_ms + m.disc_select_ms,
        m.disc_tree_dc,
        m.disc_tree_ms,
        m.disc_size,
        m.self_join_dc,
        m.build_ms + m.c_select_ms,
        m.c_tree_dc,
        m.c_tree_ms,
        m.c_size,
        sj.to_json(),
    );
    std::fs::write(&out_path, &json).expect("write graph-vs-tree report");
    eprintln!("fig_graph_vs_tree: wrote {out_path}; all gates passed");
    println!("{json}");
}
