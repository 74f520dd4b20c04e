//! Cross-validation between the M-tree implementations (disc-core) and
//! the index-free graph references (disc-graph): with identical visit
//! orders and tie-breaking the two must produce *identical* solutions,
//! which pins down the intricate index-based bookkeeping.

use disc_diversity::datasets::synthetic;
use disc_diversity::graph::reference::{
    basic_disc_ref, greedy_c_ref, greedy_disc_ref, UnitDiskGraph,
};
use disc_diversity::mtree::SelfJoinConfig;
use disc_diversity::prelude::*;

fn workloads() -> Vec<disc_diversity::metric::Dataset> {
    vec![
        synthetic::uniform(400, 2, 11),
        synthetic::clustered(400, 2, 5, 12),
        synthetic::uniform(300, 3, 13),
    ]
}

#[test]
fn basic_disc_matches_reference_exactly() {
    for data in workloads() {
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        tree.reset_node_accesses();
        for r in [0.05, 0.12, 0.3] {
            let mine = basic_disc(&tree, r, BasicOrder::LeafOrder, true);
            let g = UnitDiskGraph::build(&data, r);
            let order = tree.objects_in_leaf_order_uncounted();
            assert_eq!(
                mine.solution,
                basic_disc_ref(&g, &order),
                "{} r={r}",
                data.name()
            );
        }
    }
}

#[test]
fn greedy_disc_matches_reference_exactly() {
    for data in workloads() {
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        tree.reset_node_accesses();
        for r in [0.05, 0.12, 0.3] {
            let g = UnitDiskGraph::build(&data, r);
            let expect = greedy_disc_ref(&g);
            for variant in [GreedyVariant::Grey, GreedyVariant::White] {
                let mine = greedy_disc(&tree, r, variant, true);
                assert_eq!(mine.solution, expect, "{} r={r} {variant:?}", data.name());
            }
        }
    }
}

#[test]
fn greedy_c_matches_reference_exactly() {
    for data in workloads() {
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        tree.reset_node_accesses();
        for r in [0.08, 0.2] {
            let mine = greedy_c(&tree, r);
            let g = UnitDiskGraph::build(&data, r);
            assert_eq!(mine.solution, greedy_c_ref(&g), "{} r={r}", data.name());
        }
    }
}

#[test]
fn graph_resident_pipeline_matches_tree_backed_and_reference() {
    // End-to-end pin of the production pipeline: annotated self-join,
    // stratified CSR assembly, selection on the prefix view — against
    // both the tree-backed exact runners and the index-free references
    // over the O(n²) graph.
    for data in workloads() {
        let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
        tree.reset_node_accesses();
        for r in [0.05, 0.12, 0.3] {
            let graph = StratifiedDiskGraph::from_mtree(&tree, r, SelfJoinConfig::default())
                .expect("valid radius");
            let g = graph.view(r);
            let oracle = UnitDiskGraph::build(&data, r);
            assert_eq!(g.to_unit_disk_graph(), oracle, "{} r={r}", data.name());
            let disc = greedy_disc_graph(&g);
            assert_eq!(
                disc.solution,
                greedy_disc_ref(&oracle),
                "{} r={r}",
                data.name()
            );
            assert_eq!(
                disc.solution,
                greedy_disc(&tree, r, GreedyVariant::Grey, true).solution,
                "{} r={r}",
                data.name()
            );
            let cover = greedy_c_graph(&g);
            assert_eq!(
                cover.solution,
                greedy_c_ref(&oracle),
                "{} r={r}",
                data.name()
            );
            assert_eq!(
                fast_c_graph(&g).solution,
                cover.solution,
                "{} r={r}",
                data.name()
            );
        }
    }
}

#[test]
fn results_are_independent_of_tree_shape() {
    // The greedy selection is defined by counts and ids, not by the
    // index layout: different capacities and splitting policies must
    // yield the same solution.
    let data = synthetic::clustered(500, 2, 6, 14);
    let r = 0.07;
    let reference = {
        let tree = MTree::build(&data, MTreeConfig::with_capacity(4));
        tree.reset_node_accesses();
        greedy_disc(&tree, r, GreedyVariant::Grey, true).solution
    };
    for cap in [8, 25, 50] {
        for (name, policy) in disc_diversity::mtree::SplitPolicy::figure10_policies() {
            let tree = MTree::build(
                &data,
                disc_diversity::mtree::MTreeConfig {
                    capacity: cap,
                    split_policy: policy,
                    seed: 3,
                    ..MTreeConfig::default()
                },
            );
            tree.reset_node_accesses();
            let res = greedy_disc(&tree, r, GreedyVariant::Grey, true);
            assert_eq!(res.solution, reference, "cap={cap} policy={name}");
        }
    }
}
