//! Cancellation semantics of the `*_checked` selection runners.
//!
//! Two properties matter to the serving layer:
//!
//! 1. **Transparency** — with no token (or a token that never fires) a
//!    checked runner is byte-identical to its plain counterpart, so the
//!    deadline machinery cannot perturb solutions.
//! 2. **Clean abandonment** — a fired token surfaces as `Err(Cancelled)`
//!    from deep inside the selection scan with no partial solution
//!    escaping, and a deterministic `with_check_budget` token trips at a
//!    reproducible point regardless of machine speed.
//!
//! The fixed-radius runners take any `NeighborSource`; both are pinned
//! here: the `StratifiedView` prefix the serving layer selects on, and
//! the id-sorted O(n²) `UnitDiskGraph` reference.

use std::time::Duration;

use disc_core::{
    build_sharded, fast_c_graph, fast_c_graph_checked, greedy_c_graph, greedy_c_graph_checked,
    greedy_disc, greedy_disc_graph, greedy_disc_graph_checked, greedy_zoom_in,
    greedy_zoom_in_checked, greedy_zoom_in_graph, greedy_zoom_in_graph_checked, greedy_zoom_out,
    greedy_zoom_out_checked, multi_radius_basic_disc, multi_radius_basic_disc_checked,
    multi_radius_graph, multi_radius_graph_checked, multi_radius_greedy_disc,
    multi_radius_greedy_disc_checked, zoom_in, zoom_in_checked, zoom_in_graph,
    zoom_in_graph_checked, zoom_out_graph, zoom_out_graph_checked, GreedyVariant, ZoomOutVariant,
};
use disc_datasets::synthetic::clustered;
use disc_graph::reference::UnitDiskGraph;
use disc_graph::{NeighborSource, StratifiedDiskGraph};
use disc_metric::cancel::{CancelToken, Cancelled};
use disc_mtree::{MTree, MTreeConfig, SelfJoinConfig};

const R: f64 = 0.08;
const R_SMALL: f64 = 0.04;

fn live_token() -> CancelToken {
    CancelToken::with_deadline(Duration::from_secs(3600))
}

fn expired_token() -> CancelToken {
    CancelToken::with_deadline(Duration::ZERO)
}

#[test]
fn live_token_is_transparent_for_every_checked_runner() {
    let data = clustered(400, 2, 5, 170);
    let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
    let udg = UnitDiskGraph::build(&data, R);
    let strat =
        StratifiedDiskGraph::from_mtree(&tree, R, SelfJoinConfig::default()).expect("valid radius");
    let prev = greedy_disc(&tree, R, GreedyVariant::Grey, true);
    let prev_small = greedy_disc(&tree, R_SMALL, GreedyVariant::Grey, true);
    let radii = vec![R; data.len()];
    let t = live_token();

    assert_fixed_radius_transparent(&udg, &t);
    for r in [R, R_SMALL] {
        let view = strat.view(r);
        assert_fixed_radius_transparent(&view, &t);
        assert_eq!(
            greedy_disc_graph(&view),
            greedy_disc_graph(&view.to_unit_disk_graph())
        );
    }
    assert_eq!(
        zoom_in_graph_checked(&tree, &strat, &prev, R_SMALL, Some(&t)),
        Ok(zoom_in_graph(&tree, &strat, &prev, R_SMALL))
    );
    assert_eq!(
        greedy_zoom_in_graph_checked(&strat, &prev, R_SMALL, Some(&t)),
        Ok(greedy_zoom_in_graph(&strat, &prev, R_SMALL))
    );
    for v in [
        ZoomOutVariant::Plain,
        ZoomOutVariant::GreedyA,
        ZoomOutVariant::GreedyB,
        ZoomOutVariant::GreedyC,
    ] {
        assert_eq!(
            zoom_out_graph_checked(&tree, &strat, &prev_small, R, v, Some(&t)),
            Ok(zoom_out_graph(&tree, &strat, &prev_small, R, v)),
            "{v:?}"
        );
        assert_eq!(
            greedy_zoom_out_checked(&tree, &prev_small, R, v, Some(&t)),
            Ok(greedy_zoom_out(&tree, &prev_small, R, v)),
            "{v:?}"
        );
    }
    for greedy in [false, true] {
        assert_eq!(
            multi_radius_graph_checked(&tree, &strat, &radii, greedy, Some(&t)),
            Ok(multi_radius_graph(&tree, &strat, &radii, greedy)),
            "greedy={greedy}"
        );
    }
    assert_eq!(
        zoom_in_checked(&tree, &prev, R_SMALL, Some(&t)),
        Ok(zoom_in(&tree, &prev, R_SMALL))
    );
    assert_eq!(
        greedy_zoom_in_checked(&tree, &prev, R_SMALL, Some(&t)),
        Ok(greedy_zoom_in(&tree, &prev, R_SMALL))
    );
    assert_eq!(
        multi_radius_basic_disc_checked(&tree, &radii, true, Some(&t)),
        Ok(multi_radius_basic_disc(&tree, &radii, true))
    );
    assert_eq!(
        multi_radius_greedy_disc_checked(&tree, &radii, true, Some(&t)),
        Ok(multi_radius_greedy_disc(&tree, &radii, true))
    );
}

#[test]
fn expired_deadline_cancels_every_checked_runner() {
    let data = clustered(300, 2, 4, 171);
    let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
    let udg = UnitDiskGraph::build(&data, R);
    let strat =
        StratifiedDiskGraph::from_mtree(&tree, R, SelfJoinConfig::default()).expect("valid radius");
    let prev = greedy_disc(&tree, R, GreedyVariant::Grey, true);
    let prev_small = greedy_disc(&tree, R_SMALL, GreedyVariant::Grey, true);
    let radii = vec![R; data.len()];
    let t = expired_token();

    assert_fixed_radius_cancelled(&udg, &t);
    assert_fixed_radius_cancelled(&strat.view(R), &t);
    assert_fixed_radius_cancelled(&strat.view(R_SMALL), &t);
    assert_eq!(
        zoom_in_graph_checked(&tree, &strat, &prev, R_SMALL, Some(&t)),
        Err(Cancelled)
    );
    assert_eq!(
        greedy_zoom_in_graph_checked(&strat, &prev, R_SMALL, Some(&t)),
        Err(Cancelled)
    );
    assert_eq!(
        zoom_out_graph_checked(
            &tree,
            &strat,
            &prev_small,
            R,
            ZoomOutVariant::GreedyB,
            Some(&t)
        ),
        Err(Cancelled)
    );
    assert_eq!(
        multi_radius_graph_checked(&tree, &strat, &radii, true, Some(&t)),
        Err(Cancelled)
    );
    assert_eq!(
        zoom_in_checked(&tree, &prev, R_SMALL, Some(&t)),
        Err(Cancelled)
    );
    assert_eq!(
        greedy_zoom_in_checked(&tree, &prev, R_SMALL, Some(&t)),
        Err(Cancelled)
    );
    assert_eq!(
        greedy_zoom_out_checked(&tree, &prev_small, R, ZoomOutVariant::GreedyC, Some(&t)),
        Err(Cancelled)
    );
    assert_eq!(
        multi_radius_basic_disc_checked(&tree, &radii, true, Some(&t)),
        Err(Cancelled)
    );
    assert_eq!(
        multi_radius_greedy_disc_checked(&tree, &radii, true, Some(&t)),
        Err(Cancelled)
    );
}

/// Live-token transparency of the three fixed-radius runners over `g`.
fn assert_fixed_radius_transparent<G: NeighborSource>(g: &G, t: &CancelToken) {
    assert_eq!(
        greedy_disc_graph_checked(g, Some(t)),
        Ok(greedy_disc_graph(g))
    );
    assert_eq!(greedy_c_graph_checked(g, Some(t)), Ok(greedy_c_graph(g)));
    assert_eq!(fast_c_graph_checked(g, Some(t)), Ok(fast_c_graph(g)));
}

/// A fired token cancels all three fixed-radius runners over `g`.
fn assert_fixed_radius_cancelled<G: NeighborSource>(g: &G, t: &CancelToken) {
    assert_eq!(greedy_disc_graph_checked(g, Some(t)), Err(Cancelled));
    assert_eq!(greedy_c_graph_checked(g, Some(t)), Err(Cancelled));
    assert_eq!(fast_c_graph_checked(g, Some(t)), Err(Cancelled));
}

/// Trips `greedy_disc_graph_checked` over `g` halfway through its
/// selection rounds, then checks a budget beyond the total checkpoint
/// count never fires.
fn assert_budget_cancels_mid_scan<G: NeighborSource>(g: &G) {
    let full = greedy_disc_graph(g);
    let rounds = full.solution.len() as u64;
    assert!(rounds > 4, "workload must take several selection rounds");

    // Trip halfway through the selection loop.
    let t = CancelToken::with_check_budget(rounds / 2);
    assert_eq!(greedy_disc_graph_checked(g, Some(&t)), Err(Cancelled));

    // A budget beyond the total checkpoint count never fires.
    let t = CancelToken::with_check_budget(rounds + 1);
    assert_eq!(greedy_disc_graph_checked(g, Some(&t)), Ok(full));
}

/// A budgeted token trips mid-scan at a deterministic checkpoint: the
/// runner has done real work (the budget outlives the first few
/// selection rounds) yet still surfaces a clean `Err(Cancelled)` — over
/// the reference graph and over stratified views, renumbered or not.
#[test]
fn budget_token_cancels_mid_scan_deterministically() {
    let data = clustered(400, 2, 5, 172);
    let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
    assert_budget_cancels_mid_scan(&UnitDiskGraph::build(&data, R));
    let strat =
        StratifiedDiskGraph::from_mtree(&tree, R, SelfJoinConfig::default()).expect("valid radius");
    assert_budget_cancels_mid_scan(&strat.view(R));
    assert_budget_cancels_mid_scan(&strat.view(R_SMALL));
    let built = build_sharded(&data, R, 3).expect("clean dataset builds");
    assert!(built.graph.permutation().is_some());
    assert_budget_cancels_mid_scan(&built.graph.view(R_SMALL));
}

/// Explicit cancellation from another thread is observed mid-scan.
#[test]
fn explicit_cancel_is_observed() {
    let data = clustered(300, 2, 4, 173);
    let tree = MTree::build(&data, MTreeConfig::with_capacity(10));
    let udg = UnitDiskGraph::build(&data, R);
    let strat =
        StratifiedDiskGraph::from_mtree(&tree, R, SelfJoinConfig::default()).expect("valid radius");
    let t = CancelToken::new();
    t.cancel();
    assert_eq!(greedy_disc_graph_checked(&udg, Some(&t)), Err(Cancelled));
    assert_eq!(
        greedy_disc_graph_checked(&strat.view(R), Some(&t)),
        Err(Cancelled)
    );
}
