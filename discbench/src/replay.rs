//! In-process replays of a run's request sequence.
//!
//! * [`oracle_hashes`] recomputes the expected wire hash of every read
//!   with the plain in-process runners (`greedy_disc_graph`, then the
//!   `greedy_zoom_in_graph` chain for sweeps): the correctness gate of
//!   the read-only phases.
//! * [`replay`] re-executes the whole sequence on one thread, calling
//!   the public functions `disc_cli::worker` calls, in the order it
//!   calls them, with a span around each call. Run with the recorder
//!   off it is the untraced reference the tracing overhead is measured
//!   against.

use std::sync::Arc;
use std::time::Instant;

use disc_cli::cache::{CachedSolution, SolutionCache};
use disc_cli::worker::{solution_hash, validate_radii};
use disc_cli::ServeState;
use disc_core::{
    greedy_disc_graph, greedy_disc_graph_checked, greedy_zoom_in_graph,
    greedy_zoom_in_graph_checked, DiscResult, RepairableSolution,
};
use disc_graph::StreamingCatalog;

use crate::trace::Recorder;
use crate::traffic::Req;

/// Opens `path` the way `ServeState::open` does — read, validate,
/// materialise — with a span around each step.
pub fn open(path: &std::path::Path, rec: &mut Recorder) -> Result<Arc<ServeState>, String> {
    let root = rec.begin("open", 0);
    let s = rec.begin("store.read", 0);
    let bytes = disc_store::read_snapshot(path).map_err(|e| format!("read_snapshot: {e}"))?;
    rec.end(s);
    let s = rec.begin("store.load", 0);
    let view = disc_store::load(bytes.as_bytes()).map_err(|e| format!("load: {e}"))?;
    rec.end(s);
    let s = rec.begin("store.materialize", 0);
    let catalog = view.catalog().map_err(|e| format!("materialise: {e}"))?;
    rec.end(s);
    let state = ServeState::from_catalog(catalog);
    rec.end(root);
    Ok(state)
}

/// Expected hashes (one per zoom, one per sweep step) of `reads`, in
/// order, computed on up to two threads over a fresh open of `path`.
pub fn oracle_hashes(path: &std::path::Path, reads: &[Req]) -> Result<Vec<Vec<u64>>, String> {
    let state = ServeState::open(path).map_err(|e| format!("oracle open: {e}"))?;
    let catalog = state.catalog();
    let graph = catalog.graph();
    let solve = |req: &Req| -> Result<Vec<u64>, String> {
        let fresh = |r: f64| -> Result<DiscResult, String> {
            let view = graph.try_view(r).map_err(|e| format!("view {r}: {e}"))?;
            Ok(greedy_disc_graph(&view.to_unit_disk_graph()))
        };
        match req {
            Req::Zoom(r) => Ok(vec![solution_hash(&fresh(*r)?.solution)]),
            Req::Sweep(radii) => {
                let mut prev = fresh(radii[0])?;
                let mut out = vec![solution_hash(&prev.solution)];
                for &r in &radii[1..] {
                    prev = greedy_zoom_in_graph(graph, &prev, r).result;
                    out.push(solution_hash(&prev.solution));
                }
                Ok(out)
            }
            other => Err(format!("the oracle only answers reads, got {other:?}")),
        }
    };
    // Each thread answers every other read: (index, hashes) pairs.
    type Half = Result<Vec<(usize, Vec<u64>)>, String>;
    let halves: Vec<Half> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let solve = &solve;
                scope.spawn(move || {
                    (t..reads.len())
                        .step_by(2)
                        .map(|i| Ok((i, solve(&reads[i])?)))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("oracle thread panicked".into()))
            })
            .collect()
    });
    let mut out = vec![Vec::new(); reads.len()];
    for half in halves {
        for (i, hashes) in half? {
            out[i] = hashes;
        }
    }
    Ok(out)
}

/// What a replay measured besides its spans.
#[derive(Default)]
pub struct Replayed {
    /// Wall time of the whole replay, seconds.
    pub total_s: f64,
    /// Per request (same order as the input): the wire hashes a read
    /// produced (empty for mutations).
    pub hashes: Vec<Vec<u64>>,
    /// Undirected edges of every converted view.
    pub convert_edges: Vec<f64>,
    /// Size of every selected solution.
    pub solution_sizes: Vec<f64>,
    /// Distance computations per insert.
    pub insert_dc: Vec<f64>,
    /// Inserts whose distance computations differed from the live n.
    pub insert_dc_mismatches: usize,
}

/// Replays `reqs` (id, request) in order against `state` with a fresh
/// cache of `cache_capacity` radii.
pub fn replay(
    state: &ServeState,
    cache_capacity: usize,
    reqs: &[(u64, Req)],
    rec: &mut Recorder,
) -> Result<Replayed, String> {
    let cache = SolutionCache::new(cache_capacity);
    let mut out = Replayed::default();
    let t0 = Instant::now();
    for (id, req) in reqs {
        let root = rec.begin("request", *id);
        let hashes = match req {
            Req::Zoom(r) => zoom(state, &cache, *r, *id, rec, &mut out)?,
            Req::Sweep(radii) => sweep(state, radii, *id, rec, &mut out)?,
            Req::Insert(coords) => {
                insert(state, &cache, coords, *id, rec, &mut out)?;
                Vec::new()
            }
            Req::Delete(ext) => {
                delete(state, &cache, *ext as usize, *id, rec)?;
                Vec::new()
            }
        };
        rec.end(root);
        out.hashes.push(hashes);
    }
    out.total_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

fn fresh_solve(
    catalog: &StreamingCatalog,
    r: f64,
    id: u64,
    rec: &mut Recorder,
    out: &mut Replayed,
) -> Result<DiscResult, String> {
    let s = rec.begin("graph.view", id);
    let view = catalog
        .graph()
        .try_view(r)
        .map_err(|e| format!("try_view({r}): {e}"))?;
    rec.end(s);
    let s = rec.begin("graph.convert", id);
    let unit = view.to_unit_disk_graph();
    rec.end(s);
    out.convert_edges.push(unit.edge_count() as f64);
    let s = rec.begin("core.greedy", id);
    let result = greedy_disc_graph_checked(&unit, None).map_err(|e| format!("greedy: {e:?}"))?;
    rec.end(s);
    out.solution_sizes.push(result.solution.len() as f64);
    Ok(result)
}

fn hashed(result: &DiscResult, id: u64, rec: &mut Recorder) -> u64 {
    let s = rec.begin("cli.hash", id);
    let hash = solution_hash(&result.solution);
    rec.end(s);
    hash
}

fn zoom(
    state: &ServeState,
    cache: &SolutionCache,
    r: f64,
    id: u64,
    rec: &mut Recorder,
    out: &mut Replayed,
) -> Result<Vec<u64>, String> {
    let s = rec.begin("cli.cache_get", id);
    let hit = cache.get(r);
    rec.end(s);
    if let Some(hit) = hit {
        return Ok(vec![hit.hash]);
    }
    let generation = cache.generation();
    let catalog = state.catalog();
    let result = fresh_solve(&catalog, r, id, rec, out)?;
    let hash = hashed(&result, id, rec);
    cache.put_if_current(
        generation,
        Arc::new(CachedSolution {
            radius: result.radius,
            solution: result.solution,
            hash,
        }),
    );
    Ok(vec![hash])
}

fn sweep(
    state: &ServeState,
    radii: &[f64; 3],
    id: u64,
    rec: &mut Recorder,
    out: &mut Replayed,
) -> Result<Vec<u64>, String> {
    validate_radii(radii, state.r_max).map_err(|e| format!("sweep radii: {e}"))?;
    let catalog = state.catalog();
    let mut prev = fresh_solve(&catalog, radii[0], id, rec, out)?;
    let mut hashes = vec![hashed(&prev, id, rec)];
    for &r in &radii[1..] {
        let s = rec.begin("core.zoom_in", id);
        prev = greedy_zoom_in_graph_checked(catalog.graph(), &prev, r, None)
            .map_err(|e| format!("zoom-in: {e:?}"))?
            .result;
        rec.end(s);
        out.solution_sizes.push(prev.solution.len() as f64);
        hashes.push(hashed(&prev, id, rec));
    }
    Ok(hashes)
}

/// The maintained `r_max` cover, as `disc_cli::worker` keeps it: the
/// first mutation bootstraps it from a fresh greedy solve, later ones
/// repair it.
fn track(
    state: &ServeState,
    catalog: &StreamingCatalog,
    repair: impl FnOnce(&mut RepairableSolution) -> Result<(), String>,
    id: u64,
    rec: &mut Recorder,
) -> Result<(), String> {
    let mut tracker = state.tracker();
    match tracker.as_mut() {
        Some(rs) => {
            let s = rec.begin("core.repair", id);
            let repaired = repair(rs);
            rec.end(s);
            repaired
        }
        None => {
            let s = rec.begin("core.bootstrap", id);
            let view = catalog
                .graph()
                .try_view(state.r_max)
                .map_err(|e| format!("bootstrap view: {e}"))?;
            let result = greedy_disc_graph_checked(&view.to_unit_disk_graph(), None)
                .map_err(|e| format!("bootstrap greedy: {e:?}"))?;
            *tracker = Some(
                RepairableSolution::from_result(catalog, &result)
                    .map_err(|e| format!("bootstrap: {e}"))?,
            );
            rec.end(s);
            Ok(())
        }
    }
}

fn insert(
    state: &ServeState,
    cache: &SolutionCache,
    coords: &[f64; 2],
    id: u64,
    rec: &mut Recorder,
    out: &mut Replayed,
) -> Result<(), String> {
    let mut catalog = state.catalog_mut();
    let (live, dc0) = (catalog.len(), catalog.distance_computations());
    let s = rec.begin("graph.insert", id);
    let receipt = catalog.insert(coords).map_err(|e| format!("insert: {e}"))?;
    rec.end(s);
    let dc = catalog.distance_computations() - dc0;
    out.insert_dc.push(dc as f64);
    if dc != live as u64 {
        out.insert_dc_mismatches += 1;
    }
    let repair = |rs: &mut RepairableSolution| {
        rs.repair_insert(&receipt)
            .map(drop)
            .map_err(|e| format!("repair_insert: {e}"))
    };
    track(state, &catalog, repair, id, rec)?;
    let s = rec.begin("cli.invalidate", id);
    cache.invalidate_if(|cached| {
        !receipt
            .neighbors
            .iter()
            .any(|&(b, d)| d <= cached.radius && cached.solution.contains(&b))
    });
    rec.end(s);
    Ok(())
}

fn delete(
    state: &ServeState,
    cache: &SolutionCache,
    ext: usize,
    id: u64,
    rec: &mut Recorder,
) -> Result<(), String> {
    let mut catalog = state.catalog_mut();
    let s = rec.begin("graph.delete", id);
    let receipt = catalog
        .remove_external(ext)
        .map_err(|e| format!("delete {ext}: {e}"))?;
    rec.end(s);
    let repair = |rs: &mut RepairableSolution| {
        rs.repair_remove(&catalog, &receipt)
            .map(drop)
            .map_err(|e| format!("repair_remove: {e}"))
    };
    track(state, &catalog, repair, id, rec)?;
    let s = rec.begin("cli.invalidate", id);
    cache.invalidate_if(|cached| cached.solution.contains(&ext));
    rec.end(s);
    Ok(())
}
