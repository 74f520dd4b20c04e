//! Shared CSR assembly behind [`crate::StratifiedDiskGraph`]
//! (distance-annotated rows) and the reference [`crate::UnitDiskGraph`]
//! (plain id rows).
//!
//! * **distance rows** ([`assemble_dist`]) — the one production
//!   assembly. A degree count and fill walk any number of edge slices
//!   in place (the sharded build's intra-shard self-joins plus boundary
//!   cross-joins, or one self-join's output as a single slice) and write
//!   each directed entry straight into the two *final* aligned arrays
//!   (`dists`, `neighbors`), never concatenating the slices or
//!   materialising an intermediate `(f64, id)` array-of-structs. Rows
//!   then sort by `(distance, id)` in a parallel phase;
//! * **plain rows** ([`assemble`]) — a serial counting sort for the
//!   reference graph; rows sort by id.
//!
//! Determinism contract: the per-row order is **total** (rows never
//! repeat an id, so the id — after the distance key, if any —
//! suffices). Offsets are pure degree counts and every row is sorted by
//! that total order, so the assembled arrays are a pure function of the
//! edge *set*: byte-identical for every slicing of the edges and every
//! worker count (pinned by the graph tests and the workspace
//! concurrency tier).
//!
//! ## Radix-sorted distance rows
//!
//! The `(distance, id)` rows are sorted by an MSD **radix sort on the
//! order-preserving bit image of the f64** rather than a comparison
//! sort: `to_bits`, with the sign bit flipped for non-negatives and all
//! bits flipped for negatives, maps the `f64::total_cmp` order
//! (−NaN < … < −0.0 < +0.0 < … < +NaN) onto plain `u64` order, so the
//! composite integer `(key, id)` sorts in *exactly* the
//! `(total_cmp(dist), id)` order the previous comparison sort produced
//! — no float comparator anywhere. The sort is engineered around the
//! row value distribution: an OR/AND scan finds the **highest byte that
//! actually varies** (on a narrow build radius the sign/exponent bytes
//! are constant and the low mantissa bytes almost never decide an
//! order), one counting pass partitions on it, and buckets recurse
//! until they are small enough for a branch-light integer sort. Unit
//! tests pin order-identity against the comparison sort on duplicate
//! distances, ±0.0, subnormals and all-equal rows.
//!
//! The row sort runs as its own parallel phase after the fill
//! ([`sort_dist_rows`]): rows are cut into contiguous ranges balanced
//! by entry count, so sort work distributes evenly even when degrees
//! are skewed. Per-row sorts are independent, so the worker count
//! changes no byte of output.

use disc_metric::cancel::{CancelToken, Cancelled};
use disc_metric::ObjId;

/// Work items between cancellation checkpoints in the assembly loops:
/// one relaxed atomic load per this many edges/rows keeps the poll cost
/// unmeasurable while bounding post-cancel latency to microseconds.
const CANCEL_CHUNK: usize = 4_096;

/// Raw distance-annotated CSR arrays: `(offsets, dists, neighbors)`.
pub(crate) type DistCsr = (Vec<usize>, Vec<f64>, Vec<ObjId>);

/// A distance-annotated undirected edge, as the self-join emits it.
pub(crate) type DistEdge = (ObjId, ObjId, f64);

/// Degree counts turned into the `n + 1` CSR row boundaries — the one
/// offsets definition both assemblies share.
fn degree_offsets(n: usize, ends: impl Iterator<Item = (ObjId, ObjId)>) -> Vec<usize> {
    let mut offsets = vec![0usize; n + 1];
    for (i, j) in ends {
        debug_assert!(i != j, "self-loop ({i}, {j})");
        offsets[i + 1] += 1;
        offsets[j + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    offsets
}

/// Serial counting-sort assembly for plain rows: degree counts, prefix
/// sum, fill, per-row sort. Returns `(offsets, neighbors)` with `n + 1`
/// offsets.
pub(crate) fn assemble(n: usize, edges: &[(ObjId, ObjId)]) -> (Vec<usize>, Vec<ObjId>) {
    let offsets = degree_offsets(n, edges.iter().copied());
    let mut neighbors = vec![0 as ObjId; offsets[n]];
    let mut cursor = offsets.clone();
    for &(i, j) in edges {
        neighbors[cursor[i]] = j;
        cursor[i] += 1;
        neighbors[cursor[j]] = i;
        cursor[j] += 1;
    }
    for v in 0..n {
        let row = &mut neighbors[offsets[v]..offsets[v + 1]];
        row.sort_unstable();
        debug_assert!(
            row.windows(2).all(|w| w[0] != w[1]),
            "duplicate edge incident to vertex {v}"
        );
    }
    (offsets, neighbors)
}

/// Distance-row assembly from one or more edge slices: the degree count
/// and fill walk the slices in place, then the row sort runs as an
/// entry-balanced parallel phase ([`sort_dist_rows`]).
///
/// Because offsets are pure degree counts and every row is sorted by
/// the total `(dist_order_key, id)` order, the output is byte-identical
/// over any slicing of the same edge set — and therefore the sharded
/// build equals the unsharded one whenever the slices union to the same
/// edge set. `workers == 0` sizes the sort phase to the available cores
/// (one worker below 4,096 entries).
///
/// The fill and sort loops poll the token every [`CANCEL_CHUNK`] work
/// items. On `Err(Cancelled)` the partially assembled arrays are
/// dropped — no partial CSR escapes.
pub(crate) fn assemble_dist(
    n: usize,
    slices: &[&[DistEdge]],
    workers: usize,
    cancel: Option<&CancelToken>,
) -> Result<(DistCsr, AssemblyTimings), Cancelled> {
    if let Some(c) = cancel {
        c.checkpoint()?;
    }
    let merge_start = std::time::Instant::now();
    let offsets = degree_offsets(
        n,
        slices
            .iter()
            .flat_map(|s| s.iter().map(|&(i, j, _)| (i, j))),
    );
    let total = offsets[n];
    let mut dists = vec![0.0f64; total];
    let mut neighbors = vec![0 as ObjId; total];
    let mut cursor = offsets.clone();
    for slice in slices {
        for (t, &(i, j, d)) in slice.iter().enumerate() {
            if t % CANCEL_CHUNK == 0 {
                if let Some(c) = cancel {
                    c.checkpoint()?;
                }
            }
            let ci = cursor[i];
            dists[ci] = d;
            neighbors[ci] = j;
            cursor[i] = ci + 1;
            let cj = cursor[j];
            dists[cj] = d;
            neighbors[cj] = i;
            cursor[j] = cj + 1;
        }
    }
    let workers = match workers {
        0 if total < 4_096 => 1,
        0 => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        w => w,
    };
    let merge = merge_start.elapsed();
    let sort_start = std::time::Instant::now();
    sort_dist_rows(&offsets, &mut dists, &mut neighbors, workers, cancel)?;
    let timings = AssemblyTimings {
        merge,
        sort: sort_start.elapsed(),
    };
    Ok(((offsets, dists, neighbors), timings))
}

/// Wall-clock split of [`assemble_dist`]: the degree-count + fill merge
/// walk vs the parallel row-sort phase.
pub(crate) struct AssemblyTimings {
    pub merge: std::time::Duration,
    pub sort: std::time::Duration,
}

/// The sort half of the distance-row assembly, decoupled from the fill:
/// rows are partitioned into contiguous ranges balanced by **entry
/// count** (one binary search on `offsets` per cut), so a worker owning
/// a few heavy rows sorts as much data as one owning many light rows.
/// Each worker sorts a disjoint slice of both arrays with its own
/// scratch; per-row sorts are independent, so the output is
/// byte-identical to sorting serially.
fn sort_dist_rows(
    offsets: &[usize],
    dists: &mut [f64],
    neighbors: &mut [ObjId],
    workers: usize,
    cancel: Option<&CancelToken>,
) -> Result<(), Cancelled> {
    let n = offsets.len() - 1;
    let total = offsets[n];
    // Row cut before each worker's even share of the entries; cuts are
    // row indices, non-decreasing, so ranges partition 0..n exactly.
    let mut cuts = Vec::with_capacity(workers + 1);
    cuts.push(0usize);
    for w in 1..workers {
        let target = total * w / workers;
        cuts.push(offsets.partition_point(|&o| o < target).min(n));
    }
    cuts.push(n);

    let aborted = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let aborted = &aborted;
        let mut rest_d: &mut [f64] = dists;
        let mut rest_n: &mut [ObjId] = neighbors;
        for w in 0..workers {
            let (lo, hi) = (cuts[w], cuts[w + 1]);
            let len = offsets[hi] - offsets[lo];
            let (mine_d, tail_d) = rest_d.split_at_mut(len);
            rest_d = tail_d;
            let (mine_n, tail_n) = rest_n.split_at_mut(len);
            rest_n = tail_n;
            scope.spawn(move || {
                let base = offsets[lo];
                let mut scratch = DistSortScratch::default();
                for (t, v) in (lo..hi).enumerate() {
                    if t % CANCEL_CHUNK == 0 {
                        if let Some(c) = cancel {
                            if c.checkpoint().is_err() {
                                aborted.store(true, std::sync::atomic::Ordering::Relaxed);
                                return;
                            }
                        }
                    }
                    let row = offsets[v] - base..offsets[v + 1] - base;
                    sort_dist_row(&mut mine_d[row.clone()], &mut mine_n[row], &mut scratch, v);
                }
            });
        }
    });
    if aborted.load(std::sync::atomic::Ordering::Relaxed) {
        return Err(Cancelled);
    }
    Ok(())
}

/// Reusable scatter buffers for [`sort_dist_row`], one per assembly
/// worker, reused across the rows it sorts.
#[derive(Default)]
struct DistSortScratch {
    spare_d: Vec<f64>,
    spare_i: Vec<ObjId>,
}

/// Maps an `f64` onto a `u64` whose unsigned order equals
/// [`f64::total_cmp`]'s: flip the sign bit of non-negatives, all bits
/// of negatives.
#[inline]
pub(crate) fn dist_order_key(d: f64) -> u64 {
    let b = d.to_bits();
    b ^ (((b as i64 >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// Partitions at or below this length sort by insertion on the bit
/// image — the counting pass only pays off on larger slices. Either
/// path produces the identical `(total_cmp(dist), id)` order.
const RADIX_MIN: usize = 48;

/// Sorts one `(distance, id)` row — stored as two aligned slices —
/// into `(total_cmp(dist), id)` order via [`msd_radix`]. Debug builds
/// reject duplicate edges, which would surface as equal (key, id)
/// pairs.
fn sort_dist_row(ds: &mut [f64], ids: &mut [ObjId], scratch: &mut DistSortScratch, v: ObjId) {
    debug_assert_eq!(ds.len(), ids.len());
    let n = ds.len();
    if n < 2 {
        return;
    }
    if n <= RADIX_MIN {
        insertion(ds, ids);
    } else {
        let DistSortScratch { spare_d, spare_i } = scratch;
        spare_d.resize(n.max(spare_d.len()), 0.0);
        spare_i.resize(n.max(spare_i.len()), 0);
        msd_radix(ds, ids, &mut spare_d[..n], &mut spare_i[..n]);
    }
    let _ = v;
    debug_assert!(
        ds.windows(2)
            .zip(ids.windows(2))
            .all(|(d, i)| (dist_order_key(d[0]), i[0]) < (dist_order_key(d[1]), i[1])),
        "duplicate edge incident to vertex {v}"
    );
}

/// Insertion sort of the aligned row slices under the
/// `(dist_order_key, id)` order — the leaf sort of the MSD partitions.
/// Buckets average a handful of elements, so a branch-light inline loop
/// beats any dispatchy alternative at this size (the key recompute is
/// three ALU ops).
#[inline]
fn insertion(ds: &mut [f64], ids: &mut [ObjId]) {
    for i in 1..ds.len() {
        let (d, id) = (ds[i], ids[i]);
        let key = (dist_order_key(d), id);
        let mut j = i;
        while j > 0 && (dist_order_key(ds[j - 1]), ids[j - 1]) > key {
            ds[j] = ds[j - 1];
            ids[j] = ids[j - 1];
            j -= 1;
        }
        ds[j] = d;
        ids[j] = id;
    }
}

/// In-place MSD radix sort of the aligned `(dist, id)` row slices under
/// the composite `(dist_order_key, id)` order. An OR/AND scan finds the
/// highest byte that varies across the slice (constant prefixes — the
/// sign/exponent bytes of a narrow build radius, the high id bytes of
/// any realistic graph — cost nothing), one counting pass partitions
/// both arrays on it through the spare slices, and each bucket recurses
/// until the insertion cutoff. Stability is irrelevant: `(key, id)`
/// pairs are unique (rows never repeat an id).
fn msd_radix(ds: &mut [f64], ids: &mut [ObjId], sd: &mut [f64], si: &mut [ObjId]) {
    let n = ds.len();
    if n <= RADIX_MIN {
        insertion(ds, ids);
        return;
    }
    let (mut or_k, mut and_k) = (0u64, !0u64);
    let (mut or_i, mut and_i) = (0usize, !0usize);
    for t in 0..n {
        let k = dist_order_key(ds[t]);
        or_k |= k;
        and_k &= k;
        or_i |= ids[t];
        and_i &= ids[t];
    }
    let (vary_k, vary_i) = (or_k ^ and_k, (or_i ^ and_i) as u64);
    let (use_key, shift) = if vary_k != 0 {
        (true, 8 * ((63 - vary_k.leading_zeros() as usize) / 8))
    } else if vary_i != 0 {
        (false, 8 * ((63 - vary_i.leading_zeros() as usize) / 8))
    } else {
        return; // fully identical pairs — unreachable for valid rows
    };

    let mut hist = [0u32; 256];
    if use_key {
        for t in 0..n {
            hist[((dist_order_key(ds[t]) >> shift) & 0xFF) as usize] += 1;
        }
    } else {
        for t in 0..n {
            hist[((ids[t] as u64 >> shift) & 0xFF) as usize] += 1;
        }
    }
    let mut offs = [0u32; 256];
    let mut sum = 0u32;
    for (o, &c) in offs.iter_mut().zip(hist.iter()) {
        *o = sum;
        sum += c;
    }

    // Scatter both arrays through the spares, copy back, recurse per
    // bucket (the spares slice along with the buckets, so recursion
    // needs no extra allocation).
    let mut cur = offs;
    for t in 0..n {
        let digit = if use_key {
            (dist_order_key(ds[t]) >> shift) & 0xFF
        } else {
            (ids[t] as u64 >> shift) & 0xFF
        } as usize;
        let slot = cur[digit] as usize;
        cur[digit] += 1;
        sd[slot] = ds[t];
        si[slot] = ids[t];
    }
    ds.copy_from_slice(sd);
    ids.copy_from_slice(si);

    for d in 0..256 {
        let lo = offs[d] as usize;
        let hi = lo + hist[d] as usize;
        if hi - lo > 1 {
            msd_radix(
                &mut ds[lo..hi],
                &mut ids[lo..hi],
                &mut sd[lo..hi],
                &mut si[lo..hi],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The previous comparison sort, kept as the order reference the
    /// radix sort must reproduce exactly.
    fn reference_sort(mut row: Vec<(f64, ObjId)>) -> Vec<(f64, ObjId)> {
        row.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        row
    }

    /// The production row sort, driven through the split-array layout.
    fn radix(row: &[(f64, ObjId)]) -> Vec<(f64, ObjId)> {
        let mut ds: Vec<f64> = row.iter().map(|e| e.0).collect();
        let mut ids: Vec<ObjId> = row.iter().map(|e| e.1).collect();
        let mut scratch = DistSortScratch::default();
        sort_dist_row(&mut ds, &mut ids, &mut scratch, 0);
        ds.into_iter().zip(ids).collect()
    }

    fn assert_order_identical(row: Vec<(f64, ObjId)>) {
        let want = reference_sort(row.clone());
        let got = radix(&row);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.0.to_bits(), w.0.to_bits(), "distance bits diverged");
            assert_eq!(g.1, w.1, "id order diverged");
        }
        // Long variant: replicate the row past the comparison cutoff
        // (fresh ids keep the (dist, id) pairs unique) so the radix
        // path itself is exercised.
        if row.len() <= RADIX_MIN && !row.is_empty() {
            let long: Vec<(f64, ObjId)> = (0..=RADIX_MIN)
                .flat_map(|rep| row.iter().map(move |&(d, id)| (d, id + rep * 1_000_003)))
                .collect();
            let want = reference_sort(long.clone());
            let got = radix(&long);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.0.to_bits(), w.0.to_bits());
                assert_eq!(g.1, w.1);
            }
        }
    }

    #[test]
    fn key_mapping_matches_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -1.0e300,
            -1.0,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1.0e300,
            f64::INFINITY,
        ];
        for (i, &a) in values.iter().enumerate() {
            assert_eq!(
                dist_order_key(a),
                dist_order_key(a),
                "key is a pure function"
            );
            for &b in &values[i + 1..] {
                assert!(
                    dist_order_key(a) < dist_order_key(b),
                    "key order broke total_cmp for {a} < {b}"
                );
            }
        }
        // NaNs too: total_cmp puts +NaN above +inf, -NaN below -inf.
        assert!(dist_order_key(f64::NAN) > dist_order_key(f64::INFINITY));
        assert!(dist_order_key(-f64::NAN) < dist_order_key(f64::NEG_INFINITY));
        // The key is injective on bit patterns (XOR with a
        // sign-derived mask), so distinct bits — e.g. ±0.0 — keep
        // distinct, ordered keys.
        assert!(dist_order_key(-0.0) < dist_order_key(0.0));
    }

    #[test]
    fn radix_order_on_duplicate_distances() {
        // Many ties: ids must break them exactly as the comparison
        // sort's `.then(id.cmp)` did.
        let row: Vec<(f64, ObjId)> = (0..200)
            .map(|i| ((i % 5) as f64 * 0.125, (997 * i + 13) % 1000))
            .collect();
        assert_order_identical(row);
    }

    #[test]
    fn radix_order_on_signed_zeros_and_subnormals() {
        let row = vec![
            (0.0, 3),
            (-0.0, 7),
            (5e-324, 1),
            (-5e-324, 2),
            (f64::MIN_POSITIVE, 0),
            (0.0, 1),
            (-0.0, 0),
            (2.2250738585072014e-308, 9),
        ];
        assert_order_identical(row);
    }

    #[test]
    fn radix_order_on_all_equal_rows() {
        // One distance value for the whole row: no key byte varies, so
        // the id bytes carry the entire order.
        let mut seen = std::collections::HashSet::new();
        let row: Vec<(f64, ObjId)> = (0..150usize)
            .map(|i| (0.25, (i.wrapping_mul(2_654_435_761) >> 7) % 100_000))
            .filter(|&(_, id)| seen.insert(id))
            .collect();
        assert!(row.len() > RADIX_MIN);
        assert_order_identical(row);
    }

    #[test]
    fn radix_order_on_random_mixed_rows() {
        // Long mixed-magnitude rows (normal, subnormal, huge, ±0) hit
        // deep recursion and every digit position across seeds.
        for seed in 0..8u64 {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let row: Vec<(f64, ObjId)> = (0..300)
                .map(|i| {
                    let v = match next() % 5 {
                        0 => (next() % 1_000_000) as f64 * 1e-9,
                        1 => f64::from_bits(next() % 0x10_0000), // subnormals
                        2 => (next() % 1_000) as f64 * 1e290,
                        3 => 0.0,
                        _ => -0.0,
                    };
                    (v, i)
                })
                .collect();
            assert_order_identical(row);
        }
    }

    #[test]
    fn radix_handles_degenerate_lengths() {
        assert_order_identical(vec![]);
        assert_order_identical(vec![(0.5, 0)]);
        assert_order_identical(vec![(0.5, 1), (0.5, 0)]);
    }

    #[test]
    fn dist_assembly_serial_equals_sharded() {
        // Deterministic pseudo-random multigraph-free edge set.
        let n = 120;
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut seen = std::collections::HashSet::new();
        let mut edges: Vec<DistEdge> = Vec::new();
        for _ in 0..800 {
            let a = (next() % n as u64) as usize;
            let b = (next() % n as u64) as usize;
            if a == b {
                continue;
            }
            let (a, b) = (a.min(b), a.max(b));
            if seen.insert((a, b)) {
                edges.push((a, b, (next() % 1_000) as f64 * 1e-3));
            }
        }
        let assemble = |slices: &[&[DistEdge]], workers: usize| {
            let Ok((csr, _)) = assemble_dist(n, slices, workers, None) else {
                unreachable!("cancellation is impossible without a token")
            };
            csr
        };
        // Independent reference: per-row comparison sort.
        let mut rows: Vec<Vec<(f64, ObjId)>> = vec![Vec::new(); n];
        for &(a, b, d) in &edges {
            rows[a].push((d, b));
            rows[b].push((d, a));
        }
        let mut want_offsets = vec![0];
        let (mut want_d, mut want_n) = (Vec::new(), Vec::new());
        for row in rows {
            for (d, id) in reference_sort(row) {
                want_d.push(d.to_bits());
                want_n.push(id);
            }
            want_offsets.push(want_n.len());
        }
        // Every worker count and every slicing of the same edge set
        // (including empty slices) assembles the same bytes — the
        // contract the sharded build's byte-identity gate rests on.
        for cut in [0, 1, edges.len() / 3, edges.len()] {
            let (a, b) = edges.split_at(cut);
            let empty: &[DistEdge] = &[];
            for workers in [0, 1, 2, 3, 8, 200] {
                let got = assemble(&[a, empty, b], workers);
                assert_eq!(got.0, want_offsets, "offsets, cut={cut} workers={workers}");
                assert_eq!(
                    got.1.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    want_d,
                    "dists, cut={cut} workers={workers}"
                );
                assert_eq!(got.2, want_n, "neighbors, cut={cut} workers={workers}");
            }
        }
    }
}
