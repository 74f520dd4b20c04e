//! Parallel fan-out for the neighbourhood-count seeding loops.
//!
//! Every greedy heuristic starts by issuing one independent range query
//! per object (`counts[p] = |N_r(p)|`-style seeding). The queries are
//! read-only (`&MTree`) and the M-tree's cost counters are atomic, so
//! the loop parallelises embarrassingly: split the id space into one
//! contiguous chunk per thread, give each thread its own scratch
//! [`RangeHit`](disc_mtree::RangeHit) buffer, and write each result into a disjoint slice of
//! the output.
//!
//! The environment ships no rayon, so the fan-out uses
//! `std::thread::scope` directly — the `parallel` cargo feature gates it
//! (serial builds behave byte-identically; the counts are per-object
//! deterministic either way, and callers push heap entries in id order
//! afterwards).

/// Computes `per_id(id, scratch)` for every `id in 0..n`, returning the
/// results in id order. `scratch` is a query buffer (any `Default`
/// collector — `Vec<ObjId>` for object-only queries, `Vec<RangeHit>`
/// when distances are needed) reused across all calls made by the same
/// thread.
///
/// With the `parallel` feature enabled this fans out over all available
/// cores (falling back to the serial loop for small `n`, where thread
/// spawn overhead dominates); without it, it is exactly the serial loop.
pub fn seed_counts<T, F>(n: usize, per_id: F) -> Vec<u32>
where
    T: Default,
    F: Fn(usize, &mut T) -> u32 + Sync,
{
    #[cfg(feature = "parallel")]
    {
        seed_counts_parallel(n, per_id)
    }
    #[cfg(not(feature = "parallel"))]
    {
        seed_counts_serial(n, per_id)
    }
}

/// The serial seeding loop (always available; the perf report uses it as
/// the baseline side of the serial-vs-parallel comparison).
pub fn seed_counts_serial<T, F>(n: usize, per_id: F) -> Vec<u32>
where
    T: Default,
    F: Fn(usize, &mut T) -> u32 + Sync,
{
    let mut scratch = T::default();
    (0..n).map(|id| per_id(id, &mut scratch)).collect()
}

/// The threaded seeding loop.
#[cfg(feature = "parallel")]
pub fn seed_counts_parallel<T, F>(n: usize, per_id: F) -> Vec<u32>
where
    T: Default,
    F: Fn(usize, &mut T) -> u32 + Sync,
{
    // Below this many objects a serial pass beats thread spawn + join.
    const MIN_PARALLEL: usize = 2_048;
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    if threads <= 1 || n < MIN_PARALLEL {
        return seed_counts_serial(n, per_id);
    }
    let mut counts = vec![0u32; n];
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        for (t, out) in counts.chunks_mut(chunk).enumerate() {
            let per_id = &per_id;
            s.spawn(move || {
                let mut scratch = T::default();
                let base = t * chunk;
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = per_id(base + i, &mut scratch);
                }
            });
        }
    });
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use disc_mtree::RangeHit;

    #[test]
    fn serial_results_are_in_id_order() {
        let got = seed_counts_serial(5, |id, _: &mut Vec<RangeHit>| id as u32 * 2);
        assert_eq!(got, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn dispatching_wrapper_matches_serial() {
        let n = 4_000; // above the parallel threshold when enabled
        let serial = seed_counts_serial(n, |id, _: &mut Vec<RangeHit>| (id % 17) as u32);
        let dispatched = seed_counts(n, |id, _: &mut Vec<RangeHit>| (id % 17) as u32);
        assert_eq!(serial, dispatched);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_matches_serial_above_threshold() {
        let n = 10_000;
        let f = |id: usize, _: &mut Vec<RangeHit>| ((id * 31) % 101) as u32;
        assert_eq!(seed_counts_parallel(n, f), seed_counts_serial(n, f));
    }

    #[test]
    fn scratch_is_reused_not_reallocated() {
        // Entries accumulate across calls only if the same buffer is
        // threaded through (queries clear it themselves via the *_into
        // API, but the helper itself must not).
        let counts = seed_counts_serial(3, |id, scratch: &mut Vec<RangeHit>| {
            scratch.push(RangeHit {
                object: id,
                dist: 0.0,
            });
            scratch.len() as u32
        });
        assert_eq!(counts, vec![1, 2, 3]);
    }
}
