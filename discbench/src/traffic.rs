//! Seeded request generation and the `disc serve` wire lines.
//!
//! Verbs come in blocks of [`BLOCK`] requests that hold each verb in
//! exact proportion to the phase's mix, in a seeded random order: the
//! shares hold exactly on every seed, while which verb follows which
//! (a miss followed by a writer that must wait for it, say) is left to
//! chance rather than to a pattern that differs from seed to seed.
//! Radii and mutation targets come from Kronecker sequences
//! (`frac(x0 + k * alpha)` for an irrational `alpha`) whose start `x0`
//! is drawn from the workload seed. Any prefix of such a sequence is
//! spread almost evenly over its range, so runs on different seeds
//! differ in *which* radii and points they send, not in how much work
//! that is.
//! A phase may also repeat one radius at a fixed interval (see
//! [`Mix::hot_every`]), so that the cache-hit path is exercised a known
//! number of times.
//! Mutations are spread the same way over the catalog's *storage
//! order* (internal ids), because what a splice or an unlink costs
//! depends mostly on how far into the CSR arrays its first touched row
//! sits. A delete takes the original object at the next sequence
//! position (the next live one after it, so no delete ever names a
//! tombstone). An insert is a near-copy of the original object at the
//! next position, so inserts follow the catalog's own distribution: a
//! clustered catalog gets them inside its clusters.

use crate::workload::{Mix, Radii};

/// SplitMix64: the seed expander for every sequence start.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.unit() * (i + 1) as f64) as usize;
            items.swap(i, j.min(i));
        }
    }
}

/// Width of an insert's jitter box around the original object it
/// copies, as a share of `r_max`. An insert is a near-copy — a variant
/// of an item the catalog holds — so it lands inside the catalog's
/// dense regions, and a cached cover that covers the original covers
/// the copy too.
const JITTER: f64 = 1e-4;

/// Requests per verb block.
pub const BLOCK: usize = 20;

/// One block of `mix`: each verb `round(share * BLOCK)` times (largest
/// remainders break ties), in verb order.
fn block(mix: &Mix) -> Vec<Verb> {
    let shares = [
        (Verb::Zoom, mix.zoom),
        (Verb::Sweep, mix.sweep),
        (Verb::Insert, mix.insert),
        (Verb::Delete, mix.delete),
    ];
    let total: f64 = shares.iter().map(|(_, s)| s).sum();
    let exact: Vec<f64> = shares
        .iter()
        .map(|(_, s)| s / total * BLOCK as f64)
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..shares.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &i in by_remainder
        .iter()
        .take(BLOCK - counts.iter().sum::<usize>())
    {
        counts[i] += 1;
    }
    shares
        .iter()
        .zip(counts)
        .flat_map(|(&(verb, _), count)| std::iter::repeat_n(verb, count))
        .collect()
}

/// `frac(x0 + k * alpha)` for `k = 0, 1, 2, …`.
struct Kronecker {
    x: f64,
    alpha: f64,
}

impl Kronecker {
    fn new(start: f64, alpha: f64) -> Self {
        Self { x: start, alpha }
    }

    fn next(&mut self) -> f64 {
        let v = self.x;
        self.x = (self.x + self.alpha).fract();
        v
    }
}

/// 1/phi, the golden-ratio step.
const GOLDEN: f64 = 0.618_033_988_749_894_9;
/// 1/p and 1/p^2 for the plastic number p: the 2-D R2 sequence.
const R2: (f64, f64) = (0.754_877_666_246_692_7, 0.569_840_290_998_053_3);

/// The serve verbs the benchmark sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Verb {
    Zoom,
    Sweep,
    Insert,
    Delete,
}

/// One generated request.
#[derive(Clone, Debug, PartialEq)]
pub enum Req {
    Zoom(f64),
    Sweep([f64; 3]),
    Insert([f64; 2]),
    Delete(u64),
}

impl Req {
    pub fn verb(&self) -> Verb {
        match self {
            Req::Zoom(_) => Verb::Zoom,
            Req::Sweep(_) => Verb::Sweep,
            Req::Insert(_) => Verb::Insert,
            Req::Delete(_) => Verb::Delete,
        }
    }

    /// The protocol line for this request under `id`. Floats print in
    /// Rust's shortest round-trip form, so the server parses back the
    /// exact radius the in-process replay uses.
    pub fn line(&self, id: u64) -> String {
        match self {
            Req::Zoom(r) => format!("id={id} zoom r={r}"),
            Req::Sweep([a, b, c]) => format!("id={id} sweep radii={a},{b},{c}"),
            Req::Insert([x, y]) => format!("id={id} insert coords={x},{y}"),
            Req::Delete(ext) => format!("id={id} delete ext={ext}"),
        }
    }
}

/// The seeded request stream of one run. Every sequence continues
/// across phases, so delete targets are never reused and cold radii
/// never repeat within a run.
pub struct Generator {
    r_max: f64,
    rng: SplitMix,
    /// The rest of the current verb block and the mix it was drawn for.
    plan: Vec<Verb>,
    plan_for: Option<Mix>,
    /// Requests generated since the mix last changed.
    sent: usize,
    zoom_radii: Kronecker,
    sweep_radii: Kronecker,
    /// Storage position of the original object the next insert lands
    /// near.
    near: Kronecker,
    /// The jitter of the next insert (see [`JITTER`]).
    jitter: (Kronecker, Kronecker),
    /// Storage position of the next delete.
    victim: Kronecker,
    /// Original coordinates, row-major, indexed by external id.
    points: Vec<f64>,
    /// External id at each storage position (internal id).
    order: Vec<u64>,
    /// Storage positions already deleted.
    deleted: Vec<bool>,
}

impl Generator {
    /// The stream for a 2-D catalog built at `r_max` whose original
    /// objects have the row-major `points` (by external id) and sit in
    /// storage `order` (external id by internal id).
    pub fn new(seed: u64, points: Vec<f64>, order: Vec<u64>, r_max: f64) -> Self {
        let mut rng = SplitMix::new(seed ^ 0x7472_6166_6669_6321);
        let zoom_radii = Kronecker::new(rng.unit(), GOLDEN);
        let sweep_radii = Kronecker::new(rng.unit(), GOLDEN);
        let near = Kronecker::new(rng.unit(), GOLDEN);
        let jitter = (
            Kronecker::new(rng.unit(), R2.0),
            Kronecker::new(rng.unit(), R2.1),
        );
        let victim = Kronecker::new(rng.unit(), GOLDEN);
        let deleted = vec![false; order.len()];
        Self {
            r_max,
            plan: Vec::new(),
            plan_for: None,
            sent: 0,
            zoom_radii,
            sweep_radii,
            near,
            jitter,
            victim,
            points,
            order,
            deleted,
            rng,
        }
    }

    /// The next request of a phase with mix `mix`.
    pub fn next(&mut self, mix: &Mix) -> Req {
        if self.plan_for != Some(*mix) {
            self.plan.clear();
            self.plan_for = Some(*mix);
            self.sent = 0;
        }
        self.sent += 1;
        if mix.hot_every > 0 && (self.sent - 1).is_multiple_of(mix.hot_every) {
            return Req::Zoom(self.r_max * mix.radii.hot());
        }
        if self.plan.is_empty() {
            self.plan = block(mix);
            self.rng.shuffle(&mut self.plan);
        }
        let verb = self.plan.pop().expect("a fresh block holds BLOCK verbs");
        match verb {
            Verb::Zoom => {
                let Radii { lo, hi } = mix.radii;
                Req::Zoom(self.r_max * (lo + (hi - lo) * self.zoom_radii.next()))
            }
            Verb::Sweep => Req::Sweep(self.sweep(mix.radii)),
            Verb::Insert => {
                let pos = self.position(Verb::Insert);
                let at = self.order[pos] as usize;
                let step = |x: f64, k: &mut Kronecker| {
                    (x + (k.next() - 0.5) * JITTER * self.r_max).clamp(0.0, 1.0)
                };
                Req::Insert([
                    step(self.points[2 * at], &mut self.jitter.0),
                    step(self.points[2 * at + 1], &mut self.jitter.1),
                ])
            }
            Verb::Delete => {
                let n = self.order.len();
                let start = self.position(Verb::Delete);
                let pos = (start..n)
                    .chain(0..start)
                    .find(|&p| !self.deleted[p])
                    .expect("a run never deletes every object of the catalog");
                self.deleted[pos] = true;
                Req::Delete(self.order[pos])
            }
        }
    }

    /// The next storage position for a mutation of kind `verb`.
    fn position(&mut self, verb: Verb) -> usize {
        let seq = if verb == Verb::Insert {
            &mut self.near
        } else {
            &mut self.victim
        };
        ((seq.next() * self.order.len() as f64) as usize).min(self.order.len() - 1)
    }

    /// A strictly descending 3-radius chain: a fresh top radius, then
    /// 70% and 45% of it.
    fn sweep(&mut self, radii: Radii) -> [f64; 3] {
        let top = self.r_max * (radii.lo + (radii.hi - radii.lo) * self.sweep_radii.next());
        [top, top * 0.7, top * 0.45]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn same_seed_same_stream_exact_shares_and_no_repeated_delete() {
        // build-refresh's closed loop: 35% zooms, 15% sweeps, 30%
        // inserts, 20% deletes.
        let mix = WORKLOADS[1].phases[2].mix;
        let points: Vec<f64> = (0..2000).map(|i| f64::from(i) / 2000.0).collect();
        let order: Vec<u64> = (0..1000).rev().collect();
        let mut a = Generator::new(5, points.clone(), order.clone(), 0.1);
        let mut b = Generator::new(5, points.clone(), order.clone(), 0.1);
        let reqs: Vec<Req> = (0..400).map(|_| a.next(&mix)).collect();
        assert!(reqs.iter().all(|r| *r == b.next(&mix)));
        let count = |v: Verb| reqs.iter().filter(|r| r.verb() == v).count();
        assert_eq!(
            [
                count(Verb::Zoom),
                count(Verb::Sweep),
                count(Verb::Insert),
                count(Verb::Delete)
            ],
            [140, 60, 120, 80]
        );
        let mut other = Generator::new(6, points, order, 0.1);
        assert!((0..20).any(|i| other.next(&mix) != reqs[i]));
        let mut ids: Vec<u64> = reqs
            .iter()
            .filter_map(|r| match r {
                Req::Delete(ext) => Some(*ext),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 80, "a delete repeated an id");
    }

    #[test]
    fn hot_zooms_repeat_one_radius_at_a_fixed_interval() {
        // build-refresh's read probe: every 10th request is the hot zoom.
        let mix = WORKLOADS[1].phases[0].mix;
        let hot = 0.1 * mix.radii.hot();
        let mut g = Generator::new(3, vec![0.5; 20], (0..10).collect(), 0.1);
        for k in 0..95 {
            let is_hot = g.next(&mix) == Req::Zoom(hot);
            assert_eq!(is_hot, k % 10 == 0, "request {k}");
        }
    }

    #[test]
    fn cold_radii_stay_in_range_and_never_repeat() {
        let mix = WORKLOADS[0].phases[0].mix;
        let mut g = Generator::new(1, vec![0.5; 20], (0..10).collect(), 0.08);
        let mut seen = Vec::new();
        for _ in 0..500 {
            match g.next(&mix) {
                Req::Zoom(r) => seen.push(r),
                Req::Sweep([a, b, c]) => assert!(a > b && b > c && c > 0.0 && a <= 0.08),
                other => unreachable!("read mix produced {other:?}"),
            }
        }
        assert!(seen.iter().all(|&r| (0.008..=0.08).contains(&r)));
        let mut sorted = seen.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        assert_eq!(sorted.len(), seen.len());
    }
}
