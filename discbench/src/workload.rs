//! The workloads: which catalog each builds and which traffic it sends.
//! `README.md` in this directory says why each exists.

/// Seed of the fixed point sets (the seed the repository's committed
/// benches use). The workload seed never changes a catalog, only the
/// traffic, so every seed measures the same amount of work: the same
/// catalog in the same storage order, where a mutation at a given
/// storage position costs the same on every seed.
pub const DATA_SEED: u64 = 77;

/// The radius giving mean degree 60 on 100k uniform points in the unit
/// square (`sqrt(60 / (pi * n))`).
pub const DEGREE60_RADIUS: f64 = 0.01381976597885342;

/// Worker threads of every `disc serve` process and of every build
/// (the reference host has 2 cores).
pub const WORKERS: usize = 2;

/// Times `disc serve` is started per run; `setup_s` is the median.
pub const SERVE_STARTS: usize = 3;

/// The point set and graph radius of a catalog.
#[derive(Clone, Copy, Debug)]
pub struct Catalog {
    /// Object count.
    pub n: usize,
    /// `Some(k)`: the clustered generator with `k` clusters; `None`:
    /// uniform in the unit square.
    pub clusters: Option<usize>,
    /// Build radius `r_max`.
    pub r_max: f64,
    /// Spatial shards of the sharded build.
    pub shards: usize,
}

/// The radii the reads of a phase ask for: fresh radii spread evenly
/// over `[lo, hi] * r_max` and never repeated, so no zoom can hit the
/// cache.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Radii {
    pub lo: f64,
    pub hi: f64,
}

impl Radii {
    /// The repeated radius of a phase's hot zooms, as a share of
    /// `r_max`: the middle of the range.
    pub fn hot(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }
}

/// Shares of each verb in a phase (they need not sum to 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mix {
    pub zoom: f64,
    pub sweep: f64,
    pub insert: f64,
    pub delete: f64,
    pub radii: Radii,
    /// Every `hot_every`-th request of the phase, from its first on, is
    /// a zoom at the one repeated radius [`Radii::hot`] instead (0:
    /// none). Fewer than 16 fresh zooms fit between two of them, so
    /// the server's default 16-radius cache never evicts the repeated
    /// radius, and every repeat after the first is a hit until a
    /// mutation breaks the cached cover.
    pub hot_every: usize,
}

impl Mix {
    /// Whether the phase mutates the catalog.
    pub fn mutates(&self) -> bool {
        self.insert > 0.0 || self.delete > 0.0
    }
}

/// How requests are sent.
#[derive(Clone, Copy, Debug)]
pub enum Loop {
    /// Open loop: one request every `1 / rate` seconds, whatever the
    /// server does; latencies count from the due time.
    Open { rate: f64 },
    /// Closed loop: `inflight` requests outstanding at all times; the
    /// completion rate is `capacity_rps`.
    Closed { inflight: usize },
}

/// One traffic phase against a running `disc serve`.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub name: &'static str,
    pub kind: Loop,
    /// Share of `--seconds` this phase runs for.
    pub share: f64,
    pub mix: Mix,
}

/// A benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub catalog: Catalog,
    /// Catalog builds per run, before `--seconds` starts: `build_s`
    /// is their median, and their snapshot digests are compared.
    pub builds: usize,
    pub phases: &'static [Phase],
}

const fn mix(zoom: f64, sweep: f64, insert: f64, delete: f64, radii: Radii) -> Mix {
    Mix {
        zoom,
        sweep,
        insert,
        delete,
        radii,
        hot_every: 0,
    }
}

/// Radii spread over the whole serveable range of the dense catalog.
const DENSE_RANGE: Radii = Radii { lo: 0.1, hi: 1.0 };
/// Small radii of the refreshed catalog: every read still scans all
/// 100k rows, but the selection stays short.
const REFRESH_RANGE: Radii = Radii { lo: 0.1, hi: 0.2 };

/// Every workload, in the order `BENCHMARK.json` lists them. Phases
/// named `probe` run at a low rate so that their few requests rarely
/// queue: they give the verbs outside a workload's main mix a defined,
/// steady latency.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "zoom-cold-dense",
        catalog: Catalog {
            n: 10_000,
            clusters: Some(8),
            r_max: 0.08,
            shards: 1,
        },
        builds: 3,
        phases: &[
            Phase {
                name: "open-read",
                kind: Loop::Open { rate: 3.0 },
                share: 0.7,
                mix: mix(0.8, 0.2, 0.0, 0.0, DENSE_RANGE),
            },
            Phase {
                name: "closed-read",
                kind: Loop::Closed { inflight: WORKERS },
                share: 0.12,
                mix: mix(0.8, 0.2, 0.0, 0.0, DENSE_RANGE),
            },
            Phase {
                name: "mutate-probe",
                kind: Loop::Open { rate: 8.0 },
                share: 0.18,
                mix: mix(0.0, 0.0, 0.5, 0.5, DENSE_RANGE),
            },
        ],
    },
    Workload {
        name: "build-refresh",
        catalog: Catalog {
            n: 100_000,
            clusters: Some(8),
            r_max: DEGREE60_RADIUS,
            shards: 8,
        },
        builds: 1,
        phases: &[
            Phase {
                name: "read-probe",
                kind: Loop::Open { rate: 2.5 },
                share: 0.45,
                mix: Mix {
                    hot_every: 10,
                    ..mix(0.6, 0.4, 0.0, 0.0, REFRESH_RANGE)
                },
            },
            Phase {
                name: "mutate-probe",
                kind: Loop::Open { rate: 3.0 },
                share: 0.35,
                mix: mix(0.0, 0.0, 0.6, 0.4, REFRESH_RANGE),
            },
            Phase {
                name: "closed-mixed",
                kind: Loop::Closed { inflight: WORKERS },
                share: 0.2,
                mix: mix(0.35, 0.15, 0.3, 0.2, REFRESH_RANGE),
            },
        ],
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
