//! The catalog build, run in a child process of its own so that its
//! peak RSS is the build's alone and not the harness's.
//!
//! The child builds in one of two ways:
//!
//! * **cli** (the end-to-end run): it calls the program's own
//!   `disc build` — `disc_cli::run` with the workload's flags, under
//!   `SELF_JOIN_THREADS=2` — and times that call. Whatever `disc
//!   build` does (today: `build_sharded_with` → `encode` → a plain
//!   `std::fs::write`, no fsync) is what `build_s` measures.
//! * **pipeline** (the traced run): it runs the same three steps
//!   in-process, so that it can time each and report the
//!   `ShardedBuildStats` the build returns.
//!
//! Then, untimed, it reads the snapshot back, digests it, triages it
//! with `disc_store::inspect` and writes the storage order the traffic
//! generator needs. It prints one JSON line for the parent.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use disc_core::{build_sharded_with, ShardedBuildConfig};
use disc_metric::Dataset;

use crate::json;
use crate::workload::{self, Catalog, WORKERS};

/// The catalog's point set, fixed by [`workload::DATA_SEED`].
pub fn dataset(catalog: &Catalog) -> Dataset {
    match catalog.clusters {
        Some(k) => disc_datasets::synthetic::clustered(catalog.n, 2, k, workload::DATA_SEED),
        None => disc_datasets::synthetic::uniform(catalog.n, 2, workload::DATA_SEED),
    }
}

/// What one build child reports.
#[derive(Clone, Debug, Default)]
pub struct BuildReport {
    /// The timed build (`disc build`, or the pipeline's three steps),
    /// seconds.
    pub build_s: f64,
    pub bytes: u64,
    /// FNV-1a 64 of the snapshot bytes.
    pub digest: u64,
    /// `disc_store::inspect` found every check clean.
    pub clean: bool,
    /// VmHWM of the child right after the timed build, KiB.
    pub peak_rss_kib: u64,
    pub n: u64,
    /// Undirected edges.
    pub edges: u64,
    /// The pipeline's per-step times and build statistics; `None` for
    /// a `disc build` child.
    pub phases: Option<Phases>,
}

/// The steps of a pipeline build.
#[derive(Clone, Debug, Default)]
pub struct Phases {
    /// The `build_sharded_with` call alone, ms.
    pub sharded_ms: f64,
    pub encode_ms: f64,
    pub write_ms: f64,
    pub partition_ms: f64,
    pub renumber_ms: f64,
    pub tree_ms: f64,
    pub intra_join_ms: f64,
    pub boundary_join_ms: f64,
    pub merge_ms: f64,
    pub assembly_ms: f64,
    pub distance_computations: u64,
    pub node_accesses: u64,
    pub boundary_dc_share: f64,
}

/// Where the build child leaves the storage order of `snapshot`.
pub fn order_path(snapshot: &Path) -> std::path::PathBuf {
    snapshot.with_extension("order")
}

/// Writes the external id of every internal id, in internal (storage)
/// order, as little-endian `u64`s.
fn write_order(data: &Dataset, path: &Path) -> Result<(), String> {
    let bytes: Vec<u8> = (0..data.len())
        .flat_map(|i| (data.external_id(i) as u64).to_le_bytes())
        .collect();
    std::fs::write(path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The storage order the last build of `snapshot` left: external ids
/// by internal id.
pub fn read_order(snapshot: &Path) -> Result<Vec<u64>, String> {
    let path = order_path(snapshot);
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks are 8 bytes")))
        .collect())
}

/// Peak resident set (VmHWM) of process `pid` (`"self"` for this one),
/// KiB, from `/proc/<pid>/status`.
pub fn vm_hwm_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs one build of `workload`'s catalog in a child process, writing
/// the snapshot to `out`: through `disc build`, or with `pipeline`
/// through the in-process steps that report their phases.
pub fn run_child(workload: &str, out: &Path, pipeline: bool) -> Result<BuildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let output = Command::new(exe)
        .arg("--child-build")
        .arg(workload)
        .arg(out)
        .arg(if pipeline { "pipeline" } else { "cli" })
        .env("SELF_JOIN_THREADS", WORKERS.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the build child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!("build child failed ({}): {line}", output.status));
    }
    let f = |k: &str| json::num(line, k).ok_or_else(|| format!("build child omitted {k}: {line}"));
    let i = |k: &str| json::int(line, k).ok_or_else(|| format!("build child omitted {k}: {line}"));
    let phases = if pipeline {
        Some(Phases {
            sharded_ms: f("sharded_ms")?,
            encode_ms: f("encode_ms")?,
            write_ms: f("write_ms")?,
            partition_ms: f("partition_ms")?,
            renumber_ms: f("renumber_ms")?,
            tree_ms: f("tree_ms")?,
            intra_join_ms: f("intra_join_ms")?,
            boundary_join_ms: f("boundary_join_ms")?,
            merge_ms: f("merge_ms")?,
            assembly_ms: f("assembly_ms")?,
            distance_computations: i("distance_computations")?,
            node_accesses: i("node_accesses")?,
            boundary_dc_share: f("boundary_dc_share")?,
        })
    } else {
        None
    };
    Ok(BuildReport {
        build_s: f("build_s")?,
        bytes: i("bytes")?,
        digest: json::field(line, "digest")
            .and_then(|d| u64::from_str_radix(d, 16).ok())
            .ok_or_else(|| format!("build child omitted digest: {line}"))?,
        clean: json::field(line, "clean") == Some("true"),
        peak_rss_kib: i("peak_rss_kib")?,
        n: i("n")?,
        edges: i("edges")?,
        phases,
    })
}

/// Entry point of the child (`--child-build <workload> <out>
/// <cli|pipeline>`); returns the exit code.
pub fn child_main(args: &[String]) -> i32 {
    match child(args) {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("discbench build child: {e}");
            1
        }
    }
}

fn child(args: &[String]) -> Result<String, String> {
    let [name, out, mode] = args else {
        return Err("usage: --child-build <workload> <out> <cli|pipeline>".into());
    };
    let w = workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let c = &w.catalog;
    let (build_s, phases) = match mode.as_str() {
        "cli" => {
            let mut argv = vec!["build".to_string(), "--n".into(), c.n.to_string()];
            match c.clusters {
                Some(k) => argv.extend(["--clusters".into(), k.to_string()]),
                None => argv.push("--uniform".into()),
            }
            argv.extend([
                "--seed".into(),
                workload::DATA_SEED.to_string(),
                "--radius".into(),
                c.r_max.to_string(),
                "--shards".into(),
                c.shards.to_string(),
                "--out".into(),
                out.clone(),
            ]);
            let t0 = Instant::now();
            disc_cli::run(&argv).map_err(|e| format!("disc build: {e}"))?;
            (t0.elapsed().as_secs_f64(), String::new())
        }
        "pipeline" => pipeline(c, out)?,
        other => return Err(format!("unknown build mode {other:?}")),
    };
    let peak_rss_kib = vm_hwm_kib("self").unwrap_or(0);

    // Untimed: read back, digest, triage, and the storage order for the
    // traffic generator.
    let bytes = disc_store::read_snapshot(out).map_err(|e| format!("reading {out}: {e}"))?;
    let bytes = bytes.as_bytes();
    let digest = disc_store::fnv1a_64(bytes);
    let clean = disc_store::inspect(bytes).is_clean();
    let view = disc_store::load(bytes).map_err(|e| format!("load {out}: {e}"))?;
    let data = view
        .dataset()
        .map_err(|e| format!("dataset of {out}: {e}"))?;
    write_order(&data, &order_path(Path::new(out)))?;
    Ok(format!(
        "{{\"build_s\":{build_s},\"bytes\":{},\"digest\":\"{digest:016x}\",\"clean\":{clean},\
         \"peak_rss_kib\":{peak_rss_kib},\"n\":{},\"edges\":{}{phases}}}",
        bytes.len(),
        data.len(),
        // The snapshot stores each undirected edge in both rows.
        view.edge_count() / 2,
    ))
}

/// The pipeline build: `build_sharded_with` → `encode` → write, each
/// timed. Returns the total seconds and the phase fields of the JSON
/// line (each led by a comma).
fn pipeline(c: &Catalog, out: &str) -> Result<(f64, String), String> {
    let data = dataset(c);
    let config = ShardedBuildConfig {
        threads: WORKERS,
        ..ShardedBuildConfig::default()
    };
    let t0 = Instant::now();
    let built = build_sharded_with(&data, c.r_max, c.shards, config, None)
        .map_err(|e| format!("build_sharded_with: {e}"))?;
    let t1 = Instant::now();
    let bytes =
        disc_store::encode(&built.data, &built.graph).map_err(|e| format!("encode: {e}"))?;
    let t2 = Instant::now();
    std::fs::write(out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    let t3 = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    let s = &built.stats;
    let fields = format!(
        ",\"sharded_ms\":{},\"encode_ms\":{},\"write_ms\":{},\
         \"partition_ms\":{},\"renumber_ms\":{},\"tree_ms\":{},\"intra_join_ms\":{},\
         \"boundary_join_ms\":{},\"merge_ms\":{},\"assembly_ms\":{},\
         \"distance_computations\":{},\"node_accesses\":{},\"boundary_dc_share\":{}",
        ms(t0, t1),
        ms(t1, t2),
        ms(t2, t3),
        s.partition_ms,
        s.renumber_ms,
        s.tree_ms,
        s.intra_join_ms,
        s.boundary_join_ms,
        s.merge_ms,
        s.assembly_ms,
        s.distance_computations(),
        s.node_accesses,
        s.boundary_dc_share(),
    );
    Ok(((t3 - t0).as_secs_f64(), fields))
}
