//! discbench: the repository's end-to-end benchmark.
//!
//! ```text
//! discbench --disc <path to disc> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds the workload's catalog (a fixed number of times,
//! each in a child process), starts `disc serve` on the snapshot three
//! times, drives the last server through the workload's traffic
//! phases, checks every answer, and prints a report followed by one
//! JSON result line. With `--trace 1` it then replays the same request
//! sequence in-process, once untraced and once with spans, and reports
//! the per-layer metrics instead of the end-to-end ones. See
//! `README.md`.

mod build;
mod json;
mod replay;
mod serve;
mod stats;
mod trace;
mod traffic;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use build::BuildReport;
use serve::{Exchange, Log, Serve};
use stats::{mean, median, quantile};
use trace::Recorder;
use traffic::{Generator, Req, Verb};
use workload::{Workload, SERVE_STARTS, WORKERS};

/// Scratch directory, relative to the working directory (the checkout
/// root): snapshots, span files and the digest ledger.
const WORK_DIR: &str = ".discbench";

struct Args {
    disc: PathBuf,
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut disc = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--disc" => disc = Some(PathBuf::from(value)),
            "--workload" => {
                workload = Some(
                    workload::find(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        disc: disc.ok_or("--disc is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child-build") {
        std::process::exit(build::child_main(&args[1..]));
    }
    let code = match parse_args(&args) {
        Err(msg) => {
            eprintln!("discbench: {msg}");
            2
        }
        Ok(args) => match run(&args) {
            Ok(result) => result.finish(),
            Err(msg) => {
                eprintln!("discbench: {msg}");
                1
            }
        },
    };
    std::process::exit(code);
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Everything a run reports.
#[derive(Default)]
struct Outcome {
    header: String,
    attempted: u64,
    failed: u64,
    checks: Vec<(String, bool)>,
    metrics: Vec<Metric>,
    /// Printed in the report but not part of the JSON result.
    extra: Vec<Metric>,
    notes: Vec<String>,
}

impl Outcome {
    fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
        if !ok {
            self.failed += 1;
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// A metric over `values` (the median unless `q` says otherwise);
    /// a missing sample is a failed check, not a silent zero.
    fn dist(&mut self, name: &'static str, values: &[f64], q: f64, unit: &'static str) {
        match quantile(values, q) {
            Some(v) => self.metric(name, v, unit, values.len()),
            None => {
                self.check(format!("{name} has samples"), false);
                self.metric(name, 0.0, unit, 0);
            }
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Prints the report and the JSON line; returns the exit code.
    fn finish(self) -> i32 {
        println!("{}", self.header);
        println!(
            "  {:<30} {:>16}  {:<8} {:>8}",
            "metric", "value", "unit", "samples"
        );
        for m in self.metrics.iter().chain(&self.extra) {
            println!(
                "  {:<30} {:>16.4}  {:<8} {:>8}",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!("checks:");
        for (what, ok) in &self.checks {
            println!("  {} {what}", if *ok { "ok  " } else { "FAIL" });
        }
        for note in &self.notes {
            println!("note: {note}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(m.name),
                    json::number(m.value),
                    json::quote(m.unit)
                )
            })
            .collect();
        let correct = self.correct();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        if correct {
            0
        } else {
            1
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let work = Path::new(WORK_DIR);
    std::fs::create_dir_all(work).map_err(|e| format!("creating {WORK_DIR}: {e}"))?;
    let snapshot = work.join(format!("{}.snap", w.name));
    let mut out = Outcome {
        header: format!(
            "discbench workload={} seed={} seconds={} trace={}",
            w.name,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        ..Outcome::default()
    };
    let mut rec = Recorder::new(args.trace);

    let builds = build_phase(args, &snapshot, &mut out, &mut rec)?;

    // Open: `disc serve` start to `ready`, SERVE_STARTS times; the last
    // server carries the traffic.
    let mut ready = Vec::new();
    let mut server = None;
    for i in 0..SERVE_STARTS {
        out.attempted += 1;
        let serve = Serve::start(&args.disc, &snapshot, WORKERS)?;
        ready.push(serve.ready_s);
        if i + 1 < SERVE_STARTS {
            let tail = serve.quit()?;
            check_stats(&tail, 0, &mut out);
        } else {
            server = Some(serve);
        }
    }
    let mut serve = server.expect("SERVE_STARTS is at least 1");
    let n0 = serve.n0;

    let points = build::dataset(&w.catalog).flat_coords().to_vec();
    let order = build::read_order(&snapshot)?;
    let mut gen = Generator::new(args.seed, points, order, w.catalog.r_max);
    let mut log = serve::drive(&mut serve, &mut gen, w.phases, args.seconds)?;
    let serve_rss_kib = serve.peak_rss_kib();
    let census = serve::census(&mut serve, &mut log)?;
    let tail = serve.quit()?;
    out.attempted += log.exchanges.len() as u64;
    let final_stats = check_traffic(w, n0, &log, census, &tail, &mut out);

    // Reads answered before the first mutation was sent saw the catalog
    // exactly as built: their hashes must equal the in-process runners'.
    let first_mutation = log
        .exchanges
        .iter()
        .position(|x| matches!(x.req, Req::Insert(_) | Req::Delete(_)))
        .unwrap_or(log.exchanges.len());
    let pristine: Vec<&Exchange> = log.exchanges[..first_mutation].iter().collect();

    if args.trace {
        traced(
            args,
            &snapshot,
            &builds,
            &log,
            &pristine,
            final_stats,
            &mut rec,
            &mut out,
        )?;
        let spans = work.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
        rec.write(&spans)
            .map_err(|e| format!("writing {}: {e}", spans.display()))?;
        out.notes.push(format!(
            "{} spans written to {}",
            rec.spans().len(),
            spans.display()
        ));
    } else {
        if !pristine.is_empty() {
            let reads: Vec<Req> = pristine.iter().map(|x| x.req.clone()).collect();
            let expected = replay::oracle_hashes(&snapshot, &reads)?;
            let wrong = pristine
                .iter()
                .zip(&expected)
                .filter(|(x, want)| json::hashes(&x.reply) != **want)
                .count();
            out.failed += wrong as u64;
            out.check(
                format!(
                    "{} read hashes equal the in-process runners' ({wrong} differ)",
                    pristine.len()
                ),
                wrong == 0,
            );
        }
        end_to_end(w, &builds, &ready, serve_rss_kib, &log, &mut out);
    }
    let _ = std::fs::remove_file(&snapshot);
    let _ = std::fs::remove_file(build::order_path(&snapshot));
    Ok(out)
}

/// Builds the workload's catalog `builds` times, each in a child
/// process (through `disc build`, or in a traced run through the
/// pipeline that reports its phases), and checks every snapshot.
fn build_phase(
    args: &Args,
    snapshot: &Path,
    out: &mut Outcome,
    rec: &mut Recorder,
) -> Result<Vec<BuildReport>, String> {
    let w = args.workload;
    let mut builds: Vec<BuildReport> = Vec::new();
    for _ in 0..w.builds {
        out.attempted += 1;
        let t = Instant::now();
        let root = rec.begin("build", 0);
        let b = build::run_child(w.name, snapshot, args.trace)?;
        if let Some(p) = &b.phases {
            // The child timed its steps back to back from its own start.
            let at = |ms: f64| t + std::time::Duration::from_secs_f64(ms / 1e3);
            rec.add("core.build_sharded_with", t, p.sharded_ms);
            rec.add("store.encode", at(p.sharded_ms), p.encode_ms);
            rec.add("store.write", at(p.sharded_ms + p.encode_ms), p.write_ms);
        }
        rec.end(root);
        builds.push(b);
    }
    let first = builds[0].digest;
    out.check(
        format!(
            "every build of seed {} in this run wrote the identical snapshot ({} built)",
            args.seed,
            builds.len()
        ),
        builds.iter().all(|b| b.digest == first),
    );
    out.check(
        format!("every build holds the catalog's {} objects", w.catalog.n),
        builds.iter().all(|b| b.n == w.catalog.n as u64),
    );
    out.check(
        "disc_store::inspect reports every snapshot clean",
        builds.iter().all(|b| b.clean),
    );
    out.check(
        "snapshot length equals the bytes written",
        std::fs::metadata(snapshot).map(|m| m.len()).ok() == Some(builds[0].bytes),
    );
    let ledger = Path::new(WORK_DIR).join("digests.txt");
    let key = format!("{} {}", w.name, args.seed);
    let known = std::fs::read_to_string(&ledger).unwrap_or_default();
    match known
        .lines()
        .find_map(|l| l.strip_prefix(&key)?.strip_prefix(' '))
    {
        Some(earlier) => out.check(
            format!(
                "snapshot digest equals the earlier run's for seed {}",
                args.seed
            ),
            earlier == format!("{first:016x}"),
        ),
        None => {
            let line = format!("{known}{key} {first:016x}\n");
            std::fs::write(&ledger, line)
                .map_err(|e| format!("writing {}: {e}", ledger.display()))?;
        }
    }
    Ok(builds)
}

/// Parses the final `stats` line among `tail`, checks the counter
/// identities and that `submitted` equals what was sent.
fn check_stats(tail: &[String], sent: u64, out: &mut Outcome) -> Option<String> {
    let stats = tail
        .iter()
        .rev()
        .find(|l| json::field(l, "op") == Some("stats"))
        .cloned();
    let Some(line) = stats else {
        out.check("disc serve printed its final stats line", false);
        return None;
    };
    let c = |k: &str| json::int(&line, k).unwrap_or(u64::MAX / 4);
    let consistent = c("submitted") == c("admitted") + c("degraded") + c("shed")
        && c("admitted") == c("completed") + c("cancelled") + c("panicked") + c("failed");
    out.check(
        format!(
            "final stats: submitted == admitted + degraded + shed, admitted == completed + cancelled + panicked + failed, submitted == {sent} sent"
        ),
        consistent && c("submitted") == sent,
    );
    Some(line)
}

/// The serve-pass correctness gate; returns the final stats line.
fn check_traffic(
    w: &Workload,
    n0: u64,
    log: &Log,
    census: Option<u64>,
    tail: &[String],
    out: &mut Outcome,
) -> Option<String> {
    let bad: Vec<&Exchange> = log.exchanges.iter().filter(|x| !x.ok()).collect();
    out.failed += (bad.len() + log.stray.len()) as u64;
    out.check(
        format!(
            "every reply is ok ({} not ok, {} unmatched lines)",
            bad.len(),
            log.stray.len()
        ),
        bad.is_empty() && log.stray.is_empty(),
    );
    for x in bad.iter().take(3) {
        out.notes
            .push(format!("not ok: {} -> {}", x.req.line(x.id), x.reply));
    }
    let stats = check_stats(tail, log.exchanges.len() as u64, out);

    let count = |v: Verb| log.exchanges.iter().filter(|x| x.req.verb() == v).count() as u64;
    // The census insert itself is counted among the inserts, and its
    // reply reports the count after it.
    let expected = n0 + count(Verb::Insert) - count(Verb::Delete);
    out.check(
        format!("final n {census:?} equals initial {n0} + inserts - deletes = {expected}"),
        census == Some(expected),
    );
    let mut externals: Vec<u64> = log
        .exchanges
        .iter()
        .filter(|x| x.req.verb() == Verb::Insert)
        .filter_map(|x| json::int(&x.reply, "external"))
        .collect();
    externals.sort_unstable();
    let inserted = externals.len();
    externals.dedup();
    out.check(
        "inserts got distinct, never-used external ids",
        externals.len() == inserted && externals.first().is_none_or(|&e| e >= n0),
    );
    let echoed = log.exchanges.iter().all(|x| match x.req {
        Req::Delete(ext) => json::int(&x.reply, "external") == Some(ext),
        _ => true,
    });
    out.check("every delete reply names the deleted id", echoed);
    for &p in &log.fell_behind {
        out.check(
            format!(
                "open-loop generator kept its schedule in phase {}",
                w.phases[p].name
            ),
            false,
        );
    }
    if log.fell_behind.is_empty() {
        out.check(
            "open-loop generator never fell a send interval behind",
            true,
        );
    }
    stats
}

/// Latencies (ms) of the open-loop requests of verb `v`.
fn latencies(w: &Workload, log: &Log, v: Verb) -> Vec<f64> {
    log.exchanges
        .iter()
        .filter(|x| x.req.verb() == v)
        .filter(|x| {
            x.phase
                .is_some_and(|p| matches!(w.phases[p].kind, workload::Loop::Open { .. }))
        })
        .filter_map(Exchange::latency_ms)
        .collect()
}

fn end_to_end(
    w: &Workload,
    builds: &[BuildReport],
    ready: &[f64],
    serve_rss_kib: Option<u64>,
    log: &Log,
    out: &mut Outcome,
) {
    let mib = |kib: u64| kib as f64 / 1024.0;
    out.dist("setup_s", ready, 0.5, "s");
    let col = |f: fn(&BuildReport) -> f64| builds.iter().map(f).collect::<Vec<f64>>();
    out.dist("build_s", &col(|b| b.build_s), 0.5, "s");
    out.dist(
        "build_peak_rss_mib",
        &col(|b| b.peak_rss_kib as f64 / 1024.0),
        0.5,
        "MiB",
    );
    out.metric(
        "snapshot_mib",
        builds[0].bytes as f64 / (1u64 << 20) as f64,
        "MiB",
        builds.len(),
    );
    match serve_rss_kib {
        Some(kib) => out.metric("serve_rss_mib", mib(kib), "MiB", 1),
        None => {
            out.check("serve peak RSS readable", false);
            out.metric("serve_rss_mib", 0.0, "MiB", 0);
        }
    }
    // p90 is printed with its sample count but not part of the result:
    // a run yields tens of samples per verb, not the hundreds a steady
    // p90 needs.
    for (verb, p50, p90) in [
        (Verb::Zoom, "zoom_p50_ms", "zoom_p90_ms"),
        (Verb::Sweep, "sweep_p50_ms", "sweep_p90_ms"),
        (Verb::Insert, "insert_p50_ms", "insert_p90_ms"),
        (Verb::Delete, "delete_p50_ms", "delete_p90_ms"),
    ] {
        let lat = latencies(w, log, verb);
        out.dist(p50, &lat, 0.5, "ms");
        if let Some(v) = quantile(&lat, 0.9) {
            out.extra.push(Metric {
                name: p90,
                value: v,
                unit: "ms",
                samples: lat.len(),
            });
        }
    }
    let (done, secs) = log
        .closed
        .iter()
        .fold((0usize, 0.0f64), |(d, s), &(_, n, t)| (d + n, s + t));
    if secs > 0.0 {
        out.metric("capacity_rps", done as f64 / secs, "req/s", done);
    } else {
        out.check("a closed-loop phase completed requests", false);
        out.metric("capacity_rps", 0.0, "req/s", 0);
    }
    let attempted = out.attempted.max(1);
    out.extra.push(Metric {
        name: "error_rate",
        value: out.failed as f64 / attempted as f64,
        unit: "ratio",
        samples: attempted as usize,
    });
    let hits = log
        .exchanges
        .iter()
        .filter(|x| x.phase.is_some() && x.req.verb() == Verb::Zoom)
        .map(|x| f64::from(u8::from(json::field(&x.reply, "cached") == Some("true"))))
        .collect::<Vec<f64>>();
    if let Some(ratio) = mean(&hits) {
        out.notes.push(format!(
            "zoom cache hit ratio {ratio:.3} over {} timed zooms",
            hits.len()
        ));
    }
    let hit_latencies: Vec<f64> = log
        .exchanges
        .iter()
        .filter(|x| json::field(&x.reply, "cached") == Some("true"))
        .filter(|x| {
            x.phase
                .is_some_and(|p| matches!(w.phases[p].kind, workload::Loop::Open { .. }))
        })
        .filter_map(Exchange::latency_ms)
        .collect();
    if let Some(p50) = median(&hit_latencies) {
        out.notes.push(format!(
            "open-loop cache hits: {} with median latency {p50:.3} ms",
            hit_latencies.len()
        ));
    }
    let lags: Vec<f64> = log
        .exchanges
        .iter()
        .filter(|x| {
            x.phase
                .is_some_and(|p| matches!(w.phases[p].kind, workload::Loop::Open { .. }))
        })
        .map(Exchange::lag_ms)
        .collect();
    if let (Some(p50), Some(max)) = (median(&lags), quantile(&lags, 1.0)) {
        out.notes.push(format!(
            "open-loop send lag: median {p50:.3} ms, max {max:.3} ms"
        ));
    }
}

/// The traced run: untraced then traced in-process replay of the same
/// sequence, and every per-layer metric.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    snapshot: &Path,
    builds: &[BuildReport],
    log: &Log,
    pristine: &[&Exchange],
    final_stats: Option<String>,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let w = args.workload;
    // The server runs with the default cache; so does the replay.
    let cache = disc_cli::ServeConfig::default().cache;
    // Replay what the server answered, in the order it was sent.
    let reqs: Vec<(u64, Req)> = log
        .exchanges
        .iter()
        .map(|x| (x.id, x.req.clone()))
        .collect();

    let untraced = {
        let mut off = Recorder::new(false);
        let state = replay::open(snapshot, &mut off)?;
        replay::replay(&state, cache, &reqs, &mut off)?
    };
    let state = replay::open(snapshot, rec)?;
    let done = replay::replay(&state, cache, &reqs, rec)?;
    drop(state);

    let wrong = pristine
        .iter()
        .enumerate()
        .filter(|(i, x)| json::hashes(&x.reply) != done.hashes[*i])
        .count();
    out.failed += wrong as u64;
    out.check(
        format!(
            "{} read hashes equal the in-process replay's ({wrong} differ)",
            pristine.len()
        ),
        wrong == 0,
    );
    out.check(
        format!(
            "every insert computed exactly live-n distances ({} did not)",
            done.insert_dc_mismatches
        ),
        done.insert_dc_mismatches == 0,
    );

    let spans = |name: &str| rec.durations(name);
    out.dist("graph.view_ms", &spans("graph.view"), 0.5, "ms");
    out.dist("graph.convert_ms", &spans("graph.convert"), 0.5, "ms");
    out.dist("graph.convert_edges", &done.convert_edges, 0.5, "count");
    out.dist("core.greedy_ms", &spans("core.greedy"), 0.5, "ms");
    out.dist("core.zoom_in_ms", &spans("core.zoom_in"), 0.5, "ms");
    out.dist("core.solution_size", &done.solution_sizes, 0.5, "count");
    out.dist("graph.insert_ms", &spans("graph.insert"), 0.5, "ms");
    out.dist("graph.delete_ms", &spans("graph.delete"), 0.5, "ms");
    out.dist("graph.insert_dc", &done.insert_dc, 0.5, "count");
    out.dist("core.repair_ms", &spans("core.repair"), 0.5, "ms");
    out.dist("core.bootstrap_ms", &spans("core.bootstrap"), 0.5, "ms");

    let stat = |k: &str| {
        final_stats
            .as_deref()
            .and_then(|l| json::int(l, k))
            .unwrap_or(0) as f64
    };
    out.metric("core.drift", stat("drift"), "count", 1);
    let timed_zooms: Vec<&Exchange> = log
        .exchanges
        .iter()
        .filter(|x| x.phase.is_some() && x.req.verb() == Verb::Zoom)
        .collect();
    let hits = timed_zooms
        .iter()
        .filter(|x| json::field(&x.reply, "cached") == Some("true"))
        .count();
    out.metric(
        "cli.cache_hit_ratio",
        hits as f64 / timed_zooms.len().max(1) as f64,
        "ratio",
        timed_zooms.len(),
    );
    out.dist("cli.invalidate_ms", &spans("cli.invalidate"), 0.5, "ms");
    let invalidated: Vec<f64> = log
        .exchanges
        .iter()
        .filter(|x| matches!(x.req.verb(), Verb::Insert | Verb::Delete))
        .filter_map(|x| json::num(&x.reply, "invalidated"))
        .collect();
    let per_mutation = mean(&invalidated).unwrap_or(0.0);
    out.metric(
        "cli.invalidated_per_mutation",
        per_mutation,
        "count",
        invalidated.len(),
    );
    out.dist("cli.hash_ms", &spans("cli.hash"), 0.5, "ms");
    out.metric("cli.shed", stat("shed"), "count", 1);
    out.metric("cli.degraded", stat("degraded"), "count", 1);
    out.metric("cli.cancelled", stat("cancelled"), "count", 1);

    // Residual: end-to-end latency minus the request's replayed service
    // time — what queueing, lock waits and the protocol added.
    let service: BTreeMap<u64, f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| (s.req, s.ms()))
        .collect();
    let residual: Vec<f64> = log
        .exchanges
        .iter()
        .filter(|x| {
            x.phase
                .is_some_and(|p| matches!(w.phases[p].kind, workload::Loop::Open { .. }))
        })
        .filter_map(|x| Some(x.latency_ms()? - service.get(&x.id)?))
        .collect();
    out.dist("cli.residual_ms", &residual, 0.5, "ms");

    out.dist("store.read_ms", &spans("store.read"), 0.5, "ms");
    out.dist("store.load_ms", &spans("store.load"), 0.5, "ms");
    out.dist(
        "store.materialize_ms",
        &spans("store.materialize"),
        0.5,
        "ms",
    );
    // A traced run builds through the pipeline, which reports phases.
    let phases: Vec<&build::Phases> = builds.iter().filter_map(|b| b.phases.as_ref()).collect();
    if phases.len() != builds.len() {
        return Err("a traced build reported no phases".into());
    }
    let col = |f: fn(&build::Phases) -> f64| phases.iter().map(|p| f(p)).collect::<Vec<f64>>();
    out.dist("store.encode_ms", &col(|b| b.encode_ms), 0.5, "ms");
    out.dist("store.write_ms", &col(|b| b.write_ms), 0.5, "ms");
    out.metric("store.bytes", builds[0].bytes as f64, "bytes", builds.len());
    out.dist("mtree.partition_ms", &col(|b| b.partition_ms), 0.5, "ms");
    out.dist("mtree.tree_ms", &col(|b| b.tree_ms), 0.5, "ms");
    out.dist("mtree.intra_join_ms", &col(|b| b.intra_join_ms), 0.5, "ms");
    out.dist(
        "mtree.boundary_join_ms",
        &col(|b| b.boundary_join_ms),
        0.5,
        "ms",
    );
    out.dist(
        "mtree.distance_computations",
        &col(|b| b.distance_computations as f64),
        0.5,
        "count",
    );
    out.dist(
        "mtree.node_accesses",
        &col(|b| b.node_accesses as f64),
        0.5,
        "count",
    );
    out.dist(
        "mtree.boundary_dc_share",
        &col(|b| b.boundary_dc_share),
        0.5,
        "ratio",
    );
    out.dist("graph.merge_ms", &col(|b| b.merge_ms), 0.5, "ms");
    let ns_per_edge: Vec<f64> = phases
        .iter()
        .zip(builds)
        .map(|(p, b)| p.merge_ms * 1e6 / (b.edges.max(1) as f64))
        .collect();
    out.dist("graph.merge_ns_per_edge", &ns_per_edge, 0.5, "ns/edge");
    out.dist("graph.assembly_ms", &col(|b| b.assembly_ms), 0.5, "ms");
    out.metric("graph.edges", builds[0].edges as f64, "count", builds.len());
    let residual_build = col(|b| {
        b.sharded_ms
            - (b.partition_ms
                + b.renumber_ms
                + b.tree_ms
                + b.intra_join_ms
                + b.boundary_join_ms
                + b.merge_ms
                + b.assembly_ms)
    });
    out.dist("core.build_residual_ms", &residual_build, 0.5, "ms");

    let lags: Vec<f64> = log
        .exchanges
        .iter()
        .filter(|x| {
            x.phase
                .is_some_and(|p| matches!(w.phases[p].kind, workload::Loop::Open { .. }))
        })
        .map(Exchange::lag_ms)
        .collect();
    out.dist("loadgen.lag_ms", &lags, 1.0, "ms");
    out.metric(
        "trace.overhead",
        done.total_s / untraced.total_s - 1.0,
        "ratio",
        reqs.len(),
    );
    out.notes.push(format!(
        "replay of {} requests: untraced {:.3} s, traced {:.3} s",
        reqs.len(),
        untraced.total_s,
        done.total_s
    ));
    Ok(())
}
