//! A `disc serve` child process and the load generator that drives it.
//!
//! The harness uses two threads here: the calling thread sends (on the
//! open-loop schedule, or on each completion in a closed loop) and one
//! reader thread timestamps every stdout line as it arrives.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::build::vm_hwm_kib;
use crate::json;
use crate::traffic::{Generator, Req};
use crate::workload::{Loop, Phase};

/// How long any single reply may take before the run is abandoned.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One stdout line with its arrival time.
struct Line {
    at: Instant,
    text: String,
}

/// A running `disc serve`; killed and reaped on drop if not quit.
pub struct Serve {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<Line>,
    reader: Option<JoinHandle<()>>,
    /// Seconds from spawn to the `ready` banner.
    pub ready_s: f64,
    /// The banner's live object count.
    pub n0: u64,
}

impl Serve {
    /// Spawns `disc serve` on `snapshot` (default queue and cache) and
    /// waits for its `ready` line.
    pub fn start(disc: &Path, snapshot: &Path, workers: usize) -> Result<Self, String> {
        let t0 = Instant::now();
        let mut child = Command::new(disc)
            .arg("serve")
            .arg("--snapshot")
            .arg(snapshot)
            .arg("--workers")
            .arg(workers.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", disc.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for text in BufReader::new(stdout).lines() {
                let Ok(text) = text else { break };
                if tx
                    .send(Line {
                        at: Instant::now(),
                        text,
                    })
                    .is_err()
                {
                    break;
                }
            }
        });
        let mut serve = Self {
            stdin: child.stdin.take(),
            child,
            lines,
            reader: Some(reader),
            ready_s: 0.0,
            n0: 0,
        };
        let banner = serve.recv()?;
        if json::field(&banner.text, "op") != Some("ready") {
            return Err(format!("disc serve did not start: {}", banner.text));
        }
        serve.ready_s = (banner.at - t0).as_secs_f64();
        serve.n0 = json::int(&banner.text, "n").ok_or("ready banner without n")?;
        Ok(serve)
    }

    fn send_line(&mut self, line: &str) -> Result<Instant, String> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or("disc serve stdin already closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to disc serve: {e}"))?;
        Ok(Instant::now())
    }

    fn recv(&self) -> Result<Line, String> {
        match self.lines.recv_timeout(REPLY_TIMEOUT) {
            Ok(line) => Ok(line),
            Err(RecvTimeoutError::Timeout) => Err("disc serve stopped replying".into()),
            Err(RecvTimeoutError::Disconnected) => Err("disc serve exited early".into()),
        }
    }

    /// VmHWM of the server so far, KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        vm_hwm_kib(&self.child.id().to_string())
    }

    /// Sends `quit`, waits for exit, and returns every line printed
    /// after it (the final `stats` line among them).
    pub fn quit(mut self) -> Result<Vec<String>, String> {
        self.send_line("quit")?;
        self.stdin = None;
        let mut rest = Vec::new();
        while let Ok(line) = self.recv() {
            rest.push(line.text);
        }
        if let Some(reader) = self.reader.take() {
            reader.join().map_err(|_| "reply reader panicked")?;
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for disc serve: {e}"))?;
        if !status.success() {
            return Err(format!("disc serve exited with {status}"));
        }
        Ok(rest)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.stdin = None;
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One request as sent and answered.
#[derive(Clone, Debug)]
pub struct Exchange {
    pub id: u64,
    pub req: Req,
    /// Index into the workload's phases; `None` for warm-up and census
    /// requests, which are not timed.
    pub phase: Option<usize>,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Instant,
    pub sent: Instant,
    pub done: Option<Instant>,
    pub reply: String,
}

impl Exchange {
    /// Latency from the due time to the reply, ms.
    pub fn latency_ms(&self) -> Option<f64> {
        Some((self.done? - self.due).as_secs_f64() * 1e3)
    }

    /// How late the generator sent, ms.
    pub fn lag_ms(&self) -> f64 {
        (self.sent - self.due).as_secs_f64() * 1e3
    }

    pub fn ok(&self) -> bool {
        json::field(&self.reply, "status") == Some("ok")
    }
}

/// Everything a traffic session produced.
#[derive(Default)]
pub struct Log {
    pub exchanges: Vec<Exchange>,
    /// Lines that answered no request (protocol parse errors).
    pub stray: Vec<String>,
    /// Closed-loop phases: (phase index, completions, seconds).
    pub closed: Vec<(usize, usize, f64)>,
    /// Open-loop phases whose generator fell more than one send
    /// interval behind its schedule.
    pub fell_behind: Vec<usize>,
}

/// Drives `serve` through the workload's phases with requests from
/// `gen`, warming lazy set-up (the first mutation's cover bootstrap)
/// untimed before the phase that needs it.
pub fn drive(
    serve: &mut Serve,
    gen: &mut Generator,
    phases: &[Phase],
    seconds: f64,
) -> Result<Log, String> {
    let mut session = Session {
        serve,
        log: Log::default(),
        outstanding: 0,
    };
    let mut mutated = false;
    for (p, phase) in phases.iter().enumerate() {
        if phase.mix.mutates() && !mutated {
            // Insert at a corner well away from the catalog's mass.
            session.send(Req::Insert([0.999, 0.001]), None, Instant::now())?;
            session.wait_all()?;
        }
        mutated |= phase.mix.mutates();
        let duration = Duration::from_secs_f64(seconds * phase.share);
        match phase.kind {
            Loop::Open { rate } => {
                let count = (duration.as_secs_f64() * rate).floor().max(1.0) as u32;
                let interval = Duration::from_secs_f64(1.0 / rate);
                let start = Instant::now() + Duration::from_millis(20);
                let mut worst = Duration::ZERO;
                for k in 0..count {
                    let due = start + interval * k;
                    wait_until(due);
                    let sent = session.send(gen.next(&phase.mix), Some(p), due)?;
                    worst = worst.max(sent.saturating_duration_since(due));
                    session.collect_ready();
                }
                session.wait_all()?;
                if worst > interval {
                    session.log.fell_behind.push(p);
                }
            }
            Loop::Closed { inflight } => {
                let start = Instant::now();
                let end = start + duration;
                for _ in 0..inflight {
                    session.send(gen.next(&phase.mix), Some(p), Instant::now())?;
                }
                let mut completed = 0usize;
                let mut last = start;
                while session.outstanding > 0 {
                    let at = session.collect_one()?;
                    completed += 1;
                    last = at;
                    if at < end {
                        session.send(gen.next(&phase.mix), Some(p), Instant::now())?;
                    }
                }
                session
                    .log
                    .closed
                    .push((p, completed, (last - start).as_secs_f64()));
            }
        }
    }
    Ok(session.log)
}

/// Sleeps until shortly before `due`, then spins to it, so a send
/// leaves within microseconds of its schedule rather than a timer
/// wake-up late.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// A census: one insert sent alone after all traffic, whose reply `n`
/// is the live count before it plus one.
pub fn census(serve: &mut Serve, log: &mut Log) -> Result<Option<u64>, String> {
    let mut session = Session {
        serve,
        log: std::mem::take(log),
        outstanding: 0,
    };
    session.send(Req::Insert([0.001, 0.999]), None, Instant::now())?;
    session.wait_all()?;
    *log = session.log;
    let last = log.exchanges.last().expect("the census was just logged");
    Ok(if last.ok() {
        json::int(&last.reply, "n")
    } else {
        None
    })
}

struct Session<'a> {
    serve: &'a mut Serve,
    log: Log,
    outstanding: usize,
}

impl Session<'_> {
    fn send(&mut self, req: Req, phase: Option<usize>, due: Instant) -> Result<Instant, String> {
        let id = self.log.exchanges.len() as u64 + 1;
        let sent = self.serve.send_line(&req.line(id))?;
        self.log.exchanges.push(Exchange {
            id,
            req,
            phase,
            due,
            sent,
            done: None,
            reply: String::new(),
        });
        self.outstanding += 1;
        Ok(sent)
    }

    fn record(&mut self, line: Line) -> bool {
        let slot = json::int(&line.text, "id")
            .and_then(|id| id.checked_sub(1))
            .and_then(|i| self.log.exchanges.get_mut(i as usize))
            .filter(|x| x.done.is_none());
        match slot {
            Some(x) => {
                x.done = Some(line.at);
                x.reply = line.text;
                self.outstanding -= 1;
                true
            }
            None => {
                self.log.stray.push(line.text);
                false
            }
        }
    }

    /// Blocks for the next reply; returns its arrival time.
    fn collect_one(&mut self) -> Result<Instant, String> {
        loop {
            let line = self.serve.recv()?;
            let at = line.at;
            if self.record(line) {
                return Ok(at);
            }
        }
    }

    /// Records whatever replies already arrived, without blocking.
    fn collect_ready(&mut self) {
        while let Ok(line) = self.serve.lines.try_recv() {
            self.record(line);
        }
    }

    fn wait_all(&mut self) -> Result<(), String> {
        while self.outstanding > 0 {
            self.collect_one()?;
        }
        Ok(())
    }
}
