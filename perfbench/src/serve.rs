//! `serve-replay`: a seeded, closed-loop request stream against an
//! in-process `tlb-serve` daemon on loopback.
//!
//! Most requests resubmit one of a few policy-matrix scenarios that set-up
//! pre-warmed, so they are pure cache reads; the rest are fresh two-point
//! scenarios that run `run_point` and write the cache. One client thread
//! sends a request and waits for its report before sending the next.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tlb_json::Value;
use tlb_rng::Rng;
use tlb_serve::{ExecutorConfig, Server};
use tlb_sweep::{run_point, run_sweep, Scenario, SweepOptions};

use crate::sim::POLICIES;
use crate::stats::{Calibrator, Piece};

/// Problem size of the replay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeSize {
    /// Distinct pre-warmed scenarios.
    pub warm_scenarios: usize,
    /// Nodes of every served scenario (`ideal` machine, 16 cores each).
    pub nodes: usize,
    /// Requests per timed batch (`requests_per_s` is taken per batch).
    pub batch: usize,
    /// Share of requests that are fresh scenarios.
    pub cold_share: f64,
    /// Daemon start-ups (each with its own pre-warm) `setup_s` is the
    /// median of.
    pub setups: usize,
}

impl ServeSize {
    /// The size the benchmark measures.
    pub const FULL: ServeSize = ServeSize {
        warm_scenarios: 4,
        nodes: 2,
        batch: 100,
        cold_share: 0.1,
        setups: 5,
    };

    /// A reduced size for the benchmark's own tests.
    pub const SMALL: ServeSize = ServeSize {
        warm_scenarios: 1,
        nodes: 2,
        batch: 10,
        cold_share: 0.2,
        setups: 1,
    };
}

/// A pre-warmed scenario: a policy × degree × appranks-per-node matrix
/// (24 points).
pub fn warm_scenario(size: &ServeSize, seed: u64, k: usize) -> Value {
    let policies: Vec<Value> = POLICIES.iter().map(|&p| p.into()).collect();
    scenario_json(
        &format!("warm-{k}"),
        size.nodes,
        2,
        Value::object(vec![
            ("appranks_per_node", vec![1usize, 2].into()),
            ("degree", vec![1usize, 2].into()),
            ("policy", Value::Array(policies)),
            ("seed", vec![seed_for(seed, "warm", k as u64)].into()),
        ]),
    )
}

/// A fresh scenario: two degrees of the global policy under a seed no
/// other request of the stream uses, one iteration each.
pub fn cold_scenario(size: &ServeSize, seed: u64, request: u64) -> Value {
    scenario_json(
        &format!("cold-{request}"),
        size.nodes,
        1,
        Value::object(vec![
            ("degree", vec![1usize, 2].into()),
            ("policy", vec!["lewi+drom-global"].into()),
            ("seed", vec![seed_for(seed, "cold", request)].into()),
        ]),
    )
}

fn scenario_json(name: &str, nodes: usize, iterations: usize, axes: Value) -> Value {
    Value::object(vec![
        ("schema_version", 1u64.into()),
        ("name", name.into()),
        ("app", "synthetic".into()),
        ("machine", "ideal".into()),
        ("nodes", nodes.into()),
        ("iterations", iterations.into()),
        ("imbalance", 2.0.into()),
        ("axes", axes),
    ])
}

fn seed_for(seed: u64, label: &str, i: u64) -> u64 {
    Rng::seed_from_u64(seed)
        .split(label)
        .split_u64(i)
        .next_u64()
        >> 1
}

/// Request `i` of the stream: `None` for a fresh scenario, else the
/// index of the pre-warmed scenario it resubmits.
pub fn request_kind(size: &ServeSize, seed: u64, i: u64) -> Option<usize> {
    let mut rng = Rng::seed_from_u64(seed).split("stream").split_u64(i);
    if rng.chance(size.cold_share) {
        None
    } else {
        Some(rng.u64_below(size.warm_scenarios as u64) as usize)
    }
}

/// The line a request is sent as.
pub fn request_line(scenario: &Value) -> String {
    let mut line = Value::object(vec![
        ("cmd", "sweep".into()),
        ("scenario", scenario.clone()),
    ])
    .to_string_compact();
    line.push('\n');
    line
}

/// A running daemon with its cache directory, removed on drop.
pub struct Daemon {
    server: Option<Server>,
    dir: PathBuf,
}

impl Daemon {
    /// Start a daemon with one pool thread and an empty cache in `dir`.
    pub fn start(dir: PathBuf) -> io::Result<Daemon> {
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(
            "127.0.0.1:0",
            ExecutorConfig {
                jobs: 1,
                queue_bound: 1024,
                cache_dir: Some(dir.clone()),
            },
        )?;
        Ok(Daemon {
            server: Some(server),
            dir,
        })
    }

    /// Open a client connection.
    pub fn connect(&self) -> io::Result<Conn> {
        let addr = self.server.as_ref().expect("running").local_addr();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// The daemon's `serve.*` counters.
    pub fn counters(&self) -> Value {
        self.server
            .as_ref()
            .expect("running")
            .executor()
            .stats()
            .counters
            .get("counters")
            .clone()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A raw protocol connection: the benchmark reads reply lines itself so
/// that it can time the ack and compare report bytes.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

/// What one sweep request returned.
pub struct Reply {
    /// Host seconds from sending the request to reading the ack.
    pub ack_s: f64,
    /// Host seconds from sending the request to reading the report.
    pub total_s: f64,
    /// The ack line, and after it every `point` line (without newlines).
    pub lines: Vec<String>,
    /// The final line: the report, or a `shed` or `error` reply.
    pub last: String,
}

impl Conn {
    /// Send one request line and read its reply lines. With `keep` the
    /// ack and point lines are returned too.
    pub fn sweep(&mut self, request: &str, keep: bool) -> io::Result<Reply> {
        let t = Instant::now();
        self.writer.write_all(request.as_bytes())?;
        let mut lines = Vec::new();
        let mut ack_s = 0.0;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
            let line = self.line.trim_end();
            if line.starts_with(r#"{"type":"ack""#) {
                ack_s = t.elapsed().as_secs_f64();
            } else if !line.starts_with(r#"{"type":"point""#) {
                return Ok(Reply {
                    ack_s,
                    total_s: t.elapsed().as_secs_f64(),
                    lines,
                    last: line.to_string(),
                });
            }
            if keep {
                lines.push(line.to_string());
            }
        }
    }
}

/// Start a daemon and pre-warm it with every warm scenario. Returns the
/// daemon, the report line each warm scenario was answered with, and the
/// host seconds of the start and of each pre-warm request, each with the
/// calibration ticket of the reference-kernel run that follows it.
pub fn start_warm(
    dir: PathBuf,
    warm: &[Value],
    calib: &mut Calibrator,
) -> io::Result<(Daemon, Vec<String>, Vec<Piece>)> {
    let t = Instant::now();
    let daemon = Daemon::start(dir)?;
    let mut conn = daemon.connect()?;
    let mut pieces = vec![(t.elapsed().as_secs_f64(), calib.mark())];
    let mut reports = Vec::new();
    for sc in warm {
        let t = Instant::now();
        reports.push(conn.sweep(&request_line(sc), false)?.last);
        pieces.push((t.elapsed().as_secs_f64(), calib.mark()));
    }
    Ok((daemon, reports, pieces))
}

/// The report line an offline `run_sweep` of `scenario` gives, as the
/// daemon would send it.
pub fn offline_report_line(scenario: &Value) -> Result<String, String> {
    let sc = Scenario::from_json(scenario).map_err(|e| e.to_string())?;
    let out = run_sweep(&sc, &SweepOptions::default()).map_err(|e| e.to_string())?;
    Ok(tlb_serve::protocol::report_reply(&out.report).to_string_compact())
}

/// Check a fresh request's streamed point records against direct
/// `run_point` calls. Returns the number of points checked and failed.
pub fn check_cold(scenario: &Value, reply: &Reply) -> (u64, u64) {
    let Ok(sc) = Scenario::from_json(scenario) else {
        return (1, 1);
    };
    let points = sc.expand();
    let mut failed = 0;
    let mut seen = vec![false; points.len()];
    for line in reply.lines.iter().skip(1) {
        let Ok(v) = tlb_json::parse(line) else {
            failed += 1;
            continue;
        };
        let Some(i) = v.get("index").as_usize().filter(|&i| i < points.len()) else {
            failed += 1;
            continue;
        };
        seen[i] = true;
        match run_point(&sc, &points[i]) {
            Ok(record) if &record == v.get("record") => {}
            _ => failed += 1,
        }
    }
    failed += seen.iter().filter(|s| !**s).count() as u64;
    (points.len() as u64, failed)
}

/// Where scratch cache directories live, relative to the working
/// directory.
pub const SCRATCH_ROOT: &str = ".perfbench-tmp";

/// A scratch cache directory of this process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    Path::new(SCRATCH_ROOT).join(format!("{}-{tag}", std::process::id()))
}

/// A pre-warmed daemon, a client connection and the expected replies.
pub struct Session {
    seed: u64,
    size: ServeSize,
    // Declared before `daemon`: the connection closes before the daemon
    // drains, so its handler thread exits at once.
    conn: Conn,
    daemon: Daemon,
    warm: Vec<Value>,
    warm_lines: Vec<String>,
    expected: Vec<String>,
    warm_tasks: Vec<u64>,
    /// Calibrated seconds of every daemon start plus pre-warm.
    pub setup_s: Vec<f64>,
    /// Mean virtual makespan over the points of the warm scenarios.
    pub warm_makespan_s: f64,
}

/// What the timed replay measured.
#[derive(Default)]
pub struct Replay {
    /// Send-to-report calibrated seconds of every request.
    pub latency: Vec<f64>,
    /// Send-to-ack calibrated seconds of every request.
    pub ack: Vec<f64>,
    /// Requests per calibrated second of every batch.
    pub batch_rates: Vec<f64>,
    /// Requests per host second of every batch.
    pub raw_batch_rates: Vec<f64>,
    /// Simulated tasks the replies carried, per calibrated second, of
    /// every batch.
    pub batch_task_rates: Vec<f64>,
    /// Fresh requests sent.
    pub cold: usize,
    /// Request and reply lines of the first requests (traced run only).
    pub captured: Vec<String>,
}

/// Simulated tasks over all points of a report line.
fn report_tasks(line: &str) -> Option<u64> {
    let v = tlb_json::parse(line).ok()?;
    v.get("report")
        .get("points")
        .as_array()?
        .iter()
        .map(|p| p.get("total_tasks").as_u64())
        .sum()
}

/// Mean `makespan_s` over all points of a report line.
fn report_makespan(line: &str) -> Option<(f64, usize)> {
    let v = tlb_json::parse(line).ok()?;
    let points = v.get("report").get("points").as_array()?;
    let sum: Option<f64> = points.iter().map(|p| p.get("makespan_s").as_f64()).sum();
    Some((sum?, points.len()))
}

impl Session {
    /// Start the daemon `size.setups` times, each with a fresh cache and a
    /// full pre-warm, keep the last one, and check every pre-warm report
    /// against an offline `run_sweep`.
    pub fn start(
        seed: u64,
        size: &ServeSize,
        calib: &mut Calibrator,
        out: &mut crate::Outcome,
    ) -> io::Result<Session> {
        let warm: Vec<Value> = (0..size.warm_scenarios)
            .map(|k| warm_scenario(size, seed, k))
            .collect();
        let mut setups = Vec::new();
        let mut kept = None;
        for s in 0..size.setups.max(1) {
            // The previous daemon shuts down before the next one starts.
            drop(kept.take());
            let (daemon, reports, pieces) =
                start_warm(scratch_dir(&format!("setup{s}")), &warm, calib)?;
            setups.push(pieces);
            kept = Some((daemon, reports));
        }
        let (daemon, prewarm) = kept.expect("at least one set-up");
        let mut expected = Vec::new();
        for (k, sc) in warm.iter().enumerate() {
            let line = offline_report_line(sc).map_err(io::Error::other)?;
            out.check(prewarm[k] == line, || {
                format!("pre-warm report {k} differs from run_sweep")
            });
            expected.push(line);
        }
        let warm_tasks = expected
            .iter()
            .map(|l| report_tasks(l).unwrap_or(0))
            .collect();
        let (sum, count) = expected
            .iter()
            .filter_map(|l| report_makespan(l))
            .fold((0.0, 0), |(s, c), (a, b)| (s + a, c + b));
        let conn = daemon.connect()?;
        let setup_s = setups
            .iter()
            .map(|pieces| pieces.iter().map(|&(s, t)| s * calib.factor(t)).sum())
            .collect();
        Ok(Session {
            seed,
            size: *size,
            conn,
            daemon,
            warm_lines: warm.iter().map(request_line).collect(),
            warm,
            expected,
            warm_tasks,
            setup_s,
            warm_makespan_s: sum / count.max(1) as f64,
        })
    }

    /// The warm scenarios.
    pub fn warm(&self) -> &[Value] {
        &self.warm
    }

    /// The daemon.
    pub fn daemon(&self) -> &Daemon {
        &self.daemon
    }

    /// Replay the stream in batches for `seconds` of replay time (at
    /// least two batches), checking each warm report bitwise against the
    /// offline one and, after each batch, each fresh point against
    /// `run_point`. Those checks do not count as replay time, and fresh
    /// replies are dropped once checked, so memory does not grow with the
    /// request count. With `capture` the first batch's lines are kept.
    pub fn replay(
        &mut self,
        seconds: f64,
        capture: bool,
        calib: &mut Calibrator,
        out: &mut crate::Outcome,
    ) -> Option<Replay> {
        let mut r = Replay::default();
        // Per batch: its requests, host seconds, calibration ticket and
        // the simulated tasks its replies carried.
        let mut batches = Vec::new();
        let mut replay_s = 0.0;
        let mut i = 0u64;
        while batches.len() < 2 || replay_s < seconds {
            // The batch's request lines are built before its clock starts.
            let batch: Vec<(Option<usize>, Option<Value>)> = (i..i + self.size.batch as u64)
                .map(|j| match request_kind(&self.size, self.seed, j) {
                    Some(w) => (Some(w), None),
                    None => (None, Some(cold_scenario(&self.size, self.seed, j))),
                })
                .collect();
            let lines: Vec<String> = batch
                .iter()
                .map(|(w, sc)| match (w, sc) {
                    (Some(w), _) => self.warm_lines[*w].clone(),
                    (None, sc) => {
                        request_line(sc.as_ref().expect("fresh requests carry a scenario"))
                    }
                })
                .collect();
            let mut cold: Vec<(Value, Reply)> = Vec::new();
            let latency_before = r.latency.len();
            let mut tasks = 0u64;
            let t = Instant::now();
            for ((warm, fresh), line) in batch.into_iter().zip(&lines) {
                let keep = capture && batches.is_empty();
                let reply = match self.conn.sweep(line, keep || fresh.is_some()) {
                    Ok(reply) => reply,
                    Err(e) => {
                        out.check(false, || format!("request {i}: {e}"));
                        return None;
                    }
                };
                r.latency.push(reply.total_s);
                r.ack.push(reply.ack_s);
                if keep {
                    r.captured.push(line.trim_end().to_string());
                    r.captured.extend(reply.lines.iter().cloned());
                    r.captured.push(reply.last.clone());
                }
                match (warm, fresh) {
                    (Some(w), _) => {
                        tasks += self.warm_tasks[w];
                        out.check(reply.last == self.expected[w], || {
                            format!("request {i}: warm report differs from run_sweep")
                        });
                    }
                    (None, sc) => cold.push((sc.expect("fresh requests carry a scenario"), reply)),
                }
                i += 1;
            }
            let host_s = t.elapsed().as_secs_f64();
            replay_s += host_s;
            r.raw_batch_rates.push(lines.len() as f64 / host_s);
            let ticket = calib.mark();
            for (sc, reply) in &cold {
                tasks += report_tasks(&reply.last).unwrap_or(0);
                let (points, failed) = check_cold(sc, reply);
                out.attempted += points;
                out.failed += failed;
                if failed > 0 {
                    out.notes.push(format!(
                        "FAILED: {failed} fresh points differ from run_point"
                    ));
                }
            }
            r.cold += cold.len();
            batches.push((latency_before..r.latency.len(), host_s, ticket, tasks));
        }
        for (range, host_s, ticket, tasks) in batches {
            let f = calib.factor(ticket);
            for l in &mut r.latency[range.clone()] {
                *l *= f;
            }
            for a in &mut r.ack[range.clone()] {
                *a *= f;
            }
            r.batch_rates.push(range.len() as f64 / (host_s * f));
            r.batch_task_rates.push(tasks as f64 / (host_s * f));
        }
        Some(r)
    }

    /// Check the daemon's counters: nothing shed, no point failed.
    pub fn finish(&self, out: &mut crate::Outcome) {
        let c = self.daemon.counters();
        for name in ["serve.shed", "serve.point_errors"] {
            let n = c.get(name).as_u64().unwrap_or(0);
            out.check(n == 0, || format!("{name} = {n}"));
        }
    }
}
