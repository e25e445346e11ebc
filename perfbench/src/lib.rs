//! The repository benchmark; `README.md` in this directory explains the
//! workloads, the metrics and how to read a traced run.
//!
//! Everything here calls the workspace's public API from outside:
//! no tracing goes into the program, every layer is timed around the
//! calls into it.

pub mod alloc;
pub mod layers;
pub mod serve;
pub mod sim;
pub mod stats;

use std::time::Instant;

use sim::{App, SimSize};
use stats::{median, peak_rss_mb, quantile, Calibrator, Reference};

/// The seed the pins in `pins.json` were taken with.
pub const PIN_SEED: u64 = 1;

/// The workloads, by the names the command line takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// Scheduler-bound simulations, every registry policy in turn.
    SimSynthetic,
    /// Application-bound n-body simulations.
    SimNbody,
    /// Closed-loop request replay against an in-process daemon.
    ServeReplay,
}

impl Bench {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Bench> {
        match name {
            "sim-synthetic" => Some(Bench::SimSynthetic),
            "sim-nbody" => Some(Bench::SimNbody),
            "serve-replay" => Some(Bench::ServeReplay),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::SimSynthetic => "sim-synthetic",
            Bench::SimNbody => "sim-nbody",
            Bench::ServeReplay => "serve-replay",
        }
    }
}

/// Problem sizes of a run: [`Scale::FULL`] is the benchmark,
/// [`Scale::SMALL`] its tests.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Simulation workloads.
    pub sim: SimSize,
    /// The request replay.
    pub serve: serve::ServeSize,
}

impl Scale {
    /// The benchmark's size.
    pub const FULL: Scale = Scale {
        sim: SimSize::FULL,
        serve: serve::ServeSize::FULL,
    };

    /// The tests' size.
    pub const SMALL: Scale = Scale {
        sim: SimSize::SMALL,
        serve: serve::ServeSize::SMALL,
    };

    /// Whether `pins.json` applies: it holds full-size fingerprints.
    fn pinned(&self) -> bool {
        self.sim == SimSize::FULL
    }
}

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run found.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations whose output was wrong or missing.
    pub failed: u64,
    /// The metrics of the run's mode.
    pub metrics: Vec<Metric>,
    /// Lines printed before the result: sample counts, fingerprints.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// The result line: one JSON object.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    tlb_json::Value::object(vec![
                        ("value", m.value.into()),
                        ("unit", m.unit.into()),
                    ]),
                )
            })
            .collect();
        tlb_json::Value::object(vec![
            ("correct", (self.failed == 0).into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", tlb_json::Value::Object(metrics)),
        ])
        .to_string_compact()
    }
}

/// Run one workload: measure for `seconds`, check every output, and
/// return the end-to-end metrics (`trace == false`) or the per-layer
/// metrics (`trace == true`).
pub fn run(bench: Bench, seed: u64, seconds: f64, trace: bool, scale: &Scale) -> Outcome {
    let mut out = Outcome::default();
    match (bench, trace) {
        (Bench::SimSynthetic, false) => {
            sim_end_to_end(App::Synthetic, seed, seconds, scale, &mut out)
        }
        (Bench::SimNbody, false) => sim_end_to_end(App::Nbody, seed, seconds, scale, &mut out),
        (Bench::ServeReplay, false) => serve_end_to_end(seed, seconds, scale, &mut out),
        (Bench::SimSynthetic, true) => {
            layers::sim_traced(App::Synthetic, seed, seconds, scale, &mut out)
        }
        (Bench::SimNbody, true) => layers::sim_traced(App::Nbody, seed, seconds, scale, &mut out),
        (Bench::ServeReplay, true) => layers::serve_traced(seed, seconds, scale, &mut out),
    }
    out
}

/// The fingerprint `pins.json` holds for `case` of `bench`.
pub fn pinned_fingerprint(bench: Bench, case: &str) -> Option<String> {
    let pins = tlb_json::parse(include_str!("../pins.json")).ok()?;
    pins.get(bench.name())
        .get(case)
        .as_str()
        .map(str::to_string)
}

/// Run every case once more at the pin seed and compare its report
/// fingerprint with `pins.json` (full size only).
fn check_pins(app: App, scale: &Scale, out: &mut Outcome) {
    if !scale.pinned() {
        return;
    }
    let bench = match app {
        App::Synthetic => Bench::SimSynthetic,
        App::Nbody => Bench::SimNbody,
    };
    for case in sim::cases(app, PIN_SEED) {
        let name = &case.name;
        let got = sim::sample(app, &scale.sim, &case).map(|s| sim::fingerprint(&s.report));
        let want = pinned_fingerprint(bench, name);
        let ok = matches!((&got, &want), (Ok(g), Some(w)) if format!("{g:016x}") == *w);
        out.check(ok, || format!("pin {name}: got {got:x?}, pinned {want:?}"));
    }
}

fn sim_end_to_end(app: App, seed: u64, seconds: f64, scale: &Scale, out: &mut Outcome) {
    let size = &scale.sim;
    let cases = sim::cases(app, seed);
    let n = cases.len();
    // The first rotation warms caches and the allocator; it is checked
    // and not timed. Afterwards whole rotations run until the time is up
    // and every case has at least four samples. Every sample is
    // followed by a reference-kernel run (see `stats::Calibrator`).
    let mut first: Vec<Option<sim::Sample>> = (0..n).map(|_| None).collect();
    // (case, build host seconds, execute host seconds, calibration ticket)
    let mut timed: Vec<(usize, f64, f64, usize)> = Vec::new();
    let mut calib = Calibrator::new(match app {
        App::Synthetic => Reference::Churn,
        App::Nbody => Reference::Scan,
    });
    let start = Instant::now();
    let mut k = 0usize;
    loop {
        let c = k % n;
        if c == 0 && k >= 5 * n && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let sample = sim::sample(app, size, &cases[c]);
        let ticket = calib.mark();
        match sample {
            Ok(s) => {
                if let Some(first) = &first[c] {
                    let same = sim::fingerprint(&first.report) == sim::fingerprint(&s.report);
                    out.check(same, || format!("case {c} report changed between samples"));
                    timed.push((c, s.build_s, s.exec_s, ticket));
                } else {
                    out.check(true, String::new);
                    first[c] = Some(s);
                }
            }
            Err(e) => out.check(false, || format!("case {c}: {e}")),
        }
        k += 1;
    }
    let mut build = vec![Vec::new(); n];
    let mut exec = vec![Vec::new(); n];
    let mut raw_exec = vec![Vec::new(); n];
    let mut latency = Vec::new();
    for &(c, build_s, exec_s, ticket) in &timed {
        let f = calib.factor(ticket);
        build[c].push(build_s * f);
        exec[c].push(exec_s * f);
        raw_exec[c].push(exec_s);
        latency.push((build_s + exec_s) * f);
    }
    check_pins(app, scale, out);

    let reports: Vec<&tlb_cluster::SimReport> = first.iter().flatten().map(|s| &s.report).collect();
    if reports.len() != n {
        return;
    }
    for ((case, r), t) in cases.iter().zip(&reports).zip(&exec) {
        out.notes.push(format!(
            "case {} seed {}: fingerprint {:016x}, tasks {}, events {}, makespan {} s, \
             median execute {:.3} ms over {} samples",
            case.name,
            case.seed,
            sim::fingerprint(r),
            r.total_tasks,
            r.events,
            r.makespan.as_secs_f64(),
            median(t) * 1e3,
            t.len(),
        ));
    }
    let tasks: usize = reports.iter().map(|r| r.total_tasks).sum();
    let sum_medians = |v: &[Vec<f64>]| -> f64 { v.iter().map(|t| median(t)).sum() };
    let request: Vec<Vec<f64>> = build
        .iter()
        .zip(&exec)
        .map(|(b, e)| b.iter().zip(e).map(|(b, e)| b + e).collect())
        .collect();
    let all_builds: Vec<f64> = build.concat();
    out.notes.push(format!(
        "samples {} per case, {} in all; uncalibrated tasks_per_s {}; {}",
        exec[0].len(),
        latency.len(),
        tasks as f64 / sum_medians(&raw_exec),
        calib.note(),
    ));
    out.metric("setup_s", median(&all_builds), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.metric(
        "virtual_makespan_s",
        reports
            .iter()
            .map(|r| r.makespan.as_secs_f64())
            .sum::<f64>()
            / n as f64,
        "s",
    );
    out.metric("tasks_per_s", tasks as f64 / sum_medians(&exec), "1/s");
    out.metric("requests_per_s", n as f64 / sum_medians(&request), "1/s");
    out.metric("latency_p50_ms", quantile(&latency, 0.5) * 1e3, "ms");
    out.metric("latency_p99_ms", quantile(&latency, 0.99) * 1e3, "ms");
}

fn serve_end_to_end(seed: u64, seconds: f64, scale: &Scale, out: &mut Outcome) {
    let mut calib = Calibrator::new(Reference::Churn);
    let mut session = match serve::Session::start(seed, &scale.serve, &mut calib, out) {
        Ok(s) => s,
        Err(e) => return out.check(false, || format!("daemon set-up: {e}")),
    };
    let replay = session.replay(seconds, false, &mut calib, out);
    session.finish(out);
    let Some(replay) = replay else { return };
    out.notes.push(format!(
        "requests {} in {} batches of {}, fresh {}; uncalibrated requests_per_s {}; {}",
        replay.latency.len(),
        replay.batch_rates.len(),
        scale.serve.batch,
        replay.cold,
        median(&replay.raw_batch_rates),
        calib.note(),
    ));
    out.metric("setup_s", median(&session.setup_s), "s");
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    out.metric("virtual_makespan_s", session.warm_makespan_s, "s");
    out.metric("tasks_per_s", median(&replay.batch_task_rates), "1/s");
    out.metric("requests_per_s", median(&replay.batch_rates), "1/s");
    out.metric("latency_p50_ms", quantile(&replay.latency, 0.5) * 1e3, "ms");
    out.metric(
        "latency_p99_ms",
        quantile(&replay.latency, 0.99) * 1e3,
        "ms",
    );
}
