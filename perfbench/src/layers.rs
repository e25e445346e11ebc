//! The traced run: per-layer metrics, each taken by timing or counting
//! around calls into one layer's public functions.
//!
//! Every workload reports every layer. The simulation layers (`apps`,
//! `expander`, `cluster`, `solver`, `trace`, allocations) are probed on
//! the simulations the workload runs: each case of a sim workload, or
//! the fresh points of `serve-replay`. The service layers (`sweep`,
//! `cache`, `json`, `serve`) are probed on the scenarios the workload
//! submits: the replayed stream of `serve-replay`, or each sim case
//! submitted as a one-point scenario, once fresh and once cached.

use std::time::Instant;

use tlb_cluster::{ClusterSim, RunSpec, SimReport, Workload};
use tlb_core::{BalanceConfig, GlobalPolicy, Platform, ProcessLayout};
use tlb_expander::{BipartiteGraph, ExpanderConfig};
use tlb_json::Value;
use tlb_sweep::{aggregate, point_key, point_key_input, run_point, Cache, Scenario};
use tlb_trace::{EventKind, TraceConfig};

use crate::serve::{cold_scenario, request_kind, request_line, scratch_dir, Daemon, Session};
use crate::sim::{self, App, TimedWorkload};
use crate::stats::{median, Calibrator, Reference};
use crate::{alloc, Outcome, Scale};

/// One simulation to probe: what `ClusterSim::execute` is given.
struct SimProbe {
    label: String,
    platform: Platform,
    config: BalanceConfig,
    expander: ExpanderConfig,
    build: Box<dyn Fn() -> Box<dyn Workload>>,
}

impl SimProbe {
    fn from_case(app: App, scale: &Scale, case: &sim::Case) -> SimProbe {
        let size = scale.sim;
        let platform = sim::platform(&size);
        let config = sim::config(&size, case);
        let appranks = size.nodes * size.appranks_per_node;
        let (p, c) = (platform.clone(), case.clone());
        SimProbe {
            label: case.name.clone(),
            expander: ExpanderConfig::new(appranks, size.nodes, size.degree).with_seed(case.seed),
            platform,
            config,
            build: Box::new(move || sim::build(app, &size, &p, &c)),
        }
    }

    /// A point of a served synthetic scenario, built as the sweep engine
    /// builds it.
    fn from_point(scenario: &Scenario, point: &tlb_sweep::SweepPoint) -> Option<SimProbe> {
        let platform = scenario.platform();
        let config = scenario.config(point).ok()?;
        let appranks = scenario.nodes * point.appranks_per_node;
        let mut cfg = tlb_apps::synthetic::SyntheticConfig::new(appranks, scenario.imbalance);
        cfg.iterations = scenario.iterations;
        cfg.seed = point.seed;
        let p = platform.clone();
        Some(SimProbe {
            label: format!("{} degree {}", point.policy.canonical(), point.degree),
            expander: ExpanderConfig::new(appranks, scenario.nodes, point.degree)
                .with_seed(point.seed),
            platform,
            config,
            build: Box::new(move || {
                Box::new(tlb_apps::synthetic::synthetic_workload(&cfg, &p)) as Box<dyn Workload>
            }),
        })
    }

    fn execute<W: Workload>(&self, spec: RunSpec<'_, W>) -> Result<SimReport, String> {
        ClusterSim::execute(spec).map_err(|e| e.to_string())
    }

    fn spec<W: Workload>(&self, wl: W) -> RunSpec<'_, W> {
        RunSpec::new(&self.platform, &self.config, wl)
    }
}

/// Per-probe measurements over the repetitions.
#[derive(Default)]
struct ProbeTimes {
    build: Vec<f64>,
    generate: Vec<f64>,
    exec: Vec<f64>,
    callbacks: Vec<f64>,
    timelines: Vec<f64>,
    events: Vec<f64>,
    allocs: Option<(u64, u64)>,
    report: Option<SimReport>,
    traced: Option<SimReport>,
    solver_wall: Vec<f64>,
    solver_iterations: usize,
}

/// Replay every recorded global solve of `traced` through
/// `GlobalPolicy::allocate` on the run's graph and platform. Returns the
/// host seconds and the simplex pivots of the replay.
fn replay_solves(probe: &SimProbe, traced: &SimReport) -> Result<(f64, usize), String> {
    let demands: Vec<Vec<f64>> = traced
        .trace
        .log
        .merged()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::SolverInvoked(rec) => Some(rec.demand),
            _ => None,
        })
        .collect();
    if demands.is_empty() {
        return Ok((0.0, 0));
    }
    let graph = BipartiteGraph::generate(&probe.expander).map_err(|e| e.to_string())?;
    let layout = ProcessLayout::new(&graph, probe.platform.cores_per_node);
    // The simulator slows each node by its workers' polling noise before
    // it builds the policy; the replay must solve the same problems.
    let mut platform = probe.platform.clone();
    for n in 0..platform.nodes {
        let workers = layout.workers_on(n).len() as f64;
        let noise = (platform.worker_noise * workers / platform.cores_per_node as f64).min(0.5);
        platform.node_speed[n] *= 1.0 - noise;
    }
    let mut policy = GlobalPolicy::new(&graph, &platform);
    let t = Instant::now();
    let mut iterations = 0;
    for d in &demands {
        iterations += policy
            .allocate(d, probe.config.solver)
            .map_err(|e| format!("{e:?}"))?
            .iterations;
    }
    Ok((t.elapsed().as_secs_f64(), iterations))
}

/// One repetition of every measurement on one probe.
fn probe_once(probe: &SimProbe, m: &mut ProbeTimes, out: &mut Outcome) -> Result<(), String> {
    let t = Instant::now();
    let wl = (probe.build)();
    m.build.push(t.elapsed().as_secs_f64());

    let t = Instant::now();
    let graph = BipartiteGraph::generate(&probe.expander).map_err(|e| e.to_string())?;
    m.generate.push(t.elapsed().as_secs_f64());
    std::hint::black_box(graph);

    // Allocations of an untraced execute; they must repeat exactly.
    let (report, count, bytes) = alloc::count(|| probe.execute(probe.spec(wl)));
    let report = report?;
    match m.allocs {
        None => m.allocs = Some((count, bytes)),
        Some(first) => out.check(first == (count, bytes), || {
            format!(
                "{}: allocations {first:?} then {:?}",
                probe.label,
                (count, bytes)
            )
        }),
    }

    let mut timed = TimedWorkload::new((probe.build)());
    let t = Instant::now();
    let again = probe.execute(probe.spec(&mut timed))?;
    m.exec.push(t.elapsed().as_secs_f64());
    m.callbacks.push(timed.callbacks.as_secs_f64());

    let wl = (probe.build)();
    let t = Instant::now();
    let timelines = probe.execute(probe.spec(wl).trace_families(TraceConfig::off()))?;
    m.timelines.push(t.elapsed().as_secs_f64());

    let wl = (probe.build)();
    let t = Instant::now();
    let traced = probe.execute(probe.spec(wl).trace(true))?;
    m.events.push(t.elapsed().as_secs_f64());

    // Tracing records virtual time; it must never change it.
    let fp = sim::fingerprint(&report);
    for (what, r) in [
        ("repeat", &again),
        ("timelines", &timelines),
        ("events", &traced),
    ] {
        out.check(sim::fingerprint(r) == fp, || {
            format!("{}: {what} run changed the report", probe.label)
        });
    }

    let (wall, iterations) = replay_solves(probe, &traced)?;
    m.solver_wall.push(wall);
    m.solver_iterations = iterations;
    m.report = Some(report);
    m.traced = Some(traced);
    Ok(())
}

/// Probe every simulation layer on `probes`, repeating until `seconds`
/// have passed (at least twice, so that allocation counts are compared).
fn sim_layers(probes: &[SimProbe], seconds: f64, out: &mut Outcome) {
    let mut all: Vec<ProbeTimes> = probes.iter().map(|_| ProbeTimes::default()).collect();
    let start = Instant::now();
    let mut reps = 0;
    while reps < 2 || start.elapsed().as_secs_f64() < seconds {
        for (p, m) in probes.iter().zip(all.iter_mut()) {
            if let Err(e) = probe_once(p, m, out) {
                out.check(false, || format!("{}: {e}", p.label));
                return;
            }
        }
        reps += 1;
    }
    out.notes.push(format!(
        "sim layer repetitions {reps} over {} simulations",
        probes.len()
    ));

    let n = probes.len() as f64;
    let sum_med =
        |f: &dyn Fn(&ProbeTimes) -> &Vec<f64>| -> f64 { all.iter().map(|m| median(f(m))).sum() };
    let reports: Vec<&SimReport> = all.iter().filter_map(|m| m.report.as_ref()).collect();
    let traced: Vec<&SimReport> = all.iter().filter_map(|m| m.traced.as_ref()).collect();
    let tasks: f64 = reports.iter().map(|r| r.total_tasks as f64).sum();
    let events: f64 = reports.iter().map(|r| r.events as f64).sum();
    let exec = sum_med(&|m| &m.exec);
    let callbacks = sum_med(&|m| &m.callbacks);
    let self_s: f64 = all
        .iter()
        .map(|m| {
            let own: Vec<f64> = m
                .exec
                .iter()
                .zip(&m.callbacks)
                .map(|(e, c)| e - c)
                .collect();
            median(&own)
        })
        .sum();
    let timelines = sum_med(&|m| &m.timelines);
    let evented = sum_med(&|m| &m.events);

    out.metric("apps.build_ms", sum_med(&|m| &m.build) / n * 1e3, "ms");
    out.metric("apps.callback_ms", callbacks / n * 1e3, "ms");
    out.metric("apps.callback_share", callbacks / exec, "ratio");
    out.metric(
        "expander.generate_ms",
        sum_med(&|m| &m.generate) / n * 1e3,
        "ms",
    );
    out.metric("cluster.self_ms", self_s / n * 1e3, "ms");
    out.metric("cluster.ns_per_task", self_s / tasks * 1e9, "ns");
    out.metric("cluster.ns_per_event", self_s / events * 1e9, "ns");
    out.metric("des.events", events, "count");
    out.metric("des.events_per_task", events / tasks, "count");
    for (name, counter) in [
        ("sched.decisions", "sched_decisions"),
        ("sched.steal_attempts", "steal_attempts"),
        ("sched.tasks_stolen", "tasks_stolen"),
        ("dlb.lewi_lends", "lewi_lends"),
        ("dlb.lewi_reclaims", "lewi_reclaims"),
        ("dlb.drom_transfers", "drom_transfers"),
    ] {
        let total: u64 = traced.iter().map(|r| r.trace.counters.count(counter)).sum();
        out.metric(name, total as f64, "count");
        out.metric(&format!("{name}_per_task"), total as f64 / tasks, "count");
    }
    let (allocs, bytes) = all
        .iter()
        .filter_map(|m| m.allocs)
        .fold((0, 0), |(a, b), (c, d)| (a + c, b + d));
    out.metric("alloc.per_task", allocs as f64 / tasks, "count");
    out.metric("alloc.bytes_per_task", bytes as f64 / tasks, "B");
    let recorded: usize = traced
        .iter()
        .flat_map(|r| r.trace.log.merged())
        .map(|e| match e.kind {
            EventKind::SolverInvoked(rec) => rec.simplex_iterations,
            _ => 0,
        })
        .sum();
    let replayed: usize = all.iter().map(|m| m.solver_iterations).sum();
    out.check(recorded == replayed, || {
        format!("solver replay took {replayed} pivots, the runs recorded {recorded}")
    });
    out.metric(
        "solver.runs",
        reports.iter().map(|r| r.solver_runs as f64).sum(),
        "count",
    );
    out.metric("solver.simplex_iterations", recorded as f64, "count");
    out.metric("solver.wall_ms", sum_med(&|m| &m.solver_wall) * 1e3, "ms");
    out.metric(
        "trace.timelines_overhead_pct",
        (timelines / exec - 1.0) * 100.0,
        "%",
    );
    out.metric(
        "trace.events_overhead_pct",
        (evented / exec - 1.0) * 100.0,
        "%",
    );
}

/// Time the sweep, cache and JSON layers on `scenarios`: parse and
/// expand each, key and run each point, aggregate, store and load every
/// record. `lines` are protocol lines the JSON layer is timed on.
fn service_layers(scenarios: &[Value], lines: &[String], out: &mut Outcome) {
    const REPS: usize = 20;
    let mut parse = Vec::new();
    let mut key = Vec::new();
    let mut run = Vec::new();
    let mut agg = Vec::new();
    let mut store = Vec::new();
    let mut load = Vec::new();
    let dir = scratch_dir("cache-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = match Cache::open(&dir) {
        Ok(c) => c,
        Err(e) => return out.check(false, || format!("cache probe: {e}")),
    };
    for json in scenarios {
        let t = Instant::now();
        let mut parsed = None;
        for _ in 0..REPS {
            let sc = Scenario::from_json(json).map(|sc| {
                let points = sc.expand();
                (sc, points)
            });
            parsed = Some(std::hint::black_box(sc));
        }
        parse.push(t.elapsed().as_secs_f64() / REPS as f64);
        let Some(Ok((sc, points))) = parsed else {
            return out.check(false, || "scenario probe: invalid scenario".into());
        };
        let mut records = Vec::new();
        for p in &points {
            let t = Instant::now();
            let mut k = 0;
            for _ in 0..REPS {
                k = std::hint::black_box(point_key(&sc, p));
            }
            key.push(t.elapsed().as_secs_f64() / REPS as f64);
            let t = Instant::now();
            match run_point(&sc, p) {
                Ok(record) => {
                    run.push(t.elapsed().as_secs_f64());
                    let input = point_key_input(&sc, p);
                    let t = Instant::now();
                    let stored = cache.store(k, &input, &record);
                    store.push(t.elapsed().as_secs_f64());
                    let t = Instant::now();
                    let loaded = cache.load(k, &input);
                    load.push(t.elapsed().as_secs_f64());
                    out.check(stored.is_ok() && loaded.as_ref() == Some(&record), || {
                        format!("cache round trip of point {} changed the record", p.index)
                    });
                    records.push(record);
                }
                Err(e) => return out.check(false, || format!("run_point: {e}")),
            }
        }
        let t = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(aggregate(&sc, &points, records.clone()));
        }
        agg.push(t.elapsed().as_secs_f64() / REPS as f64);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let bytes: usize = lines.iter().map(String::len).sum();
    let kb = bytes as f64 / 1024.0;
    let t = Instant::now();
    let values: Vec<Value> = lines
        .iter()
        .filter_map(|l| tlb_json::parse(l).ok())
        .collect();
    let parse_s = t.elapsed().as_secs_f64();
    out.check(values.len() == lines.len(), || {
        "captured a line that does not parse".into()
    });
    let t = Instant::now();
    let text: usize = values.iter().map(|v| v.to_string_compact().len()).sum();
    let serialize_s = t.elapsed().as_secs_f64();
    out.check(text == bytes, || {
        "a captured line does not re-serialize to itself".into()
    });

    out.metric("sweep.parse_expand_us", median(&parse) * 1e6, "us");
    out.metric("sweep.point_key_us", median(&key) * 1e6, "us");
    out.metric("sweep.aggregate_us", median(&agg) * 1e6, "us");
    out.metric("sweep.run_point_ms", median(&run) * 1e3, "ms");
    out.metric("cache.load_us", median(&load) * 1e6, "us");
    out.metric("cache.store_us", median(&store) * 1e6, "us");
    out.metric("json.parse_us_per_kb", parse_s / kb * 1e6, "us");
    out.metric("json.serialize_us_per_kb", serialize_s / kb * 1e6, "us");
}

/// The daemon's counters and the ack/stream split of its replies.
fn serve_metrics(counters: &Value, ack: &[f64], total: &[f64], out: &mut Outcome) {
    let count = |name: &str| counters.get(name).as_u64().unwrap_or(0) as f64;
    let stream: Vec<f64> = total.iter().zip(ack).map(|(t, a)| t - a).collect();
    out.metric(
        "cache.hit_ratio",
        count("serve.cache_hits") / count("serve.points_total").max(1.0),
        "ratio",
    );
    out.metric("serve.ack_ms", median(ack) * 1e3, "ms");
    out.metric("serve.stream_ms", median(&stream) * 1e3, "ms");
    out.metric(
        "serve.points_executed",
        count("serve.points_executed"),
        "count",
    );
    out.metric("serve.dedup_hits", count("serve.dedup_hits"), "count");
    out.metric("serve.shed", count("serve.shed"), "count");
}

/// A sim case as the one-point scenario a sweep or the daemon would run.
fn case_scenario(app: App, scale: &Scale, case: &sim::Case) -> Value {
    let size = scale.sim;
    Value::object(vec![
        ("schema_version", 1u64.into()),
        ("name", case.name.as_str().into()),
        (
            "app",
            match app {
                App::Synthetic => "synthetic",
                App::Nbody => "nbody",
            }
            .into(),
        ),
        ("machine", "mn4".into()),
        ("nodes", size.nodes.into()),
        (
            "iterations",
            match app {
                App::Synthetic => size.synthetic_iterations,
                App::Nbody => size.nbody_iterations,
            }
            .into(),
        ),
        ("imbalance", 2.0.into()),
        (
            "axes",
            Value::object(vec![
                ("appranks_per_node", vec![size.appranks_per_node].into()),
                ("degree", vec![size.degree].into()),
                ("policy", vec![case.policy.canonical()].into()),
                ("seed", vec![case.seed].into()),
            ]),
        ),
    ])
}

/// The traced run of a simulation workload.
pub fn sim_traced(app: App, seed: u64, seconds: f64, scale: &Scale, out: &mut Outcome) {
    let cases = sim::cases(app, seed);
    let probes: Vec<SimProbe> = cases
        .iter()
        .map(|c| SimProbe::from_case(app, scale, c))
        .collect();
    sim_layers(&probes, seconds, out);

    // The service layers on the same simulations: each case submitted to
    // a fresh daemon twice (run, then cached), then swept offline.
    let scenarios: Vec<Value> = cases.iter().map(|c| case_scenario(app, scale, c)).collect();
    let daemon = match Daemon::start(scratch_dir("traced")) {
        Ok(d) => d,
        Err(e) => return out.check(false, || format!("daemon: {e}")),
    };
    let mut lines = Vec::new();
    let (mut ack, mut total) = (Vec::new(), Vec::new());
    {
        let mut conn = match daemon.connect() {
            Ok(c) => c,
            Err(e) => return out.check(false, || format!("connect: {e}")),
        };
        let mut first = Vec::new();
        for pass in 0..2 {
            for (k, sc) in scenarios.iter().enumerate() {
                let line = request_line(sc);
                match conn.sweep(&line, true) {
                    Ok(reply) => {
                        ack.push(reply.ack_s);
                        total.push(reply.total_s);
                        if pass == 0 {
                            first.push(reply.last.clone());
                        } else {
                            out.check(reply.last == first[k], || {
                                format!("case {k}: cached report differs from the fresh one")
                            });
                        }
                        lines.push(line.trim_end().to_string());
                        lines.extend(reply.lines);
                        lines.push(reply.last);
                    }
                    Err(e) => return out.check(false, || format!("request: {e}")),
                }
            }
        }
    }
    serve_metrics(&daemon.counters(), &ack, &total, out);
    drop(daemon);
    service_layers(&scenarios, &lines, out);
}

/// The traced run of `serve-replay`.
pub fn serve_traced(seed: u64, seconds: f64, scale: &Scale, out: &mut Outcome) {
    let mut calib = Calibrator::new(Reference::Churn);
    let mut session = match Session::start(seed, &scale.serve, &mut calib, out) {
        Ok(s) => s,
        Err(e) => return out.check(false, || format!("daemon set-up: {e}")),
    };
    // Half the time replays the stream; the layer probes take the rest.
    let Some(replay) = session.replay(seconds / 2.0, true, &mut calib, out) else {
        return;
    };
    session.finish(out);
    serve_metrics(
        &session.daemon().counters(),
        &replay.ack,
        &replay.latency,
        out,
    );
    let mut scenarios = session.warm().to_vec();
    // The daemon stops before the probes, which then have the core to
    // themselves.
    drop(session);

    // The first four fresh requests of the stream, whatever the replay
    // reached: the probes must not depend on how fast the host was.
    let cold: Vec<Value> = (0u64..)
        .filter(|&i| request_kind(&scale.serve, seed, i).is_none())
        .take(4)
        .map(|i| cold_scenario(&scale.serve, seed, i))
        .collect();
    let mut probes = Vec::new();
    for json in &cold {
        if let Ok(sc) = Scenario::from_json(json) {
            probes.extend(
                sc.expand()
                    .iter()
                    .filter_map(|p| SimProbe::from_point(&sc, p)),
            );
        }
    }
    sim_layers(&probes, seconds / 2.0, out);
    scenarios.extend(cold);
    service_layers(&scenarios, &replay.captured, out);
}
