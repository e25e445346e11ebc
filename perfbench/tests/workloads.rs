//! A reduced-size run of every workload, in both modes: every metric
//! `BENCHMARK.json` names is printed with its unit, no operation fails,
//! and the exact metrics repeat bit for bit between two runs.

use std::sync::Mutex;

use perfbench::{run, Bench, Outcome, Scale};
use tlb_json::Value;

// The traced run counts allocations process-wide, so runs must not
// overlap with each other.
static SERIAL: Mutex<()> = Mutex::new(());

const WORKLOADS: [Bench; 3] = [Bench::SimSynthetic, Bench::SimNbody, Bench::ServeReplay];

/// Metrics that are counts or virtual times, not host times: they must
/// repeat exactly for a given seed. (`serve.points_executed` is exact on
/// the sims only: `serve-replay` sends as many requests as its time
/// allows.)
const EXACT: [&str; 20] = [
    "virtual_makespan_s",
    "des.events",
    "des.events_per_task",
    "sched.decisions",
    "sched.decisions_per_task",
    "sched.steal_attempts",
    "sched.steal_attempts_per_task",
    "sched.tasks_stolen",
    "sched.tasks_stolen_per_task",
    "dlb.lewi_lends",
    "dlb.lewi_lends_per_task",
    "dlb.lewi_reclaims",
    "dlb.lewi_reclaims_per_task",
    "dlb.drom_transfers",
    "dlb.drom_transfers_per_task",
    "alloc.per_task",
    "alloc.bytes_per_task",
    "solver.runs",
    "solver.simplex_iterations",
    "serve.points_executed",
];

fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = tlb_json::parse(&text).expect("BENCHMARK.json parses");
    spec.get(section)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name").as_str().expect("name").to_string(),
                m.get("unit").as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

fn run_small(bench: Bench, trace: bool) -> Outcome {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    run(bench, 7, 0.2, trace, &Scale::SMALL)
}

fn value(out: &Outcome, name: &str) -> Option<f64> {
    out.metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

fn check_mode(trace: bool) {
    let section = if trace { "per_layer" } else { "end_to_end" };
    let names = declared(section);
    for bench in WORKLOADS {
        let a = run_small(bench, trace);
        let b = run_small(bench, trace);
        for out in [&a, &b] {
            assert!(out.attempted > 0, "{bench:?}: nothing checked");
            assert_eq!(out.failed, 0, "{bench:?}: {:?}", out.notes);
            let printed: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(
                printed.len(),
                names.len(),
                "{bench:?} {section}: {printed:?}"
            );
            for n in &names {
                assert!(
                    printed.contains(n),
                    "{bench:?}: {n:?} missing from {printed:?}"
                );
            }
            assert!(
                out.metrics.iter().all(|m| m.value.is_finite()),
                "{bench:?}: {:?}",
                out.metrics
            );
            let line = tlb_json::parse(&out.result_line()).expect("result line is JSON");
            assert_eq!(line.get("correct"), &Value::Bool(true));
        }
        for name in EXACT {
            let timed = bench == Bench::ServeReplay && name == "serve.points_executed";
            if !timed && names.iter().any(|(n, _)| n == name) {
                let (x, y) = (value(&a, name), value(&b, name));
                assert_eq!(
                    x.map(f64::to_bits),
                    y.map(f64::to_bits),
                    "{bench:?}: {name} differs between runs"
                );
            }
        }
    }
}

#[test]
fn end_to_end_metrics_are_printed_and_exact_ones_repeat() {
    check_mode(false);
}

#[test]
fn per_layer_metrics_are_printed_and_counts_repeat() {
    check_mode(true);
}

#[test]
fn workload_names_round_trip() {
    for bench in WORKLOADS {
        assert_eq!(Bench::parse(bench.name()), Some(bench));
    }
    assert_eq!(Bench::parse("nope"), None);
}
