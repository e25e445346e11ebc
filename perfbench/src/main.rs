//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host fingerprint, notes on the run, and as its last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use perfbench::{run, stats::host_fingerprint, Bench, Scale};

const USAGE: &str = "usage: perfbench --workload sim-synthetic|sim-nbody|serve-replay \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(Bench, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Bench::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.unwrap_or(perfbench::PIN_SEED),
        seconds.unwrap_or(10.0),
        trace.unwrap_or(false),
    ))
}

fn main() -> ExitCode {
    let (bench, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host: Vec<String> = host_fingerprint()
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let cpu = perfbench::stats::pin_to_one_cpu();
    println!("host: {} | pinned_cpu={cpu:?}", host.join(" | "));
    println!(
        "run: workload={} seed={seed} seconds={seconds} trace={}",
        bench.name(),
        u8::from(trace)
    );
    let outcome = run(bench, seed, seconds, trace, &Scale::FULL);
    // Each daemon removed its own cache directory; drop the emptied parent.
    let _ = std::fs::remove_dir(perfbench::serve::SCRATCH_ROOT);
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
