//! Order statistics, the host fingerprint, and the process's peak RSS.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// The `q`-quantile (0 < q < 1) of `values` by the Harrell–Davis
/// estimator: a Beta-weighted mean of all order statistics. With the
/// hundred-odd samples of a simulation workload, a plain p99 is the
/// largest sample or two; this estimator spreads the weight over the
/// neighbouring ranks, which keeps the tail estimate from following a
/// single sample. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let q = q.clamp(1e-9, 1.0 - 1e-9);
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let mut prev = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let cdf = beta_cdf(a, b, (i + 1) as f64 / n);
        sum += (cdf - prev) * x;
        prev = cdf;
    }
    sum
}

/// The regularized incomplete beta function `I_x(a, b)`, by its continued
/// fraction (modified Lentz).
fn beta_cdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let guard = |d: f64| if d.abs() < TINY { TINY } else { d };
    let mut c = 1.0;
    let mut d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..10_000 {
        let m = m as f64;
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / guard(1.0 + even * d);
        c = guard(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / guard(1.0 + odd * d);
        c = guard(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7, n = 9).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A fixed reference kernel: benchmark code, never program code, so no
/// change to the program changes it. Each kernel slows down under the
/// contention of a shared host the way one kind of workload does, so a
/// host time divided by the kernel times taken just before and just after
/// it tracks the program's own cost and not the neighbours' load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reference {
    /// Allocation and pointer churn: a queue of 30,000 live boxed records
    /// churned 400,000 times (about 1.4 MiB live). Matches the simulator
    /// core and the daemon.
    Churn,
    /// Dependent random reads and writes over a 16 MiB table. Matches the
    /// n-body callbacks, which filter, sort and partition arrays of that
    /// size.
    Scan,
}

impl Reference {
    /// Host seconds the kernel takes on an uncontended core of the host
    /// the benchmark was defined on.
    pub fn nominal_s(self) -> f64 {
        match self {
            Reference::Churn => 0.006,
            Reference::Scan => 0.008,
        }
    }

    /// Run the kernel once and return its host seconds.
    fn run(self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 3;
        let mut acc: u64 = 0;
        let step = |x: u64| {
            x.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407)
        };
        match self {
            Reference::Churn => {
                let mut queue: VecDeque<Box<[u64; 6]>> = VecDeque::with_capacity(30_001);
                for i in 0..400_000u64 {
                    x = step(x);
                    queue.push_back(Box::new([x, i, x >> 3, i ^ x, acc, 1]));
                    if queue.len() > 30_000 {
                        let rec = queue.pop_front().expect("queue is full");
                        acc = acc.wrapping_add(rec[(x % 6) as usize]);
                    }
                }
            }
            Reference::Scan => {
                // A fresh table each run, like the n-body arrays: its page
                // faults and page sizes are part of what the host varies.
                let mut table = vec![1u64; 1 << 21];
                let mask = table.len() - 1;
                for i in 0..60_000u64 {
                    x = step(x ^ acc);
                    let j = (x >> 17) as usize & mask;
                    table[j] = table[j].wrapping_add(i);
                    acc = acc.wrapping_add(table[(j ^ 0x5555) & mask]);
                }
            }
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

/// Host seconds of a piece of timed work, and the calibration ticket of
/// the reference-kernel run that followed it.
pub type Piece = (f64, usize);

/// Reference-kernel runs on each side of a piece of timed work whose
/// median calibrates it.
const WINDOW_SIDE: usize = 3;

/// Brackets timed work with reference-kernel runs and converts host
/// seconds to calibrated seconds: `host × nominal / r`. `r` is the median
/// of the kernel runs around the work: the one just before it, the one
/// just after it, and two more on each side. Contention phases last
/// seconds, longer than that window, while a single kernel run is noisy.
pub struct Calibrator {
    kind: Reference,
    /// Every reference-kernel time taken, in seconds.
    pub refs: Vec<f64>,
}

impl Calibrator {
    /// Take the first reference, after one untimed run that pays the
    /// process's first-touch page faults.
    pub fn new(kind: Reference) -> Calibrator {
        kind.run();
        Calibrator {
            kind,
            refs: vec![kind.run()],
        }
    }

    /// Run the kernel after a piece of timed work. The returned ticket
    /// names that piece to [`Calibrator::factor`].
    pub fn mark(&mut self) -> usize {
        self.refs.push(self.kind.run());
        self.refs.len() - 2
    }

    /// The factor that turns the host seconds of the piece `ticket` names
    /// into calibrated seconds. Call it once the kernel runs after that
    /// piece have been taken, that is after the timed loop.
    pub fn factor(&self, ticket: usize) -> f64 {
        let lo = (ticket + 1).saturating_sub(WINDOW_SIDE);
        let hi = (ticket + 1 + WINDOW_SIDE).min(self.refs.len());
        self.kind.nominal_s() / median(&self.refs[lo..hi])
    }

    /// The kernel, its nominal time and its median over the run.
    pub fn note(&self) -> String {
        format!(
            "reference kernel {:?}: median {:.3} ms over {} runs, nominal {} ms",
            self.kind,
            median(&self.refs) * 1e3,
            self.refs.len(),
            self.kind.nominal_s() * 1e3
        )
    }
}

/// Restrict this thread, and every thread it starts afterwards, to the
/// first CPU it may run on. The two vCPUs of a small shared host see
/// different contention, so the timed work and the reference kernel
/// bracketing it must share a core; in the closed loops here at most one
/// thread is runnable at a time, so nothing that ran in parallel is
/// serialised. Returns the CPU, or `None` if the kernel refused.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, and pid
    // 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes naming a
    // CPU the thread is already allowed to use.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Pinning is a Linux facility; elsewhere threads float.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What a result needs beside it to be compared with another: numbers
/// from different hosts, compilers or sources are never compared.
pub fn host_fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .unwrap_or_default()
        .split_whitespace()
        .take(3)
        .collect::<Vec<_>>()
        .join(" ");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", command_line("rustc", &["--version"])),
        ("commit", git_head(Path::new("."))),
        (
            "source_fnv",
            format!("{:016x}", source_digest(Path::new("."))),
        ),
        ("loadavg_at_start", loadavg),
    ]
}

/// The commit checked out at `root`, read from `.git` without leaving
/// the checkout; `none` outside a git working tree.
fn git_head(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(git.join(name))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(name))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_string(),
    }
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the workspace sources (`Cargo.toml`, `Cargo.lock` and
/// every file under `crates/` and `perfbench/src/`, in sorted path
/// order): it names the code measured where no git history exists.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "crates", "perfbench/src"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    tlb_sweep::fnv1a64(&bytes)
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            collect(&e.path(), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_quantiles() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // Symmetric samples have their centre as the median.
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
        assert!(close(median(&[7.0]), 7.0));
        // Weights sum to one: a constant sample is its own quantile.
        assert!(close(quantile(&[3.0; 50], 0.99), 3.0));
        // On 0..=999 the estimate sits at the matching rank.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!((quantile(&v, 0.99) - 989.0).abs() < 1.0);
        assert!((quantile(&v, 0.5) - 499.5).abs() < 1e-6);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        // I_x(1, 1) = x and I_x(2, 1) = x².
        assert!((beta_cdf(1.0, 1.0, 0.3) - 0.3).abs() < 1e-12);
        assert!((beta_cdf(2.0, 1.0, 0.3) - 0.09).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
    }
}
