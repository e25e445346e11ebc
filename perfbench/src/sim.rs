//! The two simulation workloads: what one simulation costs in host time
//! when the scheduler dominates (`sim-synthetic`) and when the
//! application callbacks dominate (`sim-nbody`).

use std::time::{Duration, Instant};

use tlb_apps::nbody::{NBodyConfig, NBodyWorkload};
use tlb_apps::synthetic::{synthetic_workload, SyntheticConfig};
use tlb_cluster::{ClusterSim, RunSpec, SimReport, TaskSpec, Workload};
use tlb_core::{BalanceConfig, Platform, PolicySpec};
use tlb_rng::Rng;

/// Which application a simulation workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    /// Synthetic imbalance 2.0: cheap callbacks, every policy in turn.
    Synthetic,
    /// Barnes–Hut n-body with ORB: expensive callbacks, one policy.
    Nbody,
}

/// Every registry policy, in the order `sim-synthetic` rotates through.
pub const POLICIES: [&str; 6] = [
    "baseline",
    "lewi",
    "lewi+drom-local",
    "lewi+drom-global",
    "reactive-offload",
    "diffusion",
];

/// The policy `sim-nbody` runs (the fig. 6c configuration).
pub const NBODY_POLICY: &str = "lewi+drom-global";

/// Distinct body distributions `sim-nbody` rotates through. The virtual
/// makespan is a mean over them, which keeps its spread across benchmark
/// seeds small.
pub const NBODY_CASES: usize = 4;

/// Problem size of the simulation workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimSize {
    /// MareNostrum-4 nodes (48 cores each).
    pub nodes: usize,
    /// Appranks per node.
    pub appranks_per_node: usize,
    /// Offloading degree.
    pub degree: usize,
    /// Iterations of the synthetic application.
    pub synthetic_iterations: usize,
    /// Bodies per apprank of the n-body application.
    pub nbody_bodies_per_rank: usize,
    /// Iterations of the n-body application.
    pub nbody_iterations: usize,
}

impl SimSize {
    /// The size the benchmark measures and the pins are taken at.
    pub const FULL: SimSize = SimSize {
        nodes: 8,
        appranks_per_node: 2,
        degree: 4,
        synthetic_iterations: 2,
        nbody_bodies_per_rank: 20_000,
        nbody_iterations: 1,
    };

    /// A reduced size for the benchmark's own tests.
    pub const SMALL: SimSize = SimSize {
        nodes: 2,
        appranks_per_node: 2,
        degree: 2,
        synthetic_iterations: 2,
        nbody_bodies_per_rank: 1_000,
        nbody_iterations: 2,
    };

    fn appranks(&self) -> usize {
        self.nodes * self.appranks_per_node
    }
}

/// One distinct simulation of a workload: a policy and a seed. Samples
/// of the same case must reproduce the same report bit for bit.
#[derive(Clone, Debug)]
pub struct Case {
    /// The case's name in notes and in `pins.json`.
    pub name: String,
    /// The balancing policy.
    pub policy: PolicySpec,
    /// Seed of the application inputs and of the expander graph.
    pub seed: u64,
}

/// The cases of `app`, with seeds derived from the benchmark seed.
pub fn cases(app: App, seed: u64) -> Vec<Case> {
    let root = Rng::seed_from_u64(seed);
    let names: Vec<(String, &str)> = match app {
        App::Synthetic => POLICIES.iter().map(|&p| (p.to_string(), p)).collect(),
        App::Nbody => (0..NBODY_CASES)
            .map(|i| (format!("{NBODY_POLICY}/bodies{i}"), NBODY_POLICY))
            .collect(),
    };
    names
        .into_iter()
        .enumerate()
        .map(|(i, (name, policy))| Case {
            name,
            policy: PolicySpec::named(policy).expect("registry policy"),
            seed: root.split_u64(i as u64).next_u64() >> 1,
        })
        .collect()
}

/// The platform every simulation workload runs on.
pub fn platform(size: &SimSize) -> Platform {
    Platform::mn4(size.nodes)
}

/// The balancing configuration of a case.
pub fn config(size: &SimSize, case: &Case) -> BalanceConfig {
    BalanceConfig::default()
        .with_policy(case.policy.clone())
        .with_degree(size.degree)
        .with_seed(case.seed)
}

/// Build a case's application (the `apps` layer constructor).
pub fn build(app: App, size: &SimSize, platform: &Platform, case: &Case) -> Box<dyn Workload> {
    match app {
        App::Synthetic => {
            let mut cfg = SyntheticConfig::new(size.appranks(), 2.0);
            cfg.iterations = size.synthetic_iterations;
            cfg.seed = case.seed;
            Box::new(synthetic_workload(&cfg, platform))
        }
        App::Nbody => {
            let ranks = size.appranks();
            let mut cfg = NBodyConfig::new(size.nbody_bodies_per_rank * ranks, ranks);
            cfg.iterations = size.nbody_iterations;
            cfg.force_cost = 2e-6;
            cfg.seed = case.seed;
            Box::new(NBodyWorkload::new(cfg))
        }
    }
}

/// Everything of a report that must repeat exactly for a given case.
pub fn fingerprint(report: &SimReport) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend(report.makespan.as_secs_f64().to_bits().to_le_bytes());
    bytes.extend(report.events.to_le_bytes());
    bytes.extend((report.total_tasks as u64).to_le_bytes());
    bytes.extend((report.offloaded_tasks as u64).to_le_bytes());
    for t in &report.iteration_times {
        bytes.extend(t.as_secs_f64().to_bits().to_le_bytes());
    }
    tlb_sweep::fnv1a64(&bytes)
}

/// A workload wrapper that times the application callbacks from outside.
pub struct TimedWorkload<W> {
    inner: W,
    /// Host time spent inside `tasks` and `end_iteration`.
    pub callbacks: Duration,
}

impl<W: Workload> TimedWorkload<W> {
    /// Wrap `inner`.
    pub fn new(inner: W) -> Self {
        TimedWorkload {
            inner,
            callbacks: Duration::ZERO,
        }
    }
}

impl<W: Workload> Workload for &mut TimedWorkload<W> {
    fn appranks(&self) -> usize {
        self.inner.appranks()
    }

    fn iterations(&self) -> usize {
        self.inner.iterations()
    }

    fn tasks(&mut self, rank: usize, iteration: usize) -> Vec<TaskSpec> {
        let t = Instant::now();
        let out = self.inner.tasks(rank, iteration);
        self.callbacks += t.elapsed();
        out
    }

    fn end_iteration(&mut self, iteration: usize, rank_seconds: &[f64]) {
        let t = Instant::now();
        self.inner.end_iteration(iteration, rank_seconds);
        self.callbacks += t.elapsed();
    }
}

/// One measured simulation.
pub struct Sample {
    /// Host seconds of the application constructor.
    pub build_s: f64,
    /// Host seconds of `ClusterSim::execute`.
    pub exec_s: f64,
    /// The report.
    pub report: SimReport,
}

/// Hand the memory freed by earlier samples back to the kernel, so that
/// every sample faults in fresh pages as a new process would, instead of
/// reusing the physical pages (and their cache placement) the first
/// samples of this process happened to get.
pub fn release_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns free heap memory to
        // the kernel; it takes no pointers and touches no live allocation.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Build and execute one case untraced, timing both from outside.
pub fn sample(app: App, size: &SimSize, case: &Case) -> Result<Sample, String> {
    release_heap();
    let platform = platform(size);
    let cfg = config(size, case);
    let t = Instant::now();
    let wl = build(app, size, &platform, case);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report =
        ClusterSim::execute(RunSpec::new(&platform, &cfg, wl)).map_err(|e| e.to_string())?;
    let exec_s = t.elapsed().as_secs_f64();
    Ok(Sample {
        build_s,
        exec_s,
        report,
    })
}
