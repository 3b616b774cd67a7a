//! The three benchmark workloads: which registry scenario each runs, how
//! the benchmark seed reaches its inputs, and the untraced passes.

use std::time::Instant;

use bench::scenario::{registry, RunReport, ScenarioSpec, WorkloadSpec};
use simcore::time::{secs, SimTime};
use streamflow::instance::SourceGen;
use streamflow::{OpId, ParallelReport, Sim};
use workloads::nexmark::PersonAuctionGen;
use workloads::twitch::TwitchGen;

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Benchmark name.
    pub name: &'static str,
    /// The registry scenario it runs.
    pub registry: &'static str,
    /// Scheduler regions and cut-channel resume latency (µs); regions > 1
    /// runs on `run_parallel` with one thread per region.
    pub regions: usize,
    /// See `regions`.
    pub resume_latency: SimTime,
    /// Start of the window the `sim_*` metrics are computed over, in
    /// simulated seconds: the scale request for the rescale workloads.
    pub window_from_s: u64,
    /// Width of that window, seconds (fixed here, never derived from the
    /// run, so a model change cannot move the window it is judged on).
    pub window_s: u64,
}

/// Every workload, in the order the benchmark lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "twitch_drrs",
        registry: "fig10_11/Twitch/DRRS/seed1",
        regions: 1,
        resume_latency: 0,
        window_from_s: 300,
        window_s: 60,
    },
    Workload {
        name: "q8_drrs",
        registry: "fig10_11/Q8/DRRS/seed1",
        regions: 1,
        resume_latency: 0,
        window_from_s: 300,
        window_s: 60,
    },
    Workload {
        name: "cut_pdes_r2",
        registry: "perf/cut_pipeline_100k",
        regions: 2,
        resume_latency: 100,
        window_from_s: 2,
        window_s: 8,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Spread a benchmark seed into a 64-bit perturbation; seed 0 maps to 0,
/// so it reproduces the registry's own inputs.
pub fn mix(seed: u64) -> u64 {
    if seed == 0 {
        return 0;
    }
    // splitmix64 finaliser.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// The registry spec in this workload's engine configuration, with the
    /// benchmark seed folded into the engine seed.
    pub fn spec(&self, seed: u64) -> ScenarioSpec {
        let spec = registry::find(self.registry, false)
            .unwrap_or_else(|| panic!("registry scenario {} is missing", self.registry));
        let engine_seed = spec.seed ^ mix(seed);
        spec.with_regions(self.regions)
            .with_resume_latency(self.resume_latency)
            .with_seed(engine_seed)
    }

    /// Does this workload run on the thread-per-region executor?
    pub fn threaded(&self) -> bool {
        self.regions > 1
    }

    /// The `sim_*` window `[from, to)` in µs.
    pub fn window(&self) -> (SimTime, SimTime) {
        let from = secs(self.window_from_s);
        (from, from + secs(self.window_s))
    }
}

/// Build the ready-to-run simulation for `spec` and re-seed its sources
/// from the benchmark seed (`SourceState::gen` is public, and the stock
/// generators have public constructors). The replacement generators use
/// the workloads crate's own per-subtask seeds XOR `mix(seed)`, so seed 0
/// rebuilds the registry's generators exactly. The `perf` tiny job's
/// `FixedGen` has no RNG; its replacement keeps the round-robin stream and
/// relabels the keys (see [`PermutedRoundRobin`]).
pub fn build(spec: &ScenarioSpec, seed: u64) -> (Sim, OpId) {
    let (mut sim, op) = spec.build_sim();
    let m = mix(seed);
    let w = &mut sim.world;
    let (insts, ops) = (&mut w.insts, &w.ops);
    for inst in insts.iter_mut() {
        let Some(src) = inst.source.as_mut() else {
            continue;
        };
        let i = inst.local_idx as u64;
        let name = ops[inst.op.0 as usize].name.as_str();
        match (&spec.workload, name) {
            (WorkloadSpec::Twitch(p), "events") => {
                src.gen = Box::new(TwitchGen::new(
                    p.events / 2,
                    p.duration_s,
                    (0x7017C4 + i) ^ m,
                    p.batch,
                ));
            }
            (WorkloadSpec::Q8(p), "persons" | "auctions") => {
                let (ratio, base) = if name == "persons" {
                    (0.0, 0x0E01)
                } else {
                    (1.0, 0x0E11)
                };
                src.gen = Box::new(PersonAuctionGen::new(
                    p.tps / 2.0,
                    20_000,
                    ratio,
                    (base + i) ^ m,
                    p.batch,
                ));
            }
            (WorkloadSpec::TinyJob { rate, universe, .. }, _) => {
                src.gen = Box::new(PermutedRoundRobin::new(*rate, *universe, m));
            }
            (wl, name) => panic!("no re-seeding rule for source {name:?} of {wl:?}"),
        }
    }
    (sim, op)
}

/// The tiny job's round-robin key stream (`FixedGen`: record `i` carries
/// key `i mod universe`) with its keys relabelled by the affine bijection
/// `k -> (a*k + b) mod universe`, `a` coprime to the universe. `FixedGen`
/// has no RNG of its own; this relabelling is the only way the benchmark
/// seed reaches this workload's records. Perturbation 0 is the identity,
/// so seed 0 replays `FixedGen` exactly.
struct PermutedRoundRobin {
    rate: f64,
    universe: u64,
    next: u64,
    a: u64,
    b: u64,
}

impl PermutedRoundRobin {
    fn new(rate: f64, universe: u64, m: u64) -> Self {
        let (mut a, b) = if m == 0 {
            (1, 0)
        } else {
            (((m >> 32) % universe) | 1, (m & 0xFFFF_FFFF) % universe)
        };
        while gcd(a, universe) != 1 {
            a += 2;
        }
        Self {
            rate,
            universe,
            next: 0,
            a,
            b,
        }
    }
}

fn gcd(mut x: u64, mut y: u64) -> u64 {
    while y != 0 {
        (x, y) = (y, x % y);
    }
    x
}

impl SourceGen for PermutedRoundRobin {
    fn rate(&self, _t: SimTime) -> f64 {
        self.rate
    }
    fn next(&mut self, _t: SimTime) -> (u64, i64) {
        let k = self.next;
        self.next = (self.next + 1) % self.universe;
        let key = ((self.a as u128 * k as u128 + self.b as u128) % self.universe as u128) as u64;
        (key, 1)
    }
}

/// Result of one untraced pass.
pub struct Pass {
    /// Wall seconds of the run itself.
    pub run_s: f64,
    /// On-CPU seconds of the thread that ran it (sequential passes; NaN
    /// for threaded ones), see [`thread_cpu_s`].
    pub cpu_s: f64,
    /// Observables digest.
    pub digest: u64,
    /// Events dispatched.
    pub events: u64,
    /// Records that reached sinks.
    pub sink_records: u64,
    /// The harvested report (sequential passes only).
    pub report: Option<RunReport>,
    /// The parallel executor's report (threaded passes only).
    pub parallel: Option<ParallelReport>,
}

impl Pass {
    fn from_report(report: RunReport, cpu_s: f64) -> Self {
        Self {
            run_s: report.wall_secs,
            cpu_s,
            digest: report.digest,
            events: report.events,
            sink_records: report.sink_records,
            report: Some(report),
            parallel: None,
        }
    }
}

/// One sequential pass: build, optionally turn the order checker on, run
/// the engine's own loop to the horizon, harvest.
pub fn run_sequential(spec: &ScenarioSpec, seed: u64, checked: bool) -> Pass {
    let (mut sim, op) = build(spec, seed);
    if checked {
        sim.world.cfg.check_semantics = true;
    }
    let (start, cpu0) = (Instant::now(), thread_cpu_s());
    sim.run_until(spec.horizon);
    let (run_s, cpu_s) = (start.elapsed().as_secs_f64(), thread_cpu_s() - cpu0);
    sim.world.bus.finish().expect("Null bus sink never fails");
    Pass::from_report(RunReport::harvest(spec, &sim, op, run_s), cpu_s)
}

/// One threaded pass on `run_parallel` (each worker builds its own
/// replica inside the timed region, as `ScenarioSpec::run_threaded` does).
pub fn run_threaded(spec: &ScenarioSpec, seed: u64) -> Pass {
    let start = Instant::now();
    let rep = streamflow::run_parallel(|| build(spec, seed).0, spec.horizon);
    let run_s = start.elapsed().as_secs_f64();
    Pass {
        run_s,
        cpu_s: f64::NAN,
        digest: rep.digest(),
        events: rep.obs.processed,
        sink_records: rep.obs.sink_records,
        report: None,
        parallel: Some(rep),
    }
}

/// Seconds the calling thread has spent on a CPU: the scheduler's
/// `sum_exec_runtime` from `/proc/thread-self/schedstat`, in ns. On a
/// paravirtualised guest this excludes time the hypervisor stole, which on
/// a shared host is the largest source of wall-clock noise (NaN where the
/// file does not exist).
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |ns| ns / 1e9)
}

/// Host seconds from the spec to a ready `Sim` (build plus re-seeding);
/// the simulation is dropped outside the timed region.
pub fn time_setup(spec: &ScenarioSpec, seed: u64) -> f64 {
    let start = Instant::now();
    let built = build(spec, seed);
    let s = start.elapsed().as_secs_f64();
    drop(built);
    s
}
