//! `perfbench` — the repository benchmark: end-to-end cost and model
//! metrics of three registry workloads, and a traced per-layer breakdown.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --self-test
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics from untraced passes; `--trace 1` reports the
//! per-layer metrics from traced passes (see `trace.rs`) next to an
//! untraced one. Diagnostics go to standard error and to
//! `perfbench/out/` (an append-only run log and per-second span files).
//! An invocation plans its passes to end within `--seconds`, except that
//! it always makes [`MIN_REPS`] timed passes (or one traced pass).

mod trace;
mod workload;

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use trace::{Layer, Span, EV_METRICS, LAYERS, LAYER_NAMES};
use workload::{Pass, Workload};

const OUT_DIR: &str = "perfbench/out";

/// Builds timed per invocation for `setup_s`: at least the minimum on
/// each timing CPU, then more until that CPU's share of the budget is
/// spent (the fastest CPU's median is reported).
const SETUP_MIN_REPS: usize = 9;
const SETUP_MAX_REPS: usize = 200_000;
const SETUP_BUDGET_S: f64 = 1.0;

/// Untraced passes per `--trace 0` invocation never fall below this, even
/// when one pass outlasts `--seconds`.
const MIN_REPS: usize = 3;

/// Host time of the passes that follow the timed ones, in timed passes:
/// the checked pass (the order checker adds about 20%) and the threaded
/// pass (wall time, which steal can double).
const CHECKED_PASSES: f64 = 1.25;
const THREADED_PASSES: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// A digest every pass must have; only the self-test sets it, to show
    /// that a mismatch is counted as a failure.
    expect_digest: Option<u64>,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n       \
         perfbench --self-test\nworkloads: {}",
        workload::WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        let num = |v: &str| {
            v.parse::<u64>()
                .unwrap_or_else(|e| usage(&format!("{flag} {v:?}: {e}")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(v).unwrap_or_else(|| usage(&format!("unknown workload {v:?}"))),
                )
            }
            "--seed" => seed = Some(num(v)),
            "--seconds" => seconds = Some(num(v)),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("--trace {v:?}: expected 0 or 1")),
                })
            }
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if seconds == 0 {
        usage("--seconds must be at least 1");
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        expect_digest: None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() == 1 && args[0] == "--self-test" {
        std::process::exit(self_test());
    }
    let a = parse_args(&args);
    let out = if a.trace { traced(&a) } else { end_to_end(&a) };
    println!("{}", out.to_json());
}

// ---------------------------------------------------------------------
// Host helpers
// ---------------------------------------------------------------------

/// Fixed CPU kernel timed beside each pass, so host drift shows up in the
/// run log next to the numbers it distorts: a xorshift walk over a
/// 256 KiB table (integer ALU plus L2 traffic, like the simulator).
fn calib_kernel() -> f64 {
    let start = Instant::now();
    let mut table = vec![0u64; 32 * 1024];
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..4_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (table.len() - 1);
        table[i] = table[i].wrapping_add(x);
    }
    std::hint::black_box(&table);
    start.elapsed().as_secs_f64()
}

/// Peak resident set of this process (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Seconds the hypervisor stole from this machine's vCPUs so far (the
/// `steal` column of `/proc/stat`, assuming the usual 100 Hz clock tick).
fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|ticks| ticks / 100.0)
        .unwrap_or(f64::NAN)
}

/// The CPUs this process may run on, from `Cpus_allowed_list` in
/// `/proc/self/status` (such as `0-1,4`); empty where it cannot be read.
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("");
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Restrict the calling thread to `cpus` with Linux `sched_setaffinity`;
/// false where that fails.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_affinity(cpus: &[usize]) -> bool {
    const SYS_SCHED_SETAFFINITY: isize = 203;
    let mut mask = [0u64; 16];
    for &c in cpus {
        if c >= 64 * mask.len() {
            return false;
        }
        mask[c / 64] |= 1 << (c % 64);
    }
    let ret: isize;
    // SAFETY: `sched_setaffinity(0, len, mask)` only reads `len` bytes from
    // `mask`, which outlives the call; `syscall` clobbers rcx and r11.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_affinity(_cpus: &[usize]) -> bool {
    false
}

/// The CPUs that timed work rotates over: every allowed CPU where the
/// thread can be pinned, none (one unpinned group) otherwise. On a shared
/// host one virtual CPU can run the same pass 1.4 times slower than
/// another for minutes at a time, and the scheduler puts a thread on
/// either; timing on each CPU and reporting the fastest takes that choice
/// out of the figure.
fn timing_cpus() -> Vec<usize> {
    let all = allowed_cpus();
    if all.len() > 1 && set_affinity(&all[..1]) && set_affinity(&all) {
        all
    } else {
        Vec::new()
    }
}

/// Pin the thread to the `i`-th timing CPU (round robin).
fn pin(cpus: &[usize], i: usize) {
    if !cpus.is_empty() {
        set_affinity(&[cpus[i % cpus.len()]]);
    }
}

/// Let the thread run on every timing CPU again.
fn unpin(cpus: &[usize]) {
    if !cpus.is_empty() {
        set_affinity(cpus);
    }
}

fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// The smallest per-CPU median (groups without samples are skipped).
fn fastest_median(groups: &[Vec<f64>]) -> f64 {
    groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| median(g))
        .fold(f64::INFINITY, f64::min)
}

/// `(q1, median, q3)` with linear interpolation between order statistics.
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |p: f64| {
        if s.is_empty() {
            return f64::NAN;
        }
        let x = p * (s.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

fn unix_ms() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

/// Append one line to the run log (the record of run order and drift).
fn log_run(line: &str) {
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(format!("{OUT_DIR}/runs.jsonl"))?;
        writeln!(f, "{line}")
    }) {
        eprintln!("perfbench: cannot write the run log: {e}");
    }
}

// ---------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------

/// `(name, value, unit)`.
type Metric = (&'static str, f64, &'static str);

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Count one pass; `problems` lists why it failed (empty = passed).
    fn check(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {}", problems.join("; "));
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = json_f64(*value);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number with every digit, or `null` where there is none.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Problems common to every pass: an unexpected digest, a non-silent bus,
/// an unfinished migration.
fn pass_problems(p: &Pass, expect: Option<u64>) -> Vec<String> {
    let mut v = Vec::new();
    if let Some(d) = expect {
        if p.digest != d {
            v.push(format!("digest {:#018x} != expected {d:#018x}", p.digest));
        }
    }
    if let Some(r) = &p.report {
        if r.bus_published != 0 {
            v.push(format!(
                "bus published {} events under the Null sink",
                r.bus_published
            ));
        }
        if r.settled_moves < r.planned_moves {
            v.push(format!(
                "{} of {} planned moves settled",
                r.settled_moves, r.planned_moves
            ));
        }
    }
    if let Some(par) = &p.parallel {
        if par.bus.published != 0 {
            v.push(format!(
                "bus published {} events under the Null sink",
                par.bus.published
            ));
        }
    }
    v
}

// ---------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------

fn end_to_end(a: &Args) -> Outcome {
    let invocation = Instant::now();
    let w = &a.workload;
    let spec = w.spec(a.seed);
    let mut out = Outcome::new();

    // Set-up first, on a fresh heap as a user's run sees it: repeated
    // builds on each timing CPU in turn, the fastest CPU's median
    // reported.
    let cpus = timing_cpus();
    let groups = cpus.len().max(1);
    let mut setups = vec![Vec::new(); groups];
    for (g, reps) in setups.iter_mut().enumerate() {
        pin(&cpus, g);
        let t = Instant::now();
        while reps.len() < SETUP_MIN_REPS
            || (t.elapsed().as_secs_f64() < SETUP_BUDGET_S / groups as f64
                && reps.len() < SETUP_MAX_REPS)
        {
            reps.push(workload::time_setup(&spec, a.seed));
        }
    }

    // Timed passes on the engine's sequential loop, rotating over the
    // timing CPUs with a calibration kernel beside each, while one more
    // pass and the passes after them still fit in the budget.
    let budget = a.seconds as f64;
    let tail = CHECKED_PASSES + if w.threaded() { THREADED_PASSES } else { 0.0 };
    let mut longest: f64 = 0.0;
    let mut runs = Vec::new();
    let mut runs_by_cpu = vec![Vec::new(); groups];
    let mut walls = Vec::new();
    let mut calibs = Vec::new();
    let mut first: Option<Pass> = None;
    let mut rss = f64::NAN;
    let steal0 = steal_s();
    while runs.len() < MIN_REPS
        || invocation.elapsed().as_secs_f64() + longest * (1.0 + tail) <= budget
    {
        pin(&cpus, runs.len());
        let t = Instant::now();
        calibs.push(calib_kernel());
        let p = workload::run_sequential(&spec, a.seed, false);
        longest = longest.max(t.elapsed().as_secs_f64());
        let run = if p.cpu_s.is_finite() {
            p.cpu_s
        } else {
            p.run_s
        };
        runs_by_cpu[runs.len() % groups].push(run);
        runs.push(run);
        walls.push(p.run_s);
        let mut problems = pass_problems(&p, a.expect_digest);
        if let Some(f) = &first {
            if key(&p) != key(f) {
                problems.push(format!(
                    "repetition diverged: digest {:#018x} vs {:#018x}",
                    p.digest, f.digest
                ));
            }
        }
        out.check(&format!("pass {}", runs.len()), &problems);
        if first.is_none() {
            first = Some(p);
            // Peak memory of one pass: read before the checked pass (the
            // order checker's per-key table) and the threaded pass (two
            // replicas) raise it.
            rss = peak_rss_mb();
        }
    }
    let steal = steal_s() - steal0;
    let first = first.expect("at least one pass");
    // The remaining passes run unpinned; the threaded one needs every CPU.
    unpin(&cpus);

    // Checked pass: the engine's order checker on (digest-neutral when it
    // finds nothing).
    let checked = workload::run_sequential(&spec, a.seed, true);
    let mut problems = pass_problems(&checked, a.expect_digest);
    let cr = checked
        .report
        .as_ref()
        .expect("sequential pass has a report");
    if cr.violations != 0 {
        problems.push(format!("{} order violations", cr.violations));
    }
    if checked.digest != first.digest {
        problems.push(format!(
            "checked digest {:#018x} != timed digest {:#018x}",
            checked.digest, first.digest
        ));
    }
    out.check("checked pass", &problems);

    // Threaded pass: `run_parallel` must reproduce the sequential PDES
    // digest.
    let mut threaded_s = f64::NAN;
    if w.threaded() {
        let th = workload::run_threaded(&spec, a.seed);
        let mut problems = pass_problems(&th, a.expect_digest);
        if key(&th) != key(&first) {
            problems.push(format!(
                "threaded digest {:#018x} != sequential PDES digest {:#018x}",
                th.digest, first.digest
            ));
        }
        out.check("threaded pass", &problems);
        threaded_s = th.run_s;
    }

    // Model metrics over the workload's fixed window.
    let model = first.report.as_ref().expect("sequential pass has a report");
    let (lo, hi) = w.window();
    let (peak, avg) = model.latency_ms(lo, hi);
    let thr = model.mean_throughput(lo / 1_000_000, hi / 1_000_000);

    let (q1, med, q3) = quartiles(&runs);
    let run_s = fastest_median(&runs_by_cpu);
    out.metric("run_s", run_s, "s");
    out.metric("setup_s", fastest_median(&setups), "s");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("sim_peak_latency_ms", peak, "ms");
    out.metric("sim_avg_latency_ms", avg, "ms");
    out.metric("sim_throughput_rps", thr, "rec/s");

    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.6}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let medians = |groups: &[Vec<f64>]| groups.iter().map(|g| median(g)).collect::<Vec<_>>();
    let (run_by_cpu, setup_by_cpu) = (medians(&runs_by_cpu), medians(&setups));
    eprintln!(
        "perfbench: {} seed {} run_s {run_s:.4} (fastest of CPUs {cpus:?}: {}); all passes' CPU \
         seconds q1/median/q3 {q1:.4}/{med:.4}/{q3:.4} over {} passes; wall median {:.4}; \
         calib_s median {:.4}; steal {steal:.2} s; threaded {threaded_s:.3} s; \
         digest {:#018x}; failed {}/{}; {:.1} s in all",
        w.name,
        a.seed,
        fmt(&run_by_cpu),
        runs.len(),
        median(&walls),
        median(&calibs),
        first.digest,
        out.failed,
        out.attempted,
        invocation.elapsed().as_secs_f64()
    );
    log_run(&format!(
        "{{\"unix_ms\": {}, \"workload\": \"{}\", \"seed\": {}, \"trace\": 0, \
         \"digest\": \"{:#018x}\", \"cpus\": {cpus:?}, \"run_s\": [{}], \
         \"run_s_quartiles\": [{q1}, {med}, {q3}], \"run_s_by_cpu\": [{}], \"setup_s_by_cpu\": [{}], \
         \"wall_s\": [{}], \"calib_s\": [{}], \"steal_s\": {steal}, \"threaded_s\": {}, \"setup_reps\": {}, \
         \"failed\": {}, \"attempted\": {}}}",
        unix_ms(),
        w.name,
        a.seed,
        first.digest,
        fmt(&runs),
        fmt(&run_by_cpu),
        fmt(&setup_by_cpu),
        fmt(&walls),
        fmt(&calibs),
        json_f64(threaded_s),
        setups.iter().map(Vec::len).sum::<usize>(),
        out.failed,
        out.attempted
    ));
    out
}

// ---------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------

/// What one traced pass produced.
struct TracedPass {
    pass: Pass,
    trace: trace::LoopTrace,
    state_bytes: u64,
    latency_points: u64,
}

/// Build, instrument, drive by hand, harvest.
fn run_traced(spec: &bench::scenario::ScenarioSpec, seed: u64) -> TracedPass {
    let (mut sim, op) = workload::build(spec, seed);
    trace::instrument(&mut sim);
    let cpu0 = workload::thread_cpu_s();
    let t = trace::drive(&mut sim, spec.horizon);
    let cpu_s = workload::thread_cpu_s() - cpu0;
    sim.world.bus.finish().expect("Null bus sink never fails");
    let state_bytes = (0..sim.world.ops.len())
        .map(|i| sim.world.op_state_bytes(streamflow::OpId(i as u32)))
        .sum();
    let latency_points = sim.world.metrics.latency.points().len() as u64;
    let report = bench::scenario::RunReport::harvest(spec, &sim, op, t.wall_s);
    TracedPass {
        pass: Pass {
            run_s: t.wall_s,
            cpu_s,
            digest: report.digest,
            events: report.events,
            sink_records: report.sink_records,
            report: Some(report),
            parallel: None,
        },
        trace: t,
        state_bytes,
        latency_points,
    }
}

/// The per-layer metrics of one traced pass (`plain` is the untraced
/// sequential pass, `threaded` the `run_parallel` pass where there is one).
fn layer_metrics(tp: &TracedPass, plain: &Pass, threaded: Option<&Pass>) -> Vec<Metric> {
    let mut m = Outcome::new();
    let t = &tp.trace;
    let r = tp.pass.report.as_ref().expect("sequential report");
    let events = t.events.max(1) as f64;

    // FEL.
    m.metric("fel.pop_s", t.fel_s, "s");
    m.metric("fel.runs", t.runs as f64, "count");
    m.metric("fel.events", t.events as f64, "count");
    m.metric(
        "fel.events_per_run",
        t.events as f64 / t.runs.max(1) as f64,
        "ratio",
    );
    m.metric("fel.ns_per_event", t.fel_s * 1e9 / events, "ns");
    m.metric("fel.pending_max", t.pending_max as f64, "count");
    // Dispatch.
    let dispatch_self = t.layer_s(Layer::Dispatch);
    m.metric("dispatch.self_s", dispatch_self, "s");
    m.metric("dispatch.ns_per_event", dispatch_self * 1e9 / events, "ns");
    for (name, n) in EV_METRICS.iter().zip(t.ev_kinds) {
        m.metric(name, n as f64, "count");
    }
    // Operators and state.
    let (rec, wm) = (t.span(Span::OnRecord), t.span(Span::OnWatermark));
    m.metric("operator.on_record_s", rec.self_s(), "s");
    m.metric("operator.on_record_calls", rec.calls as f64, "count");
    m.metric("operator.on_watermark_s", wm.self_s(), "s");
    m.metric("operator.on_watermark_calls", wm.calls as f64, "count");
    m.metric("state.bytes", tp.state_bytes as f64, "bytes");
    // Sources.
    let next = t.span(Span::SourceNext);
    m.metric("source.next_s", next.self_s(), "s");
    m.metric("source.next_calls", next.calls as f64, "count");
    // Mechanism hooks.
    let record_hooks: f64 = [Span::Admit, Span::Selects, Span::Select, Span::RecordHook]
        .iter()
        .map(|&s| t.span(s).self_s())
        .sum();
    let control = t.span(Span::Control);
    m.metric("mechanism.record_hooks_s", record_hooks, "s");
    m.metric(
        "mechanism.admit_calls",
        t.span(Span::Admit).calls as f64,
        "count",
    );
    m.metric(
        "mechanism.selects_calls",
        t.span(Span::Selects).calls as f64,
        "count",
    );
    m.metric("mechanism.control_hooks_s", control.self_s(), "s");
    m.metric("mechanism.control_calls", control.calls as f64, "count");
    // Mechanism model (the paper's Fig. 12/13 breakdown).
    m.metric("mechanism.lp_ms", r.lp_ms, "ms");
    m.metric("mechanism.ld_ms", r.ld_ms, "ms");
    m.metric("mechanism.suspension_ms", r.suspension_ms, "ms");
    m.metric("mechanism.bytes_moved", r.bytes_transferred as f64, "bytes");
    m.metric("mechanism.moves_planned", r.planned_moves as f64, "count");
    m.metric("mechanism.moves_settled", r.settled_moves as f64, "count");
    let migration_s = if r.migration_done.is_some() {
        r.migration_secs()
    } else {
        0.0
    };
    m.metric("mechanism.migration_s", migration_s, "s");
    // PDES executor.
    let (epochs, busy, sent, overflowed, max_share, seq_s, speedup) = match threaded {
        Some(th) => {
            let par = th.parallel.as_ref().expect("threaded report");
            let total: u64 = par.per_region_events.iter().sum();
            let max = par.per_region_events.iter().copied().max().unwrap_or(0);
            (
                par.stats.epochs,
                par.stats.busy_epochs,
                par.stats.msgs_sent,
                par.stats.msgs_overflowed,
                max as f64 / total.max(1) as f64,
                plain.run_s,
                plain.run_s / th.run_s,
            )
        }
        None => (0, 0, 0, 0, 0.0, 0.0, 0.0),
    };
    m.metric("pdes.epochs", epochs as f64, "count");
    m.metric("pdes.busy_epochs", busy as f64, "count");
    m.metric(
        "pdes.events_per_epoch",
        if epochs == 0 {
            0.0
        } else {
            t.events as f64 / epochs as f64
        },
        "ratio",
    );
    m.metric("pdes.msgs_sent", sent as f64, "count");
    m.metric("pdes.msgs_overflowed", overflowed as f64, "count");
    m.metric("pdes.region_events_max_share", max_share, "ratio");
    m.metric("pdes.seq_run_s", seq_s, "s");
    m.metric(
        "pdes.threaded_run_s",
        threaded.map_or(0.0, |th| th.run_s),
        "s",
    );
    m.metric("pdes.speedup", speedup, "ratio");
    // Metrics store.
    m.metric("metrics.latency_points", tp.latency_points as f64, "count");
    // Harness. FEL and dispatch are estimated from sampled runs, apart
    // from the loop's wall time, and dispatch enters unclamped, so this sum
    // can miss the wall time either way.
    let accounted: f64 = t.dispatch_residual_s()
        + [Layer::Fel, Layer::Operator, Layer::Source, Layer::Mechanism]
            .iter()
            .map(|&l| t.layer_s(l))
            .sum::<f64>();
    // On-CPU time on both sides, like `run_s`.
    m.metric("trace.overhead_s", tp.pass.cpu_s - plain.cpu_s, "s");
    m.metric("trace.accounted_frac", accounted / t.wall_s, "ratio");
    m.metric("trace.harness_s", t.harness_s, "s");
    m.metric("trace.wrapper_s", t.wrapper_s, "s");
    // How far the independently sampled layer and harness estimates miss
    // the loop's measured wall time.
    m.metric(
        "trace.residual_frac",
        (t.wall_s - accounted - t.harness_s).abs() / t.wall_s,
        "ratio",
    );
    m.metric("trace.overshoot_s", t.overshoot_s, "s");
    m.metrics
}

fn traced(a: &Args) -> Outcome {
    let invocation = Instant::now();
    let w = &a.workload;
    let spec = w.spec(a.seed);
    let mut out = Outcome::new();
    let mut calibs = vec![calib_kernel()];

    // Untraced reference on the same engine the traced loop drives (the
    // sequential one), plus the threaded pass on the PDES workload.
    let threaded = if w.threaded() {
        let p = workload::run_threaded(&spec, a.seed);
        out.check("threaded pass", &pass_problems(&p, a.expect_digest));
        calibs.push(calib_kernel());
        Some(p)
    } else {
        None
    };
    // The untraced and traced passes share one CPU, so that
    // `trace.overhead_s` does not compare two CPUs' speeds.
    let cpus = timing_cpus();
    pin(&cpus, 0);
    let plain = workload::run_sequential(&spec, a.seed, false);
    let mut problems = pass_problems(&plain, a.expect_digest);
    if let Some(th) = &threaded {
        if key(th) != key(&plain) {
            problems.push(format!(
                "threaded digest {:#018x} != sequential PDES digest {:#018x}",
                th.digest, plain.digest
            ));
        }
    }
    out.check("untraced pass", &problems);

    // Traced passes while one more fits in the budget: each must match
    // the untraced pass, and repeat the first traced pass's exact counts.
    let mut longest: f64 = 0.0;
    let mut passes: Vec<TracedPass> = Vec::new();
    while passes.is_empty() || invocation.elapsed().as_secs_f64() + longest <= a.seconds as f64 {
        let t = Instant::now();
        calibs.push(calib_kernel());
        let tp = run_traced(&spec, a.seed);
        longest = longest.max(t.elapsed().as_secs_f64());
        let mut problems = pass_problems(&tp.pass, a.expect_digest);
        if key(&tp.pass) != key(&plain) {
            problems.push(format!(
                "traced (digest {:#018x}, events {}, sink {}) != untraced ({:#018x}, {}, {})",
                tp.pass.digest,
                tp.pass.events,
                tp.pass.sink_records,
                plain.digest,
                plain.events,
                plain.sink_records
            ));
        }
        if let Some(f) = passes.first() {
            if exact_counts(&tp) != exact_counts(f) {
                problems.push("exact counts differ from the first traced pass".to_string());
            }
        }
        out.check(&format!("traced pass {}", passes.len() + 1), &problems);
        passes.push(tp);
    }

    // Each metric is the median over the traced passes (exact counts are
    // equal in every pass, so their median is the count itself).
    let per_pass: Vec<Vec<Metric>> = passes
        .iter()
        .map(|tp| layer_metrics(tp, &plain, threaded.as_ref()))
        .collect();
    for (i, &(name, _, unit)) in per_pass[0].iter().enumerate() {
        let vals: Vec<f64> = per_pass.iter().map(|ms| ms[i].1).collect();
        out.metric(name, median(&vals), unit);
    }
    out.metric("host.calib_s", median(&calibs), "s");
    out.metric(
        "check.failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );

    let t = &passes[0].trace;
    write_spans(w, a.seed, t);
    let walls: Vec<f64> = passes.iter().map(|tp| tp.trace.wall_s).collect();
    eprintln!(
        "perfbench: {} seed {} traced median {:.3} s over {} passes vs untraced {:.3} s \
         (timer {} ns, wrapper {}/{} ns untimed/timed, 1/{} sampled); digest {:#018x}; \
         failed {}/{}; {:.1} s in all",
        w.name,
        a.seed,
        median(&walls),
        walls.len(),
        plain.run_s,
        t.timer_ns,
        t.wrap_ns.0,
        t.wrap_ns.1,
        trace::SAMPLE_EVERY,
        plain.digest,
        out.failed,
        out.attempted,
        invocation.elapsed().as_secs_f64()
    );
    log_run(&format!(
        "{{\"unix_ms\": {}, \"workload\": \"{}\", \"seed\": {}, \"trace\": 1, \
         \"digest\": \"{:#018x}\", \"traced_s\": [{}], \"untraced_s\": {}, \"calib_s\": {}, \
         \"failed\": {}, \"attempted\": {}}}",
        unix_ms(),
        w.name,
        a.seed,
        plain.digest,
        walls
            .iter()
            .map(|x| format!("{x:.6}"))
            .collect::<Vec<_>>()
            .join(","),
        plain.run_s,
        median(&calibs),
        out.failed,
        out.attempted
    ));
    out
}

/// Digest, events and sink records: what two equivalent passes share.
fn key(p: &Pass) -> (u64, u64, u64) {
    (p.digest, p.events, p.sink_records)
}

/// Every count a traced pass takes that must repeat exactly across passes.
fn exact_counts(t: &TracedPass) -> impl PartialEq + std::fmt::Debug {
    let s = |k| t.trace.span(k).calls;
    (
        (t.trace.runs, t.trace.events, t.trace.pending_max),
        t.trace.ev_kinds,
        [
            s(Span::OnRecord),
            s(Span::OnWatermark),
            s(Span::SourceNext),
            s(Span::Admit),
            s(Span::Selects),
            s(Span::Select),
            s(Span::RecordHook),
            s(Span::Control),
        ],
        (t.state_bytes, t.latency_points),
        t.pass.report.as_ref().map(|r| {
            (
                r.lp_ms.to_bits(),
                r.ld_ms.to_bits(),
                r.suspension_ms.to_bits(),
                r.bytes_transferred,
                r.planned_moves,
                r.settled_moves,
            )
        }),
    )
}

/// One line per simulated second: each layer's self seconds.
fn write_spans(w: &Workload, seed: u64, t: &trace::LoopTrace) {
    let mut s = String::new();
    for (sec, row) in t.per_sec.iter().enumerate() {
        let _ = write!(s, "{{\"sec\": {sec}");
        for l in 0..LAYERS {
            let _ = write!(s, ", \"{}_s\": {:?}", LAYER_NAMES[l], row[l] / 1e9);
        }
        s.push_str("}\n");
    }
    let path = format!("{OUT_DIR}/spans-{}-seed{seed}.jsonl", w.name);
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, s)) {
        eprintln!("perfbench: cannot write {path}: {e}");
    }
}

// ---------------------------------------------------------------------
// --self-test
// ---------------------------------------------------------------------

/// The benchmark's own checks, on every workload:
/// 1. seed 0 reproduces the registry scenario's digest (re-seeding is
///    exact);
/// 2. the traced pass agrees with the untraced pass on digest, events and
///    sink records (the wrappers are digest-neutral), and its exact
///    counts repeat across two traced passes;
/// 3. a wrong expected digest makes `failed` non-zero.
fn self_test() -> i32 {
    let mut bad = 0;
    let mut fail = |ok: bool, what: String| {
        eprintln!("self-test {}: {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            bad += 1;
        }
    };
    for w in workload::WORKLOADS {
        // `ScenarioSpec::run` builds with the registry's own generators.
        let spec = w.spec(0);
        let r = spec.run();
        let reference = (r.digest, r.events, r.sink_records);
        let plain = workload::run_sequential(&spec, 0, false);
        fail(
            key(&plain) == reference,
            format!(
                "{}: seed 0 digest {:#018x} equals the registry's {:#018x}",
                w.name, plain.digest, reference.0
            ),
        );
        if w.threaded() {
            let th = workload::run_threaded(&spec, 0);
            fail(
                key(&th) == reference,
                format!(
                    "{}: threaded digest {:#018x} equals the sequential PDES digest",
                    w.name, th.digest
                ),
            );
        }
        let t1 = run_traced(&spec, 0);
        let t2 = run_traced(&spec, 0);
        fail(
            key(&t1.pass) == key(&plain),
            format!(
                "{}: traced digest {:#018x} equals untraced {:#018x}",
                w.name, t1.pass.digest, plain.digest
            ),
        );
        fail(
            exact_counts(&t1) == exact_counts(&t2),
            format!("{}: exact counts repeat across traced passes", w.name),
        );
        let wrong = Args {
            workload: w,
            seed: 0,
            seconds: 1,
            trace: false,
            expect_digest: Some(reference.0 ^ 1),
        };
        let o = end_to_end(&wrong);
        fail(
            o.failed > 0,
            format!(
                "{}: a wrong expected digest fails {}/{} passes",
                w.name, o.failed, o.attempted
            ),
        );
    }
    if bad == 0 {
        eprintln!("self-test: all checks passed");
        0
    } else {
        eprintln!("self-test: {bad} check(s) failed");
        1
    }
}
