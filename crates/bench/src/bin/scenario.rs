//! `scenario` — the registry/runner CLI: list, run, and digest-check named
//! scenarios without going through a figure binary.
//!
//! ```bash
//! scenario --list                      # every registered name
//! scenario --run perf/steady_50k       # one run; prints a digest line
//! scenario --run NAME --emit report.json   # also write the RunReport JSON
//! scenario --group perf                # run a whole group, one line each
//! scenario --group perf --threads 4    # pin the worker pool to 4 threads
//! scenario --run NAME --regions 2 --resume-latency 100 --threads 2
//!                                      # thread-per-region parallel PDES run
//! scenario --run NAME --sync-stats     # also print region/bus accounting
//! ```
//!
//! The digest lines on stdout are fully deterministic (`name digest events
//! sink_records`), so `scenario --group perf` run twice and diffed is a
//! process-level determinism smoke — CI's `digest-stability` job uses
//! exactly that. `--regions K` with K > 1 is PDES mode and needs a
//! positive `--resume-latency`; without one the CLI exits 2. With `--run`,
//! `--threads N` (N > 1) executes on the thread-per-region parallel engine
//! instead — the digest line keeps the same format (events = merged
//! processed count), so CI diffs a threaded run directly against the
//! sequential run at the same `--regions`/`--resume-latency`. With
//! `--group`, `--threads N` pins the sweep worker pool (first-class form
//! of the `SWEEP_THREADS` env var, which stays as the fallback); each
//! worker still runs one sequential sim. `--sync-stats` appends a second,
//! equally deterministic line per run with the per-region event counts,
//! the epoch synchronization counters (parallel runs only), and the bus
//! lag/drop accounting — every number on it is reproducible, so two
//! `--sync-stats` runs diff clean. `--events FILE` turns on the event bus
//! and writes the published stream as JSONL: sequential runs stream
//! through the attached sink-worker thread; `--threads N` runs buffer per
//! region and write the `(at, region)`-merged stream after the join. Each
//! engine's stream is byte-deterministic across reruns (the two engines
//! publish different — but each individually reproducible — telemetry:
//! the parallel executor samples per-epoch sync counters and region-0
//! metrics ticks only).
//! `QUICK=1` compresses the grids as everywhere else.

use bench::quick;
use bench::scenario::registry;
use bench::scenario::{Runner, ScenarioSpec};

fn usage() -> ! {
    eprintln!(
        "usage: scenario --list | --run NAME [--emit FILE] [--events FILE] | --group PREFIX\n\
         \x20       [--regions K] [--threads N] [--resume-latency MICROS] [--sync-stats]\n\
         (QUICK=1 in the environment compresses timelines)"
    );
    std::process::exit(2);
}

/// Exit 2 unless a multi-region spec has the positive resume latency PDES
/// mode needs (the engine would otherwise panic at build time).
fn require_pdes_latency(spec: &ScenarioSpec) {
    if spec.regions > 1 && spec.resume_latency == 0 {
        eprintln!(
            "scenario: --regions {} needs a positive --resume-latency \
             (more than one region is PDES mode)",
            spec.regions
        );
        std::process::exit(2);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().position(|a| a == name);
    let value = |name: &str| flag(name).and_then(|i| args.get(i + 1).cloned());
    let parsed = |name: &str| {
        value(name).map(|v| {
            v.parse::<usize>().unwrap_or_else(|e| {
                eprintln!("scenario: {name} {v:?}: {e}");
                std::process::exit(2);
            })
        })
    };
    let regions = parsed("--regions");
    let threads = parsed("--threads");
    let resume_latency = parsed("--resume-latency").map(|v| v as u64);
    let sync_stats = flag("--sync-stats").is_some();

    if flag("--list").is_some() {
        for s in registry::all(quick()) {
            println!("{}", s.name);
        }
        return;
    }

    if let Some(name) = value("--run") {
        let Some(mut spec) = registry::find(&name, quick()) else {
            eprintln!("scenario: unknown scenario {name:?} (see --list)");
            std::process::exit(2);
        };
        if let Some(r) = regions {
            spec = spec.with_regions(r);
        }
        if let Some(rl) = resume_latency {
            spec = spec.with_resume_latency(rl);
        }
        require_pdes_latency(&spec);
        let events_path = value("--events");
        if let Some(p) = &events_path {
            spec = spec.with_events_path(p.clone());
        }
        if threads.map(|t| t > 1).unwrap_or(false) {
            // Thread-per-region parallel execution. There is no merged
            // World to harvest a full RunReport from, so --emit has
            // nothing faithful to write — reject it instead of emitting
            // a partial report.
            if value("--emit").is_some() {
                eprintln!(
                    "scenario: --emit is not supported with --threads > 1 \
                     (no merged RunReport exists; drop --threads or --emit)"
                );
                std::process::exit(2);
            }
            let (report, _wall) = spec.run_threaded();
            if let Some(path) = &events_path {
                // Each replica buffered its own region's events; write the
                // (at, region)-merged stream serially — byte-identical to
                // what a sequential run streams through the sink worker.
                let file =
                    std::fs::File::create(path).unwrap_or_else(|e| panic!("creating {path}: {e}"));
                let mut out = std::io::BufWriter::new(file);
                for ev in &report.bus_events {
                    ev.write_jsonl(&mut out)
                        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
                }
                use std::io::Write as _;
                out.flush()
                    .unwrap_or_else(|e| panic!("flushing {path}: {e}"));
                eprintln!(
                    "scenario: wrote {path} ({} events)",
                    report.bus_events.len()
                );
            }
            println!(
                "{} digest 0x{:016x} events {} sink_records {}",
                spec.name,
                report.digest(),
                report.obs.processed,
                report.obs.sink_records
            );
            if sync_stats {
                println!(
                    "{} threads {} region_events {:?} epochs {} busy_epochs {} \
                     msgs_sent {} msgs_overflowed {} bus_published {} bus_dropped {} \
                     bus_lag_max {}",
                    spec.name,
                    report.threads,
                    report.per_region_events,
                    report.stats.epochs,
                    report.stats.busy_epochs,
                    report.stats.msgs_sent,
                    report.stats.msgs_overflowed,
                    report.bus.published,
                    report.bus.dropped,
                    report.bus.lag_max
                );
            }
            return;
        }
        let report = spec.run();
        if let Some(path) = value("--emit") {
            std::fs::write(&path, report.to_json(""))
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("scenario: wrote {path}");
        }
        println!(
            "{} digest 0x{:016x} events {} sink_records {}",
            report.scenario, report.digest, report.events, report.sink_records
        );
        if sync_stats {
            println!(
                "{} region_events {:?} bus_published {} bus_dropped {} bus_lag_max {}",
                report.scenario,
                report.region_events,
                report.bus_published,
                report.bus_dropped,
                report.bus_lag_max
            );
        }
        return;
    }

    if let Some(prefix) = value("--group") {
        if value("--events").is_some() {
            eprintln!(
                "scenario: --events needs a single run (the group's streams \
                 would clobber one file); use --run NAME --events FILE"
            );
            std::process::exit(2);
        }
        let specs: Vec<_> = registry::all(quick())
            .into_iter()
            .filter(|s| s.name.starts_with(&prefix))
            .map(|s| {
                let s = match regions {
                    Some(r) => s.with_regions(r),
                    None => s,
                };
                match resume_latency {
                    Some(rl) => s.with_resume_latency(rl),
                    None => s,
                }
            })
            .collect();
        if specs.is_empty() {
            eprintln!("scenario: no scenarios match prefix {prefix:?} (see --list)");
            std::process::exit(2);
        }
        specs.iter().for_each(require_pdes_latency);
        let reports = Runner::in_process().with_threads(threads).run(&specs);
        for r in &reports {
            println!(
                "{} digest 0x{:016x} events {} sink_records {}",
                r.scenario, r.digest, r.events, r.sink_records
            );
            if sync_stats {
                println!(
                    "{} region_events {:?} bus_published {} bus_dropped {} bus_lag_max {}",
                    r.scenario, r.region_events, r.bus_published, r.bus_dropped, r.bus_lag_max
                );
            }
        }
        return;
    }

    usage()
}
