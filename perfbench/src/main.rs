//! The kernel benchmark. One command runs one named workload in this
//! process, checks its results, and prints every metric with its unit:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpcc-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `tpcc.rs` and `point.rs` for their shapes):
//! * `tpcc-hot`: TPC-C, 2 warehouses, pool sized to stay resident. Commit
//!   and WAL, MVCC and twin tables, ID locks on the warehouse hot spot,
//!   descents; the buffer-miss path stays idle.
//! * `point-read`: 16-key `multi_lookup` transactions over 2^20 resident
//!   rows: descent, latching, visibility and scheduling without commit
//!   waits, WAL or locks.
//!
//! Two larger-than-memory workloads run the same way but are not in
//! BENCHMARK.json, because the kernel fails their checks; they stay as
//! reproducers:
//! * `tpcc-cold`: TPC-C through a 192-frame pool below the loaded data.
//!   A B-tree split under eviction can fail ("child slot missing") and
//!   lose committed order lines; on a 2-core host about one run in
//!   fifteen fails.
//! * `point-cold`: the point reads through a 768-frame pool, a fourteenth
//!   of the data. Batched descents that suspend on buffer faults can fail
//!   ("index descend hit non-index leaf") or return wrong values; on a
//!   2-core host two of five seeds fail in the warm-up.
//!
//! `--trace 0` measures `--seconds` on a fresh set-up, then sets up four
//! more times (the median of the five is `setup_s`), and prints the
//! end-to-end metrics. `--trace 1` measures `--seconds` on a fresh set-up
//! with tracing on in alternate seconds (untraced, traced, traced,
//! untraced, ...), so that the two modes share the host's drift and their
//! difference in commit rate is the tracing overhead. Traced transactions
//! keep every span in memory; the run writes them to
//! `.bench_build/perfbench-trace/<workload>.tsv`, checks that they nest
//! and sum to each transaction's latency, and prints the per-layer
//! metrics. The last line of standard output is always the
//! one-line JSON result; the lines before it are a detail report.
//! Everything the run writes stays under `.bench_build/` in the working
//! directory.

mod point;
mod probe;
mod record;
mod report;
mod seeds;
mod tpcc;

use phoebe_common::Json;
use probe::{Window, PLAIN, TRACED};
use report::{Def, Values};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median. A set-up is short
/// and, on TPC-C, paced by WAL flushes, so one alone is noisy.
const SETUPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    TpccHot,
    TpccCold,
    PointRead,
    PointCold,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Workload::TpccHot, Workload::TpccCold, Workload::PointRead, Workload::PointCold];
    /// The workloads BENCHMARK.json lists.
    #[cfg(test)]
    const BENCHMARKED: [Workload; 2] = [Workload::TpccHot, Workload::PointRead];

    fn name(self) -> &'static str {
        match self {
            Workload::TpccHot => "tpcc-hot",
            Workload::TpccCold => "tpcc-cold",
            Workload::PointRead => "point-read",
            Workload::PointCold => "point-cold",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A set-up kernel of either workload family.
enum Loaded {
    Tpcc(tpcc::Loaded),
    Point(point::Loaded),
}

impl Loaded {
    fn setup(w: Workload, dir: &Path, seconds: u64, seed: u64) -> Result<Loaded, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(match w {
            Workload::TpccHot => Loaded::Tpcc(tpcc::setup(dir, tpcc::hot_frames(seconds), seed)?),
            Workload::TpccCold => Loaded::Tpcc(tpcc::setup(dir, tpcc::COLD_FRAMES, seed)?),
            Workload::PointRead => Loaded::Point(point::setup(dir, point::HOT_FRAMES, seed)?),
            Workload::PointCold => Loaded::Point(point::setup(dir, point::COLD_FRAMES, seed)?),
        })
    }

    fn setup_s(&self) -> f64 {
        match self {
            Loaded::Tpcc(l) => l.setup_s,
            Loaded::Point(l) => l.setup_s,
        }
    }

    fn occupancy(&self) -> probe::Occupancy {
        match self {
            Loaded::Tpcc(l) => l.occupancy,
            Loaded::Point(l) => l.occupancy,
        }
    }

    /// TPC-C's New-Order and Payment kind slots.
    fn tpcc_kinds(&self) -> Option<(usize, usize)> {
        matches!(self, Loaded::Tpcc(_)).then_some((tpcc::NEW_ORDER, tpcc::PAYMENT))
    }

    fn run(&self, seed: u64, stream: u64, seconds: u64, traced: bool) -> Result<Window, String> {
        let stop = tpcc::Stop::Deadline(Instant::now() + Duration::from_secs(seconds));
        match self {
            Loaded::Tpcc(l) => tpcc::run(&l.engine, seed, stream, stop, traced),
            Loaded::Point(l) => point::run(l, seed, stream, stop, traced),
        }
    }

    /// Correctness violations after `w` ran on this kernel.
    fn check(&self, w: &Window, seed: u64) -> Vec<String> {
        let mut bad = Vec::new();
        if w.panics > 0 {
            bad.push(format!("{} clients panicked", w.panics));
        }
        match self {
            Loaded::Tpcc(l) => {
                bad.extend(tpcc::check(l, w.sum(|t| t.committed_by_kind[tpcc::NEW_ORDER]), seed))
            }
            Loaded::Point(_) => {
                let mismatches = w.sum(|t| t.mismatches);
                if mismatches > 0 {
                    bad.push(format!("{mismatches} keys did not return their seeded value"));
                }
            }
        }
        bad
    }

    /// Shut the kernel down (bounded) and delete its files.
    fn close(self, dir: &Path) -> Result<(), String> {
        let db = match self {
            Loaded::Tpcc(l) => l.engine.db,
            Loaded::Point(l) => l.db,
        };
        probe::shutdown(db)?;
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }
}

/// Checks that the run exercised the regime its workload names.
fn regime_violations(w: Workload, win: &Window) -> Vec<String> {
    let d = win.delta();
    let mut bad = Vec::new();
    let page_reads = d.after.io.0 - d.before.io.0;
    let evictions = d.site("eviction").0;
    match w {
        Workload::TpccHot | Workload::PointRead => {
            if page_reads > 0 || evictions > 0 {
                bad.push(format!(
                    "{}: {page_reads} page reads and {evictions} evictions in the window; the data \
                     did not stay resident",
                    w.name()
                ));
            }
        }
        Workload::TpccCold | Workload::PointCold => {
            let idle = win.per_second.iter().filter(|s| s.page_reads == 0).count();
            if win.per_second.is_empty() || idle > 0 {
                bad.push(format!(
                    "{}: {idle} of {} measured seconds without page reads",
                    w.name(),
                    win.per_second.len()
                ));
            }
        }
    }
    // A p99 needs ten samples beyond its rank.
    let committed = win.tallies[PLAIN].committed;
    if committed < 1000 {
        bad.push(format!("only {committed} committed untraced transactions; p99 is unsupported"));
    }
    bad
}

fn timing_json(sorted: &[u64], unit: &str, unit_ns: f64) -> Json {
    let mut j = Json::obj()
        .with("unit", unit)
        .with("samples", sorted.len() as u64)
        .with("p50", report::pct_ns(sorted, 50.0) / unit_ns)
        .with("p99", report::pct_ns(sorted, 99.0) / unit_ns);
    if let Some(t) = record::tail(sorted) {
        j = j.with("tail_pct", t.pct).with("tail", t.value as f64 / unit_ns);
    }
    j
}

/// One human-readable report line about a window.
fn detail(w: Workload, label: &str, win: &Window, loaded: &Loaded) -> String {
    let occ = loaded.occupancy();
    let mut timings = Json::obj();
    match loaded.tpcc_kinds() {
        Some(_) => {
            for (k, name) in tpcc::KIND_NAMES.iter().enumerate() {
                timings =
                    timings.with(*name, timing_json(&report::sorted(win, Some(k)), "ms", 1e6));
            }
        }
        None => {
            timings =
                timings.with("txn.point_read", timing_json(&report::sorted(win, None), "us", 1e3))
        }
    }
    let mut figures = Json::obj();
    for (name, value) in report::workload_figures(win, loaded.tpcc_kinds()) {
        figures = figures.with(name, value);
    }
    let per_second: Vec<Json> = win
        .per_second
        .iter()
        .map(|s| {
            Json::obj()
                .with("tpm", s.committed * 60)
                .with("page_reads", s.page_reads)
                .with("cpu_ms_per_txn", s.cpu_ns as f64 / 1e6 / s.committed.max(1) as f64)
                .with("traced", s.traced)
        })
        .collect();
    let doc = Json::obj()
        .with("workload", w.name())
        .with("window", label)
        .with("cores", std::thread::available_parallelism().map_or(1, |n| n.get()))
        .with("wall_s", win.wall_s())
        .with("attempted", win.sum(|t| t.attempted))
        .with("committed", win.sum(|t| t.committed))
        .with("traced_committed", win.tallies[TRACED].committed)
        .with("failed", win.sum(|t| t.failed))
        .with("retries", win.sum(|t| t.retries))
        .with("rollbacks", win.sum(|t| t.rollbacks))
        .with(
            "errors",
            win.tallies
                .iter()
                .flat_map(|t| &t.errors)
                .map(|e| Json::from(e.as_str()))
                .collect::<Vec<_>>(),
        )
        .with(
            "pool",
            Json::obj()
                .with("frames", occ.pool_frames)
                .with("resident_pages_after_load", occ.resident_pages)
                .with("page_file_pages_after_load", occ.page_file_pages)
                .with("loaded_pages", occ.loaded_pages()),
        )
        .with("figures", figures)
        .with("timings", timings)
        .with("per_second", Json::from(per_second));
    format!("perfbench-detail {}", doc.render())
}

fn metrics_json(defs: &[Def], values: &Values) -> Json {
    let mut out = Json::obj();
    for d in defs {
        let value = *values.get(d.name).unwrap_or_else(|| panic!("metric {} not computed", d.name));
        out = out.with(d.name, Json::obj().with("value", value).with("unit", d.unit));
    }
    out
}

/// Write a traced window's spans, one per line: txn, id, parent, name,
/// start ns, end ns (times from the window's start).
fn write_spans(path: &Path, win: &Window) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(path.parent().expect("trace path has a parent"))?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "txn\tid\tparent\tname\tstart_ns\tend_ns")?;
    for s in &win.spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.txn, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

struct Outcome {
    metrics: Json,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

fn untraced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let loaded = Loaded::setup(args.workload, dir, args.seconds, args.seed)?;
    let win = loaded.run(args.seed, seeds::RUN, args.seconds, false)?;
    let rss_mb = probe::rss_peak_mb();
    let mut violations = loaded.check(&win, args.seed);
    violations.extend(regime_violations(args.workload, &win));
    println!("{}", detail(args.workload, "untraced", &win, &loaded));
    let mut setup_times = vec![loaded.setup_s()];
    loaded.close(dir)?;
    // More set-ups, timed only, after the measured one so that its memory
    // peak is its own.
    while setup_times.len() < SETUPS {
        let l = Loaded::setup(args.workload, dir, args.seconds, args.seed)?;
        setup_times.push(l.setup_s());
        l.close(dir)?;
    }
    setup_times.sort_by(f64::total_cmp);
    println!("perfbench-setup-s {setup_times:?}");
    let values = report::end_to_end(&win, setup_times[SETUPS / 2], rss_mb);
    Ok(Outcome {
        metrics: metrics_json(&report::END_TO_END, &values),
        attempted: win.sum(|t| t.attempted),
        failed: win.sum(|t| t.failed),
        violations,
    })
}

fn traced(args: &Args, dir: &Path, trace_dir: &Path) -> Result<Outcome, String> {
    let loaded = Loaded::setup(args.workload, dir, args.seconds, args.seed)?;
    let win = loaded.run(args.seed, seeds::RUN, args.seconds, true)?;
    let mut violations = loaded.check(&win, args.seed);
    violations.extend(regime_violations(args.workload, &win));
    if !win.per_second.iter().any(|s| s.traced) {
        violations.push("no traced second: a traced run needs --seconds 2 or more".to_string());
    }
    println!("{}", detail(args.workload, "traced", &win, &loaded));
    let occ = loaded.occupancy();
    let kinds = loaded.tpcc_kinds();
    loaded.close(dir)?;

    let path = trace_dir.join(format!("{}.tsv", args.workload.name()));
    write_spans(&path, &win).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let b = report::breakdown(&win.spans);
    violations.extend(b.violations.iter().take(5).cloned());
    let traced_attempts = win.tallies[TRACED].attempted;
    if b.txns != traced_attempts {
        violations.push(format!(
            "{} transactions have spans but {traced_attempts} traced ones were attempted",
            b.txns
        ));
    }
    for call in record::CALLS {
        let from_spans = *b.self_ns.get(call.name()).unwrap_or(&0);
        let from_calls = win.calls[TRACED].ns[call as usize];
        if from_spans != from_calls {
            violations.push(format!(
                "{} spans sum to {from_spans} ns, calls to {from_calls} ns",
                call.name()
            ));
        }
    }
    let layer_sum: u64 = b.self_ns.values().sum();
    if layer_sum != b.latency_ns {
        violations.push(format!(
            "layer self times sum to {layer_sum} ns, transaction latencies to {} ns",
            b.latency_ns
        ));
    }
    let worker_error = report::worker_time_error(&win.delta());
    if worker_error > report::WORKER_TIME_TOLERANCE {
        violations.push(format!(
            "a worker's running+ready+parked+io time is off the window by {:.2}% (tolerance {:.0}%)",
            worker_error * 100.0,
            report::WORKER_TIME_TOLERANCE * 100.0
        ));
    }
    let loaded_per_frame = occ.loaded_pages() as f64 / occ.pool_frames.max(1) as f64;
    let values = report::per_layer(&win, &b, loaded_per_frame, kinds);
    println!("perfbench-trace {} spans -> {}", win.spans.len(), path.display());
    Ok(Outcome {
        metrics: metrics_json(&report::PER_LAYER, &values),
        attempted: win.sum(|t| t.attempted),
        failed: win.sum(|t| t.failed),
        violations,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <tpcc-hot|point-read|tpcc-cold|point-cold> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // The kernel's opt-in observability would change what is measured.
    for var in ["PHOEBE_TRACE", "PHOEBE_TELEMETRY", "PHOEBE_WATCHDOG"] {
        std::env::remove_var(var);
    }
    let base = PathBuf::from(".bench_build");
    let dir = base.join("perfbench-data").join(std::process::id().to_string());
    let outcome = if args.trace {
        traced(&args, &dir, &base.join("perfbench-trace"))
    } else {
        untraced(&args, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(3);
        }
    };
    for v in &outcome.violations {
        eprintln!("perfbench: check failed: {v}");
    }
    let correct = outcome.violations.is_empty();
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("metrics", outcome.metrics);
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}
