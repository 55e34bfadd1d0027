//! The metrics the benchmark reports, how each is derived from a window,
//! and the traced run's span breakdown with its self-checks.

use crate::probe::{Delta, Window, PLAIN, TRACED};
use crate::record::{Span, CALLS};
use std::collections::{BTreeMap, HashMap};

/// One reported metric. Which direction is better is stated in
/// BENCHMARK.json.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Printed by every untraced run, on every workload. They must never be
/// 0, so each is defined for all workloads: a point-read transaction is
/// one 16-key read. The p99 of all transactions did not repeat within a
/// usable bound on point-read, so it is a per-layer figure.
pub const END_TO_END: [Def; 5] = [
    def("tpm", "1/min"),
    def("txn_p50_ms", "ms"),
    def("cpu_ms_per_txn", "ms"),
    def("setup_s", "s"),
    def("rss_peak_mb", "MB"),
];

/// Printed by every traced run. Span-derived values (`core.*`,
/// `tpcc.self`, `trace.spans_per_txn`) divide by committed traced
/// transactions, kernel-derived ones by every committed transaction of the
/// window. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [Def; 58] = [
    // End-to-end figures too specific or too noisy for the bounded list,
    // from the traced run's untraced transactions.
    def("txn_p99_ms", "ms"),
    def("tpmC", "1/min"),
    def("new_order_p50_ms", "ms"),
    def("new_order_p99_ms", "ms"),
    def("payment_p50_ms", "ms"),
    def("payment_p99_ms", "ms"),
    def("keys_per_s", "1/s"),
    def("read_txn_p50_us", "us"),
    def("read_txn_p99_us", "us"),
    def("failed_frac", "ratio"),
    // core: the benchmark's spans around each public API call.
    def("core.begin.ns_per_txn", "ns"),
    def("core.lookup.ns_per_txn", "ns"),
    def("core.lookup.calls_per_txn", "count"),
    def("core.multi_lookup.ns_per_txn", "ns"),
    def("core.multi_lookup.keys_per_call", "count"),
    def("core.scan.ns_per_txn", "ns"),
    def("core.scan.rows_per_call", "count"),
    def("core.write.ns_per_txn", "ns"),
    def("core.commit.ns_per_txn", "ns"),
    def("core.abort.ns_per_txn", "ns"),
    // tpcc: the workload's own time (the read client's on point-read).
    def("tpcc.self.ns_per_txn", "ns"),
    def("txn.retry_frac", "ratio"),
    // runtime
    def("runtime.running_frac", "ratio"),
    def("runtime.ready_frac", "ratio"),
    def("runtime.parked_frac", "ratio"),
    def("runtime.io_frac", "ratio"),
    def("runtime.polls_per_txn", "count"),
    def("runtime.parks_per_txn", "count"),
    def("runtime.cpu_util", "ratio"),
    // storage
    def("storage.latch_restarts_per_txn", "count"),
    def("storage.btree_restart.ns_per_txn", "ns"),
    def("storage.page_reads_per_txn", "count"),
    def("storage.page_writes_per_txn", "count"),
    def("storage.buffer_fault.mean_us", "us"),
    def("storage.eviction.mean_us", "us"),
    def("storage.fault_suspends_per_txn", "count"),
    def("storage.prefetches_per_key", "count"),
    def("storage.latching.ns_per_txn", "ns"),
    def("storage.buffer.ns_per_txn", "ns"),
    def("storage.loaded_pages_per_frame", "ratio"),
    // txn
    def("txn.lock_wait.count_per_txn", "count"),
    def("txn.lock_wait.ns_per_txn", "ns"),
    def("txn.lock_wait.max_ms", "ms"),
    def("txn.mvcc.ns_per_txn", "ns"),
    def("txn.locking.ns_per_txn", "ns"),
    def("txn.gc.ns_per_txn", "ns"),
    def("txn.undo_reclaimed_per_txn", "count"),
    // wal
    def("wal.bytes_per_txn", "B"),
    def("wal.flushes_per_txn", "count"),
    def("wal.group_commit.mean_us", "us"),
    def("wal.flush.mean_us", "us"),
    def("wal.ns_per_txn", "ns"),
    def("wal.rfa_early_frac", "ratio"),
    // The traced run against the untraced one.
    def("trace.overhead_frac", "ratio"),
    def("trace.spans_per_txn", "count"),
    def("trace.self_check_txns", "count"),
    def("trace.worker_time_error_frac", "ratio"),
    def("trace.breakdown_error_ns", "ns"),
];

pub type Values = BTreeMap<&'static str, f64>;

/// Share of worker time allowed between a window's wall time and the sum
/// of a worker's running, ready, parked and io time over it.
pub const WORKER_TIME_TOLERANCE: f64 = 0.02;

/// Ascending samples of every committed untraced transaction, or of one
/// kind.
pub fn sorted(w: &Window, kind: Option<usize>) -> Vec<u64> {
    let latencies = &w.tallies[PLAIN].latencies;
    let mut out: Vec<u64> = match kind {
        Some(k) => latencies.get(k).cloned().unwrap_or_default(),
        None => latencies.iter().flatten().copied().collect(),
    };
    out.sort_unstable();
    out
}

/// Nearest-rank percentile in ns, 0 without samples.
pub fn pct_ns(sorted: &[u64], pct: f64) -> f64 {
    crate::record::percentile(sorted, pct).map_or(0.0, |(v, _)| v as f64)
}

/// The untraced metrics every workload reports, from an untraced window.
pub fn end_to_end(w: &Window, setup_s: f64, rss_mb: f64) -> Values {
    let all = sorted(w, None);
    let committed = w.sum(|t| t.committed) as f64;
    let mut v = Values::new();
    v.insert("tpm", committed * 60.0 / w.wall_s());
    v.insert("txn_p50_ms", pct_ns(&all, 50.0) / 1e6);
    v.insert("cpu_ms_per_txn", w.delta().cpu_ns() as f64 / 1e6 / committed.max(1.0));
    v.insert("setup_s", setup_s);
    v.insert("rss_peak_mb", rss_mb);
    v
}

/// The workload-specific figures of a window's untraced transactions: p99
/// of all transactions, per-type TPC-C latencies, point-read latency,
/// keys/s, failure share. Rates are the untraced seconds' commit rate
/// times the untraced transactions' mix. `new_order`/`payment` are the
/// TPC-C kind slots, `None` on point-read.
pub fn workload_figures(w: &Window, tpcc: Option<(usize, usize)>) -> Values {
    use crate::record::Call;
    let plain = &w.tallies[PLAIN];
    let per_committed = |x: u64| w.commit_rate(PLAIN) * x as f64 / plain.committed.max(1) as f64;
    let mut v = Values::new();
    v.insert("txn_p99_ms", pct_ns(&sorted(w, None), 99.0) / 1e6);
    let (mut tpmc, mut no50, mut no99, mut pay50, mut pay99) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut read50, mut read99) = (0.0, 0.0);
    match tpcc {
        Some((new_order, payment)) => {
            tpmc = per_committed(plain.committed_by_kind[new_order]) * 60.0;
            let no = sorted(w, Some(new_order));
            let pay = sorted(w, Some(payment));
            (no50, no99) = (pct_ns(&no, 50.0) / 1e6, pct_ns(&no, 99.0) / 1e6);
            (pay50, pay99) = (pct_ns(&pay, 50.0) / 1e6, pct_ns(&pay, 99.0) / 1e6);
        }
        None => {
            let all = sorted(w, None);
            (read50, read99) = (pct_ns(&all, 50.0) / 1e3, pct_ns(&all, 99.0) / 1e3);
        }
    }
    v.insert("tpmC", tpmc);
    v.insert("new_order_p50_ms", no50);
    v.insert("new_order_p99_ms", no99);
    v.insert("payment_p50_ms", pay50);
    v.insert("payment_p99_ms", pay99);
    let calls = &w.calls[PLAIN];
    let keys = calls.calls[Call::Lookup as usize] + calls.items[Call::MultiLookup as usize];
    v.insert("keys_per_s", per_committed(keys));
    v.insert("read_txn_p50_us", read50);
    v.insert("read_txn_p99_us", read99);
    v.insert("failed_frac", plain.failed as f64 / plain.attempted.max(1) as f64);
    v
}

/// Self time per span name, from a traced window's spans.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// ns of self time per name; a transaction's own self time is
    /// `tpcc.self`.
    pub self_ns: HashMap<&'static str, u64>,
    /// Transactions whose spans were checked.
    pub txns: u64,
    /// Summed root-span (transaction) latency, ns.
    pub latency_ns: u64,
    /// Spans that broke nesting: outside their transaction, overlapping a
    /// sibling, or without a transaction.
    pub violations: Vec<String>,
}

/// A layer's self time is its span's duration minus the part its
/// children cover. `core` spans have no children and never overlap: a
/// client issues one call at a time. Checks that and returns the
/// per-name self times, which then sum to the transactions' latency.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut by_txn: HashMap<u64, (Option<Span>, Vec<Span>)> = HashMap::new();
    for s in spans {
        let entry = by_txn.entry(s.txn).or_default();
        if s.parent == 0 {
            entry.0 = Some(*s);
        } else {
            entry.1.push(*s);
        }
    }
    let mut out = Breakdown::default();
    for (txn, (root, mut children)) in by_txn {
        let Some(root) = root else {
            out.violations.push(format!("spans of transaction {txn:#x} have no root"));
            continue;
        };
        children.sort_by_key(|s| s.start_ns);
        let mut covered = 0;
        let mut cursor = root.start_ns;
        for c in &children {
            if c.parent != root.id || c.start_ns < cursor || c.end_ns > root.end_ns {
                out.violations.push(format!("{} span {:#x} escapes or overlaps", c.name, c.id));
            }
            cursor = cursor.max(c.end_ns);
            let dur = c.end_ns - c.start_ns;
            covered += dur;
            *out.self_ns.entry(c.name).or_default() += dur;
        }
        let latency = root.end_ns - root.start_ns;
        *out.self_ns.entry("tpcc.self").or_default() += latency.saturating_sub(covered);
        out.txns += 1;
        out.latency_ns += latency;
    }
    out
}

/// Share of the window a worker's state times miss or overshoot, worst
/// worker first.
pub fn worker_time_error(d: &Delta<'_>) -> f64 {
    let wall = d.wall_ns() as f64;
    let before = &d.before.stats.worker_states;
    d.after
        .stats
        .worker_states
        .iter()
        .zip(before)
        .map(|(a, b)| {
            let sum = (a.running_ns - b.running_ns)
                + (a.ready_ns - b.ready_ns)
                + (a.parked_ns - b.parked_ns)
                + (a.io_ns - b.io_ns);
            (sum as f64 - wall).abs() / wall
        })
        .fold(0.0, f64::max)
}

/// The per-layer metrics of a traced window whose spans broke down into
/// `b`.
pub fn per_layer(
    w: &Window,
    b: &Breakdown,
    loaded_pages_per_frame: f64,
    tpcc: Option<(usize, usize)>,
) -> Values {
    use crate::record::Call;
    let d = w.delta();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    // Spans cover the traced transactions; kernel counters all of them.
    let per_traced = |x: f64| ratio(x, w.tallies[TRACED].committed as f64);
    let per = |x: f64| ratio(x, w.sum(|t| t.committed) as f64);
    let calls = &w.calls[TRACED];
    let mut v = workload_figures(w, tpcc);

    for call in CALLS {
        let name: &'static str = match call {
            Call::Begin => "core.begin.ns_per_txn",
            Call::Lookup => "core.lookup.ns_per_txn",
            Call::MultiLookup => "core.multi_lookup.ns_per_txn",
            Call::Scan => "core.scan.ns_per_txn",
            Call::Write => "core.write.ns_per_txn",
            Call::Commit => "core.commit.ns_per_txn",
            Call::Abort => "core.abort.ns_per_txn",
        };
        v.insert(name, per_traced(*b.self_ns.get(call.name()).unwrap_or(&0) as f64));
    }
    let (lookup, multi, scan) =
        (Call::Lookup as usize, Call::MultiLookup as usize, Call::Scan as usize);
    v.insert("core.lookup.calls_per_txn", per_traced(calls.calls[lookup] as f64));
    v.insert(
        "core.multi_lookup.keys_per_call",
        ratio(calls.items[multi] as f64, calls.calls[multi] as f64),
    );
    v.insert("core.scan.rows_per_call", ratio(calls.items[scan] as f64, calls.calls[scan] as f64));
    v.insert("tpcc.self.ns_per_txn", per_traced(*b.self_ns.get("tpcc.self").unwrap_or(&0) as f64));
    v.insert("txn.retry_frac", ratio(w.sum(|t| t.retries) as f64, w.sum(|t| t.attempted) as f64));

    let states = |f: fn(&phoebe_core::stats::WorkerStateSummary) -> u64| -> f64 {
        let sum = |s: &phoebe_core::KernelStats| s.worker_states.iter().map(f).sum::<u64>();
        (sum(&d.after.stats) - sum(&d.before.stats)) as f64
    };
    let (running, ready) = (states(|s| s.running_ns), states(|s| s.ready_ns));
    let (parked, io) = (states(|s| s.parked_ns), states(|s| s.io_ns));
    let total = running + ready + parked + io;
    v.insert("runtime.running_frac", ratio(running, total));
    v.insert("runtime.ready_frac", ratio(ready, total));
    v.insert("runtime.parked_frac", ratio(parked, total));
    v.insert("runtime.io_frac", ratio(io, total));
    let rt = |f: fn(&phoebe_core::stats::RuntimeGauges) -> u64| {
        (f(&d.after.stats.runtime) - f(&d.before.stats.runtime)) as f64
    };
    v.insert("runtime.polls_per_txn", per(rt(|r| r.polls)));
    v.insert("runtime.parks_per_txn", per(rt(|r| r.parks)));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    v.insert("runtime.cpu_util", d.cpu_ns() as f64 / (d.wall_ns() as f64 * cores));

    let counter = |name: &str| d.counter(name) as f64;
    v.insert("storage.latch_restarts_per_txn", per(counter("latch_restarts")));
    v.insert("storage.btree_restart.ns_per_txn", per(d.site("btree_restart").1));
    v.insert("storage.page_reads_per_txn", per((d.after.io.0 - d.before.io.0) as f64));
    v.insert("storage.page_writes_per_txn", per((d.after.io.1 - d.before.io.1) as f64));
    v.insert("storage.buffer_fault.mean_us", d.site_mean_ns("buffer_fault") / 1e3);
    v.insert("storage.eviction.mean_us", d.site_mean_ns("eviction") / 1e3);
    v.insert("storage.fault_suspends_per_txn", per(counter("fault_suspends")));
    v.insert(
        "storage.prefetches_per_key",
        ratio(
            counter("prefetches_issued"),
            w.calls.iter().map(|c| c.items[multi]).sum::<u64>() as f64,
        ),
    );
    v.insert("storage.latching.ns_per_txn", per(d.component_ns("latching") as f64));
    v.insert("storage.buffer.ns_per_txn", per(d.component_ns("buffer manager") as f64));
    v.insert("storage.loaded_pages_per_frame", loaded_pages_per_frame);

    let (waits, wait_ns) = d.site("lock_wait");
    v.insert("txn.lock_wait.count_per_txn", per(waits as f64));
    v.insert("txn.lock_wait.ns_per_txn", per(wait_ns));
    v.insert("txn.lock_wait.max_ms", d.site_max_ns("lock_wait") as f64 / 1e6);
    v.insert("txn.mvcc.ns_per_txn", per(d.component_ns("MVCC") as f64));
    v.insert("txn.locking.ns_per_txn", per(d.component_ns("locking") as f64));
    v.insert("txn.gc.ns_per_txn", per(d.component_ns("GC") as f64));
    v.insert("txn.undo_reclaimed_per_txn", per(counter("undo_reclaimed")));

    v.insert("wal.bytes_per_txn", per(counter("wal_bytes")));
    v.insert("wal.flushes_per_txn", per(counter("wal_flushes")));
    v.insert("wal.group_commit.mean_us", d.site_mean_ns("group_commit") / 1e3);
    v.insert("wal.flush.mean_us", d.site_mean_ns("wal_flush") / 1e3);
    v.insert("wal.ns_per_txn", per(d.component_ns("WAL") as f64));
    let early = counter("rfa_early_commits");
    v.insert("wal.rfa_early_frac", ratio(early, early + counter("remote_flush_waits")));

    v.insert("trace.overhead_frac", 1.0 - ratio(w.commit_rate(TRACED), w.commit_rate(PLAIN)));
    v.insert("trace.spans_per_txn", per_traced(w.spans.len() as f64));
    v.insert("trace.self_check_txns", b.txns as f64);
    v.insert("trace.worker_time_error_frac", worker_time_error(&d));
    let layer_sum: u64 = b.self_ns.values().sum();
    v.insert("trace.breakdown_error_ns", layer_sum.abs_diff(b.latency_ns) as f64);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, id: u64, parent: u64) -> Span {
        Span { name, start_ns, end_ns, id, parent, txn: 1 }
    }

    #[test]
    fn self_times_sum_to_latency_and_overlaps_are_caught() {
        let root = span("txn.payment", 0, 100, 1, 0);
        let good = [root, span("core.lookup", 10, 30, 2, 1), span("core.commit", 40, 90, 3, 1)];
        let b = breakdown(&good);
        assert!(b.violations.is_empty(), "{:?}", b.violations);
        assert_eq!((b.txns, b.latency_ns), (1, 100));
        assert_eq!(b.self_ns["core.lookup"], 20);
        assert_eq!(b.self_ns["core.commit"], 50);
        assert_eq!(b.self_ns["tpcc.self"], 30);
        assert_eq!(b.self_ns.values().sum::<u64>(), b.latency_ns);

        let overlapping =
            [root, span("core.lookup", 10, 50, 2, 1), span("core.write", 40, 60, 3, 1)];
        assert_eq!(breakdown(&overlapping).violations.len(), 1);
        let escaping = [root, span("core.commit", 90, 120, 2, 1)];
        assert_eq!(breakdown(&escaping).violations.len(), 1);
        assert_eq!(breakdown(&[span("core.scan", 0, 1, 2, 1)]).violations.len(), 1, "no root");
    }

    /// The `(name, unit, better)` entries of one list in BENCHMARK.json.
    fn listed(doc: &str, section: &str) -> Vec<(String, String, String)> {
        let start = doc.find(&format!("\"{section}\"")).expect("section present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |entry: &str, key: &str| -> String {
            let at =
                entry.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("{key} in {entry}"));
            let rest = &entry[at + key.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("string closes");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect()
    }

    fn names_and_units(listed: &[(String, String, String)]) -> Vec<(&str, &str)> {
        listed.iter().map(|(n, u, _)| (n.as_str(), u.as_str())).collect()
    }

    fn defs(defs: &[Def]) -> Vec<(&str, &str)> {
        defs.iter().map(|d| (d.name, d.unit)).collect()
    }

    #[test]
    fn metrics_match_benchmark_json_and_the_name_grammar() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let (e2e, layers) = (listed(&doc, "end_to_end"), listed(&doc, "per_layer"));
        assert_eq!(names_and_units(&e2e), defs(&END_TO_END));
        assert_eq!(names_and_units(&layers), defs(&PER_LAYER));
        for (name, _, better) in e2e.iter().chain(&layers) {
            assert!(better == "higher" || better == "lower", "{name}: better = {better}");
        }
        assert!(e2e
            .iter()
            .any(|(n, u, b)| (n.as_str(), u.as_str(), b.as_str()) == ("setup_s", "s", "lower")));
        let workloads = &doc[doc.find("\"workloads\"").expect("workloads listed")..];
        let workloads: Vec<&str> = workloads[..workloads.find(']').expect("list closes")]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').unwrap()])
            .collect();
        assert_eq!(workloads, crate::Workload::BENCHMARKED.map(|w| w.name()));

        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let ok = |c: char, extra: &str| c.is_ascii_alphanumeric() || extra.contains(c);
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d.name.chars().all(|c| ok(c, "_.-")), "name {}", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "unit {}", d.unit);
            assert!(d.unit.chars().all(|c| ok(c, "_/%.-")), "unit {}", d.unit);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
    }
}
