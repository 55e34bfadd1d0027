//! What the benchmark reads from outside the kernel: `Database::stats()`
//! and `BufferPool::io_counts()` before and after a window, process CPU
//! time and peak memory, a once-a-second throughput sampler, and the
//! bounded start/stop of the clients and the kernel.

use crate::record::{CallTotals, Recorder, Span};
use phoebe_core::{Database, KernelStats};
use phoebe_runtime::JoinHandle;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Index of untraced and of traced transactions in per-mode arrays.
pub const PLAIN: usize = 0;
pub const TRACED: usize = 1;

/// Whether second `i` of a traced window is traced: untraced, traced,
/// traced, untraced, repeated, so that a steady drift over the window
/// (data growth, a busier host) weighs on both modes alike.
pub fn traced_second(i: usize) -> bool {
    matches!(i % 4, 1 | 2)
}

/// What a window's clients share with its sampler.
#[derive(Debug, Default)]
pub struct Shared {
    /// Transactions committed so far.
    pub committed: AtomicU64,
    /// Whether a transaction that begins now is traced.
    pub tracing: AtomicBool,
}

/// How long clients may run past the deadline to finish the transaction
/// in flight before the run is declared hung.
const STOP_GRACE: Duration = Duration::from_secs(30);
/// How long `Database::shutdown` may take before the run is declared hung.
const SHUTDOWN_LIMIT: Duration = Duration::from_secs(30);

/// Process CPU time (all threads), in ns.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    /// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) and the
    // clock id is a valid constant; the call writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A point-in-time reading of the kernel and the process.
pub struct Probe {
    pub at: Instant,
    pub cpu_ns: u64,
    pub stats: KernelStats,
    /// `BufferPool::io_counts()`: physical page (reads, writes).
    pub io: (u64, u64),
}

impl Probe {
    pub fn take(db: &Database) -> Probe {
        Probe {
            at: Instant::now(),
            cpu_ns: process_cpu_ns(),
            stats: db.stats(),
            io: db.pool.io_counts(),
        }
    }
}

/// Difference of two probes, read by name.
pub struct Delta<'a> {
    pub before: &'a Probe,
    pub after: &'a Probe,
}

impl Delta<'_> {
    pub fn wall_ns(&self) -> u64 {
        (self.after.at - self.before.at).as_nanos() as u64
    }

    pub fn cpu_ns(&self) -> u64 {
        self.after.cpu_ns - self.before.cpu_ns
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.after.stats.counter(name) - self.before.stats.counter(name)
    }

    /// Busy ns of a kernel cost component (`"WAL"`, `"latching"`, ...).
    pub fn component_ns(&self, name: &str) -> u64 {
        let busy = |s: &KernelStats| {
            s.components.iter().find(|c| c.component == name).map_or(0, |c| c.busy_ns)
        };
        busy(&self.after.stats) - busy(&self.before.stats)
    }

    /// (count, summed ns) of a kernel latency site over the window.
    pub fn site(&self, name: &str) -> (u64, f64) {
        let read = |s: &KernelStats| {
            s.latency
                .iter()
                .find(|l| l.site == name)
                .map_or((0, 0.0), |l| (l.count, l.count as f64 * l.mean_ns as f64))
        };
        let (c0, s0) = read(&self.before.stats);
        let (c1, s1) = read(&self.after.stats);
        (c1 - c0, (s1 - s0).max(0.0))
    }

    /// Mean of a kernel latency site over the window, in ns (0 if idle).
    pub fn site_mean_ns(&self, name: &str) -> f64 {
        let (count, sum) = self.site(name);
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Largest sample a site recorded since the kernel opened, in ns.
    pub fn site_max_ns(&self, name: &str) -> u64 {
        self.after.stats.latency.iter().find(|l| l.site == name).map_or(0, |l| l.max_ns)
    }
}

/// Pool occupancy after the load.
#[derive(Debug, Clone, Copy)]
pub struct Occupancy {
    pub pool_frames: u64,
    pub resident_pages: u64,
    pub page_file_pages: u64,
}

impl Occupancy {
    pub fn read(db: &Database, dir: &Path) -> Occupancy {
        let stats = db.stats();
        let file_bytes = std::fs::metadata(dir.join("data_pages.db")).map_or(0, |m| m.len());
        Occupancy {
            pool_frames: stats.buffer_total_frames,
            resident_pages: stats.buffer_total_frames - stats.buffer_free_frames,
            page_file_pages: file_bytes / phoebe_common::config::PAGE_SIZE as u64,
        }
    }

    /// Loaded data in pages: resident pages plus pages written out.
    pub fn loaded_pages(&self) -> u64 {
        self.resident_pages + self.page_file_pages
    }
}

/// One second of the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Second {
    pub committed: u64,
    pub page_reads: u64,
    /// Process CPU time spent in the second.
    pub cpu_ns: u64,
    /// Whether transactions begun in the second were traced.
    pub traced: bool,
}

/// Per-client results the workloads fill in.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub committed: u64,
    /// Non-retryable error, out of retries, or failed at commit.
    pub failed: u64,
    /// Retryable aborts (each followed by a retry).
    pub retries: u64,
    /// TPC-C's intentional New-Order rollbacks.
    pub rollbacks: u64,
    /// Committed transactions per kind (workload-defined slots).
    pub committed_by_kind: Vec<u64>,
    /// Committed-transaction latencies per kind, ns.
    pub latencies: Vec<Vec<u64>>,
    /// Keys read through `multi_lookup` whose value was wrong or missing.
    pub mismatches: u64,
    /// First few errors, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    pub fn with_kinds(kinds: usize) -> Tally {
        Tally {
            committed_by_kind: vec![0; kinds],
            latencies: vec![Vec::new(); kinds],
            ..Tally::default()
        }
    }

    pub fn commit(&mut self, kind: usize, latency_ns: u64) {
        self.committed += 1;
        self.committed_by_kind[kind] += 1;
        self.latencies[kind].push(latency_ns);
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.failed += other.failed;
        self.retries += other.retries;
        self.rollbacks += other.rollbacks;
        self.mismatches += other.mismatches;
        if self.latencies.len() < other.latencies.len() {
            self.latencies.resize(other.latencies.len(), Vec::new());
            self.committed_by_kind.resize(other.latencies.len(), 0);
        }
        for (i, l) in other.latencies.into_iter().enumerate() {
            self.latencies[i].extend(l);
            self.committed_by_kind[i] += other.committed_by_kind[i];
        }
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Everything one measured window produced.
pub struct Window {
    pub before: Probe,
    pub after: Probe,
    pub per_second: Vec<Second>,
    /// Results of untraced and of traced transactions.
    pub tallies: [Tally; 2],
    pub calls: [CallTotals; 2],
    /// Every traced transaction's spans.
    pub spans: Vec<Span>,
    /// Clients that panicked instead of returning.
    pub panics: usize,
}

impl Window {
    pub fn delta(&self) -> Delta<'_> {
        Delta { before: &self.before, after: &self.after }
    }

    pub fn wall_s(&self) -> f64 {
        self.delta().wall_ns() as f64 / 1e9
    }

    /// `field` summed over untraced and traced transactions.
    pub fn sum(&self, field: impl Fn(&Tally) -> u64) -> u64 {
        self.tallies.iter().map(field).sum()
    }

    /// Transactions committed per second in the full seconds of one mode
    /// ([`PLAIN`] or [`TRACED`]); 0 if the window has none.
    pub fn commit_rate(&self, mode: usize) -> f64 {
        let seconds: Vec<&Second> =
            self.per_second.iter().filter(|s| s.traced == (mode == TRACED)).collect();
        let committed: u64 = seconds.iter().map(|s| s.committed).sum();
        committed as f64 / seconds.len().max(1) as f64
    }
}

/// A client's results: its recorder and its untraced and traced tallies.
pub type ClientResult = (Recorder, [Tally; 2]);

/// Run clients until they return, bounded: probe the kernel, start the
/// once-a-second sampler, `spawn` the clients, wait for them all (at most
/// `deadline` + a grace period), probe again. The clients count commits
/// in `shared`; the sampler's seconds start at `epoch`, the clients' time
/// origin. With `traced`, the sampler turns tracing on in the seconds
/// [`traced_second`] names.
pub fn measure(
    db: &Arc<Database>,
    shared: &Arc<Shared>,
    epoch: Instant,
    deadline: Instant,
    traced: bool,
    spawn: impl FnOnce() -> Vec<JoinHandle<ClientResult>>,
) -> Result<Window, String> {
    let before = Probe::take(db);
    let sampler = Sampler::start(Arc::clone(db), Arc::clone(shared), epoch, traced);
    let handles = spawn();
    let limit = deadline + STOP_GRACE;
    while !handles.iter().all(JoinHandle::is_finished) {
        if Instant::now() > limit {
            sampler.stop();
            return Err(format!("clients still running {STOP_GRACE:?} after the deadline"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let after = Probe::take(db);
    let per_second = sampler.stop();
    let mut tallies: [Tally; 2] = Default::default();
    let mut calls: [CallTotals; 2] = Default::default();
    let mut spans = Vec::new();
    let mut panics = 0;
    for h in handles {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.join())) {
            Ok((rec, client_tallies)) => {
                for (mode, t) in client_tallies.into_iter().enumerate() {
                    calls[mode].merge(&rec.calls[mode]);
                    tallies[mode].merge(t);
                }
                spans.extend(rec.spans);
            }
            Err(_) => panics += 1,
        }
    }
    Ok(Window { before, after, per_second, tallies, calls, spans, panics })
}

/// Samples committed transactions, page reads and CPU time once a second,
/// and switches tracing at second boundaries in a traced window.
struct Sampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<Second>>,
}

impl Sampler {
    fn start(db: Arc<Database>, shared: Arc<Shared>, start: Instant, traced: bool) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut out = Vec::new();
            let read = || {
                // ORDERING: a statistic; the clients publish nothing through it.
                (shared.committed.load(Ordering::Relaxed), db.pool.io_counts().0, process_cpu_ns())
            };
            let mut last = read();
            while !flag.load(Ordering::Acquire) {
                let tracing = traced && traced_second(out.len());
                // ORDERING: see `Recorder::begin_txn`.
                shared.tracing.store(tracing, Ordering::Relaxed);
                let next = start + Duration::from_secs(out.len() as u64 + 1);
                while Instant::now() < next && !flag.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(5).min(next - Instant::now()));
                }
                if Instant::now() < next {
                    break; // a partial last second is not reported
                }
                let now = read();
                out.push(Second {
                    committed: now.0 - last.0,
                    page_reads: now.1 - last.1,
                    cpu_ns: now.2 - last.2,
                    traced: tracing,
                });
                last = now;
            }
            out
        });
        Sampler { stop, handle }
    }

    fn stop(self) -> Vec<Second> {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("sampler thread panicked")
    }
}

/// `Database::shutdown`, bounded in time.
pub fn shutdown(db: Arc<Database>) -> Result<(), String> {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        db.shutdown();
        let _ = tx.send(());
    });
    match rx.recv_timeout(SHUTDOWN_LIMIT) {
        Ok(()) => handle.join().map_err(|_| "Database::shutdown panicked".to_string()),
        Err(RecvTimeoutError::Disconnected) => Err("Database::shutdown panicked".to_string()),
        Err(RecvTimeoutError::Timeout) => {
            Err(format!("Database::shutdown did not return within {SHUTDOWN_LIMIT:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client_that_panics() -> ClientResult {
        panic!("a client panics on purpose")
    }

    #[test]
    fn a_panicking_client_is_counted_and_the_run_ends() {
        let dir = std::env::temp_dir()
            .join(format!("phoebe-perfbench-test-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = crate::tpcc::open(&dir, 256).expect("open");
        let rt = db.runtime();
        let epoch = Instant::now();
        let shared = Arc::new(Shared::default());
        let deadline = Instant::now() + Duration::from_secs(1);
        let rec = Recorder::new(epoch, 1, Arc::clone(&shared));
        let win = measure(&db, &shared, epoch, deadline, false, || {
            vec![
                rt.spawn(async { client_that_panics() }),
                rt.spawn(async move { (rec, Default::default()) }),
            ]
        })
        .expect("the run ends");
        assert_eq!(win.panics, 1);
        shutdown(Arc::clone(&db)).expect("bounded shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
