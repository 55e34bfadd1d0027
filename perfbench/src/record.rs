//! The benchmark's own instrumentation at the kernel's public API: a span
//! around every call into `phoebe_core`, one root span per client
//! transaction, and the percentile rule the end-to-end timings use.
//!
//! Every run accumulates per-call totals (two clock reads per call). In a
//! traced run, tracing is on in alternate seconds: a transaction begun
//! while it is on also keeps its spans in memory, and the run writes them
//! out when it ends. End-to-end metrics never come from a traced run.

use crate::probe::{Shared, PLAIN, TRACED};
use phoebe_common::error::Result;
use phoebe_common::ids::RowId;
use phoebe_storage::schema::Value;
use phoebe_tpcc::conn::PhoebeConn;
use phoebe_tpcc::{Idx, Tbl, TpccConn};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Groups of public API calls; each is one `core.*` span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Begin,
    Lookup,
    MultiLookup,
    Scan,
    /// insert, update, update_rmw and delete.
    Write,
    Commit,
    Abort,
}

pub const CALLS: [Call; 7] = [
    Call::Begin,
    Call::Lookup,
    Call::MultiLookup,
    Call::Scan,
    Call::Write,
    Call::Commit,
    Call::Abort,
];

impl Call {
    pub fn name(self) -> &'static str {
        match self {
            Call::Begin => "core.begin",
            Call::Lookup => "core.lookup",
            Call::MultiLookup => "core.multi_lookup",
            Call::Scan => "core.scan",
            Call::Write => "core.write",
            Call::Commit => "core.commit",
            Call::Abort => "core.abort",
        }
    }
}

/// Summed span time, call count and items (keys looked up, rows scanned)
/// per [`Call`], indexed by discriminant.
#[derive(Debug, Clone, Default)]
pub struct CallTotals {
    pub ns: [u64; 7],
    pub calls: [u64; 7],
    pub items: [u64; 7],
}

impl CallTotals {
    pub fn merge(&mut self, other: &CallTotals) {
        for i in 0..CALLS.len() {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
            self.items[i] += other.items[i];
        }
    }
}

/// One recorded interval. Ids are unique per run; `parent` 0 means none.
/// A transaction's root span has `id == txn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub txn: u64,
}

/// One client's recorder. Clients never share one, so recording takes no
/// lock; the run merges them after every client has stopped.
pub struct Recorder {
    epoch: Instant,
    shared: Arc<Shared>,
    client: u64,
    next_seq: u64,
    /// Per-call totals of untraced and of traced transactions.
    pub calls: [CallTotals; 2],
    /// The spans of every traced transaction.
    pub spans: Vec<Span>,
    txn: u64,
    txn_start_ns: u64,
    /// [`PLAIN`] or [`TRACED`]: whether the open transaction is traced.
    mode: usize,
}

impl Recorder {
    /// `epoch` is the run's shared time origin; `client` must be unique
    /// within the run. `shared.tracing` decides, at each transaction's
    /// begin, whether it is traced.
    pub fn new(epoch: Instant, client: usize, shared: Arc<Shared>) -> Recorder {
        Recorder {
            epoch,
            shared,
            client: client as u64 + 1,
            next_seq: 0,
            calls: Default::default(),
            spans: Vec::new(),
            txn: 0,
            txn_start_ns: 0,
            mode: PLAIN,
        }
    }

    /// [`PLAIN`] or [`TRACED`]: whether the open transaction is traced.
    pub fn mode(&self) -> usize {
        self.mode
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn next_id(&mut self) -> u64 {
        self.next_seq += 1;
        self.client << 40 | self.next_seq
    }

    /// Open a client transaction (the root span of the calls that follow).
    pub fn begin_txn(&mut self) {
        // ORDERING: a mode switch publishes no data; a transaction that
        // begins around it may land in either mode.
        self.mode = if self.shared.tracing.load(Ordering::Relaxed) { TRACED } else { PLAIN };
        self.txn = self.next_id();
        self.txn_start_ns = self.now_ns();
    }

    /// Close a `core` span opened at `start_ns`.
    pub fn record(&mut self, call: Call, start_ns: u64, items: u64) {
        let end_ns = self.now_ns();
        let ns = end_ns - start_ns;
        let (i, totals) = (call as usize, &mut self.calls[self.mode]);
        totals.ns[i] += ns;
        totals.calls[i] += 1;
        totals.items[i] += items;
        if self.mode == TRACED {
            let id = self.next_id();
            let txn = self.txn;
            self.spans.push(Span { name: call.name(), start_ns, end_ns, id, parent: txn, txn });
        }
    }

    /// Close the client transaction; returns its latency in ns.
    pub fn end_txn(&mut self, name: &'static str) -> u64 {
        let end_ns = self.now_ns();
        let (txn, start_ns) = (self.txn, self.txn_start_ns);
        if self.mode == TRACED {
            self.spans.push(Span { name, start_ns, end_ns, id: txn, parent: 0, txn });
        }
        end_ns - start_ns
    }
}

/// [`TpccConn`] over the kernel adapter, with a `core` span around every
/// call. The TPC-C profiles run through it unchanged.
pub struct TimedConn<'r> {
    pub inner: PhoebeConn,
    pub rec: &'r mut Recorder,
}

impl TpccConn for TimedConn<'_> {
    async fn read(&mut self, t: Tbl, row: RowId) -> Result<Option<Vec<Value>>> {
        let start = self.rec.now_ns();
        let out = self.inner.read(t, row).await;
        self.rec.record(Call::Lookup, start, 1);
        out
    }

    async fn insert(&mut self, t: Tbl, tuple: Vec<Value>) -> Result<RowId> {
        let start = self.rec.now_ns();
        let out = self.inner.insert(t, tuple).await;
        self.rec.record(Call::Write, start, 1);
        out
    }

    async fn update(&mut self, t: Tbl, row: RowId, delta: Vec<(usize, Value)>) -> Result<RowId> {
        let start = self.rec.now_ns();
        let out = self.inner.update(t, row, delta).await;
        self.rec.record(Call::Write, start, 1);
        out
    }

    async fn update_rmw<F>(&mut self, t: Tbl, row: RowId, f: F) -> Result<(RowId, Vec<Value>)>
    where
        F: Fn(&[Value]) -> Vec<(usize, Value)> + Send + Sync,
    {
        let start = self.rec.now_ns();
        let out = self.inner.update_rmw(t, row, f).await;
        self.rec.record(Call::Write, start, 1);
        out
    }

    async fn delete(&mut self, t: Tbl, row: RowId) -> Result<()> {
        let start = self.rec.now_ns();
        let out = self.inner.delete(t, row).await;
        self.rec.record(Call::Write, start, 1);
        out
    }

    async fn lookup(&mut self, idx: Idx, key: Vec<Value>) -> Result<Option<(RowId, Vec<Value>)>> {
        let start = self.rec.now_ns();
        let out = self.inner.lookup(idx, key).await;
        self.rec.record(Call::Lookup, start, 1);
        out
    }

    async fn multi_lookup(
        &mut self,
        idx: Idx,
        keys: Vec<Vec<Value>>,
    ) -> Result<Vec<Option<(RowId, Vec<Value>)>>> {
        let start = self.rec.now_ns();
        let n = keys.len() as u64;
        let out = self.inner.multi_lookup(idx, keys).await;
        self.rec.record(Call::MultiLookup, start, n);
        out
    }

    async fn scan(
        &mut self,
        idx: Idx,
        prefix: Vec<Value>,
        limit: usize,
    ) -> Result<Vec<(RowId, Vec<Value>)>> {
        let start = self.rec.now_ns();
        let out = self.inner.scan(idx, prefix, limit).await;
        let rows = out.as_ref().map_or(0, |rows| rows.len() as u64);
        self.rec.record(Call::Scan, start, rows);
        out
    }

    async fn commit(self) -> Result<()> {
        let start = self.rec.now_ns();
        let out = self.inner.commit().await;
        self.rec.record(Call::Commit, start, 0);
        out
    }

    fn abort(self) {
        let start = self.rec.now_ns();
        self.inner.abort();
        self.rec.record(Call::Abort, start, 0);
    }
}

/// Percentiles a tail is reported at, highest first.
pub const TAIL_PERCENTILES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// The nearest-rank `pct` percentile of ascending `sorted` samples, with
/// the number of samples above that rank.
pub fn percentile(sorted: &[u64], pct: f64) -> Option<(u64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    // In hundredths of a percent, so that 99.9% of 10000 is rank 9990
    // exactly rather than a float a hair above it.
    let basis = (pct * 100.0).round() as usize;
    let rank = (basis * n).div_ceil(10_000).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// A timing's reported tail: the highest of [`TAIL_PERCENTILES`] with at
/// least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: u64,
    pub samples: usize,
}

pub fn tail(sorted: &[u64]) -> Option<Tail> {
    TAIL_PERCENTILES.iter().find_map(|&pct| match percentile(sorted, pct)? {
        (value, beyond) if beyond >= 10 => Some(Tail { pct, value, samples: sorted.len() }),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples: Vec<u64> = (1..=1000).collect();
        // 1000 samples: p99 has exactly 10 above it, p99.9 only 1.
        assert_eq!(tail(&samples), Some(Tail { pct: 99.0, value: 990, samples: 1000 }));
        let samples: Vec<u64> = (1..=10_000).collect();
        assert_eq!(tail(&samples), Some(Tail { pct: 99.9, value: 9990, samples: 10_000 }));
        let samples: Vec<u64> = (1..=999).collect();
        assert_eq!(tail(&samples), Some(Tail { pct: 95.0, value: 950, samples: 999 }));
        let samples: Vec<u64> = (1..=15).collect();
        assert_eq!(tail(&samples), None, "no percentile has ten samples beyond");
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let samples = [10, 20, 30, 40];
        assert_eq!(percentile(&samples, 50.0), Some((20, 2)));
        assert_eq!(percentile(&samples, 99.0), Some((40, 0)));
        assert_eq!(percentile(&samples, 0.0), Some((10, 3)));
    }

    fn one_lookup_txn(rec: &mut Recorder) -> u64 {
        rec.begin_txn();
        let start = rec.now_ns();
        rec.record(Call::Lookup, start, 1);
        rec.end_txn("txn.test")
    }

    #[test]
    fn spans_nest_under_their_transaction() {
        let shared = Arc::new(Shared::default());
        let mut rec = Recorder::new(Instant::now(), 0, Arc::clone(&shared));
        one_lookup_txn(&mut rec);
        assert!(rec.spans.is_empty(), "tracing off: no spans");
        shared.tracing.store(true, Ordering::Relaxed);
        let latency = one_lookup_txn(&mut rec);
        assert_eq!(rec.spans.len(), 2);
        let (child, root) = (rec.spans[0], rec.spans[1]);
        assert_eq!((root.parent, root.id, root.txn), (0, child.parent, child.txn));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert_eq!(latency, root.end_ns - root.start_ns);
        let lookups = |mode: usize| rec.calls[mode].calls[Call::Lookup as usize];
        assert_eq!((lookups(PLAIN), lookups(TRACED)), (1, 1));
    }
}
