//! The point-read workloads: one table of 2^20 `(k i64, v i64)` rows with
//! a unique index on `k`. 8 closed-loop client co-routines each run
//! read-only transactions of 16 uniformly random keys through
//! `Transaction::multi_lookup`: the descent, latching, visibility and
//! scheduling layers TPC-C uses, with no writers, no WAL and no locks.
//! `point-read` keeps the data resident; `point-cold` reads it through a
//! pool a fourteenth of its size, so most keys take a buffer fault, an
//! eviction and a page-file read.

use crate::probe::{self, ClientResult, Occupancy, Shared, Tally, Window, PLAIN};
use crate::record::{Call, Recorder};
use crate::seeds;
use crate::tpcc::{Stop, WORKERS};
use phoebe_common::KernelConfig;
use phoebe_common::PhoebeError;
use phoebe_core::{Database, IndexEntry, IsolationLevel, TableEntry};
use phoebe_storage::schema::{ColType, Schema, Value};
use phoebe_tpcc::TpccRng;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const ROWS: i64 = 1 << 20;
pub const CLIENTS: usize = 8;
pub const KEYS_PER_TXN: usize = 16;
const SLOTS_PER_WORKER: usize = 32;
/// Well above the data (about 11k pages for table and index, split across
/// the two partitions by the loaders): a partition that falls below its
/// free-frame watermark starts page swaps that churn the hot pages.
pub const HOT_FRAMES: usize = 16384;
/// The larger-than-memory pool: 12 MiB of 16 KiB frames, about a
/// fourteenth of the loaded pages.
pub const COLD_FRAMES: usize = 768;
/// Rows per loading transaction.
const LOAD_BATCH: i64 = 8192;
const MAX_TRIES: u32 = 50;
/// Transactions each client runs before timing starts.
const WARMUP_TXNS: u64 = 500;

/// The value seeded for `key`.
pub fn value_for(salt: u64, key: i64) -> i64 {
    seeds::mix(salt ^ key as u64) as i64
}

pub struct Loaded {
    pub db: Arc<Database>,
    table: Arc<TableEntry>,
    index: Arc<IndexEntry>,
    salt: u64,
    pub setup_s: f64,
    pub occupancy: Occupancy,
}

/// Open, load and warm up a kernel; the elapsed time is `setup_s`.
pub fn setup(dir: &Path, frames: usize, seed: u64) -> Result<Loaded, String> {
    let start = Instant::now();
    let cfg = KernelConfig::builder()
        .workers(WORKERS)
        .slots_per_worker(SLOTS_PER_WORKER)
        .buffer_frames(frames)
        .data_dir(dir)
        .build()
        .map_err(|e| format!("config: {e}"))?;
    let db = Database::open(cfg).map_err(|e| format!("open: {e}"))?;
    let schema = Schema::new(vec![("k", ColType::I64), ("v", ColType::I64)]);
    let table = db.create_table("kv", schema).map_err(|e| format!("create table: {e}"))?;
    let index =
        db.create_index(&table, "kv_k", vec![0], true).map_err(|e| format!("create index: {e}"))?;
    let salt = seeds::derive(seed, seeds::LOAD, 0);
    // Each worker loads one contiguous half, so the tree's pages land in
    // both partitions.
    let rt = db.runtime();
    let loaders: Vec<_> = (0..WORKERS as i64)
        .map(|w| {
            let (db, table) = (Arc::clone(&db), Arc::clone(&table));
            let keys = ROWS * w / WORKERS as i64..ROWS * (w + 1) / WORKERS as i64;
            rt.spawn_on(w as usize, async move {
                for lo in keys.clone().step_by(LOAD_BATCH as usize) {
                    let mut tx = db.begin(IsolationLevel::ReadCommitted);
                    for k in lo..keys.end.min(lo + LOAD_BATCH) {
                        tx.insert(&table, vec![Value::I64(k), Value::I64(value_for(salt, k))])
                            .await?;
                    }
                    tx.commit().await?;
                }
                Ok::<_, PhoebeError>(())
            })
        })
        .collect();
    for loader in loaders {
        loader.join().map_err(|e| format!("load: {e}"))?;
    }
    let occupancy = Occupancy::read(&db, dir);
    let mut loaded = Loaded { db, table, index, salt, setup_s: 0.0, occupancy };
    let warm = run(&loaded, seed, seeds::WARMUP, Stop::After(WARMUP_TXNS), false)?;
    let (failed, mismatches) = (warm.sum(|t| t.failed), warm.sum(|t| t.mismatches));
    if warm.panics > 0 || failed > 0 || mismatches > 0 {
        return Err(format!(
            "warm-up: {failed} failed transactions, {mismatches} wrong values, {} panicked \
             clients {:?}",
            warm.panics, warm.tallies[PLAIN].errors
        ));
    }
    loaded.setup_s = start.elapsed().as_secs_f64();
    Ok(loaded)
}

/// Run every client until `stop`.
pub fn run(
    loaded: &Loaded,
    seed: u64,
    stream: u64,
    stop: Stop,
    traced: bool,
) -> Result<Window, String> {
    let shared = Arc::new(Shared::default());
    let deadline = match stop {
        Stop::Deadline(at) => at,
        Stop::After(_) => Instant::now() + Duration::from_secs(60),
    };
    let epoch = Instant::now();
    probe::measure(&loaded.db, &shared, epoch, deadline, traced, || {
        let rt = loaded.db.runtime();
        (0..CLIENTS)
            .map(|c| {
                let fut = client(
                    Arc::clone(&loaded.db),
                    Arc::clone(&loaded.table),
                    Arc::clone(&loaded.index),
                    loaded.salt,
                    seeds::derive(seed, stream, c as u64),
                    stop,
                    Recorder::new(epoch, c, Arc::clone(&shared)),
                    Arc::clone(&shared),
                );
                rt.spawn_on(c % WORKERS, fut)
            })
            .collect()
    })
}

/// The next transaction's keys from a client's key stream.
pub fn next_keys(rng: &mut TpccRng) -> Vec<i64> {
    (0..KEYS_PER_TXN).map(|_| rng.uniform_i64(0, ROWS - 1)).collect()
}

#[allow(clippy::too_many_arguments)] // one owned handle per spawned co-routine
async fn client(
    db: Arc<Database>,
    table: Arc<TableEntry>,
    index: Arc<IndexEntry>,
    salt: u64,
    seed: u64,
    stop: Stop,
    mut rec: Recorder,
    shared: Arc<Shared>,
) -> ClientResult {
    let mut rng = TpccRng::seeded(seed);
    let mut tallies = [Tally::with_kinds(1), Tally::with_kinds(1)];
    loop {
        match stop {
            Stop::Deadline(at) if Instant::now() >= at => break,
            Stop::After(n) if tallies.iter().map(|t| t.attempted).sum::<u64>() >= n => break,
            _ => {}
        }
        let keys = next_keys(&mut rng);
        let key_values: Vec<Vec<Value>> = keys.iter().map(|&k| vec![Value::I64(k)]).collect();
        rec.begin_txn();
        let tally = &mut tallies[rec.mode()];
        tally.attempted += 1;
        let mut tries = 0;
        let result = loop {
            tries += 1;
            let start = rec.now_ns();
            let mut tx = db.begin(IsolationLevel::ReadCommitted);
            rec.record(Call::Begin, start, 0);
            let start = rec.now_ns();
            let hits = tx.multi_lookup(&table, &index, &key_values).await;
            rec.record(Call::MultiLookup, start, KEYS_PER_TXN as u64);
            match hits {
                Ok(hits) => {
                    for (&k, hit) in keys.iter().zip(&hits) {
                        let value = hit.as_ref().map(|(_, row)| row.values()[1].as_i64());
                        if value != Some(value_for(salt, k)) {
                            tally.mismatches += 1;
                        }
                    }
                    let start = rec.now_ns();
                    let done = tx.commit().await;
                    rec.record(Call::Commit, start, 0);
                    break done.map(|_| ());
                }
                Err(e) => {
                    let start = rec.now_ns();
                    tx.abort();
                    rec.record(Call::Abort, start, 0);
                    if !e.is_retryable() || tries >= MAX_TRIES {
                        break Err(e);
                    }
                    tally.retries += 1;
                }
            }
        };
        let latency = rec.end_txn("txn.point_read");
        match result {
            Ok(()) => {
                tally.commit(0, latency);
                // ORDERING: a throughput statistic read by the sampler.
                shared.committed.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => tally.fail(format!("point read: {e}")),
        }
    }
    (rec, tallies)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_keys(seed: u64, client: u64) -> Vec<i64> {
        let mut rng = TpccRng::seeded(seeds::derive(seed, seeds::RUN, client));
        (0..32).flat_map(|_| next_keys(&mut rng)).collect()
    }

    #[test]
    fn the_seed_alone_decides_keys_and_values() {
        assert_eq!(first_keys(7, 0), first_keys(7, 0));
        assert_ne!(first_keys(7, 0), first_keys(8, 0));
        assert_ne!(first_keys(7, 0), first_keys(7, 1), "clients get their own streams");
        assert!(first_keys(7, 0).iter().all(|k| (0..ROWS).contains(k)));
        let values = |seed| {
            let salt = seeds::derive(seed, seeds::LOAD, 0);
            (0..1000).map(|k| value_for(salt, k)).collect::<Vec<_>>()
        };
        assert_eq!(values(7), values(7));
        assert_ne!(values(7), values(8));
    }
}
