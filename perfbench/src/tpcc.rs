//! The TPC-C workloads: the standard 45/43/4/4/4 mix from
//! `phoebe_tpcc::txns`, closed loop (a terminal sends its next transaction
//! only when the previous one finished; no think time), on 2 warehouses
//! at `TpccScale::mini()`, 2 workers x 32 slots, 8 co-routine terminals per
//! warehouse pinned to the warehouse's home worker (workload affinity),
//! WAL sync on with a 200 us group commit. `tpcc-hot` sizes the pool so
//! the data stays resident for the whole run; `tpcc-cold` runs the same
//! transactions through a 192-frame pool that is below the loaded data
//! from the start.

use crate::probe::{self, ClientResult, Occupancy, Shared, Tally, Window, PLAIN};
use crate::record::{Call, Recorder, TimedConn};
use crate::seeds;
use phoebe_common::error::Result as KResult;
use phoebe_common::KernelConfig;
use phoebe_core::Database;
use phoebe_storage::schema::Value;
use phoebe_tpcc::schema::cols;
use phoebe_tpcc::txns::{self, Params, TxnKind};
use phoebe_tpcc::{load, Idx, PhoebeEngine, TpccConn, TpccEngine, TpccRng, TpccScale};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const WAREHOUSES: u32 = 2;
pub const TERMINALS_PER_WAREHOUSE: usize = 8;
pub const WORKERS: usize = 2;
pub const SLOTS_PER_WORKER: usize = 32;
pub const GROUP_COMMIT_US: u64 = 200;
/// The larger-than-memory pool: 3 MiB of 16 KiB frames.
pub const COLD_FRAMES: usize = 192;
/// Attempts per transaction before it counts as failed.
const MAX_TRIES: u32 = 50;
/// Transactions each terminal runs to warm the kernel up before timing.
const WARMUP_TXNS: u64 = 100;
/// Orders per district whose line count is checked after the run.
const SAMPLED_ORDERS: usize = 8;

/// Kinds in report order; a kind's index is its slot in a [`Tally`].
pub const KINDS: [TxnKind; 5] = [
    TxnKind::NewOrder,
    TxnKind::Payment,
    TxnKind::OrderStatus,
    TxnKind::Delivery,
    TxnKind::StockLevel,
];
pub const KIND_NAMES: [&str; 5] =
    ["txn.new_order", "txn.payment", "txn.order_status", "txn.delivery", "txn.stock_level"];
pub const NEW_ORDER: usize = 0;
pub const PAYMENT: usize = 1;

pub fn scale() -> TpccScale {
    TpccScale::mini()
}

/// A pool that keeps the loaded data plus everything a run of `seconds`
/// inserts resident. Loading lands in one partition, and data grows by
/// about 125 frames/s across both; each partition gets room for the load
/// and for twice that growth, so no partition reaches its free-frame
/// watermark.
pub fn hot_frames(seconds: u64) -> usize {
    WORKERS * (1024 + 256 * (seconds as usize + 2))
}

/// A loaded and warmed-up kernel.
pub struct Loaded {
    pub engine: PhoebeEngine,
    /// `D_NEXT_O_ID` per district right after the load.
    initial_next_o_id: Vec<i64>,
    /// New-Orders acknowledged during warm-up.
    warmup_new_orders: u64,
    pub setup_s: f64,
    pub occupancy: Occupancy,
}

pub fn open(dir: &Path, frames: usize) -> Result<Arc<Database>, String> {
    let cfg = KernelConfig::builder()
        .workers(WORKERS)
        .slots_per_worker(SLOTS_PER_WORKER)
        .buffer_frames(frames)
        .affinity(true)
        .wal_sync(true)
        .wal_group_commit_us(GROUP_COMMIT_US)
        .data_dir(dir)
        .build()
        .map_err(|e| format!("config: {e}"))?;
    Database::open(cfg).map_err(|e| format!("open: {e}"))
}

/// Open, load and warm up a kernel; the elapsed time is `setup_s`.
pub fn setup(dir: &Path, frames: usize, seed: u64) -> Result<Loaded, String> {
    let start = Instant::now();
    let engine = PhoebeEngine::create(open(dir, frames)?).map_err(|e| format!("schema: {e}"))?;
    phoebe_runtime::block_on(load(
        &engine,
        WAREHOUSES,
        scale(),
        seeds::derive(seed, seeds::LOAD, 0),
    ))
    .map_err(|e| format!("load: {e}"))?;
    let occupancy = Occupancy::read(&engine.db, dir);
    let initial_next_o_id = phoebe_runtime::block_on(next_order_ids(&engine))
        .map_err(|e| format!("reading districts: {e}"))?;
    let warm = run(&engine, seed, seeds::WARMUP, Stop::After(WARMUP_TXNS), false)?;
    if warm.panics > 0 || warm.sum(|t| t.failed) > 0 {
        return Err(format!(
            "warm-up: {} failed transactions, {} panicked terminals {:?}",
            warm.sum(|t| t.failed),
            warm.panics,
            warm.tallies[PLAIN].errors
        ));
    }
    Ok(Loaded {
        engine,
        initial_next_o_id,
        warmup_new_orders: warm.sum(|t| t.committed_by_kind[NEW_ORDER]),
        setup_s: start.elapsed().as_secs_f64(),
        occupancy,
    })
}

/// When terminals stop.
#[derive(Clone, Copy)]
pub enum Stop {
    /// Start no transaction after this instant.
    Deadline(Instant),
    /// Stop after this many transactions each.
    After(u64),
}

/// Run every terminal until `stop`. `stream` separates warm-up inputs
/// from measured ones.
pub fn run(
    engine: &PhoebeEngine,
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
    let params = Params { warehouses: WAREHOUSES, scale: scale() };
    let terminals = WAREHOUSES as usize * TERMINALS_PER_WAREHOUSE;
    probe::measure(&engine.db, &shared, epoch, deadline, traced, || {
        let rt = engine.db.runtime();
        (0..terminals)
            .map(|t| {
                let home_w = (t as u32 % WAREHOUSES) + 1;
                let fut = terminal(
                    engine.clone(),
                    params,
                    home_w,
                    seeds::derive(seed, stream, t as u64),
                    stop,
                    Recorder::new(epoch, t, Arc::clone(&shared)),
                    Arc::clone(&shared),
                );
                // Workload affinity: the warehouse's home worker.
                rt.spawn_on((home_w as usize - 1) % WORKERS, fut)
            })
            .collect()
    })
}

/// The terminal's transaction type for its next transaction (the mix).
pub fn pick_kind(rng: &mut TpccRng) -> usize {
    match rng.uniform(1, 100) {
        1..=45 => 0,
        46..=88 => 1,
        89..=92 => 2,
        93..=96 => 3,
        _ => 4,
    }
}

/// One terminal's two input streams: the transaction types it sends, and
/// the generator the profiles draw their parameters from.
pub fn terminal_streams(seed: u64) -> (TpccRng, TpccRng) {
    (TpccRng::seeded(seeds::derive(seed, 0, 0)), TpccRng::seeded(seeds::derive(seed, 1, 0)))
}

async fn run_kind<C: TpccConn>(
    kind: usize,
    conn: &mut C,
    rng: &mut TpccRng,
    p: &Params,
    w: u32,
) -> KResult<bool> {
    match KINDS[kind] {
        TxnKind::NewOrder => txns::new_order(conn, rng, p, w).await,
        TxnKind::Payment => txns::payment(conn, rng, p, w).await.map(|()| true),
        TxnKind::OrderStatus => txns::order_status(conn, rng, p, w).await.map(|()| true),
        TxnKind::Delivery => txns::delivery(conn, rng, p, w).await.map(|_| true),
        TxnKind::StockLevel => txns::stock_level(conn, rng, p, w).await.map(|_| true),
    }
}

async fn terminal(
    engine: PhoebeEngine,
    params: Params,
    home_w: u32,
    seed: u64,
    stop: Stop,
    mut rec: Recorder,
    shared: Arc<Shared>,
) -> ClientResult {
    let (mut kinds, mut rng) = terminal_streams(seed);
    let mut tallies = [Tally::with_kinds(KINDS.len()), Tally::with_kinds(KINDS.len())];
    loop {
        match stop {
            Stop::Deadline(at) if Instant::now() >= at => break,
            Stop::After(n) if tallies.iter().map(|t| t.attempted).sum::<u64>() >= n => break,
            _ => {}
        }
        let kind = pick_kind(&mut kinds);
        rec.begin_txn();
        let tally = &mut tallies[rec.mode()];
        tally.attempted += 1;
        let mut tries = 0;
        let result = loop {
            tries += 1;
            let start = rec.now_ns();
            let inner = engine.begin();
            rec.record(Call::Begin, start, 0);
            let mut conn = TimedConn { inner, rec: &mut rec };
            match run_kind(kind, &mut conn, &mut rng, &params, home_w).await {
                Ok(true) => break conn.commit().await.map(|()| true),
                Ok(false) => {
                    conn.abort();
                    break Ok(false);
                }
                Err(e) if e.is_retryable() && tries < MAX_TRIES => {
                    conn.abort();
                    tally.retries += 1;
                }
                Err(e) => {
                    conn.abort();
                    break Err(e);
                }
            }
        };
        let latency = rec.end_txn(KIND_NAMES[kind]);
        match result {
            Ok(true) => {
                tally.commit(kind, latency);
                // ORDERING: a throughput statistic read by the sampler.
                shared.committed.fetch_add(1, Ordering::Relaxed);
            }
            Ok(false) => tally.rollbacks += 1,
            Err(e) => tally.fail(format!("{:?}: {e}", KINDS[kind])),
        }
    }
    (rec, tallies)
}

fn i32v(v: u32) -> Value {
    Value::I32(v as i32)
}

async fn next_order_ids(engine: &PhoebeEngine) -> KResult<Vec<i64>> {
    let mut conn = engine.begin();
    let mut out = Vec::new();
    for w in 1..=WAREHOUSES {
        for d in 1..=scale().districts_per_warehouse {
            let (_, district) = conn
                .lookup(Idx::DistrictPk, vec![i32v(w), i32v(d)])
                .await?
                .expect("every loaded district exists");
            out.push(district[cols::D_NEXT_O_ID].as_i32() as i64);
        }
    }
    conn.commit().await?;
    Ok(out)
}

/// The database-level invariants after a run whose terminals acknowledged
/// `measured_new_orders` New-Orders (warm-up ones are added here). Returns
/// one line per violation; `seed` picks the sampled orders.
pub fn check(loaded: &Loaded, measured_new_orders: u64, seed: u64) -> Vec<String> {
    match phoebe_runtime::block_on(check_inner(loaded, measured_new_orders, seed)) {
        Ok(violations) => violations,
        Err(e) => vec![format!("check could not read the database: {e}")],
    }
}

async fn check_inner(loaded: &Loaded, measured_new_orders: u64, seed: u64) -> KResult<Vec<String>> {
    let mut bad = Vec::new();
    let mut sample = TpccRng::seeded(seeds::derive(seed, seeds::CHECK, 0));
    let mut conn = loaded.engine.begin();
    let mut advance = 0i64;
    let mut district_no = 0;
    for w in 1..=WAREHOUSES {
        let (_, warehouse) = conn
            .lookup(Idx::WarehousePk, vec![i32v(w)])
            .await?
            .expect("every loaded warehouse exists");
        let mut d_ytd_sum = 0i64;
        for d in 1..=scale().districts_per_warehouse {
            let (_, district) = conn
                .lookup(Idx::DistrictPk, vec![i32v(w), i32v(d)])
                .await?
                .expect("every loaded district exists");
            d_ytd_sum += district[cols::D_YTD].as_i64();
            let next_o_id = district[cols::D_NEXT_O_ID].as_i32() as i64;
            advance += next_o_id - loaded.initial_next_o_id[district_no];
            district_no += 1;
            let orders = conn.scan(Idx::OrderPk, vec![i32v(w), i32v(d)], usize::MAX).await?;
            let max_o_id = orders.iter().map(|(_, o)| o[cols::O_ID].as_i32() as i64).max();
            if max_o_id != Some(next_o_id - 1) {
                bad.push(format!(
                    "district ({w},{d}): D_NEXT_O_ID - 1 = {} but max O_ID = {max_o_id:?}",
                    next_o_id - 1
                ));
            }
            for _ in 0..SAMPLED_ORDERS.min(orders.len()) {
                let (_, order) = &orders[sample.uniform(0, orders.len() as u32 - 1) as usize];
                let o_id = order[cols::O_ID].as_i32() as u32;
                let lines =
                    conn.scan(Idx::OrderLinePk, vec![i32v(w), i32v(d), i32v(o_id)], 100).await?;
                let ol_cnt = order[cols::O_OL_CNT].as_i32() as usize;
                if lines.len() != ol_cnt {
                    bad.push(format!(
                        "order ({w},{d},{o_id}): O_OL_CNT = {ol_cnt} but {} order lines",
                        lines.len()
                    ));
                }
            }
        }
        let w_ytd = warehouse[cols::W_YTD].as_i64();
        if w_ytd != d_ytd_sum {
            bad.push(format!("warehouse {w}: W_YTD = {w_ytd} but sum of D_YTD = {d_ytd_sum}"));
        }
    }
    conn.commit().await?;
    let acknowledged = (loaded.warmup_new_orders + measured_new_orders) as i64;
    if advance != acknowledged {
        bad.push(format!(
            "D_NEXT_O_ID advanced by {advance} in total but {acknowledged} New-Orders were acknowledged"
        ));
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoebe_tpcc::schema::INDEXES;
    use std::hash::{DefaultHasher, Hash, Hasher};

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("phoebe-perfbench-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    /// Hash of every row reachable through a unique index, in key order,
    /// leaving out the columns the loader fills from the wall clock.
    fn fingerprint(engine: &PhoebeEngine) -> u64 {
        const CLOCK_COLUMNS: [&str; 4] = ["c_since", "h_date", "o_entry_d", "ol_delivery_d"];
        let mut h = DefaultHasher::new();
        phoebe_runtime::block_on(async {
            let mut conn = engine.begin();
            for idx in INDEXES.into_iter().filter(|i| i.unique()) {
                let schema = idx.table().schema();
                let skip: Vec<usize> =
                    CLOCK_COLUMNS.iter().filter_map(|c| schema.col_index(c)).collect();
                for (_, row) in conn.scan(idx, vec![], usize::MAX).await.expect("scan") {
                    for (i, v) in row.iter().enumerate().filter(|(i, _)| !skip.contains(i)) {
                        (i, format!("{v:?}")).hash(&mut h);
                    }
                }
            }
            conn.commit().await.expect("read-only commit");
        });
        h.finish()
    }

    fn loaded_fingerprint(seed: u64) -> u64 {
        let dir = test_dir(&format!("fp-{seed}"));
        let engine = PhoebeEngine::create(open(&dir, 4096).expect("open")).expect("schema");
        let load_seed = seeds::derive(seed, seeds::LOAD, 0);
        phoebe_runtime::block_on(load(&engine, 1, TpccScale::micro(), load_seed)).expect("load");
        let fp = fingerprint(&engine);
        engine.db.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        fp
    }

    #[test]
    fn the_seed_alone_decides_the_loaded_data() {
        let a = loaded_fingerprint(7);
        assert_eq!(a, loaded_fingerprint(7), "same seed, same data");
        assert_ne!(a, loaded_fingerprint(8), "another seed, other data");
    }

    /// The first transactions a terminal sends: their types and the first
    /// values the profiles draw.
    fn first_inputs(seed: u64, terminal: u64) -> Vec<(usize, u32)> {
        let (mut kinds, mut params) = terminal_streams(seeds::derive(seed, seeds::RUN, terminal));
        (0..64).map(|_| (pick_kind(&mut kinds), params.uniform(0, u32::MAX))).collect()
    }

    #[test]
    fn the_seed_alone_decides_the_terminal_inputs() {
        assert_eq!(first_inputs(7, 0), first_inputs(7, 0));
        assert_ne!(first_inputs(7, 0), first_inputs(8, 0));
        assert_ne!(first_inputs(7, 0), first_inputs(7, 1), "terminals get their own streams");
        let warm = terminal_streams(seeds::derive(7, seeds::WARMUP, 0)).1.uniform(0, u32::MAX);
        assert_ne!(warm, first_inputs(7, 0)[0].1, "warm-up does not replay the measured inputs");
    }

    #[test]
    fn checks_pass_after_a_run_and_catch_broken_invariants() {
        let dir = test_dir("checks");
        let loaded = setup(&dir, hot_frames(1), 3).expect("setup");
        let stop = Stop::Deadline(Instant::now() + Duration::from_millis(500));
        let win = run(&loaded.engine, 3, seeds::RUN, stop, false).expect("run");
        let new_orders = win.sum(|t| t.committed_by_kind[NEW_ORDER]);
        assert!(new_orders > 0 && win.sum(|t| t.failed) == 0 && win.panics == 0);
        assert_eq!(check(&loaded, new_orders, 3), Vec::<String>::new());

        // An acknowledged New-Order the database does not show.
        let bad = check(&loaded, new_orders + 1, 3);
        assert!(bad.iter().any(|b| b.contains("New-Orders were acknowledged")), "{bad:?}");

        // A Payment that reached the warehouse but not its district.
        phoebe_runtime::block_on(async {
            let mut conn = loaded.engine.begin();
            let (w_rid, _) = conn.lookup(Idx::WarehousePk, vec![i32v(1)]).await?.expect("w1");
            conn.update_rmw(phoebe_tpcc::Tbl::Warehouse, w_rid, |w| {
                vec![(cols::W_YTD, Value::I64(w[cols::W_YTD].as_i64() + 1))]
            })
            .await?;
            conn.commit().await
        })
        .expect("corrupting update");
        let bad = check(&loaded, new_orders, 3);
        assert!(bad.iter().any(|b| b.starts_with("warehouse 1: W_YTD")), "{bad:?}");

        loaded.engine.db.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
