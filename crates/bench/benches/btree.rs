//! Micro-benchmarks: the swizzling B-Tree under optimistic lock coupling.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use phoebe_common::ids::{RowId, TableId};
use phoebe_common::metrics::Metrics;
use phoebe_storage::schema::{ColType, Schema, Value};
use phoebe_storage::{BTree, BufferPool, PaxLayout, TreeKind};
use std::sync::Arc;

fn table_tree(frames: usize) -> (BTree, PaxLayout) {
    let dir = phoebe_bench::fresh_dir("bench-btree");
    let metrics = Arc::new(Metrics::new(1));
    let pool = BufferPool::new(frames, 1, &dir, Arc::clone(&metrics)).unwrap();
    let schema = Schema::new(vec![("a", ColType::I64), ("b", ColType::Str(16))]);
    let layout = PaxLayout::for_schema(&schema);
    let tree = BTree::create(pool, TableId(1), TreeKind::Table, metrics).unwrap();
    (tree, layout)
}

fn bench_btree(c: &mut Criterion) {
    let (tree, layout) = table_tree(8192);
    for i in 1..=100_000u64 {
        tree.table_append_alloc(
            &layout,
            &|| RowId(i),
            &[Value::I64(i as i64), Value::Str("x".into())],
            |_, _, _, _| {},
        )
        .unwrap();
    }
    c.bench_function("btree/table_point_read_100k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i % 100_000 + 1;
            tree.table_read(RowId(i), |leaf, r, _, _| leaf.read_col(&layout, r, 0)).unwrap()
        })
    });
    c.bench_function("btree/table_in_place_update", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i % 100_000 + 1;
            tree.table_modify(RowId(i), |leaf, r, _, _| {
                leaf.write_col(&layout, r, 0, &Value::I64(7));
            })
            .unwrap()
        })
    });

    let dir = phoebe_bench::fresh_dir("bench-index");
    let metrics = Arc::new(Metrics::new(1));
    let pool = BufferPool::new(8192, 1, &dir, Arc::clone(&metrics)).unwrap();
    let index = BTree::create(pool, TableId(2), TreeKind::Index, metrics).unwrap();
    for i in 0..100_000u64 {
        index.index_insert(&i.to_be_bytes(), RowId(i)).unwrap();
    }
    c.bench_function("btree/index_get_100k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 100_000;
            index.index_get(&i.to_be_bytes()).unwrap()
        })
    });
    c.bench_function("btree/index_insert_remove", |b| {
        // Steady state: criterion runs millions of iterations, so pair the
        // insert with a remove instead of growing the tree unboundedly.
        let mut i = 1_000_000u64;
        b.iter_batched(
            || {
                i += 1;
                i
            },
            |key| {
                index.index_insert(&key.to_be_bytes(), RowId(key)).unwrap();
                index.index_remove(&key.to_be_bytes()).unwrap();
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3));
    targets = bench_btree
}
criterion_main!(benches);
