//! Sharded-table benches. Two headline records:
//!
//! * `shard_scaling/shards_4_vs_1` — wall-clock ratio (×100) of a
//!   1-shard layout over a 4-shard layout on a mixed workload. Scans
//!   fan out over row ranges of the one table and aggregates run the
//!   unsharded path, so sharding is pure dispatch re-arrangement: the
//!   ratio should sit near parity (100) on any host and above it when
//!   shard fan-out wins.
//! * `shard_epoch_locality/cross_shard_retention_pct` — after a
//!   mutation routed to one shard, the percentage of the *other*
//!   shards' cache entries still live. Per-shard epochs make this 100;
//!   the whole-table epoch it replaces made it 0.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use explore_core::cache::{CacheConfig, CachePolicy, Fingerprint};
use explore_core::shard::{scoped_name, ShardConfig, ShardPolicy};
use explore_core::storage::gen::{sales_table, SalesConfig};
use explore_core::storage::{AggFunc, CmpOp, Predicate, Query, SortOrder, Table};
use explore_core::ExploreDb;

fn sales(rows: usize) -> Table {
    sales_table(&SalesConfig {
        rows,
        ..SalesConfig::default()
    })
}

fn sharded_db(t: &Table, count: usize) -> ExploreDb {
    let db = ExploreDb::with_shard_policy(ShardPolicy::On(ShardConfig {
        count,
        min_rows_per_shard: 1,
    }));
    db.register("sales", t.clone());
    db
}

/// A mixed exploration workload: grouped and global aggregates plus
/// filtered scans, each exercising the fan-out/merge path differently.
fn workload() -> Vec<Query> {
    vec![
        Query::new()
            .group("region")
            .agg(AggFunc::Sum, "price")
            .agg(AggFunc::Count, "qty"),
        Query::new()
            .filter(Predicate::range("price", 100.0, 600.0))
            .agg(AggFunc::Sum, "price")
            .agg(AggFunc::Var, "discount"),
        Query::new()
            .filter(Predicate::cmp("qty", CmpOp::Ge, 5.0))
            .select(&["region", "price"]),
        Query::new()
            .group("product")
            .agg(AggFunc::Avg, "price")
            .order("avg(price)", SortOrder::Desc)
            .take(10),
    ]
}

fn run_workload(db: &mut ExploreDb, queries: &[Query]) -> usize {
    queries
        .iter()
        .map(|q| db.query("sales", q).expect("workload query").num_rows())
        .sum()
}

fn bench_shard_scaling(c: &mut Criterion) {
    let t = sales(400_000);
    let queries = workload();

    let mut group = c.benchmark_group("shard_scaling");
    group.sample_size(10);
    for count in [1usize, 4] {
        group.bench_function(format!("query_shards_{count}"), |b| {
            let mut db = sharded_db(&t, count);
            b.iter(|| black_box(run_workload(&mut db, &queries)))
        });
    }
    group.finish();

    // The gate-checked ratio, best-of-N on both sides: 1-shard wall /
    // 4-shard wall × 100. Parity = 100.
    let samples = std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5usize)
        .max(2);
    let best = |count: usize| {
        let mut db = sharded_db(&t, count);
        run_workload(&mut db, &queries); // warm allocator + pool
        (0..samples)
            .map(|_| {
                let start = std::time::Instant::now();
                black_box(run_workload(&mut db, &queries));
                start.elapsed().as_nanos()
            })
            .min()
            .unwrap()
    };
    let one_ns = best(1);
    let four_ns = best(4);
    let ratio_pct = 100.0 * one_ns as f64 / four_ns.max(1) as f64;
    let mut ratio_group = c.benchmark_group("shard_scaling");
    ratio_group.record_value("shards_4_vs_1", ratio_pct, "percent");
    ratio_group.finish();
}

fn bench_shard_epoch_locality(c: &mut Criterion) {
    let t = sales(100_000);
    let db = sharded_db(&t, 4);
    db.set_cache_policy(CachePolicy::On(CacheConfig {
        byte_budget: 1 << 30,
        ..CacheConfig::default()
    }));
    db.register("sales", t.clone());

    // Populate one entry per (scan shape, shard scope).
    let scans: Vec<Query> = (0..5)
        .map(|i| {
            Query::new().filter(Predicate::range(
                "price",
                50.0 + 10.0 * i as f64,
                900.0 - 25.0 * i as f64,
            ))
        })
        .collect();
    for q in &scans {
        db.query("sales", q).expect("populate");
    }
    let cache = db.cache();
    let live = |q: &Query, shard: usize| {
        cache.contains(&Fingerprint::for_query(&scoped_name("sales", shard), q))
    };
    let other_before: usize = scans
        .iter()
        .map(|q| (0..3).filter(|&s| live(q, s)).count())
        .sum();

    // Mutate: one appended row, owned by the last shard.
    db.push_row("sales", t.row(0).expect("row")).expect("push");

    let other_after: usize = scans
        .iter()
        .map(|q| (0..3).filter(|&s| live(q, s)).count())
        .sum();
    let retention_pct = 100.0 * other_after as f64 / other_before.max(1) as f64;
    eprintln!(
        "shard_epoch_locality: {other_after}/{other_before} other-shard entries live after mutation"
    );
    let mut group = c.benchmark_group("shard_epoch_locality");
    group.record_value("cross_shard_retention_pct", retention_pct, "percent");
    group.finish();
}

criterion_group!(benches, bench_shard_scaling, bench_shard_epoch_locality);
criterion_main!(benches);
