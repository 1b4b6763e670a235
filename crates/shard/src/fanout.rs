//! Deterministic scan fan-out and merge across the shards of one table.
//!
//! The bit-identity contract extends the executor's: for any shard
//! count, [`run_sharded_scan`] returns a table bit-identical to
//! `explore_exec::run_query` against the whole table, under either
//! execution policy and with the cache off, cold, or warm. Each shard
//! runs the query with order/limit stripped over its row range of the
//! one snapshot; shard results concatenate in shard order — which *is*
//! ascending global row order, exactly what the unsharded morsel merge
//! produces — and order/limit applies once after the merge. Per-shard
//! results are cached under the shard's scoped name ([`scoped_name`]),
//! so a mutation to one shard leaves the other shards' entries live.
//! Selections stay global row ids, so the cache's subsumption replay
//! serves a shard exactly as it serves a whole table.
//!
//! Aggregates do not fan out: the engine runs them over the whole
//! table, whose cache epoch every data change already bumps.
//!
//! Shards are the outer work unit on the shared [`ExecPool`]; morsels
//! stay the inner one (nested submissions inline serially, so the pool
//! cannot deadlock). Fail points: `shard.dispatch` diverts the fan-out
//! to an inline serial loop; `shard.merge` panics inside the guarded
//! merge, which is caught and re-merged serially from the held partials
//! — both degrade gracefully and neither changes a bit of the answer.
//!
//! [`ExecPool`]: explore_exec::ExecPool

use std::panic::{catch_unwind, AssertUnwindSafe};

use explore_cache::{cached_query_at_epoch, ResultCache};
use explore_exec::{global_pool, parallel_profitable, run_query_window, ExecPolicy, QueryCtx};
use explore_obs::{SpanKind, ROOT_SPAN};
use explore_storage::{Query, Result, StorageError, Table};
use parking_lot::Mutex;

use crate::layout::{scoped_name, ShardLayout};

/// Execute the scan `query` (no aggregates) against `base`, the
/// snapshot of the table registered as `table` that `layout` was read
/// with. `cache` is `Some((cache, epochs))` iff the engine's cache
/// policy is on; per-shard results are then served and admitted under
/// each shard's scope, at `epochs[i]` for shard `i`. See the module docs
/// for the exactness contract.
///
/// Epoch protocol for concurrent engines: the caller reads `epochs`
/// **before** taking the snapshot (see
/// [`explore_cache::cached_query_at_epoch`]) — mutations write data
/// first and bump epochs second, so the snapshot is always at least as
/// new as the epochs its results are admitted under.
pub fn run_sharded_scan(
    base: &Table,
    layout: &ShardLayout,
    table: &str,
    cache: Option<(&ResultCache, &[u64])>,
    query: &Query,
    ctx: &QueryCtx,
) -> Result<Table> {
    debug_assert!(
        query.aggregates.is_empty(),
        "aggregates do not fan out over shards"
    );
    ctx.check_cancel()?;
    if let Some(t) = ctx.trace {
        t.metrics().inc("shard.queries", 1);
    }
    let mut stripped = query.clone();
    stripped.order_by = None;
    stripped.limit = None;

    let n = base.num_rows();
    let pieces = dispatch(ctx, layout.shard_count(), |s| {
        let rows = layout.range(s, n);
        match cache {
            Some((c, epochs)) => {
                let scope = scoped_name(table, s);
                cached_query_at_epoch(c, base, &scope, &stripped, ctx, epochs[s], rows)
            }
            None => run_query_window(base, &stripped, rows, ctx).map(|(_, piece)| piece),
        }
    })?;

    let merged = merge_guarded(ctx, || {
        let mut iter = pieces.iter();
        let mut out = iter.next().cloned().expect("at least one shard");
        for piece in iter {
            out.append(piece)?;
        }
        Ok(out)
    })?;
    query.apply_order_limit(merged)
}

/// Run `job` once per shard index and collect results in shard order.
/// Shards dispatch on the shared pool under `ExecPolicy::Parallel` when
/// profitable (each subquery's inner morsels then inline serially on
/// the pool's nested-submission path); otherwise, and under the
/// `shard.dispatch` fail point or a worker panic, the fan-out runs as
/// an inline serial loop — same jobs, same order, bit-identical
/// results. Errors resolve deterministically: the lowest-indexed failing
/// shard's error wins under either path.
fn dispatch<T: Send>(
    ctx: &QueryCtx,
    n: usize,
    job: impl Fn(usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let span = ctx.trace.map(|t| (t, t.now_ns()));
    let serial = |already_degraded: bool| {
        if already_degraded {
            ctx.note("fault.shard.serial_fanout");
            record_fault(ctx, "shard.dispatch");
        }
        (0..n).map(&job).collect::<Result<Vec<T>>>()
    };
    let result = match ctx.exec {
        ExecPolicy::Serial => serial(false),
        ExecPolicy::Parallel { .. } if ctx.fire("shard.dispatch") => serial(true),
        ExecPolicy::Parallel { workers } if parallel_profitable(workers, n) => {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let slots: Vec<Mutex<Option<Result<T>>>> =
                    (0..n).map(|_| Mutex::new(None)).collect();
                global_pool().run(workers.max(1), n, &|s| {
                    *slots[s].lock() = Some(job(s));
                });
                slots
            }));
            match attempt {
                Ok(slots) => {
                    let mut out = Vec::with_capacity(n);
                    let mut failed = None;
                    for slot in slots {
                        match slot.into_inner() {
                            Some(Ok(v)) => out.push(v),
                            Some(Err(e)) => {
                                failed = Some(e);
                                break;
                            }
                            None => {
                                failed =
                                    Some(StorageError::Internal("pool skipped a shard".into()));
                                break;
                            }
                        }
                    }
                    match failed {
                        None => Ok(out),
                        Some(e) => Err(e),
                    }
                }
                // A shard job panicked; the pool stays valid. Re-run the
                // whole fan-out inline — jobs are deterministic, so the
                // retry reproduces the same results or the same error.
                Err(_) => serial(true),
            }
        }
        ExecPolicy::Parallel { .. } => serial(false),
    };
    if let Some((t, start)) = span {
        t.record(
            ROOT_SPAN,
            SpanKind::Stage("shard.fanout"),
            start,
            t.now_ns(),
        );
        t.metrics().inc("shard.fanouts", 1);
        t.metrics().inc("shard.subqueries", n as u64);
    }
    result
}

/// Run the merge step under the `shard.merge` fail point: an injected
/// (or real) panic in the first attempt is caught and the merge re-runs
/// serially from the held partials — they are borrowed, not consumed,
/// precisely so the retry is possible.
fn merge_guarded<T>(ctx: &QueryCtx, f: impl Fn() -> Result<T>) -> Result<T> {
    let span = ctx.trace.map(|t| (t, t.now_ns()));
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        if ctx.fire("shard.merge") {
            panic!("faultsim: injected shard merge failure");
        }
        f()
    }));
    let result = match attempt {
        Ok(r) => r,
        Err(_) => {
            ctx.note("fault.shard.remerge");
            record_fault(ctx, "shard.merge");
            f()
        }
    };
    if let Some((t, start)) = span {
        t.record(ROOT_SPAN, SpanKind::Stage("shard.merge"), start, t.now_ns());
        t.metrics().inc("shard.merges", 1);
    }
    result
}

/// Record a zero-width fault marker under the trace root.
fn record_fault(ctx: &QueryCtx, site: &'static str) {
    if let Some(t) = ctx.trace {
        let now = t.now_ns();
        t.record(ROOT_SPAN, SpanKind::Fault { site }, now, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ShardConfig, ShardPolicy};
    use explore_exec::run_query;
    use explore_storage::gen::{sales_table, SalesConfig};
    use explore_storage::{CmpOp, Predicate, SortOrder, Value, MORSEL_ROWS};

    fn sales(rows: usize) -> Table {
        sales_table(&SalesConfig {
            rows,
            ..SalesConfig::default()
        })
    }

    fn layout(t: &Table, count: usize) -> ShardLayout {
        ShardLayout::new(
            &ShardPolicy::On(ShardConfig {
                count,
                min_rows_per_shard: 1,
            }),
            t.num_rows(),
        )
    }

    fn assert_bitwise(a: &Table, b: &Table, context: &str) {
        assert_eq!(a.schema(), b.schema(), "{context}: schema");
        assert_eq!(a.num_rows(), b.num_rows(), "{context}: rows");
        for field in a.schema().fields() {
            let ca = a.column(field.name()).unwrap();
            let cb = b.column(field.name()).unwrap();
            for row in 0..a.num_rows() {
                match (ca.value(row).unwrap(), cb.value(row).unwrap()) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{context}: {}[{row}]",
                            field.name()
                        );
                    }
                    (x, y) => assert_eq!(x, y, "{context}: {}[{row}]", field.name()),
                }
            }
        }
    }

    #[test]
    fn sharded_scan_is_bitwise_vs_unsharded() {
        let t = sales(MORSEL_ROWS + 777);
        let q = Query::new()
            .filter(Predicate::cmp("qty", CmpOp::Ge, 5.0))
            .select(&["region", "price"])
            .order("price", SortOrder::Desc)
            .take(123);
        let ctx = QueryCtx::new(ExecPolicy::Parallel { workers: 4 });
        let baseline = run_query(&t, &q, &ctx).unwrap();
        for shards in [2, 4, 7] {
            let got = run_sharded_scan(&t, &layout(&t, shards), "sales", None, &q, &ctx).unwrap();
            assert_bitwise(&baseline, &got, &format!("{shards} shards"));
        }
    }

    #[test]
    fn errors_match_unsharded() {
        let t = sales(500);
        let ctx = QueryCtx::none();
        for q in [
            Query::new().filter(Predicate::cmp("no_such", CmpOp::Eq, 1.0)),
            Query::new().select(&["ghost"]),
            Query::new()
                .filter(Predicate::cmp("no_such", CmpOp::Eq, 1.0))
                .select(&["ghost"]),
        ] {
            let want = run_query(&t, &q, &ctx).unwrap_err();
            let got = run_sharded_scan(&t, &layout(&t, 4), "sales", None, &q, &ctx).unwrap_err();
            assert_eq!(want.to_string(), got.to_string());
        }
    }
}
