//! The shard layout of one registered table.
//!
//! A [`ShardLayout`] partitions a table's rows into contiguous ranges
//! ("shards") *without copying them*: shard `i` is rows
//! `[start_i, start_{i+1})` of whatever snapshot of the one canonical
//! table a caller holds, and the last shard ends at that snapshot's row
//! count, so appends grow it in place. The engine stores the layout
//! next to the table under one data lock, so a reader always sees a
//! consistent (table, boundaries) pair.
//!
//! Each shard owns private adaptive-index state (one cracker per
//! column, built from the shard's slice of the column) and a
//! **cache-epoch scope**: cache entries for shard `i` of table `t` live
//! under the scoped table name [`scoped_name`]`(t, i)`, so a mutation to
//! one shard bumps only that shard's epoch and the other shards'
//! entries stay live. That epoch locality is the point of sharding a
//! cache-fronted engine.
//!
//! With sharding off the layout is one range over the whole table whose
//! scope is the base table name itself — the engine's unsharded path.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use explore_cracking::ConcurrentCracker;
use explore_fault::CancelToken;
use explore_storage::Result;
use parking_lot::Mutex;

use crate::policy::ShardPolicy;

/// The cache-epoch scope name of shard `shard` of table `table`. The
/// `#` separator cannot appear in a registered table name used through
/// the engine's public API, so scopes never collide with real tables.
pub fn scoped_name(table: &str, shard: usize) -> String {
    format!("{table}#s{shard}")
}

/// Point-in-time statistics of one shard, via `ExploreDb::shard_stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index within the table.
    pub shard: usize,
    /// Global row id of the shard's first row.
    pub start: usize,
    /// Rows currently in the shard's range.
    pub rows: usize,
    /// The shard's cache epoch (its scoped name's epoch counter).
    pub epoch: u64,
    /// Columns with cracker state in this shard.
    pub crackers: usize,
    /// Total cracker pieces across this shard's columns.
    pub pieces: usize,
}

/// Row-range boundaries plus per-shard adaptive indexes for one table.
///
/// **Index freshness.** Crackers are built from a table snapshot outside
/// any lock. Writers call [`ShardLayout::invalidate`] while holding the
/// table's data write lock; it bumps the layout's generation and drops
/// the written shards' crackers. Readers capture
/// [`ShardLayout::generation`] under the data read lock together with
/// their snapshot, and a cracker is installed only if the generation is
/// unchanged at install time (checked under the shard's map lock), so an
/// index built from a superseded snapshot serves its one call and is
/// never installed.
#[derive(Debug)]
pub struct ShardLayout {
    /// Whether the policy was on when the layout was built. An unsharded
    /// layout has one shard scoped under the base table name.
    sharded: bool,
    /// Global row id of each shard's first row; `starts[0] == 0`.
    starts: Vec<usize>,
    /// Per-shard crackers, keyed by column.
    crackers: Vec<Mutex<HashMap<String, Arc<ConcurrentCracker>>>>,
    generation: AtomicU64,
}

impl ShardLayout {
    /// The layout `policy` gives a table of `n_rows` rows.
    pub fn new(policy: &ShardPolicy, n_rows: usize) -> ShardLayout {
        let starts = match policy.config() {
            Some(config) => config.starts(n_rows),
            None => vec![0],
        };
        ShardLayout {
            sharded: policy.is_on(),
            crackers: starts.iter().map(|_| Mutex::default()).collect(),
            starts,
            generation: AtomicU64::new(0),
        }
    }

    /// Was the layout built with sharding on?
    pub fn sharded(&self) -> bool {
        self.sharded
    }

    /// Number of shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.starts.len()
    }

    /// Shard `shard`'s rows in a snapshot of `n_rows` rows. Clamped, so
    /// the ranges partition `[0, n_rows)` for any snapshot.
    pub fn range(&self, shard: usize, n_rows: usize) -> Range<usize> {
        let end = self.starts.get(shard + 1).copied().unwrap_or(n_rows);
        self.starts[shard].min(n_rows)..end.min(n_rows)
    }

    /// The shards owning the global row ids in `sel` (ascending), in
    /// ascending order without repeats.
    pub fn owners(&self, sel: &[u32]) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for &row in sel {
            let owner = self.starts.partition_point(|&s| s <= row as usize) - 1;
            if out.last() != Some(&owner) {
                out.push(owner);
            }
        }
        out
    }

    /// The index generation; capture it with the snapshot a cracker is
    /// built from (see the type docs).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Record a data change to `shards`: bump the generation and drop
    /// those shards' crackers. Call under the table's data write lock,
    /// after the change.
    pub fn invalidate(&self, shards: &[usize]) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        for &s in shards {
            self.crackers[s].lock().clear();
        }
    }

    /// Range query `low <= v < high` over `values` (the Int64 `column` of
    /// a snapshot taken at generation `built_at`) through the per-shard
    /// adaptive indexes. Each shard cracks its own slice independently,
    /// and matching ids come back as global row ids concatenated in
    /// shard order — cracked (physical) order within each shard.
    ///
    /// Also returns the shards whose piece count changed, whether the
    /// call succeeded or was cancelled between crack steps; a cancelled
    /// call leaves every index well-formed and keeps its partial work.
    pub fn cracked_range(
        &self,
        column: &str,
        values: &[i64],
        built_at: u64,
        low: i64,
        high: i64,
        cancel: Option<&CancelToken>,
    ) -> (Result<Vec<u32>>, Vec<usize>) {
        let mut out = Vec::new();
        let mut changed = Vec::new();
        for (shard, map) in self.crackers.iter().enumerate() {
            let rows = self.range(shard, values.len());
            let existing = map.lock().get(column).map(Arc::clone);
            let cracker = existing.unwrap_or_else(|| {
                let built = Arc::new(ConcurrentCracker::new(values[rows.clone()].to_vec()));
                let mut map = map.lock();
                if self.generation() != built_at {
                    return built;
                }
                Arc::clone(map.entry(column.to_owned()).or_insert(built))
            });
            let before = cracker.num_pieces();
            let ids = cracker.query_ids(low, high, cancel);
            if cracker.num_pieces() != before {
                changed.push(shard);
            }
            match ids {
                Ok(ids) if shard == 0 => out = ids,
                Ok(ids) => out.extend(ids.iter().map(|&i| rows.start as u32 + i)),
                Err(e) => return (Err(e), changed),
            }
        }
        (Ok(out), changed)
    }

    /// Total cracker pieces on `column` across shards, or `None` if no
    /// shard has cracked it yet.
    pub fn index_pieces(&self, column: &str) -> Option<usize> {
        let counts: Vec<usize> = self
            .crackers
            .iter()
            .filter_map(|m| m.lock().get(column).map(|c| c.num_pieces()))
            .collect();
        (!counts.is_empty()).then(|| counts.iter().sum())
    }

    /// Per-shard statistics over a snapshot of `n_rows` rows;
    /// `epoch_of(i)` supplies shard `i`'s cache epoch.
    pub fn stats(&self, n_rows: usize, epoch_of: impl Fn(usize) -> u64) -> Vec<ShardStats> {
        self.crackers
            .iter()
            .enumerate()
            .map(|(i, map)| {
                let map = map.lock();
                let rows = self.range(i, n_rows);
                ShardStats {
                    shard: i,
                    start: rows.start,
                    rows: rows.len(),
                    epoch: epoch_of(i),
                    crackers: map.len(),
                    pieces: map.values().map(|c| c.num_pieces()).sum(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ShardConfig;
    use explore_storage::gen::{sales_table, SalesConfig};
    use explore_storage::{Predicate, Table};

    fn sales(rows: usize) -> Table {
        sales_table(&SalesConfig {
            rows,
            ..SalesConfig::default()
        })
    }

    fn layout(count: usize, n_rows: usize) -> ShardLayout {
        ShardLayout::new(
            &ShardPolicy::On(ShardConfig {
                count,
                min_rows_per_shard: 1,
            }),
            n_rows,
        )
    }

    fn qty(t: &Table) -> Vec<i64> {
        t.column("qty").unwrap().as_i64().unwrap().to_vec()
    }

    #[test]
    fn split_is_contiguous_and_balanced() {
        let l = layout(4, 1003);
        assert_eq!(l.shard_count(), 4);
        let mut covered = 0;
        let mut sizes = Vec::new();
        for s in 0..l.shard_count() {
            let range = l.range(s, 1003);
            assert_eq!(range.start, covered);
            covered = range.end;
            sizes.push(range.len());
        }
        assert_eq!(covered, 1003);
        // Balance: no two shards differ by more than one row.
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(hi - lo <= 1, "{sizes:?}");
        // The last shard ends at whatever snapshot it is applied to.
        assert_eq!(l.range(3, 1010).end, 1010);
        assert_eq!(l.range(3, 500), 500..500, "clamped to a shorter snapshot");
    }

    #[test]
    fn unsharded_layout_is_one_range() {
        let l = ShardLayout::new(&ShardPolicy::Off, 1000);
        assert!(!l.sharded());
        assert_eq!(l.shard_count(), 1);
        assert_eq!(l.range(0, 1000), 0..1000);
        assert_eq!(l.range(0, 1200), 0..1200, "appends grow the one range");
    }

    #[test]
    fn owners_route_rows_to_their_shard() {
        let l = layout(4, 100);
        assert_eq!(l.owners(&[]), Vec::<usize>::new());
        assert_eq!(l.owners(&[0, 1, 24, 25, 49]), vec![0, 1]);
        assert_eq!(l.owners(&[75, 99, 100, 150]), vec![3], "appended rows");
    }

    #[test]
    fn cracked_range_matches_scan_per_shard() {
        let t = sales(5000);
        let values = qty(&t);
        let l = layout(4, t.num_rows());
        let (ids, reorganized) = l.cracked_range("qty", &values, 0, 3, 7, None);
        assert_eq!(reorganized, vec![0, 1, 2, 3], "first crack reorganizes");
        let mut got = ids.unwrap();
        got.sort_unstable();
        let want = Predicate::range("qty", 3i64, 7i64).evaluate(&t).unwrap();
        assert_eq!(got, want);
        // Repeat adds no pieces anywhere.
        let (_, again) = l.cracked_range("qty", &values, 0, 3, 7, None);
        assert!(again.is_empty());
        assert!(l.index_pieces("qty").unwrap() >= 4);
        assert!(l.index_pieces("price").is_none());
    }

    #[test]
    fn invalidate_drops_only_the_written_shards_and_stale_builds() {
        let t = sales(1000);
        let values = qty(&t);
        let l = layout(4, t.num_rows());
        l.cracked_range("qty", &values, 0, 2, 5, None).0.unwrap();
        l.invalidate(&[1]);
        let cracked: Vec<usize> = l.stats(1000, |_| 0).iter().map(|s| s.crackers).collect();
        assert_eq!(cracked, vec![1, 0, 1, 1]);
        // A build from a snapshot of the superseded generation answers
        // but is not installed.
        let (ids, _) = l.cracked_range("qty", &values, 0, 2, 5, None);
        assert!(!ids.unwrap().is_empty());
        assert_eq!(l.stats(1000, |_| 0)[1].crackers, 0);
        l.cracked_range("qty", &values, l.generation(), 2, 5, None)
            .0
            .unwrap();
        assert_eq!(l.stats(1000, |_| 0)[1].crackers, 1);
    }

    #[test]
    fn stats_reflect_layout() {
        let t = sales(1000);
        let l = layout(4, t.num_rows());
        l.cracked_range("qty", &qty(&t), 0, 2, 5, None).0.unwrap();
        let stats = l.stats(1000, |i| i as u64 * 10);
        assert_eq!(stats.len(), 4);
        assert_eq!(stats[0].start, 0);
        assert_eq!(stats[1].epoch, 10);
        assert!(stats.iter().all(|s| s.rows == 250 && s.crackers == 1));
        assert!(stats.iter().all(|s| s.pieces >= 1));
    }
}
