//! Engine-level sharding policy, following the house `CachePolicy` /
//! `ObsPolicy` shape: `Off` (the default) is the zero-cost single-table
//! path, `On(config)` splits every registered table into independent
//! row-range shards.

use explore_exec::morsel_rows_for;
use explore_storage::MORSEL_ROWS;

/// How a registered table is partitioned into shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfig {
    /// Target shard count. The effective count is clamped by
    /// [`ShardConfig::min_rows_per_shard`] and is always at least 1.
    pub count: usize,
    /// A table never splits into shards smaller than this many rows —
    /// tiny tables stay one shard, where fan-out overhead would dwarf
    /// the work. The default is one morsel: sharding below the inner
    /// work unit cannot help.
    pub min_rows_per_shard: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            count: 4,
            min_rows_per_shard: MORSEL_ROWS,
        }
    }
}

impl ShardConfig {
    /// The effective shard count for a table of `n_rows` rows: the
    /// configured count, clamped so no shard would hold fewer than
    /// `min_rows_per_shard` rows, and never less than one.
    pub fn effective_count(&self, n_rows: usize) -> usize {
        self.count
            .min(n_rows / self.min_rows_per_shard.max(1))
            .max(1)
    }

    /// The first global row of each shard of a table of `n_rows` rows
    /// (`effective_count` entries, the first 0). The split is contiguous
    /// and near-balanced: shard `i` of `k` ends at `(i+1)*n/k`, **snapped
    /// to the executor's global morsel grid** when every shard spans at
    /// least one morsel, so no morsel of the table straddles two shards.
    pub(crate) fn starts(&self, n_rows: usize) -> Vec<usize> {
        let k = self.effective_count(n_rows);
        let rows_per = morsel_rows_for(n_rows);
        (0..k)
            .map(|i| {
                if n_rows / k >= rows_per {
                    // Boundaries spaced ≥ one morsel apart stay strictly
                    // increasing after rounding to the grid.
                    ((i * n_rows + k * rows_per / 2) / (k * rows_per)) * rows_per
                } else {
                    i * n_rows / k
                }
            })
            .collect()
    }
}

/// Whether `ExploreDb` splits registered tables into shards.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ShardPolicy {
    /// No sharding: queries run against the single registered table.
    /// Bit-identical to (and indistinguishable from) the pre-shard
    /// engine.
    #[default]
    Off,
    /// Tables split into contiguous row-range shards of the one table,
    /// each with its own cracker state, cache epoch, and stats.
    On(ShardConfig),
}

impl ShardPolicy {
    /// Enabled with default configuration.
    pub fn on() -> Self {
        ShardPolicy::On(ShardConfig::default())
    }

    /// Is sharding enabled?
    pub fn is_on(&self) -> bool {
        matches!(self, ShardPolicy::On(_))
    }

    /// The configuration when enabled.
    pub fn config(&self) -> Option<&ShardConfig> {
        match self {
            ShardPolicy::Off => None,
            ShardPolicy::On(c) => Some(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_count_clamps() {
        let c = ShardConfig {
            count: 4,
            min_rows_per_shard: 100,
        };
        assert_eq!(c.effective_count(0), 1);
        assert_eq!(c.effective_count(99), 1);
        assert_eq!(c.effective_count(250), 2);
        assert_eq!(c.effective_count(400), 4);
        assert_eq!(c.effective_count(1_000_000), 4);
        // A zero min never divides by zero.
        let loose = ShardConfig {
            count: 7,
            min_rows_per_shard: 0,
        };
        assert_eq!(loose.effective_count(3), 3);
        assert_eq!(loose.effective_count(100), 7);
    }

    #[test]
    fn starts_snap_to_the_morsel_grid() {
        let c = |count| ShardConfig {
            count,
            min_rows_per_shard: 1,
        };
        // Every shard spans at least one morsel: interior starts are
        // whole morsels (the nearest grid point to i*n/k).
        let n = 2 * MORSEL_ROWS + 4321;
        assert_eq!(c(2).starts(n), vec![0, MORSEL_ROWS]);
        let four = c(4).starts(4 * MORSEL_ROWS + 7);
        assert_eq!(four, vec![0, MORSEL_ROWS, 2 * MORSEL_ROWS, 3 * MORSEL_ROWS]);
        // Coarse morsels on big tables: starts follow the adaptive size.
        let big = 200 * MORSEL_ROWS;
        let rows_per = morsel_rows_for(big);
        assert!(rows_per > MORSEL_ROWS);
        let starts = c(3).starts(big);
        assert!(starts.iter().all(|s| s % rows_per == 0), "{starts:?}");
        assert!(starts.windows(2).all(|w| w[0] < w[1]), "{starts:?}");
        // Sub-morsel shards keep the plain balanced split.
        assert_eq!(c(4).starts(1003), vec![0, 250, 501, 752]);
        assert_eq!(c(3).starts(2 * MORSEL_ROWS).len(), 3);
        assert_eq!(
            c(3).starts(2 * MORSEL_ROWS)[1],
            2 * MORSEL_ROWS / 3,
            "shards under one morsel are not snapped"
        );
        // The effective_count clamp: a table too small for the count
        // (by the default one-morsel minimum) stays one shard.
        let default = ShardConfig::default();
        assert_eq!(default.starts(MORSEL_ROWS - 1), vec![0]);
        assert_eq!(default.starts(0), vec![0]);
        assert_eq!(default.starts(2 * MORSEL_ROWS), vec![0, MORSEL_ROWS]);
    }

    #[test]
    fn policy_shape_matches_house_style() {
        assert!(!ShardPolicy::default().is_on());
        assert!(ShardPolicy::on().is_on());
        assert_eq!(ShardPolicy::on().config(), Some(&ShardConfig::default()));
        assert_eq!(ShardPolicy::Off.config(), None);
    }
}
