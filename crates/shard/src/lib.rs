//! Sharded tables: per-shard cracking, caching, and epochs over row
//! ranges of the one registered table.
//!
//! A [`ShardLayout`] splits a table into contiguous row-range shards —
//! boundaries only, never a copy of the rows — each owning its own
//! cracker state, result-cache epoch scope, and stats. Scans fan out
//! per shard on the shared executor pool and merge in shard order,
//! bit-identical to the unsharded engine for any shard count (see
//! [`run_sharded_scan`]); aggregates run the unsharded path over the
//! whole table. Mutations bump only the owning shards' cache epochs, so
//! a write to one region of a table no longer evicts cached results
//! over the others — epoch locality is the subsystem's payoff.
//!
//! The engine enables all of this behind [`ShardPolicy`]; the default
//! `Off` is the single-range layout, i.e. the unsharded engine.

mod fanout;
mod layout;
mod policy;

pub use fanout::run_sharded_scan;
pub use layout::{scoped_name, ShardLayout, ShardStats};
pub use policy::{ShardConfig, ShardPolicy};
